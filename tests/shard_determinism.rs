//! Integration: sharded replay is deterministic. At shard counts 1, 2,
//! and 4, repeated replays of the same request stream produce
//! bit-identical per-shard classification counters and response
//! bodies, per-shard conservation holds, and the shard count never
//! changes what a request's body is — the shard-determinism contract
//! of DESIGN.md §9, tested with no sockets involved (the wire-level
//! twin lives in `crates/serve/tests/net_e2e.rs`).

use llp_bench::serve::mix_stream;
use llp_bench::RunBudget;
use llp_service::{ResponseBody, ServiceConfig, ServiceStats, ShardRouter, SolveRequest};

fn quick_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_capacity: 256,
        cache_capacity: 64,
    }
}

/// One fresh-router replay: per-shard counters plus the ok-bodies in
/// request order (every mix-stream request must solve).
fn replay(
    stream: &[SolveRequest],
    shards: usize,
    workers: usize,
) -> (Vec<ServiceStats>, Vec<ResponseBody>) {
    let router = ShardRouter::new(shards, &quick_config(workers));
    let bodies = router
        .run_replay(stream.to_vec())
        .into_iter()
        .map(|r| {
            r.expect("replay admits everything")
                .body
                .expect("registry scenarios must solve")
        })
        .collect();
    (router.stats(), bodies)
}

#[test]
fn replay_counters_are_bit_identical_across_repeats_and_worker_counts() {
    let stream = mix_stream("hot_key", RunBudget::Quick, 60);
    for shards in [1usize, 2, 4] {
        let (stats_a, bodies_a) = replay(&stream, shards, 2);
        // Same stream, fresh router: counters and bodies must repeat
        // bit for bit.
        let (stats_b, bodies_b) = replay(&stream, shards, 2);
        assert_eq!(
            stats_a, stats_b,
            "{shards}-shard replay counters must be reproducible"
        );
        assert_eq!(bodies_a, bodies_b, "{shards}-shard bodies must repeat");
        // And the worker count inside each shard must not leak into
        // the classification counters either.
        let (stats_c, bodies_c) = replay(&stream, shards, 1);
        assert_eq!(
            stats_a, stats_c,
            "{shards}-shard counters must not depend on worker count"
        );
        assert_eq!(bodies_a, bodies_c);
    }
}

#[test]
fn per_shard_conservation_holds_at_every_shard_count() {
    let stream = mix_stream("heavy_tail", RunBudget::Quick, 60);
    for shards in [1usize, 2, 4] {
        let (stats, bodies) = replay(&stream, shards, 2);
        assert_eq!(stats.len(), shards);
        assert_eq!(bodies.len(), stream.len());
        for (shard, s) in stats.iter().enumerate() {
            assert_eq!(
                s.completed + s.shed + s.rejected,
                s.submitted,
                "shard {shard}/{shards}: admission conservation"
            );
            assert_eq!(
                s.cache_hits + s.solves + s.batched,
                s.completed,
                "shard {shard}/{shards}: classification conservation"
            );
        }
        let fleet_submitted: u64 = stats.iter().map(|s| s.submitted).sum();
        assert_eq!(
            fleet_submitted,
            stream.len() as u64,
            "every request reaches exactly one shard"
        );
    }
}

#[test]
fn shard_count_never_changes_response_bodies() {
    let stream = mix_stream("uniform", RunBudget::Quick, 40);
    let (_, reference) = replay(&stream, 1, 2);
    for shards in [2usize, 4] {
        let (_, bodies) = replay(&stream, shards, 2);
        assert_eq!(
            reference, bodies,
            "bodies at {shards} shards must match the single-shard replay"
        );
    }
}
