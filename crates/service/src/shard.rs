//! Consistent-hash sharding across independent [`Service`] instances.
//!
//! A [`ShardRouter`] owns `N` fully independent services — each with its
//! own worker pool, bounded admission queue, single-flight batch table,
//! and LRU result cache — and routes every request to exactly one of
//! them by consistent-hashing its 128-bit
//! [`SolveRequest::fingerprint`]. Because the fingerprint is the
//! batching/caching key, routing on it preserves both mechanisms
//! per-shard: every repeat of a hot key lands on the same shard, where
//! it coalesces into the in-flight batch or hits that shard's cache.
//!
//! # Shard-determinism contract
//!
//! [`HashRing::route`] is a pure function of `(fingerprint,
//! shard_count)`: the ring is built from FNV-1a points derived only from
//! shard indices, and lookup walks the sorted point list. No clock, no
//! RNG, no per-process state. Consequently:
//!
//! * the shard assignment of a request stream is reproducible across
//!   processes and machines (the wire protocol of `llp_serve` relies on
//!   this — see DESIGN.md §9);
//! * [`ShardRouter::run_replay`] inherits `Service::run_replay`'s
//!   worker-count determinism shard by shard: the stream is partitioned
//!   in order, each shard admits its sub-stream atomically, and the
//!   per-shard classification counters (cache/batch/shed) depend only on
//!   the stream content — bit-identical across repeated replays and any
//!   worker count;
//! * growing the ring from `N` to `N+1` shards remaps only the keys
//!   whose nearest ring point changes (≈ `1/(N+1)` of the key space),
//!   which is the property that makes warm caches survive resizes.

use crate::request::{SolveRequest, SolveResponse};
use crate::service::{Admission, Service, ServiceConfig, SubmitError};
use crate::stats::ServiceStats;

/// A consistent-hash ring over shard indices.
///
/// Each shard contributes [`HashRing::REPLICAS`] virtual points at
/// `fnv1a64(shard_index_le16 ‖ replica_le16)`; a key routes to the shard
/// owning the first point at or clockwise-after `fnv1a64(key_le16bytes)`.
/// Ties on identical point values (astronomically unlikely but cheap to
/// pin down) resolve to the smaller shard index via the sort order.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(point, shard)` sorted ascending by `(point, shard)`.
    points: Vec<(u64, u16)>,
    shards: usize,
}

impl HashRing {
    /// Virtual points per shard. More replicas smooth the key-space split
    /// across shards; 64 keeps the worst shard within a few percent of
    /// fair share while the whole ring stays a few KiB.
    pub const REPLICAS: u16 = 64;

    /// Builds the ring for `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards == 0` or `shards > u16::MAX as usize`.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a ring needs at least one shard");
        assert!(shards <= u16::MAX as usize, "shard index must fit u16");
        let mut points = Vec::with_capacity(shards * Self::REPLICAS as usize);
        for shard in 0..shards as u16 {
            for replica in 0..Self::REPLICAS {
                let mut bytes = [0u8; 4];
                bytes[..2].copy_from_slice(&shard.to_le_bytes());
                bytes[2..].copy_from_slice(&replica.to_le_bytes());
                points.push((fnv1a64(&bytes), shard));
            }
        }
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// The shard count this ring was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Routes a request fingerprint to a shard index — a pure function
    /// of `(fingerprint, shard_count)`; see the module docs.
    pub fn route(&self, fingerprint: u128) -> usize {
        let pos = fnv1a64(&fingerprint.to_le_bytes());
        // First point clockwise at or after `pos`, wrapping to the start.
        let idx = self.points.partition_point(|&(p, _)| p < pos);
        let (_, shard) = self.points[if idx == self.points.len() { 0 } else { idx }];
        shard as usize
    }
}

/// 64-bit FNV-1a (offset basis `0xcbf29ce484222325`, prime
/// `0x100000001b3`) — the ring's one hash primitive, kept standard so a
/// second implementation can interoperate (DESIGN.md §9 specifies it
/// byte for byte).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `N` independent [`Service`] shards behind one consistent-hash router.
pub struct ShardRouter {
    shards: Vec<Service>,
    ring: HashRing,
}

impl ShardRouter {
    /// Spawns `shards` services, each configured with `cfg` (so the
    /// fleet runs `shards × cfg.workers` worker threads in total).
    ///
    /// # Panics
    /// Panics if `shards == 0` (via [`HashRing::new`]).
    pub fn new(shards: usize, cfg: &ServiceConfig) -> Self {
        let ring = HashRing::new(shards);
        ShardRouter {
            shards: (0..shards).map(|_| Service::new(cfg.clone())).collect(),
            ring,
        }
    }

    /// Admits one request live on its home shard. Returns the shard
    /// index alongside the admission so callers can meter per shard.
    pub fn submit(&self, req: SolveRequest) -> (usize, Result<Admission, SubmitError>) {
        let key = req.fingerprint();
        let shard = self.ring.route(key);
        (shard, self.shards[shard].submit(req))
    }

    /// Replays a whole stream deterministically: the stream is split by
    /// home shard (preserving order within each shard), every shard
    /// admits its sub-stream atomically via [`Service::run_replay`], and
    /// the responses are reassembled in the original request order. The
    /// per-shard classification counters depend only on the stream
    /// content and each shard's cache state at entry — bit-identical
    /// across repeated replays at any worker count.
    pub fn run_replay(&self, reqs: Vec<SolveRequest>) -> Vec<Result<SolveResponse, SubmitError>> {
        let mut per_shard: Vec<Vec<SolveRequest>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut homes = Vec::with_capacity(reqs.len());
        for req in reqs {
            let shard = self.ring.route(req.fingerprint());
            homes.push((shard, per_shard[shard].len()));
            per_shard[shard].push(req);
        }
        let mut per_shard_responses: Vec<Vec<Option<Result<SolveResponse, SubmitError>>>> =
            Vec::with_capacity(self.shards.len());
        for (shard, stream) in per_shard.into_iter().enumerate() {
            let responses = self.shards[shard].run_replay(stream);
            per_shard_responses.push(responses.into_iter().map(Some).collect());
        }
        homes
            .into_iter()
            .map(|(shard, idx)| {
                per_shard_responses[shard][idx]
                    .take()
                    .expect("each (shard, idx) slot is consumed exactly once")
            })
            .collect()
    }

    /// Counter snapshots, one per shard in shard order.
    pub fn stats(&self) -> Vec<ServiceStats> {
        self.shards.iter().map(Service::stats).collect()
    }

    /// End-to-end latency samples, one vector per shard in shard order.
    pub fn latency_samples(&self) -> Vec<Vec<f64>> {
        self.shards.iter().map(Service::latency_samples).collect()
    }

    /// Queue-wait samples, one vector per shard in shard order.
    pub fn queue_wait_samples(&self) -> Vec<Vec<f64>> {
        self.shards
            .iter()
            .map(Service::queue_wait_samples)
            .collect()
    }

    /// Resets every shard's counters, latency samples, and result cache
    /// (see [`Service::reset`]). Call only at quiescence: results still
    /// in flight complete against the fresh counters.
    pub fn reset(&self) {
        for s in &self.shards {
            s.reset();
        }
    }

    /// Graceful shutdown: every shard stops admitting (subsequent
    /// submits return [`SubmitError::Closed`]), drains its queue, and
    /// completes all in-flight tickets. Workers are joined when the
    /// router drops.
    pub fn close(&self) {
        for s in &self.shards {
            s.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Model;
    use llp_workloads::scenario::RunBudget;

    #[test]
    fn routing_is_deterministic_and_total() {
        let ring = HashRing::new(4);
        for fp in [0u128, 1, u128::MAX, 0xdead_beef, 1 << 127] {
            let a = ring.route(fp);
            assert_eq!(a, ring.route(fp), "route must be a pure function");
            assert!(a < 4);
        }
    }

    #[test]
    fn single_shard_ring_routes_everything_to_zero() {
        let ring = HashRing::new(1);
        for fp in 0..256u128 {
            assert_eq!(ring.route(fp * 0x9e37_79b9), 0);
        }
    }

    #[test]
    fn ring_spreads_keys_roughly_evenly() {
        let ring = HashRing::new(4);
        let mut counts = [0usize; 4];
        for i in 0..4096u128 {
            counts[ring.route(i.wrapping_mul(0x2545_f491_4f6c_dd1d))] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                c > 4096 / 16,
                "shard {shard} got only {c}/4096 keys: {counts:?}"
            );
        }
    }

    #[test]
    fn growing_the_ring_moves_only_a_fraction_of_keys() {
        let four = HashRing::new(4);
        let five = HashRing::new(5);
        let keys = 4096u128;
        let moved = (0..keys)
            .filter(|&i| {
                let fp = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                four.route(fp) != five.route(fp)
            })
            .count();
        // Consistent hashing moves ≈ 1/5 of keys; assert well under a
        // naive-mod rehash (which moves ≈ 4/5).
        assert!(
            moved < keys as usize / 2,
            "{moved}/{keys} keys moved — ring is not consistent"
        );
        assert!(moved > 0, "a larger ring must claim some keys");
    }

    #[test]
    fn router_replay_matches_single_service_bodies() {
        let cfg = ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            cache_capacity: 64,
        };
        let stream: Vec<SolveRequest> = (0..6)
            .map(|i| SolveRequest::scenario("lp_uniform", Model::Ram, RunBudget::Quick, i))
            .collect();
        let router = ShardRouter::new(3, &cfg);
        let single = Service::new(cfg);
        let routed = router.run_replay(stream.clone());
        let direct = single.run_replay(stream);
        assert_eq!(routed.len(), direct.len());
        for (r, d) in routed.iter().zip(&direct) {
            let r = r.as_ref().expect("admitted").body.as_ref().expect("solved");
            let d = d.as_ref().expect("admitted").body.as_ref().expect("solved");
            assert_eq!(r, d, "sharding must not change response bodies");
        }
        let total: u64 = router.stats().iter().map(|s| s.submitted).sum();
        assert_eq!(total, 6, "every request reaches exactly one shard");
    }

    #[test]
    fn reset_clears_counters_and_cache() {
        let router = ShardRouter::new(2, &ServiceConfig::default());
        let req = SolveRequest::scenario("lp_uniform", Model::Ram, RunBudget::Quick, 9);
        let (_, first) = router.submit(req.clone());
        let _ = first.unwrap().wait();
        router.reset();
        assert!(router.stats().iter().all(|s| *s == ServiceStats::default()));
        // After reset the cache is cold again: the same key solves fresh.
        let (_, again) = router.submit(req);
        let resp = again.unwrap().wait();
        assert_eq!(resp.served_from, crate::request::ServedFrom::Solve);
    }

    #[test]
    fn closed_router_rejects_new_requests() {
        let router = ShardRouter::new(2, &ServiceConfig::default());
        router.close();
        let (_, admission) = router.submit(SolveRequest::scenario(
            "lp_uniform",
            Model::Ram,
            RunBudget::Quick,
            1,
        ));
        assert!(matches!(admission, Err(SubmitError::Closed)));
    }
}
