//! `llp_serve` — the network-facing sharded solve service.
//!
//! `llp_service` batches, caches, and meters solves in-process; this
//! crate puts that machinery behind a real TCP socket. A [`NetServer`]
//! fronts N independent [`llp_service::Service`] shards through an
//! [`llp_service::ShardRouter`]: every request is routed by
//! consistent-hashing its 128-bit fingerprint, so all requests for one
//! fingerprint land on one shard and single-flight batching and the
//! per-shard LRU cache keep working exactly as they do in-process.
//!
//! The wire format is a length-prefixed binary codec specified
//! byte-for-byte in DESIGN.md §9 and implemented in [`codec`]:
//! malformed, oversized, or version-skewed frames are answered with a
//! typed [`codec::Frame::Error`] — never a hang — and connections are
//! read with short timeouts so shutdown is prompt.
//!
//! Entry points:
//!
//! * [`NetServer`] — bind an address, serve until shutdown.
//! * [`NetClient`] — a blocking one-connection client.
//! * [`codec`] — the frame codec, usable without any socket.
//! * [`default_shards`] — the `--shards` flag, or max(2, cores)
//!   without it.
//!
//! The `llp_serve` binary (`src/main.rs`) wraps [`NetServer`] with
//! flags; the load harness in `llp_bench::serve` (`experiments serve`)
//! drives either a loopback server of its own or an external one.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod codec;
pub mod server;

pub use client::{ClientError, NetClient};
pub use codec::{ErrorCode, Frame, ReadError, StatsReply, StatsRow, FLEET_SHARD};
pub use server::{collect_stats, NetServer, ServeConfig};

/// Resolves the shard count: an explicit `--shards` flag (at least 1),
/// else `max(2, available cores)` — two shards minimum so the default
/// deployment actually exercises the router (README "Network serving").
pub fn default_shards(flag: Option<usize>) -> usize {
    if let Some(n) = flag {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

#[cfg(test)]
mod tests {
    use super::default_shards;

    #[test]
    fn explicit_flag_wins_and_is_clamped_to_one() {
        assert_eq!(default_shards(Some(4)), 4);
        assert_eq!(default_shards(Some(0)), 1, "zero shards is meaningless");
    }

    #[test]
    fn fallback_is_at_least_two() {
        // Whatever the core count, the no-flag default must exercise
        // the router.
        assert!(default_shards(None) >= 2);
    }
}
