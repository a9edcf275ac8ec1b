//! Simulators for the three big data models of the paper, built around
//! explicit resource meters.
//!
//! The paper's theorems bound *passes and space* (streaming), *rounds and
//! total communication* (coordinator), and *rounds and per-machine load*
//! (MPC). These simulators execute algorithms in-process while metering
//! exactly those quantities:
//!
//! * [`cost::BitCost`] — how many bits a value occupies on the wire /
//!   in memory; the meters charge through this trait.
//! * [`streaming::StreamSession`] — a re-scannable sequence with pass
//!   counting and a peak-space meter.
//! * [`coordinator::CoordMeter`] — `k` sites plus a coordinator,
//!   per-round and per-direction bit metering (the model of Section 3.3).
//! * [`mpc::MpcMeter`] — `k` machines with per-machine per-round load
//!   metering (the model of Section 3.4).
//!
//! The two distributed meters hold no data: a site's or machine's
//! partition is local state the algorithms in `llp_bigdata` keep as a
//! row range of the caller's input.

#![forbid(unsafe_code)]

pub mod coordinator;
pub mod cost;
pub mod mpc;
pub mod streaming;
