//! Simulators for the three big data models of the paper, built around
//! explicit resource meters.
//!
//! The paper's theorems bound *passes and space* (streaming), *rounds and
//! total communication* (coordinator), and *rounds and per-machine load*
//! (MPC). These simulators execute algorithms in-process while metering
//! exactly those quantities:
//!
//! * [`streaming::StreamSession`] — a re-scannable sequence with pass
//!   counting and a peak-space meter.
//! * [`coordinator::CoordMeter`] — `k` sites plus a coordinator,
//!   per-round and per-direction bit metering (the model of Section 3.3).
//! * [`mpc::MpcMeter`] — `k` machines with per-machine per-round load
//!   metering (the model of Section 3.4).
//!
//! Every meter takes sizes in bits, not values: the algorithms in
//! `llp_bigdata` know what each message or stored item is and charge its
//! size (a constraint is `bit(S)` = 64 bits per coefficient, see
//! `LpTypeProblem::constraint_bits`). The two distributed meters hold no
//! data: a site's or machine's partition is local state the algorithms
//! keep as a row range of the caller's input.

#![forbid(unsafe_code)]

pub mod coordinator;
pub mod mpc;
pub mod streaming;
