//! # lodim-lp — Distributed and Streaming Linear Programming in Low Dimensions
//!
//! A from-scratch Rust reproduction of Assadi, Karpov, and Zhang,
//! *"Distributed and Streaming Linear Programming in Low Dimensions"*
//! (PODS 2019, arXiv:1903.05617).
//!
//! This facade crate re-exports the workspace crates under one roof; see
//! `README.md` for a tour and `DESIGN.md` for the system inventory.
//!
//! * [`core`] — the LP-type problem framework, the problem instances
//!   (linear programming, hard-margin SVM, minimum enclosing ball), and
//!   Algorithm 1 (the ε-net Clarkson meta-algorithm) in RAM.
//! * [`bigdata`] — Algorithm 1 in the multi-pass streaming, coordinator,
//!   and MPC models (Theorems 1–3).
//! * [`models`] — the model simulators with pass/space/communication/load
//!   accounting.
//! * [`solver`] — the low-dimensional basis solvers (Seidel LP,
//!   lexicographic refinement, simplex, active-set SVM QP, Welzl MEB,
//!   exact rational 2-D LP).
//! * [`sampling`] — ε-net sizes and weighted-sampling machinery.
//! * [`par`] — deterministic scoped-thread parallelism (`LLP_THREADS`)
//!   used by the violation-scan and weight-recomputation hot paths.
//! * [`service`] — the in-process concurrent solve service: bounded
//!   admission queue, worker pool, request batching, LRU result cache,
//!   and per-request latency metering (DESIGN.md §7).
//! * [`serve`] — the network layer: a TCP server speaking the
//!   length-prefixed binary wire protocol of DESIGN.md §9 in front of
//!   consistent-hash service shards, plus the matching client.
//! * [`store`] — the chunked binary constraint file format (header with
//!   generator provenance, checksummed columnar chunk frames) backing
//!   the out-of-core runs (DESIGN.md §10).
//! * [`lowerbound`] — Section 5: the two-curve intersection problem, its
//!   hard distribution, protocols, and the reduction to 2-D LP.
//! * [`baselines`] — Chan–Chen, classic Clarkson, and naive baselines.
//! * [`workloads`] — synthetic workload generators used by benches and
//!   examples: one row emitter per family, which also streams scenarios
//!   into store files.

#![forbid(unsafe_code)]

pub use llp_baselines as baselines;
pub use llp_bigdata as bigdata;
pub use llp_core as core;
pub use llp_geom as geom;
pub use llp_lowerbound as lowerbound;
pub use llp_models as models;
pub use llp_num as num;
pub use llp_par as par;
pub use llp_sampling as sampling;
pub use llp_serve as serve;
pub use llp_service as service;
pub use llp_solver as solver;
pub use llp_store as store;
pub use llp_workloads as workloads;
