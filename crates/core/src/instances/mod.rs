//! The three LP-type problem instances of Section 4.

mod kernel;
pub mod lp;
pub mod meb;
pub mod svm;

pub use lp::LpProblem;
pub use meb::MebProblem;
pub use svm::{SvmPoint, SvmProblem};
