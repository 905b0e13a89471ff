//! End-to-end and per-layer benchmark of the tvnep stack.
//!
//! Two workloads drive the public entry points of every layer from the
//! outside: `tvnep_workloads::generate`, `tvnep_core::build_model`,
//! `tvnep_mip::solve_with`, `tvnep_lp::solve`,
//! `tvnep_serve::EpochRunner::{new, submit, run_epoch}` and
//! `tvnep_model::verify_with_tol`. Every run checks every output and counts
//! the operations it attempted and the ones that failed. See `README.md`
//! for why each workload exists and which layer it loads.

pub mod csigma;
pub mod host;
pub mod report;
pub mod stream;
