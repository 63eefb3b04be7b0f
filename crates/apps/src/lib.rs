//! # lcm-apps — the paper's benchmarks and Section 7 workloads
//!
//! The four C\*\* programs of the evaluation (§6.3) plus the Section 7
//! applications, each written once against the `lcm-cstar` runtime and
//! runnable on all three memory systems, and the experiment runner that
//! regenerates every table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod cache_limit;
pub mod common;
pub mod experiments;
pub mod false_sharing;
pub mod independent;
pub mod jacobi;
pub mod nbody;
pub mod race;
pub mod reduction;
pub mod scale_sweep;
pub mod sensitivity;
pub mod stale_data;
pub mod stencil;
pub mod threshold;
pub mod unstructured;

pub use common::{execute, execute_all, RunResult, SystemKind, Workload};
pub use experiments::{Benchmark, Claim, Scale, Suite};
