//! # lcm-core — Loosely Coherent Memory
//!
//! The paper's primary contribution: a Reconcilable Shared Memory system
//! in which compiler-directed copy-on-write makes memory *deliberately,
//! temporarily inconsistent* to implement C\*\*'s atomic-and-simultaneous
//! parallel function semantics, then returns it to a consistent state
//! with an application-specific reconciliation at a global barrier.
//!
//! * [`Lcm`] — the protocol (a [`lcm_rsm::MemoryProtocol`]), embedding
//!   the Stache baseline for ordinary coherent data;
//! * [`LcmVariant`] — the §6.3 clean-copy variants (`Scc` vs `Mcc`);
//! * [`cow`] — private copies and per-block phase bookkeeping;
//! * [`stale`] — stale-data regions (§7.5).
//!
//! See the crate-level docs of `lcm-rsm` for the model and `DESIGN.md` at
//! the repository root for how this maps onto the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cow;
pub(crate) mod nested;
pub mod protocol;
pub mod stale;

pub use protocol::{Lcm, LcmVariant};
