//! # lcm-rsm — the Reconcilable Shared Memory model
//!
//! Section 3 of the paper defines **Reconcilable Shared Memory (RSM)**: a
//! family of memory systems distinguished by two program-controllable
//! policies — the action taken when a processor *requests* a copy of a
//! block, and the way multiple outstanding copies are *reconciled* when
//! they return home. Conventional sequentially-consistent shared memory is
//! the degenerate instance (exclusive requests, overwrite reconciliation,
//! null reconciliation of identical read-only copies); LCM is the
//! interesting one.
//!
//! This crate captures the model as code shared by both protocols:
//!
//! * [`ReduceOp`] / [`MergePolicy`] / [`KeepOrder`]: reconciliation
//!   operators, from C\*\* keep-one semantics to reduction assignments;
//! * [`CoherenceKind`] / [`RegionPolicy`] / [`PolicyTable`]: the
//!   directive surface a compiler uses to select policies per region;
//! * [`ConflictKind`] / [`ConflictRecord`]: semantic-violation and
//!   data-race reports (paper §7.2/7.3);
//! * [`MemoryProtocol`]: the trait the Stache baseline and LCM both
//!   implement, so programs relink between memory systems.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conflict;
pub mod nested;
pub mod policy;
pub mod protocol;
pub mod reconcile;
pub mod sanitizer;

pub use conflict::{ConflictKind, ConflictRecord};
pub use nested::NestedProtocol;
pub use policy::{CoherenceKind, PolicyTable, RegionPolicy};
pub use protocol::{CheckpointImage, MemoryProtocol};
pub use reconcile::{KeepOrder, MergePolicy, ReduceOp, ValueWidth};
pub use sanitizer::Violation;
