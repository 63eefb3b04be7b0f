//! # lcm-replay — trace capture files and the one trace-pricing engine
//!
//! The execution-driven simulator in `lcm-sim` can run in *capture
//! mode*, recording every clock mutation as an event with cost-model
//! charges kept symbolic (knob × units). This crate gives that stream a
//! home and is the one place that prices it; `lcm-serve` only caches
//! and serves its answers:
//!
//! * [`TraceFile`] — the versioned, compact binary `.lcmtrace` format:
//!   machine configuration, cost-model fingerprint, delta-encoded event
//!   stream, phase seek table, and the execution-driven outcome as a
//!   validation footer.
//! * [`replay`] — folds a captured stream under an *arbitrary* cost
//!   model and topology, rebuilding per-node clocks, the cycle ledger,
//!   barrier waits and link backlogs from events alone. Orders of
//!   magnitude faster than re-executing the program, which makes dense
//!   cost-model design-space sweeps cheap.
//! * [`reprice`] — the same answer from the trace's [`DiffIndex`]
//!   (barrier/phase segments of pre-summed charges), which each
//!   [`TraceFile`] builds once, on first use.
//! * [`validate`] — replays a file under its own capture-time cost
//!   model and asserts the result reproduces the execution-driven run
//!   exactly, proving the capture is complete.
//! * [`analyze`] — constructs the happens-before DAG of a capture
//!   (program order, message edges, barrier joins), extracts the
//!   critical path with per-category/node/block/phase attribution,
//!   computes slack, and projects causal what-ifs (see [`critpath`]).
//!   It is the [`replay`] fold with an observer, not a second walk.
//! * [`codec`] — the varint, string, cost-model and topology codec that
//!   `.lcmtrace` files and the `lcm-serve` wire protocol share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod critpath;
pub mod engine;
pub mod format;
mod index;

pub use critpath::{analyze, match_messages, CritPath, EpochSeg, MsgEdge, PhaseRow};
pub use engine::{compare_replayed, replay, validate, Replayed};
pub use format::{TraceFile, TraceHandle, MAGIC, VERSION};
pub use index::{reprice, DiffIndex};
