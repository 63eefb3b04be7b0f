//! # lcm-serve — a resident replay/query server for `.lcmtrace` files
//!
//! Every design-space sweep in this workspace so far reloaded and
//! re-decoded its captures per run. This crate keeps them *resident*:
//!
//! * [`ServeEngine`] — loads each trace once (shared
//!   [`lcm_replay::TraceHandle`]s via the decode-once
//!   [`lcm_replay::TraceFile::open`] cache), precomputes a
//!   [`DiffIndex`], and answers batched what-if queries
//!   (cost model × topology × directory backend → clocks, the full
//!   cycle ledger, node statistics, CSV rows) on the `lcm-sim`
//!   `par_map` pool.
//! * **Result cache** — keyed by `(trace header fingerprint, FNV-1a
//!   over every cost-model field, topology, backend)`; an exact repeat
//!   returns the shared [`QueryResult`] without touching the stream.
//! * **Differential re-pricing** — cold queries replay from the
//!   segment-aggregated index ([`replay_diff`]) instead of the raw
//!   event stream, and a query differing from a cached neighbor only
//!   in prices this trace never charges is answered from that
//!   neighbor. Both shortcuts are *byte-identical* to a full replay —
//!   asserted by debug assertions, the test suite and CI on every
//!   explore grid point, not assumed.
//! * [`Server`]/[`Client`] — a length-prefixed TCP protocol
//!   ([`proto`]) exposing the same engine to external tools; malformed
//!   frames get named error responses, never panics.
//!
//! The `repro serve` section of `lcm-bench` wraps this crate as a
//! self-check, a closed-loop load generator (`--bench`), and a
//! resident server (`--listen`); `repro explore` is a thin client of
//! the same engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod diff;
mod engine;
pub mod proto;
mod server;

pub use client::Client;
pub use diff::{replay_diff, DiffIndex};
pub use engine::{
    compare_replayed, query, CacheKey, EngineStats, Query, QueryClass, QueryResult, ServeEngine,
    TraceEntry,
};
pub use server::Server;
