//! # lcm-serve — a resident replay/query server for `.lcmtrace` files
//!
//! Every design-space sweep in this workspace so far reloaded and
//! re-decoded its captures per run. This crate keeps them *resident*.
//! It prices nothing itself: `lcm-replay` owns the one pricing engine
//! and each trace's differential index, and this crate keeps the
//! result cache, the three-tier query ladder and the TCP front end:
//!
//! * [`ServeEngine`] — loads each trace once as a shared
//!   [`lcm_replay::TraceHandle`], forces the build of the trace's own
//!   [`DiffIndex`] (shared by every engine that loads the same handle),
//!   and answers batched what-if queries
//!   (cost model × topology × directory backend → clocks, the full
//!   cycle ledger, node statistics, CSV rows) on the `lcm-sim`
//!   `par_map` pool.
//! * **Result cache** — one map keyed exactly by `(per-load trace id,
//!   every cost-model field, topology, backend)`; an exact repeat
//!   returns the shared [`QueryResult`] without touching the stream.
//!   Each result is also filed under a canonical key that drops every
//!   field the trace cannot observe, so a query differing from a cached
//!   neighbor only in prices this trace never charges is one more
//!   lookup.
//! * **Differential re-pricing** — cold queries re-price from the
//!   segment-aggregated index ([`lcm_replay::reprice`]) instead of the
//!   raw event stream. Both shortcuts are *byte-identical* to a full
//!   replay — asserted by debug assertions and the test suite on every
//!   explore grid point, not assumed.
//! * [`Server`]/[`Client`] — a length-prefixed TCP protocol
//!   ([`proto`], encoded with [`lcm_replay::codec`]) exposing the same
//!   engine to external tools; malformed frames get named error
//!   responses, never panics.
//!
//! The `repro serve` section of `lcm-bench` wraps this crate as a
//! self-check, a closed-loop load generator (`--bench`), and a
//! resident server (`--listen`); `repro explore` is a thin client of
//! the same engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod engine;
pub mod proto;
mod server;

pub use client::Client;
pub use engine::{
    query, CacheKey, EngineStats, Query, QueryClass, QueryResult, ServeEngine, TraceEntry,
};
pub use lcm_replay::DiffIndex;
pub use server::Server;
