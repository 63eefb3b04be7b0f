//! # lcm-cstar — a C\*\*-style data-parallel runtime
//!
//! C\*\* (Larus 1992) is a large-grain data-parallel extension of C++:
//! applying a *parallel function* to an *aggregate* creates one
//! asynchronous invocation per element, and every invocation executes
//! "atomically and simultaneously" — it sees the pre-call global state
//! plus its own writes, and all modifications merge into a new global
//! state when the call completes.
//!
//! This crate is the runtime the paper's compiler targets, as an embedded
//! Rust DSL. The same application code runs under either compilation
//! [`Strategy`]:
//!
//! * **`LcmDirectives`** — aggregates become LCM copy-on-write regions;
//!   the runtime opens a parallel phase per call, flushes modified copies
//!   between invocations, and reconciles at the end;
//! * **`ExplicitCopy`** — aggregates are double-buffered on conventional
//!   coherent memory (the Stache baseline): reads from the front copy,
//!   writes to the back copy, swap after the call.
//!
//! ```
//! use lcm_cstar::{Runtime, Strategy, Partition};
//! use lcm_stache::Stache;
//! use lcm_sim::MachineConfig;
//! use lcm_tempest::Placement;
//!
//! // The same stencil code runs on the Stache/explicit-copy baseline…
//! let mut rt = Runtime::new(Stache::new(MachineConfig::new(8)), Strategy::ExplicitCopy);
//! let m = rt.new_aggregate2::<f32>(16, 16, Placement::Blocked, "mesh");
//! rt.init2(m, |r, c| if r == 0 { 100.0 } else { (c % 3) as f32 });
//! rt.apply2(m, Partition::Static, |inv, r, c| {
//!     if r > 0 && r < 15 && c > 0 && c < 15 {
//!         let s = inv.get(m.at(r - 1, c)) + inv.get(m.at(r + 1, c))
//!               + inv.get(m.at(r, c - 1)) + inv.get(m.at(r, c + 1));
//!         inv.set(m.at(r, c), s * 0.25);
//!     } else {
//!         let v = inv.get(m.at(r, c));
//!         inv.copy_through(m.at(r, c), v);
//!     }
//! });
//! assert!(rt.peek2(m, 1, 1) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod aggregate;
pub mod parallel;
pub mod runtime;
pub mod scalar;

pub use advisor::{advise, AccessSummary, Plan};
pub use aggregate::{Agg1, Agg2, Cell};
pub use parallel::{Invocation, Partition};
pub use runtime::{FlushPolicy, ReduceVar, Runtime, RuntimeConfig, Strategy};
pub use scalar::Scalar;
