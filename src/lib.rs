//! # lcm — Loosely Coherent Memory: a reproduction
//!
//! A full reproduction of *Larus, Richards & Viswanathan, "LCM: Memory
//! System Support for Parallel Language Implementation"* (University of
//! Wisconsin–Madison TR #1237, 1994 — the Wisconsin Wind Tunnel project's
//! ASPLOS-era work on compiler-controlled memory coherence), as a Rust
//! workspace. See `README.md` for a tour and `DESIGN.md` for the mapping
//! from the paper's systems to crates.
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`sim`] — deterministic execution-driven machine simulation
//!   (clocks, cost model, statistics);
//! * [`tempest`] — Tempest-like fine-grain DSM mechanisms (access tags,
//!   home placement, messaging);
//! * [`rsm`] — the Reconcilable Shared Memory model (request and
//!   reconciliation policies, the `MemoryProtocol` trait);
//! * [`stache`] — the sequentially-consistent Stache baseline protocol;
//! * [`core`] — LCM itself (copy-on-write phases, scc/mcc clean copies,
//!   reconciliation, conflict detection, stale data);
//! * [`cstar`] — the C\*\*-style data-parallel runtime (aggregates,
//!   parallel functions, reduction assignments, explicit-copy baseline);
//! * [`apps`] — the paper's benchmarks and the experiment suite.
//!
//! ## Quickstart
//!
//! ```
//! use lcm::prelude::*;
//!
//! // A 4-processor machine running LCM-mcc, driven by the C** runtime.
//! let mem = Lcm::new(MachineConfig::new(4), LcmVariant::Mcc);
//! let mut rt = Runtime::new(mem, Strategy::LcmDirectives);
//!
//! let mesh = rt.new_aggregate2::<f32>(8, 8, Placement::Blocked, "mesh");
//! rt.init2(mesh, |r, _| if r == 0 { 100.0 } else { 0.0 });
//!
//! // One data-parallel relaxation step: every invocation reads only
//! // pre-call values — C**'s "atomic and simultaneous" semantics.
//! rt.apply2(mesh, Partition::Static, |inv, r, c| {
//!     if r > 0 && r < 7 && c > 0 && c < 7 {
//!         let s = inv.get(mesh.at(r - 1, c)) + inv.get(mesh.at(r + 1, c))
//!               + inv.get(mesh.at(r, c - 1)) + inv.get(mesh.at(r, c + 1));
//!         inv.set(mesh.at(r, c), s * 0.25);
//!     }
//! });
//! assert_eq!(rt.peek2(mesh, 1, 3), 25.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lcm_apps as apps;
pub use lcm_core as core;
pub use lcm_cstar as cstar;
pub use lcm_rsm as rsm;
pub use lcm_sim as sim;
pub use lcm_stache as stache;
pub use lcm_tempest as tempest;

/// The names most programs need, in one import.
pub mod prelude {
    pub use lcm_apps::{
        execute, execute_all, Benchmark, RunResult, Scale, Suite, SystemKind, Workload,
    };
    pub use lcm_core::{Lcm, LcmVariant};
    pub use lcm_cstar::{
        Agg1, Agg2, Cell, FlushPolicy, Invocation, Partition, ReduceVar, Runtime, RuntimeConfig,
        Strategy,
    };
    pub use lcm_rsm::{
        CoherenceKind, ConflictKind, ConflictRecord, KeepOrder, MemoryProtocol, MergePolicy,
        NestedProtocol, PolicyTable, ReduceOp, RegionPolicy,
    };
    pub use lcm_sim::{
        Addr, BlockId, CostModel, CrashPlan, CycleCat, CycleLedger, DirBackend, FaultConfig,
        Machine, MachineConfig, NodeId, NodeStats, Pcg32, PhaseSnapshot, Stamped,
    };
    pub use lcm_stache::Stache;
    pub use lcm_tempest::{Placement, Tag, Tempest};
}
