//! # lcm-sim — simulation substrate for the LCM reproduction
//!
//! This crate is the bottom layer of a reproduction of *Larus, Richards &
//! Viswanathan, "LCM: Memory System Support for Parallel Language
//! Implementation"* (Univ. of Wisconsin–Madison, 1994). The paper ran on a
//! 32-node Thinking Machines CM-5 under the Blizzard-E fine-grain
//! distributed-shared-memory system; we substitute a deterministic,
//! execution-driven simulation (see `DESIGN.md` at the repository root).
//!
//! `lcm-sim` provides:
//!
//! * memory geometry ([`mem`]): 32-byte blocks of eight 4-byte words,
//!   4 KB pages, [`mem::BlockBuf`] block buffers and [`mem::WordMask`]
//!   per-word dirty masks;
//! * the simulated [`Machine`]: per-node logical clocks, barriers, and
//!   [`NodeStats`] protocol counters;
//! * the parameterized [`CostModel`] (CM-5-shaped defaults);
//! * a deterministic [`Pcg32`] generator and a fast deterministic hasher
//!   ([`hash`]) for the hot protocol maps;
//! * an optional protocol event [`trace`], stored in the `.lcmtrace`
//!   event encoding ([`codec`]).
//!
//! Everything above this crate — the Tempest-like mechanism layer, the
//! Stache baseline protocol, LCM itself, and the C\*\* runtime — charges
//! its costs through [`Machine`].
//!
//! ```
//! use lcm_sim::{Machine, MachineConfig, NodeId};
//!
//! let mut m = Machine::new(MachineConfig::new(4));
//! m.advance(NodeId(0), 100); // node 0 computes for 100 cycles
//! m.barrier();               // everyone synchronizes
//! assert!(m.time() >= 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod cost;
pub mod fault;
pub mod hash;
pub mod machine;
pub mod mem;
pub mod par;
pub mod profile;
pub mod rng;
pub mod stats;
pub mod topology;
pub mod trace;

pub use codec::{EventLog, Events, PhaseEntry};
pub use cost::{CostModel, Knob};
pub use fault::{
    CrashPlan, CrashPoint, DeliveryError, FaultConfig, FaultConfigError, FaultOutcome, FaultPlan,
};
pub use hash::fnv1a;
pub use machine::{Access, DirBackend, Machine, MachineConfig, NodeId, MAX_NODES};
pub use mem::{Addr, BlockBuf, BlockId, PageId, WordMask};
pub use par::{available_jobs, par_map, try_par_map};
pub use profile::{CycleCat, CycleLedger, PhaseSnapshot};
pub use rng::Pcg32;
pub use stats::NodeStats;
pub use topology::{Fabric, LinkUtil, Topology};
pub use trace::{Event, Stamped, Trace};
