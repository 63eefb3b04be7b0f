//! # lcm-stache — the Stache baseline protocol
//!
//! Stache is the unmodified user-level shared-memory protocol the paper
//! compares LCM against: invalidation-based, sequentially consistent, with
//! a full-map directory at each block's home and the processor's local
//! memory used as a large fully-associative cache (so warm data never
//! falls out). C\*\* programs run on Stache via the *explicit copying*
//! strategy implemented in `lcm-cstar`.
//!
//! * [`Stache`] — the protocol, a [`lcm_rsm::MemoryProtocol`];
//! * [`Directory`] / [`DirState`] — full-map home directories;
//! * [`SharerSet`] — compact node sets.
//!
//! ```
//! use lcm_stache::Stache;
//! use lcm_rsm::MemoryProtocol;
//! use lcm_sim::{MachineConfig, NodeId};
//! use lcm_tempest::Placement;
//!
//! let mut mem = Stache::new(MachineConfig::new(32));
//! let a = mem.tempest_mut().alloc(4096, Placement::Blocked, "mesh");
//! mem.write_f32(NodeId(5), a, 1.0);      // node 5 takes the block exclusive
//! assert_eq!(mem.read_f32(NodeId(6), a), 1.0); // recall + downgrade
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod directory;
pub mod protocol;
pub mod sharers;

pub use directory::{DirState, Directory};
pub use protocol::Stache;
pub use sharers::{SharerSet, MAX_NODES};
