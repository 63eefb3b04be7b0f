//! # lcm-tempest — Tempest-like fine-grain DSM mechanisms
//!
//! The paper's protocols (the Stache baseline and LCM itself) are
//! *user-level* software built on the **Tempest** interface, which
//! Blizzard-E implements on the CM-5: fine-grain per-block access control,
//! user-level handlers for access faults, and low-level messaging. This
//! crate is the simulated equivalent. It provides mechanisms only — no
//! coherence policy lives here:
//!
//! * [`AddressSpace`] / [`Placement`] / [`Segment`]: a global address
//!   space of page-aligned segments with per-segment home placement;
//! * [`Tag`] / [`TagTable`]: per-node, per-block access tags
//!   (Invalid / ReadOnly / ReadWrite) in page-grained tables;
//! * [`HomeMemory`]: authoritative home values, with word-masked merging
//!   for reconciliation;
//! * [`Network`] / [`MsgKind`]: message cost and count accounting;
//! * [`Tempest`]: the bundle of all of the above plus the simulated
//!   machine, handed to protocols.
//!
//! ```
//! use lcm_tempest::{Tempest, Placement};
//! use lcm_sim::MachineConfig;
//!
//! let mut t = Tempest::new(MachineConfig::new(32)); // the paper's CM-5 size
//! let mesh = t.alloc(1024 * 1024 * 4, Placement::Blocked, "mesh");
//! t.mem.write_f32(mesh, 1.0);
//! assert_eq!(t.mem.read_f32(mesh), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod memory;
pub mod net;
pub mod segment;
pub mod system;
pub mod tags;

pub use memory::HomeMemory;
pub use net::{MsgKind, Network};
pub use segment::{AddressSpace, Placement, Segment};
pub use system::Tempest;
pub use tags::{Tag, TagTable};
