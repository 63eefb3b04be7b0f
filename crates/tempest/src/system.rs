//! The Tempest mechanism bundle.
//!
//! [`Tempest`] gathers everything a user-level protocol needs — the
//! simulated machine, the global address space, the home-value store,
//! per-node access-tag tables, and the message-accounting network — in one
//! passive structure with public fields. Protocols (Stache, LCM) are
//! written against this bundle only, exactly as the paper's protocols are
//! written against the Tempest interface provided by Blizzard.

use crate::memory::HomeMemory;
use crate::net::{MsgKind, Network};
use crate::segment::{AddressSpace, Placement};
use crate::tags::{Tag, TagTable};
use lcm_sim::mem::{Addr, BlockId};
use lcm_sim::{Access, CycleCat, Knob, Machine, MachineConfig, NodeId};

/// The mechanism bundle handed to user-level protocols.
///
/// Fields are public by design: a protocol transaction typically touches
/// the machine (costs), several tag tables, and the home store at once,
/// and `Tempest` is a passive composite in the C-struct spirit, holding no
/// invariants of its own beyond those of its parts.
///
/// ```
/// use lcm_tempest::{Tempest, Placement, Tag};
/// use lcm_sim::MachineConfig;
///
/// let mut t = Tempest::new(MachineConfig::new(4));
/// let base = t.space.alloc(4096, Placement::Interleaved, "data");
/// let home = t.space.home_of(base.block());
/// t.tags[home.index()].set(base.block(), Tag::ReadWrite);
/// assert!(t.tags[home.index()].get(base.block()).writable());
/// ```
#[derive(Clone, Debug)]
pub struct Tempest {
    /// The simulated machine: clocks, statistics, cost model, trace.
    pub machine: Machine,
    /// The global address space: allocation and home placement.
    pub space: AddressSpace,
    /// Authoritative home values.
    pub mem: HomeMemory,
    /// Per-node fine-grain access tags, indexed by `NodeId::index()`.
    pub tags: Vec<TagTable>,
    /// Message cost/count accounting.
    pub net: Network,
}

impl Tempest {
    /// Builds the bundle for a machine configuration.
    pub fn new(config: MachineConfig) -> Tempest {
        let nodes = config.nodes;
        Tempest {
            machine: Machine::new(config),
            space: AddressSpace::new(nodes),
            mem: HomeMemory::new(),
            tags: (0..nodes).map(|_| TagTable::default()).collect(),
            net: Network::new(),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.machine.nodes()
    }

    /// Convenience: allocate and return the base address.
    pub fn alloc(&mut self, bytes: u64, placement: Placement, name: &str) -> Addr {
        self.space.alloc(bytes, placement, name)
    }

    /// Convenience: the home node of `block`.
    #[inline]
    pub fn home_of(&self, block: BlockId) -> NodeId {
        self.space.home_of(block)
    }

    /// Convenience: the tag `node` holds for `block`.
    #[inline]
    pub fn tag(&self, node: NodeId, block: BlockId) -> Tag {
        *self.tags[node.index()].get(block)
    }

    /// Convenience: sets the tag `node` holds for `block`.
    #[inline]
    pub fn set_tag(&mut self, node: NodeId, block: BlockId, tag: Tag) {
        self.tags[node.index()].set(block, tag);
    }

    /// The fault → fetch-from-home transaction every protocol shares:
    /// `node` obtains `block`'s home value for an `access`. At the home
    /// it is a `local_fill` under the access's local stall bucket;
    /// elsewhere a blocking `kind` request/reply whose reply carries the
    /// block (stalling under `kind`'s bucket). Either way
    /// [`Machine::miss`] counts it and records whether it crossed the
    /// network. Tags, directories and data stay with the caller.
    pub fn fill(&mut self, node: NodeId, block: BlockId, access: Access, kind: MsgKind) {
        let home = self.home_of(block);
        let remote = node != home;
        if remote {
            self.net
                .request_reply(&mut self.machine, node, home, kind, true);
        } else {
            let cat = match access {
                Access::Read => CycleCat::ReadStallLocal,
                Access::Write => CycleCat::WriteStallLocal,
            };
            self.machine.charge(node, cat, Knob::LocalFill, 1);
        }
        self.machine.miss(node, block, access, remote);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_sim::{CostModel, Event};

    #[test]
    fn new_bundle_is_consistent() {
        let t = Tempest::new(MachineConfig::new(8));
        assert_eq!(t.nodes(), 8);
        assert_eq!(t.tags.len(), 8);
        assert_eq!(t.space.nodes(), 8);
    }

    #[test]
    fn tag_helpers_roundtrip() {
        let mut t = Tempest::new(MachineConfig::new(2));
        let b = BlockId(42);
        assert_eq!(t.tag(NodeId(1), b), Tag::Invalid);
        t.set_tag(NodeId(1), b, Tag::ReadOnly);
        assert_eq!(t.tag(NodeId(1), b), Tag::ReadOnly);
        assert_eq!(t.tag(NodeId(0), b), Tag::Invalid, "tags are per node");
    }

    #[test]
    fn fill_is_local_at_the_home_and_a_round_trip_elsewhere() {
        let c = CostModel::cm5();
        let mut t = Tempest::new(MachineConfig::new(2).with_cost(c).with_trace(16));
        let b = t.alloc(4096, Placement::OnNode(NodeId(0)), "x").block();
        t.fill(NodeId(0), b, Access::Read, MsgKind::GetShared);
        assert_eq!(t.machine.clock(NodeId(0)), c.local_fill);
        assert_eq!(
            t.machine.ledger().get(NodeId(0), CycleCat::ReadStallLocal),
            c.local_fill
        );
        assert_eq!(t.machine.stats(NodeId(0)).read_miss_local, 1);
        // A remote write fill stalls under the request kind's bucket.
        t.fill(NodeId(1), b, Access::Write, MsgKind::CleanFill);
        assert_eq!(
            t.machine.ledger().get(NodeId(1), CycleCat::ReadStallRemote),
            c.remote_miss
        );
        assert_eq!(t.machine.stats(NodeId(1)).write_miss_remote, 1);
        assert_eq!(t.net.count(MsgKind::CleanFill), 2, "request and data reply");
        let misses: Vec<Event> = t
            .machine
            .trace()
            .events()
            .map(|e| e.event)
            .filter(|e| matches!(e, Event::ReadMiss { .. } | Event::WriteMiss { .. }))
            .collect();
        assert_eq!(
            misses,
            [
                Event::ReadMiss {
                    node: NodeId(0),
                    block: b,
                    remote: false
                },
                Event::WriteMiss {
                    node: NodeId(1),
                    block: b,
                    remote: true
                }
            ]
        );
    }

    #[test]
    fn alloc_and_home_roundtrip() {
        let mut t = Tempest::new(MachineConfig::new(4).with_cost(CostModel::unit()));
        let a = t.alloc(4096, Placement::Interleaved, "x");
        let h0 = t.home_of(a.block());
        let h1 = t.home_of(Addr(a.0 + 32).block());
        assert_ne!(h0, h1);
    }
}
