//! Stale-data regions (paper §7.5).
//!
//! In applications like N-body simulation, consumers can tolerate old
//! values of distant producers' data for many iterations. RSM expresses
//! this as a region policy: a consumer's read takes a local *snapshot* of
//! the block which subsequent reads hit — even while the producer keeps
//! writing — until the consumer issues an explicit refresh (a
//! self-invalidation; the next read fetches the latest value). Producers
//! write without invalidating the aged snapshots, which is precisely the
//! coherence traffic the optimization removes.

use lcm_sim::hash::{FastMap, FastSet};
use lcm_sim::mem::{Addr, BlockBuf, BlockId};
use lcm_sim::{Access, CycleCat, Knob, NodeId};
use lcm_tempest::{MsgKind, Tempest};

/// Per-node snapshot and write-permission state for stale regions.
#[derive(Clone, Debug)]
pub struct StaleState {
    snaps: Vec<FastMap<BlockId, BlockBuf>>,
    own: Vec<FastSet<BlockId>>,
}

impl StaleState {
    /// Empty state for `nodes` processors.
    pub fn new(nodes: usize) -> StaleState {
        StaleState {
            snaps: (0..nodes).map(|_| FastMap::default()).collect(),
            own: (0..nodes).map(|_| FastSet::default()).collect(),
        }
    }

    /// Loads a word: hits the node's snapshot if present, otherwise
    /// fetches the current home value and snapshots the whole block.
    pub fn read(&mut self, t: &mut Tempest, node: NodeId, addr: Addr, block: BlockId) -> u32 {
        let w = addr.word_in_block();
        if let Some(snap) = self.snaps[node.index()].get(&block) {
            t.machine.hit(node, Access::Read);
            return snap.word(w);
        }
        t.fill(node, block, Access::Read, MsgKind::StaleRefresh);
        let buf = t.mem.read_block(block);
        self.snaps[node.index()].insert(block, buf);
        buf.word(w)
    }

    /// Stores a word: the producer acquires (once) the right to write the
    /// block, then writes home directly — *without* invalidating anyone's
    /// snapshot. The producer's own snapshot, if any, is kept current.
    pub fn write(&mut self, t: &mut Tempest, node: NodeId, addr: Addr, bits: u32, block: BlockId) {
        let w = addr.word_in_block();
        if self.own[node.index()].contains(&block) {
            t.machine.hit(node, Access::Write);
        } else {
            t.fill(node, block, Access::Write, MsgKind::GetExclusive);
            self.own[node.index()].insert(block);
        }
        t.mem.write_word(addr, bits);
        if let Some(snap) = self.snaps[node.index()].get_mut(&block) {
            snap.set_word(w, bits); // a producer sees its own writes
        }
    }

    /// Drops `node`'s snapshot of `block`, so the next read fetches the
    /// latest value. No-op (and uncounted) when no snapshot exists.
    pub fn refresh(&mut self, t: &mut Tempest, node: NodeId, block: BlockId) {
        if self.snaps[node.index()].remove(&block).is_some() {
            t.machine
                .charge(node, CycleCat::FlushReconcile, Knob::Invalidate, 1);
            t.machine.stats_mut(node).stale_refreshes += 1;
        }
    }

    /// Number of snapshots held by `node` (tests/inspection).
    pub fn snapshots(&self, node: NodeId) -> usize {
        self.snaps[node.index()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_sim::MachineConfig;
    use lcm_tempest::Placement;

    fn setup() -> (Tempest, StaleState, Addr) {
        let mut t = Tempest::new(MachineConfig::new(2));
        let a = t.alloc(4096, Placement::OnNode(NodeId(0)), "field");
        (t, StaleState::new(2), a)
    }

    #[test]
    fn consumer_sees_stale_until_refresh() {
        let (mut t, mut s, a) = setup();
        let producer = NodeId(0);
        let consumer = NodeId(1);
        s.write(&mut t, producer, a, 1, a.block());
        assert_eq!(s.read(&mut t, consumer, a, a.block()), 1);
        // Producer moves on; consumer still sees the snapshot.
        s.write(&mut t, producer, a, 2, a.block());
        assert_eq!(s.read(&mut t, consumer, a, a.block()), 1, "stale by design");
        // Refresh: next read fetches the latest value.
        s.refresh(&mut t, consumer, a.block());
        assert_eq!(s.read(&mut t, consumer, a, a.block()), 2);
        assert_eq!(t.machine.stats(consumer).stale_refreshes, 1);
    }

    #[test]
    fn producer_sees_its_own_writes() {
        let (mut t, mut s, a) = setup();
        let p = NodeId(0);
        assert_eq!(s.read(&mut t, p, a, a.block()), 0); // snapshot taken
        s.write(&mut t, p, a, 7, a.block());
        assert_eq!(s.read(&mut t, p, a, a.block()), 7);
    }

    #[test]
    fn snapshot_reads_are_hits() {
        let (mut t, mut s, a) = setup();
        let consumer = NodeId(1);
        s.read(&mut t, consumer, a, a.block());
        assert_eq!(t.machine.stats(consumer).read_miss_remote, 1);
        for _ in 0..10 {
            s.read(&mut t, consumer, a.offset(4), a.block());
        }
        assert_eq!(t.machine.stats(consumer).read_hits, 10);
        assert_eq!(t.machine.stats(consumer).read_miss_remote, 1);
        assert_eq!(s.snapshots(consumer), 1);
    }

    #[test]
    fn producer_writes_do_not_invalidate_snapshots() {
        let (mut t, mut s, a) = setup();
        s.read(&mut t, NodeId(1), a, a.block());
        for i in 0..100 {
            s.write(&mut t, NodeId(0), a, i, a.block());
        }
        // One write miss (acquisition), then hits; no invalidations anywhere.
        assert_eq!(t.machine.stats(NodeId(0)).write_miss_local, 1);
        assert_eq!(t.machine.stats(NodeId(0)).write_hits, 99);
        assert_eq!(t.machine.stats(NodeId(1)).invalidations_recv, 0);
        assert_eq!(s.snapshots(NodeId(1)), 1);
    }

    #[test]
    fn refresh_without_snapshot_is_uncounted() {
        let (mut t, mut s, a) = setup();
        s.refresh(&mut t, NodeId(1), a.block());
        assert_eq!(t.machine.stats(NodeId(1)).stale_refreshes, 0);
    }
}
