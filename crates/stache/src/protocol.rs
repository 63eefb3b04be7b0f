//! The Stache protocol: sequentially-consistent user-level shared memory.
//!
//! Stache (Reinhardt, Larus & Wood, "Tempest and Typhoon") is the paper's
//! baseline: an invalidation-based, full-map-directory coherence protocol
//! implemented in user-level software over Tempest, using each processor's
//! *local memory* as a large, fully-associative cache for remote data —
//! hence no capacity evictions in this model, which is exactly what makes
//! the statically-partitioned Stencil so fast under Stache (its interior
//! stays resident forever and only boundary blocks ever ping-pong).
//!
//! ## Cost accounting
//!
//! The *requesting* node is charged the blocking latency of its fault
//! (`local_fill` when the home's copy suffices and the home is local,
//! `remote_miss` per remote round-trip, two round-trips when a third-party
//! recall is needed); handler-side nodes are charged per-message handler
//! and invalidation work. Message counts follow the real protocol shape:
//! request, recall, writeback, data reply, invalidation, ack.

use crate::directory::{DirState, Directory};
use crate::sharers::{SharerSet, MAX_NODES};
use lcm_rsm::{CheckpointImage, MemoryProtocol, PolicyTable};
use lcm_sim::mem::{Addr, BlockId, BLOCK_BYTES};
use lcm_sim::trace::Event;
use lcm_sim::{Access, CycleCat, Knob, MachineConfig, NodeId};
use lcm_tempest::{MsgKind, Tag, Tempest};

/// The baseline sequentially-consistent memory system.
///
/// ```
/// use lcm_stache::Stache;
/// use lcm_rsm::MemoryProtocol;
/// use lcm_sim::{MachineConfig, NodeId};
/// use lcm_tempest::Placement;
///
/// let mut mem = Stache::new(MachineConfig::new(4));
/// let a = mem.tempest_mut().alloc(4096, Placement::Interleaved, "data");
/// mem.write_f32(NodeId(0), a, 9.25);
/// assert_eq!(mem.read_f32(NodeId(3), a), 9.25);
/// ```
#[derive(Clone, Debug)]
pub struct Stache {
    t: Tempest,
    dir: Directory,
    policies: PolicyTable,
    /// Per-node block capacity; `None` models the paper's configuration
    /// (local memory as a practically-unbounded cache).
    capacity: Option<usize>,
    /// Per-node FIFO of filled blocks (may contain already-invalidated
    /// entries, skipped at eviction time). Only maintained when a
    /// capacity is set.
    fifo: Vec<std::collections::VecDeque<BlockId>>,
    /// Per-node count of valid (ReadOnly or ReadWrite) blocks.
    resident: Vec<usize>,
}

impl Stache {
    /// Builds a Stache system for the given machine configuration. The
    /// directory represents sharers with the configuration's
    /// [`lcm_sim::DirBackend`] (full-map by default).
    ///
    /// # Panics
    /// Panics if the machine has more nodes than the directory supports
    /// ([`MAX_NODES`]).
    pub fn new(config: MachineConfig) -> Stache {
        Stache::from_tempest(Tempest::new(config))
    }

    /// Builds a Stache system whose per-node cache holds at most
    /// `capacity` blocks, evicting FIFO beyond that — the "machine with a
    /// limited cache" of the paper's §6.3 discussion. Exclusive victims
    /// are written back; shared victims are dropped.
    ///
    /// This configuration is for Stache-only experiments; it is not
    /// supported underneath LCM (whose clean-copy bookkeeping manages
    /// residency itself).
    ///
    /// # Panics
    /// Panics if `capacity == 0` or the machine exceeds the directory's
    /// node limit.
    pub fn with_capacity(config: MachineConfig, capacity: usize) -> Stache {
        assert!(capacity > 0, "a cache needs at least one block");
        let mut s = Stache::from_tempest(Tempest::new(config));
        s.capacity = Some(capacity);
        s
    }

    /// Builds a Stache system over an existing mechanism bundle, with
    /// the directory backend the machine was configured with.
    ///
    /// # Panics
    /// Panics if the machine has more nodes than the directory supports.
    pub fn from_tempest(t: Tempest) -> Stache {
        assert!(
            t.nodes() <= MAX_NODES,
            "directory supports at most {MAX_NODES} nodes"
        );
        let nodes = t.nodes();
        let dir = Directory::with_backend(t.machine.dir_backend(), nodes);
        Stache {
            t,
            dir,
            policies: PolicyTable::new(),
            capacity: None,
            fifo: (0..nodes)
                .map(|_| std::collections::VecDeque::new())
                .collect(),
            resident: vec![0; nodes],
        }
    }

    /// Registers a fresh fill at `node` and evicts beyond capacity.
    /// No-op in the unbounded (default) configuration.
    fn note_fill(&mut self, node: NodeId, block: BlockId) {
        let Some(cap) = self.capacity else { return };
        self.fifo[node.index()].push_back(block);
        self.resident[node.index()] += 1;
        while self.resident[node.index()] > cap {
            let victim = self.fifo[node.index()]
                .pop_front()
                .expect("resident blocks are queued");
            let tag = *self.t.tags[node.index()].get(victim);
            if tag == Tag::Invalid || victim == block {
                continue; // stale queue entry, or never evict the block just filled
            }
            self.evict(node, victim);
        }
    }

    /// Evicts one valid block from `node`: tag cleared, directory
    /// updated, writeback accounted for exclusive victims.
    fn evict(&mut self, node: NodeId, victim: BlockId) {
        let home = self.t.home_of(victim);
        self.t.tags[node.index()].set(victim, Tag::Invalid);
        self.resident[node.index()] -= 1;
        self.t.machine.stats_mut(node).evictions += 1;
        self.t
            .machine
            .charge(node, CycleCat::FlushReconcile, Knob::Invalidate, 1);
        match self.dir.state(victim) {
            DirState::Exclusive(owner) if owner == node => {
                // Dirty victim: write the data home.
                self.t
                    .net
                    .send(&mut self.t.machine, node, home, MsgKind::Writeback, true);
                self.dir.set(victim, DirState::Idle);
            }
            DirState::Shared(mut sharers) => {
                sharers.remove(node);
                if sharers.is_empty() {
                    self.dir.set(victim, DirState::Idle);
                } else {
                    // A shrinking set cannot newly overflow, but the
                    // charge-on-overflow path keeps every Shared store
                    // uniform.
                    self.set_shared(home, victim, sharers);
                }
            }
            _ => {}
        }
    }

    /// Notes that `node` lost its copy of `block` (invalidation), for
    /// residency accounting.
    fn note_invalidate(&mut self, node: NodeId, block: BlockId) {
        if self.capacity.is_some() && *self.t.tags[node.index()].get(block) != Tag::Invalid {
            self.resident[node.index()] = self.resident[node.index()].saturating_sub(1);
        }
    }

    /// The directory (read-only; for tests and protocol composition).
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Checks the protocol's coherence invariants, returning a
    /// description of the first violation found.
    ///
    /// Invariants (for blocks managed by this directory — i.e. a pure
    /// Stache system, not blocks absorbed by an LCM phase):
    ///
    /// 1. `Exclusive(n)` ⇒ `n` holds ReadWrite and nobody else holds a
    ///    valid tag (single writer);
    /// 2. `Shared(S)` ⇒ `S` is non-empty, every member holds ReadOnly,
    ///    and nobody holds ReadWrite (no writers among readers);
    /// 3. every valid tag is backed by a directory entry naming the node.
    ///
    /// Intended for tests (it walks every tag and directory entry).
    pub fn verify_coherence_invariants(&self) -> Result<(), String> {
        // Directory → tags.
        for node in self.t.machine.node_ids() {
            for (block, &tag) in self.t.tags[node.index()].iter() {
                match (self.dir.state(block), tag) {
                    (DirState::Exclusive(owner), Tag::ReadWrite) if owner == node => {}
                    (DirState::Exclusive(owner), Tag::ReadOnly) => {
                        return Err(format!(
                            "{node} holds {block:?} ReadOnly but {owner} owns it exclusively"
                        ));
                    }
                    (DirState::Exclusive(owner), Tag::ReadWrite) => {
                        return Err(format!(
                            "{node} holds {block:?} writable but the directory says {owner} does"
                        ));
                    }
                    (DirState::Shared(sharers), Tag::ReadOnly) if sharers.contains(node) => {}
                    (DirState::Shared(_), tag) => {
                        return Err(format!(
                            "{node} holds {block:?} with tag {tag:?} unaccounted by the sharer set"
                        ));
                    }
                    (DirState::Idle, tag) => {
                        return Err(format!(
                            "{node} holds {block:?} ({tag:?}) but the directory is idle"
                        ));
                    }
                    (_, Tag::Invalid) => unreachable!("iter yields valid tags"),
                }
            }
        }
        Ok(())
    }

    /// Writes every dirty exclusive line back and downgrades it to a
    /// single shared copy at its former owner, returning the capture
    /// footprint (one [`CheckpointImage::DIR_ENTRY_BYTES`] entry per
    /// directory entry at the home, one 32-byte line per
    /// formerly-exclusive block at its owner).
    ///
    /// LCM's checkpoint uses this for its *embedded* directory — the
    /// blocks outside copy-on-write phases, e.g. initialization writes.
    /// Under the simulation's write-through home memory the downgrade
    /// changes no program-visible value, and it makes the next
    /// checkpoint incremental: a line only returns to Exclusive by
    /// being written again.
    pub fn checkpoint_writeback(&mut self) -> CheckpointImage {
        let mut img = CheckpointImage::empty(self.t.nodes());
        let mut dirty: Vec<(BlockId, NodeId)> = Vec::new();
        for (block, state) in self.dir.iter() {
            let home = self.t.home_of(block);
            img.dir_entries += 1;
            img.per_node[home.index()] += CheckpointImage::DIR_ENTRY_BYTES;
            if let DirState::Exclusive(owner) = state {
                img.dirty_blocks += 1;
                img.per_node[owner.index()] += BLOCK_BYTES as u64;
                dirty.push((block, owner));
            }
        }
        for (block, owner) in dirty {
            self.t.tags[owner.index()].set(block, Tag::ReadOnly);
            let home = self.t.home_of(block);
            self.set_shared(home, block, SharerSet::single(owner));
        }
        img
    }

    /// Removes `block` from directory management and returns the set of
    /// nodes that held copies, leaving their tags untouched.
    ///
    /// LCM calls this when a block enters a copy-on-write phase: the
    /// holders are adopted by the phase's bookkeeping and invalidated at
    /// reconciliation.
    pub fn absorb_block(&mut self, block: BlockId) -> SharerSet {
        self.dir.take(block).holders()
    }

    /// Invalidates every directory-tracked copy of `block` (tags cleared,
    /// invalidation costs and messages accounted at `home`'s initiative),
    /// leaving the block `Idle`. The invalidations go to the directory
    /// *representation's* target set — a superset of the holders when the
    /// entry is overflowed or coarse. Returns the number of actual copies
    /// invalidated.
    pub fn invalidate_holders(&mut self, block: BlockId) -> u32 {
        let targets = self.dir.inval_targets(block);
        let holders = self.dir.take(block).holders();
        let home = self.t.home_of(block);
        self.invalidate_targets(home, block, targets, holders);
        holders.count()
    }

    /// Re-registers `sharers` as read-only holders of `block`, downgrading
    /// any writable tag among them.
    ///
    /// LCM uses this when a copy-on-write phase ends without modifying a
    /// block: its holders' copies are still the current value, so they keep
    /// them (and their future read hits) instead of being invalidated.
    pub fn restore_shared(&mut self, block: BlockId, sharers: SharerSet) {
        if sharers.is_empty() {
            return;
        }
        for s in sharers.iter() {
            if *self.t.tags[s.index()].get(block) == Tag::ReadWrite {
                self.t.tags[s.index()].set(block, Tag::ReadOnly);
            }
        }
        let home = self.t.home_of(block);
        self.set_shared(home, block, sharers);
    }

    /// Sends one invalidation from `home` to `sharer` and processes it —
    /// tag cleared, handler and ack accounted — without touching the
    /// directory. Exposed for protocol composition: LCM invalidates the
    /// outstanding copies of reconciled blocks through this path.
    ///
    /// Idempotent: a re-delivered invalidation (the original's ack was
    /// lost and the home's transaction retried) finds the tag already
    /// Invalid and is acked again without double-counting the
    /// invalidation or re-clearing anything.
    pub fn invalidate_copy(&mut self, home: NodeId, sharer: NodeId, block: BlockId) {
        if *self.t.tags[sharer.index()].get(block) == Tag::Invalid {
            self.t
                .net
                .count_only(&mut self.t.machine, sharer, home, MsgKind::Ack, false);
            if home != sharer {
                self.t
                    .machine
                    .charge(sharer, CycleCat::MsgOverhead, Knob::MsgRecv, 1);
                self.t
                    .machine
                    .charge(home, CycleCat::MsgOverhead, Knob::MsgRecv, 1);
            }
            return;
        }
        self.note_invalidate(sharer, block);
        self.invalidation_round(home, sharer);
        self.t.tags[sharer.index()].set(block, Tag::Invalid);
        self.t.machine.stats_mut(home).invalidations_sent += 1;
        self.t.machine.stats_mut(sharer).invalidations_recv += 1;
        self.t.machine.record(Event::Invalidate {
            node: sharer,
            block,
        });
    }

    /// The message round of one invalidation from `home` to `target`:
    /// the invalidation and its ack, the target's handler (receive and
    /// invalidate) and the home's ack receipt. Tags and counters are the
    /// caller's.
    fn invalidation_round(&mut self, home: NodeId, target: NodeId) {
        let (m, net) = (&mut self.t.machine, &mut self.t.net);
        net.count_only(m, home, target, MsgKind::Invalidate, false);
        net.count_only(m, target, home, MsgKind::Ack, false);
        if home != target {
            m.charge(target, CycleCat::MsgOverhead, Knob::MsgRecv, 1);
        }
        m.charge(target, CycleCat::MsgOverhead, Knob::Invalidate, 1);
        if home != target {
            m.charge(home, CycleCat::MsgOverhead, Knob::MsgRecv, 1);
        }
    }

    /// Invalidates every node in `targets`: the members of `holders`
    /// through the real path (tag cleared, invalidation counted), the
    /// rest — nodes only the representation implicates, whose tags are
    /// already Invalid — through a bare invalidation round, the
    /// over-invalidation cost of an overflowed or coarse entry that the
    /// home's `spurious_invals` counter records. `targets` must be a
    /// superset of `holders`.
    fn invalidate_targets(
        &mut self,
        home: NodeId,
        block: BlockId,
        targets: SharerSet,
        holders: SharerSet,
    ) {
        for s in targets.iter() {
            if holders.contains(s) {
                self.invalidate_copy(home, s, block);
            } else {
                self.invalidation_round(home, s);
                self.t.machine.stats_mut(home).spurious_invals += 1;
            }
        }
    }

    /// Stores a `Shared` directory state, charging the home's
    /// `dir_overflows` counter when the update pushes the entry's
    /// representation into broadcast overflow.
    fn set_shared(&mut self, home: NodeId, block: BlockId, sharers: SharerSet) {
        if self.dir.set(block, DirState::Shared(sharers)) {
            self.t.machine.stats_mut(home).dir_overflows += 1;
        }
    }

    /// Handles a load fault: obtains a read-only copy for `node`.
    fn read_fault(&mut self, node: NodeId, block: BlockId) {
        let home = self.t.home_of(block);
        let state = self.dir.state(block);
        self.t.machine.record(Event::SpanBegin {
            node,
            what: "read_fault",
            block,
        });
        match state {
            DirState::Exclusive(owner) if owner == node => {
                unreachable!("read fault on {block:?} while {node} holds it writable");
            }
            DirState::Exclusive(owner) => {
                // Three-hop recall: node -> home -> owner -> home -> node.
                // The owner is downgraded and keeps a read-only copy.
                let units = if node == home { 1 } else { 2 };
                let (m, net) = (&mut self.t.machine, &mut self.t.net);
                m.charge(node, CycleCat::ReadStallRemote, Knob::RemoteMiss, units);
                net.count_only(m, node, home, MsgKind::GetShared, false);
                net.count_only(m, home, owner, MsgKind::Invalidate, false);
                net.count_only(m, owner, home, MsgKind::Writeback, true);
                net.count_only(m, home, node, MsgKind::GetShared, true);
                if home != node {
                    m.charge(home, CycleCat::MsgOverhead, Knob::MsgRecv, 2);
                }
                m.charge(owner, CycleCat::MsgOverhead, Knob::MsgRecv, 1);
                m.charge(owner, CycleCat::MsgOverhead, Knob::Invalidate, 1);
                self.t.tags[owner.index()].set(block, Tag::ReadOnly);
                let mut sharers = SharerSet::single(owner);
                sharers.add(node);
                self.set_shared(home, block, sharers);
                self.t.machine.miss(node, block, Access::Read, true);
            }
            other => {
                // Idle or Shared: the home's value is current.
                self.t.fill(node, block, Access::Read, MsgKind::GetShared);
                let mut sharers = other.holders();
                sharers.add(node);
                self.set_shared(home, block, sharers);
            }
        }
        self.t.tags[node.index()].set(block, Tag::ReadOnly);
        self.note_fill(node, block);
        self.t.machine.record(Event::SpanEnd {
            node,
            what: "read_fault",
            block,
        });
    }

    /// Handles a store fault: obtains the writable copy for `node`.
    fn write_fault(&mut self, node: NodeId, block: BlockId) {
        let home = self.t.home_of(block);
        let state = self.dir.state(block);
        self.t.machine.record(Event::SpanBegin {
            node,
            what: "write_fault",
            block,
        });
        let upgraded = match state {
            DirState::Exclusive(owner) if owner == node => {
                unreachable!("write fault on {block:?} while {node} holds it writable");
            }
            DirState::Exclusive(owner) => {
                // Recall-and-invalidate the current owner.
                let units = if node == home { 1 } else { 2 };
                let (m, net) = (&mut self.t.machine, &mut self.t.net);
                m.charge(node, CycleCat::WriteStallRemote, Knob::RemoteMiss, units);
                net.count_only(m, node, home, MsgKind::GetExclusive, false);
                net.count_only(m, owner, home, MsgKind::Writeback, true);
                net.count_only(m, home, node, MsgKind::GetExclusive, true);
                if home != node {
                    m.charge(home, CycleCat::MsgOverhead, Knob::MsgRecv, 2);
                }
                self.invalidate_copy(home, owner, block);
                self.t.machine.miss(node, block, Access::Write, true);
                false
            }
            DirState::Shared(sharers) => {
                let held = sharers.contains(node);
                let others = sharers.difference(SharerSet::single(node));
                // Invalidations go to the representation's target set
                // (minus the writer): the real holders, plus — when the
                // entry is overflowed or coarse — innocents whose acks
                // the writer still waits for.
                let targets = self
                    .dir
                    .inval_targets(block)
                    .difference(SharerSet::single(node));
                self.invalidate_targets(home, block, targets, others);
                if held {
                    // Ownership upgrade; no data moves.
                    let knob = if node == home && targets.is_empty() {
                        Knob::LocalFill
                    } else {
                        Knob::Upgrade
                    };
                    self.t.machine.charge(node, CycleCat::UpgradeStall, knob, 1);
                    self.t.machine.stats_mut(node).upgrades += 1;
                    self.t.machine.record(Event::Upgrade { node, block });
                } else if node == home && !targets.is_empty() {
                    // Fill locally, but wait out the invalidations.
                    self.t
                        .machine
                        .charge(node, CycleCat::WriteStallLocal, Knob::RemoteMiss, 1);
                    self.t.machine.miss(node, block, Access::Write, false);
                } else {
                    self.t
                        .fill(node, block, Access::Write, MsgKind::GetExclusive);
                }
                held
            }
            DirState::Idle => {
                self.t
                    .fill(node, block, Access::Write, MsgKind::GetExclusive);
                false
            }
        };
        self.dir.set(block, DirState::Exclusive(node));
        self.t.tags[node.index()].set(block, Tag::ReadWrite);
        if !upgraded {
            self.note_fill(node, block);
        }
        self.t.machine.record(Event::SpanEnd {
            node,
            what: "write_fault",
            block,
        });
    }
}

impl MemoryProtocol for Stache {
    fn name(&self) -> &'static str {
        "stache"
    }

    fn tempest(&self) -> &Tempest {
        &self.t
    }

    fn tempest_mut(&mut self) -> &mut Tempest {
        &mut self.t
    }

    fn policies(&self) -> &PolicyTable {
        &self.policies
    }

    fn policies_mut(&mut self) -> &mut PolicyTable {
        &mut self.policies
    }

    fn sanity_check(&self) -> Result<(), String> {
        self.verify_coherence_invariants()
    }

    /// An invalidation directory has no phase discipline to lean on, so
    /// a checkpoint is capture-in-place and non-incremental: in the
    /// modeled protocol a dirty exclusive line is the only current copy
    /// of its data, so every Exclusive entry persists its 32 data bytes
    /// at the owner, and every directory entry persists its packed word
    /// at the home — in full, at every boundary, because the directory
    /// does not track what changed since the last one. Nothing mutates:
    /// tags, directory and residency are exactly as before.
    fn checkpoint(&mut self) -> CheckpointImage {
        let mut img = CheckpointImage::empty(self.t.nodes());
        for (block, state) in self.dir.iter() {
            let home = self.t.home_of(block);
            img.dir_entries += 1;
            img.per_node[home.index()] += CheckpointImage::DIR_ENTRY_BYTES;
            if let DirState::Exclusive(owner) = state {
                img.dirty_blocks += 1;
                img.per_node[owner.index()] += BLOCK_BYTES as u64;
            }
        }
        img
    }

    fn read_word(&mut self, node: NodeId, addr: Addr) -> u32 {
        debug_assert!(addr.is_word_aligned(), "unaligned load at {addr}");
        let block = addr.block();
        if self.t.tags[node.index()].get(block).readable() {
            self.t.machine.hit(node, Access::Read);
        } else {
            self.read_fault(node, block);
        }
        self.t.mem.read_word(addr)
    }

    fn write_word(&mut self, node: NodeId, addr: Addr, bits: u32) {
        debug_assert!(addr.is_word_aligned(), "unaligned store at {addr}");
        let block = addr.block();
        if self.t.tags[node.index()].get(block).writable() {
            self.t.machine.hit(node, Access::Write);
        } else {
            self.write_fault(node, block);
        }
        // The writable copy is the block's current value; the simulation
        // stores it through to the home map (observationally equivalent
        // under the single-writer invariant).
        self.t.mem.write_word(addr, bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_sim::CostModel;
    use lcm_tempest::Placement;

    fn system(nodes: usize) -> (Stache, Addr) {
        let mut s = Stache::new(MachineConfig::new(nodes).with_cost(CostModel::cm5()));
        // Interleaved so block 0 homes on node 0.
        let a = s.tempest_mut().alloc(4096, Placement::Interleaved, "t");
        (s, a)
    }

    #[test]
    fn checkpoint_captures_directory_and_exclusive_lines() {
        let (mut s, a) = system(4);
        let b0 = a; // block 0, home node 0 (interleaved)
        let b1 = a.offset(32); // block 1, home node 1
        s.write_f32(NodeId(2), b0, 1.0); // Exclusive(2)
        s.read_f32(NodeId(1), b1); // Shared{1}
        s.read_f32(NodeId(3), b1); // Shared{1,3}
        let clocks: Vec<u64> = (0..4)
            .map(|n| s.tempest().machine.clock(NodeId(n)))
            .collect();
        let img = s.checkpoint();
        assert_eq!(img.dir_entries, 2);
        assert_eq!(img.dirty_blocks, 1);
        // 8 B per entry at the homes (nodes 0 and 1), 32 B for the
        // exclusive line at its owner (node 2).
        assert_eq!(img.per_node, vec![8, 8, 32, 0]);
        assert_eq!(img.total_bytes(), 48);
        // Capture is pure: no charges, no state changes, and the image
        // is reproducible.
        let after: Vec<u64> = (0..4)
            .map(|n| s.tempest().machine.clock(NodeId(n)))
            .collect();
        assert_eq!(clocks, after, "checkpoint charges nothing itself");
        assert_eq!(
            s.directory().state(b0.block()),
            DirState::Exclusive(NodeId(2))
        );
        assert_eq!(s.checkpoint(), img, "non-incremental: recaptured in full");
        s.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn checkpoint_writeback_downgrades_and_becomes_incremental() {
        let (mut s, a) = system(4);
        s.write_f32(NodeId(2), a, 3.5); // Exclusive(2)
        let first = s.checkpoint_writeback();
        assert_eq!(first.dirty_blocks, 1);
        assert_eq!(first.per_node[2], 32);
        match s.directory().state(a.block()) {
            DirState::Shared(set) => assert_eq!(set.iter().collect::<Vec<_>>(), vec![NodeId(2)]),
            other => panic!("expected downgrade to Shared, got {other:?}"),
        }
        s.verify_coherence_invariants().unwrap();
        // Values survive, and an unwritten line costs no data bytes at
        // the next boundary.
        assert_eq!(s.read_f32(NodeId(2), a), 3.5);
        assert_eq!(s.tempest().machine.stats(NodeId(2)).read_hits, 1);
        let second = s.checkpoint_writeback();
        assert_eq!(second.dirty_blocks, 0);
        assert_eq!(second.per_node[2], 0);
        // Writing again re-dirties the line.
        s.write_f32(NodeId(2), a, 4.5);
        assert_eq!(s.checkpoint_writeback().dirty_blocks, 1);
    }

    #[test]
    fn first_read_misses_then_hits() {
        let (mut s, a) = system(2);
        let n = NodeId(1);
        assert_eq!(s.read_f32(n, a), 0.0);
        assert_eq!(s.tempest().machine.stats(n).read_miss_remote, 1);
        s.read_f32(n, a);
        assert_eq!(s.tempest().machine.stats(n).read_hits, 1);
        // Same block, different word: still a hit.
        s.read_f32(n, a.offset(4));
        assert_eq!(s.tempest().machine.stats(n).read_hits, 2);
    }

    #[test]
    fn home_node_misses_are_local() {
        let (mut s, a) = system(2);
        let home = s.tempest().home_of(a.block());
        s.read_f32(home, a);
        assert_eq!(s.tempest().machine.stats(home).read_miss_local, 1);
        assert_eq!(s.tempest().machine.stats(home).read_miss_remote, 0);
    }

    #[test]
    fn write_then_remote_read_recalls_and_downgrades() {
        let (mut s, a) = system(4);
        let writer = NodeId(1);
        let reader = NodeId(2);
        s.write_f32(writer, a, 5.0);
        assert_eq!(s.directory().state(a.block()), DirState::Exclusive(writer));
        assert_eq!(s.read_f32(reader, a), 5.0, "reader sees the written value");
        // Both now share read-only copies.
        match s.directory().state(a.block()) {
            DirState::Shared(set) => {
                assert!(set.contains(writer) && set.contains(reader));
            }
            other => panic!("expected Shared, got {other:?}"),
        }
        assert_eq!(s.tempest().tag(writer, a.block()), Tag::ReadOnly);
        // Writer can still read without a fault.
        s.read_f32(writer, a);
        assert_eq!(s.tempest().machine.stats(writer).read_hits, 1);
    }

    #[test]
    fn write_invalidates_readers() {
        let (mut s, a) = system(4);
        s.read_f32(NodeId(2), a);
        s.read_f32(NodeId(3), a);
        s.write_f32(NodeId(1), a, 1.0);
        assert_eq!(
            s.directory().state(a.block()),
            DirState::Exclusive(NodeId(1))
        );
        assert_eq!(s.tempest().tag(NodeId(2), a.block()), Tag::Invalid);
        assert_eq!(s.tempest().tag(NodeId(3), a.block()), Tag::Invalid);
        assert_eq!(s.tempest().machine.stats(NodeId(2)).invalidations_recv, 1);
        assert_eq!(s.tempest().machine.stats(NodeId(3)).invalidations_recv, 1);
        // Home (node 0) sent them.
        assert_eq!(s.tempest().machine.stats(NodeId(0)).invalidations_sent, 2);
    }

    #[test]
    fn upgrade_counts_separately() {
        let (mut s, a) = system(2);
        let n = NodeId(1);
        s.read_f32(n, a);
        s.write_f32(n, a, 2.0);
        let st = s.tempest().machine.stats(n);
        assert_eq!(st.upgrades, 1);
        assert_eq!(st.write_miss_remote, 0);
        assert_eq!(s.directory().state(a.block()), DirState::Exclusive(n));
    }

    #[test]
    fn write_write_ping_pong() {
        let (mut s, a) = system(2);
        for i in 0..10 {
            s.write_f32(NodeId((i % 2) as u16), a, i as f32);
        }
        // After the first write, each subsequent write recalls the other
        // node's exclusive copy: 9 recalls.
        let total = s.tempest().machine.total_stats();
        assert_eq!(total.write_miss_remote + total.write_miss_local, 10);
        assert_eq!(s.read_f32(NodeId(0), a), 9.0);
    }

    #[test]
    fn exclusive_owner_hits_repeatedly() {
        let (mut s, a) = system(2);
        let n = NodeId(1);
        s.write_f32(n, a, 1.0);
        for _ in 0..5 {
            s.write_f32(n, a, 2.0);
            s.read_f32(n, a);
        }
        let st = s.tempest().machine.stats(n);
        assert_eq!(st.write_hits, 5);
        assert_eq!(st.read_hits, 5);
        assert_eq!(st.misses(), 1);
    }

    #[test]
    fn write_after_remote_exclusive_recalls_and_invalidates() {
        let (mut s, a) = system(3);
        s.write_f32(NodeId(1), a, 1.0);
        s.write_f32(NodeId(2), a, 2.0);
        assert_eq!(
            s.directory().state(a.block()),
            DirState::Exclusive(NodeId(2))
        );
        assert_eq!(s.tempest().tag(NodeId(1), a.block()), Tag::Invalid);
        assert_eq!(s.read_f32(NodeId(0), a), 2.0);
    }

    #[test]
    fn data_is_correct_across_many_nodes_and_blocks() {
        let (mut s, a) = system(8);
        // Each node writes one word in its own block, then everyone reads all.
        for i in 0..8u16 {
            let addr = a.offset(i as u64 * 32);
            s.write_i32(NodeId(i), addr, i as i32 * 10);
        }
        for r in 0..8u16 {
            for i in 0..8u16 {
                let addr = a.offset(i as u64 * 32);
                assert_eq!(s.read_i32(NodeId(r), addr), i as i32 * 10);
            }
        }
    }

    #[test]
    fn latency_ordering_hit_local_remote_recall() {
        let c = CostModel::cm5();
        // hit on warm block
        let (mut s, a) = system(2);
        let n = NodeId(1);
        s.read_f32(n, a);
        let before = s.tempest().machine.clock(n);
        s.read_f32(n, a);
        let hit = s.tempest().machine.clock(n) - before;
        assert_eq!(hit, c.cache_hit);

        // remote fill
        let (mut s2, a2) = system(2);
        let before = s2.tempest().machine.clock(n);
        s2.read_f32(n, a2);
        let remote = s2.tempest().machine.clock(n) - before;
        assert_eq!(remote, c.remote_miss);

        // recall (remote exclusive elsewhere) costs more than a plain fill
        let (mut s3, a3) = system(3);
        s3.write_f32(NodeId(2), a3, 1.0);
        let before = s3.tempest().machine.clock(n);
        s3.read_f32(n, a3);
        let recall = s3.tempest().machine.clock(n) - before;
        assert!(
            recall > remote,
            "recall {recall} should exceed fill {remote}"
        );
    }

    #[test]
    fn absorb_block_returns_holders_and_idles() {
        let (mut s, a) = system(4);
        s.read_f32(NodeId(1), a);
        s.read_f32(NodeId(2), a);
        let holders = s.absorb_block(a.block());
        assert_eq!(holders.count(), 2);
        assert_eq!(s.directory().state(a.block()), DirState::Idle);
        // Tags untouched.
        assert_eq!(s.tempest().tag(NodeId(1), a.block()), Tag::ReadOnly);
    }

    #[test]
    fn invalidate_holders_clears_tags_and_counts() {
        let (mut s, a) = system(4);
        s.read_f32(NodeId(1), a);
        s.read_f32(NodeId(3), a);
        let n = s.invalidate_holders(a.block());
        assert_eq!(n, 2);
        assert_eq!(s.tempest().tag(NodeId(1), a.block()), Tag::Invalid);
        assert_eq!(s.tempest().tag(NodeId(3), a.block()), Tag::Invalid);
        assert_eq!(s.directory().state(a.block()), DirState::Idle);
    }

    #[test]
    #[should_panic(expected = "1024-node limit")]
    fn too_many_nodes_rejected() {
        // The machine itself rejects oversized configurations (the limit
        // exists *because* of this directory's fixed-capacity sharer
        // masks); `from_tempest`'s own assert remains as defense in
        // depth for hand-built Tempest bundles.
        Stache::new(MachineConfig::new(1025));
    }

    #[test]
    fn kilonode_machine_reads_and_writes_coherently() {
        let mut s = Stache::new(MachineConfig::new(1024));
        let a = s.tempest_mut().alloc(4096, Placement::Interleaved, "t");
        s.write_f32(NodeId(700), a, 7.0);
        assert_eq!(s.read_f32(NodeId(1023), a), 7.0);
        s.write_f32(NodeId(0), a, 8.0);
        assert_eq!(s.tempest().tag(NodeId(700), a.block()), Tag::Invalid);
        assert_eq!(s.tempest().tag(NodeId(1023), a.block()), Tag::Invalid);
        s.verify_coherence_invariants().unwrap();
    }

    fn backend_system(nodes: usize, backend: lcm_sim::DirBackend) -> (Stache, Addr) {
        let mut s = Stache::new(
            MachineConfig::new(nodes)
                .with_cost(CostModel::cm5())
                .with_directory(backend),
        );
        let a = s.tempest_mut().alloc(4096, Placement::Interleaved, "t");
        (s, a)
    }

    #[test]
    fn limited_ptr_overflow_broadcasts_and_charges_spurious_invals() {
        use lcm_sim::DirBackend;
        let (mut s, a) = backend_system(8, DirBackend::LimitedPtr { ptrs: 2 });
        let home = s.tempest().home_of(a.block());
        // Three readers exceed the two pointers: the entry overflows.
        s.read_f32(NodeId(1), a);
        s.read_f32(NodeId(2), a);
        s.read_f32(NodeId(3), a);
        assert!(s.directory().is_overflowed(a.block()));
        assert_eq!(s.tempest().machine.stats(home).dir_overflows, 1);
        // The write must invalidate by broadcast: all 8 nodes minus the
        // writer, of which 3 hold copies and 4 are spurious.
        s.write_f32(NodeId(4), a, 1.0);
        for n in [1, 2, 3] {
            assert_eq!(s.tempest().tag(NodeId(n), a.block()), Tag::Invalid);
        }
        assert_eq!(s.tempest().machine.stats(home).invalidations_sent, 3);
        assert_eq!(s.tempest().machine.stats(home).spurious_invals, 4);
        // The rebuild to Exclusive cleared the overflow.
        assert!(!s.directory().is_overflowed(a.block()));
        assert_eq!(
            s.directory().state(a.block()),
            DirState::Exclusive(NodeId(4))
        );
        s.verify_coherence_invariants().unwrap();
        assert_eq!(s.read_f32(NodeId(0), a), 1.0, "data survives broadcast");
    }

    #[test]
    fn coarse_vec_over_invalidates_group_neighbors() {
        use lcm_sim::DirBackend;
        // 8 nodes on 4 bits: groups of 2. A single reader at node 5
        // implicates its group-mate node 4.
        let (mut s, a) = backend_system(8, DirBackend::CoarseVec { bits: 4 });
        let home = s.tempest().home_of(a.block());
        s.read_f32(NodeId(5), a);
        s.write_f32(NodeId(2), a, 3.0);
        assert_eq!(s.tempest().machine.stats(home).invalidations_sent, 1);
        assert_eq!(s.tempest().machine.stats(home).spurious_invals, 1);
        assert_eq!(s.tempest().machine.stats(home).dir_overflows, 0);
        s.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn default_backends_match_full_map_exactly_at_small_scale() {
        use lcm_sim::DirBackend;
        // The default limited-pointer and coarse-vector parameters re-spend
        // the old 64-bit budget, so at ≤64 nodes every backend produces the
        // same clocks, stats and messages as the full map.
        let mut runs = DirBackend::all().into_iter().map(|backend| {
            let (mut s, a) = backend_system(8, backend);
            for i in 0..8u16 {
                s.write_f32(NodeId(i), a.offset(u64::from(i) * 4 % 64), i as f32);
            }
            for i in 0..8u16 {
                s.read_f32(NodeId(7 - i), a.offset(u64::from(i) * 8 % 64));
            }
            let clocks: Vec<u64> = s
                .tempest()
                .machine
                .node_ids()
                .map(|n| s.tempest().machine.clock(n))
                .collect();
            let totals = s.tempest().machine.total_stats();
            (clocks, totals)
        });
        let oracle = runs.next().unwrap();
        for run in runs {
            assert_eq!(run, oracle);
        }
    }

    #[test]
    fn f64_roundtrip_through_protocol() {
        let (mut s, a) = system(2);
        s.write_f64(NodeId(0), a.offset(8), 1.23456789);
        assert_eq!(s.read_f64(NodeId(1), a.offset(8)), 1.23456789);
    }

    #[test]
    fn capacity_evicts_fifo_and_preserves_data() {
        // 4-block cache on node 1; touch 8 blocks, re-touch the first.
        let mut s = Stache::with_capacity(MachineConfig::new(2), 4);
        let a = s
            .tempest_mut()
            .alloc(4096, Placement::OnNode(NodeId(0)), "t");
        for i in 0..8u64 {
            s.write_i32(NodeId(1), a.offset(i * 32), i as i32);
        }
        let st = s.tempest().machine.stats(NodeId(1));
        assert_eq!(st.evictions, 4, "8 fills into 4 slots evict 4");
        // The first block was evicted (written back): re-reading misses
        // but returns the written value.
        let misses_before = s.tempest().machine.stats(NodeId(1)).misses();
        assert_eq!(s.read_i32(NodeId(1), a), 0);
        assert_eq!(
            s.tempest().machine.stats(NodeId(1)).misses(),
            misses_before + 1
        );
        // A recently-written block is still resident.
        assert_eq!(s.read_i32(NodeId(1), a.offset(7 * 32)), 7);
        assert_eq!(s.tempest().machine.stats(NodeId(1)).read_hits, 1);
    }

    #[test]
    fn capacity_eviction_updates_directory() {
        let mut s = Stache::with_capacity(MachineConfig::new(2), 2);
        let a = s
            .tempest_mut()
            .alloc(4096, Placement::OnNode(NodeId(0)), "t");
        for i in 0..3u64 {
            s.write_i32(NodeId(1), a.offset(i * 32), 1);
        }
        // Block 0 was evicted: directory idle, writeback counted.
        assert_eq!(s.directory().state(a.block()), DirState::Idle);
        assert!(s.tempest().machine.stats(NodeId(1)).blocks_sent >= 1);
        // Shared victims just leave the sharer set.
        let b = a.offset(3 * 32);
        s.read_i32(NodeId(1), b);
        s.read_i32(NodeId(1), a.offset(4 * 32));
        s.read_i32(NodeId(1), a.offset(5 * 32));
        assert_eq!(
            s.tempest().tag(NodeId(1), b.block()),
            Tag::Invalid,
            "b was evicted"
        );
        assert_eq!(s.directory().state(b.block()), DirState::Idle);
    }

    #[test]
    fn unbounded_default_never_evicts() {
        let (mut s, a) = system(2);
        for i in 0..200u64 {
            s.write_i32(NodeId(1), a.offset(i * 4 % 4096), 1);
        }
        assert_eq!(s.tempest().machine.total_stats().evictions, 0);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_capacity_rejected() {
        Stache::with_capacity(MachineConfig::new(2), 0);
    }

    #[test]
    fn restore_shared_reinstates_holders_and_downgrades_writers() {
        let (mut s, a) = system(4);
        // A writer holds the block exclusively; absorb it (as LCM does).
        s.write_f32(NodeId(2), a, 1.0);
        let holders = s.absorb_block(a.block());
        assert_eq!(holders.iter().collect::<Vec<_>>(), vec![NodeId(2)]);
        // Restore with an extra reader, as an unwritten phase would.
        let mut sharers = holders;
        sharers.add(NodeId(3));
        s.tempest_mut().set_tag(NodeId(3), a.block(), Tag::ReadOnly);
        s.restore_shared(a.block(), sharers);
        assert_eq!(s.directory().state(a.block()), DirState::Shared(sharers));
        assert_eq!(
            s.tempest().tag(NodeId(2), a.block()),
            Tag::ReadOnly,
            "writer downgraded"
        );
        s.verify_coherence_invariants()
            .expect("restored state is coherent");
        // Both read without faulting; a third write re-invalidates them.
        s.read_f32(NodeId(2), a);
        s.read_f32(NodeId(3), a);
        assert_eq!(s.tempest().machine.stats(NodeId(2)).read_hits, 1);
        s.write_f32(NodeId(0), a, 2.0);
        assert_eq!(s.tempest().tag(NodeId(2), a.block()), Tag::Invalid);
        s.verify_coherence_invariants()
            .expect("coherent after the write");
    }

    #[test]
    fn redelivered_invalidation_is_idempotent() {
        let (mut s, a) = system(4);
        s.read_f32(NodeId(1), a);
        let home = s.tempest().home_of(a.block());
        let holders = s.absorb_block(a.block());
        assert!(holders.contains(NodeId(1)));
        s.invalidate_copy(home, NodeId(1), a.block());
        assert_eq!(s.tempest().tag(NodeId(1), a.block()), Tag::Invalid);
        let counted = s.tempest().machine.stats(NodeId(1)).invalidations_recv;
        // The same invalidation arrives again (lost-ack retry): acked,
        // tag stays Invalid, not double-counted, invariants hold.
        s.invalidate_copy(home, NodeId(1), a.block());
        s.invalidate_copy(home, NodeId(1), a.block());
        assert_eq!(s.tempest().tag(NodeId(1), a.block()), Tag::Invalid);
        assert_eq!(
            s.tempest().machine.stats(NodeId(1)).invalidations_recv,
            counted
        );
        s.verify_coherence_invariants()
            .expect("re-delivery leaves state coherent");
    }

    #[test]
    fn restore_shared_is_idempotent() {
        let (mut s, a) = system(4);
        s.read_f32(NodeId(1), a);
        s.read_f32(NodeId(2), a);
        let holders = s.absorb_block(a.block());
        s.restore_shared(a.block(), holders);
        s.restore_shared(a.block(), holders);
        assert_eq!(s.directory().state(a.block()), DirState::Shared(holders));
        s.verify_coherence_invariants().expect("idempotent restore");
    }

    #[test]
    fn restore_shared_with_empty_set_is_noop() {
        let (mut s, a) = system(2);
        s.restore_shared(a.block(), SharerSet::empty());
        assert_eq!(s.directory().state(a.block()), DirState::Idle);
    }
}
