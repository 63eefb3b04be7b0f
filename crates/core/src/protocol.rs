//! The Loosely Coherent Memory protocol.
//!
//! LCM implements C\*\*'s "atomic and simultaneous" invocation semantics
//! with a fine-grained copy-on-write scheme (paper §5):
//!
//! * [`Lcm::mark_modification`] creates an inconsistent, writable private
//!   copy of a block; other nodes keep seeing the *clean* (pre-phase)
//!   value, so memory as a whole becomes deliberately inconsistent;
//! * [`Lcm::flush_copies`] returns a node's modified copies to their home
//!   nodes between invocations, so a new invocation on the same processor
//!   cannot see a previous invocation's modifications;
//! * [`Lcm::reconcile_copies`] is the global barrier that merges all
//!   outstanding versions (keep-one or reduction), installs the result as
//!   the new global state, invalidates outstanding copies of modified
//!   blocks, and reclaims clean copies.
//!
//! Two variants reproduce the paper's §6.3 systems: **LCM-scc** keeps a
//! single clean copy at the block's home (a flush invalidates the cached
//! copy, so reuse pays a fault), while **LCM-mcc** keeps a clean copy on
//! every node that obtains a marked block (a flush reinitializes the
//! cached copy locally — no fault, no messages).
//!
//! Blocks outside copy-on-write regions — and all blocks outside parallel
//! phases — are handled by the embedded [`Stache`] protocol, mirroring how
//! the real LCM was built by extending the user-level Stache handlers.

use crate::cow::{BlockTable, CowEntry, PrivCopy};
use crate::nested::NestedPhase;
use crate::stale::StaleState;
use lcm_rsm::{
    CheckpointImage, CoherenceKind, ConflictKind, ConflictRecord, MemoryProtocol, MergePolicy,
    NestedProtocol, PolicyTable, ReduceOp, RegionPolicy,
};
use lcm_sim::mem::{Addr, BlockId, WordMask, WORD_BYTES};
use lcm_sim::trace::Event;
use lcm_sim::{Access, CycleCat, Knob, MachineConfig, NodeId};
use lcm_stache::{SharerSet, Stache};
use lcm_tempest::{MsgKind, Tag, Tempest};

/// Clean-copy placement variant (paper §6.3).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LcmVariant {
    /// Single clean copy, kept at the block's home node.
    Scc,
    /// A clean copy on every processor that obtains the block.
    Mcc,
}

/// The LCM memory system.
///
/// ```
/// use lcm_core::{Lcm, LcmVariant};
/// use lcm_rsm::{MemoryProtocol, MergePolicy, RegionPolicy};
/// use lcm_sim::{MachineConfig, NodeId};
/// use lcm_tempest::Placement;
///
/// let mut mem = Lcm::new(MachineConfig::new(4), LcmVariant::Mcc);
/// let a = mem.tempest_mut().alloc(4096, Placement::Interleaved, "mesh");
/// mem.register_cow_region(a, 4096, MergePolicy::KeepOne);
///
/// mem.write_f32(NodeId(0), a, 1.0); // outside a phase: ordinary coherence
/// mem.begin_parallel_phase();
/// mem.mark_modification(NodeId(1), a);
/// mem.write_f32(NodeId(1), a, 2.0);            // private to node 1
/// assert_eq!(mem.read_f32(NodeId(2), a), 1.0); // others still see 1.0
/// mem.reconcile_copies();
/// assert_eq!(mem.read_f32(NodeId(2), a), 2.0); // merged global state
/// ```
#[derive(Clone, Debug)]
pub struct Lcm {
    inner: Stache,
    variant: LcmVariant,
    policies: PolicyTable,
    in_phase: bool,
    /// Each node's private copies, in mark order.
    privs: Vec<BlockTable<PrivCopy>>,
    cow: BlockTable<CowEntry>,
    conflicts: Vec<ConflictRecord>,
    stale: StaleState,
    tree_reconcile: bool,
    strict_detection: bool,
    nested: Option<NestedPhase>,
    /// Per-home-node count of words reconciled since the last
    /// checkpoint. LCM's phase discipline funnels every modification
    /// through the home at reconcile time, so this *is* the set of
    /// globally-visible state changes — which makes LCM's checkpoint
    /// incremental (see [`MemoryProtocol::checkpoint`]).
    reconciled_words: Vec<u64>,
    /// Reusable gather buffer of `tree_combine_reductions`: cleared
    /// (capacity kept) after each use so reconcile allocates nothing in
    /// steady state.
    reduce_scratch: Vec<(BlockId, NodeId, PrivCopy)>,
}

impl Lcm {
    /// Builds an LCM system of the given variant.
    pub fn new(config: MachineConfig, variant: LcmVariant) -> Lcm {
        let nodes = config.nodes;
        Lcm {
            inner: Stache::new(config),
            variant,
            policies: PolicyTable::new(),
            in_phase: false,
            privs: (0..nodes).map(|_| BlockTable::default()).collect(),
            cow: BlockTable::default(),
            conflicts: Vec::new(),
            stale: StaleState::new(nodes),
            tree_reconcile: false,
            strict_detection: false,
            nested: None,
            reconciled_words: vec![0; nodes],
            reduce_scratch: Vec::new(),
        }
    }

    /// Enables tree-structured reconciliation of reduction blocks.
    ///
    /// The paper notes that "if reconciliation became a bottleneck on
    /// large systems, the process could be organized as a tree-structured
    /// reduction" (§5). When enabled, the contributions retained by the
    /// processors for a reduction block combine pairwise up a binary tree
    /// at `reconcile_copies` time, so the home handles one merged version
    /// instead of one per contributing processor. Keep-one blocks are
    /// unaffected (their arrival order is semantically visible).
    pub fn set_tree_reconcile(&mut self, enabled: bool) {
        self.tree_reconcile = enabled;
    }

    /// True when tree-structured reconciliation is enabled.
    pub fn tree_reconcile(&self) -> bool {
        self.tree_reconcile
    }

    /// Enables strict (actual-vs-potential-free) race detection.
    ///
    /// §7.2: "outstanding read-only copies need not be used during the
    /// parallel phase … To catch *actual* violations, all read-only cache
    /// blocks must be flushed from the caches at synchronization points."
    /// When enabled, `reconcile_copies` invalidates every read-only copy
    /// of every detecting region's blocks — even unwritten ones — so that
    /// each phase's reads re-fault and are observed. Costs extra misses,
    /// which is why the paper confines it to debugging runs.
    pub fn set_strict_detection(&mut self, enabled: bool) {
        self.strict_detection = enabled;
    }

    /// True when strict race detection is enabled.
    pub fn strict_detection(&self) -> bool {
        self.strict_detection
    }

    /// Combines all outstanding reduction-block contributions pairwise up
    /// a binary tree, leaving a single merged version at the tree root,
    /// which is then shipped home like an ordinary flush. Runs during
    /// `reconcile_copies`, before the per-node drain.
    fn tree_combine_reductions(&mut self) {
        // Drain (block, node, contribution) triples over all nodes, in
        // node order, into the reusable scratch; keep-one copies stay for
        // the normal drain. A stable sort by block then yields blocks
        // ascending with each block's contributions still in node order.
        let mut scratch = std::mem::take(&mut self.reduce_scratch);
        debug_assert!(scratch.is_empty());
        for (n, privs) in self.privs.iter_mut().enumerate() {
            let node = NodeId(n as u16);
            privs.drain(
                |block, _| self.policies.get(block).merge.reduce_op().is_none(),
                |block, p| scratch.push((block, node, p)),
            );
        }
        scratch.sort_by_key(|(block, _, _)| *block);
        let mut i = 0;
        while i < scratch.len() {
            let block = scratch[i].0;
            let mut j = i + 1;
            while j < scratch.len() && scratch[j].0 == block {
                j += 1;
            }
            self.tree_combine_group(block, &mut scratch[i..j]);
            i = j;
        }
        scratch.clear();
        self.reduce_scratch = scratch;
    }

    /// Combines one block's contributions (in node order) pairwise up a
    /// binary tree and ships the root's merged version home. `group` is a
    /// slice of the reconcile scratch; stride-doubling in place produces
    /// the same pair sequence as the former round-rebuilding loop.
    fn tree_combine_group(&mut self, block: BlockId, group: &mut [(BlockId, NodeId, PrivCopy)]) {
        let policy = self.policies.get(block);
        let op = policy
            .merge
            .reduce_op()
            .expect("gathered blocks are reductions");
        // Pairwise combining rounds: the left element of each pair
        // receives and merges the right one.
        let m = group.len();
        let mut stride = 1;
        while stride < m {
            let mut k = 0;
            while k + stride < m {
                let (left, right) = group.split_at_mut(k + stride);
                let (_, ln, lp) = &mut left[k];
                let (_, rn, rp) = &right[0];
                ship_version(self.inner.tempest_mut(), *rn, *ln);
                op.combine_masked(&mut lp.data, lp.dirty, &rp.data, rp.dirty);
                lp.dirty = lp.dirty.union(rp.dirty);
                k += 2 * stride;
            }
            stride *= 2;
        }
        // Ship the root's merged version home as one flush.
        let (_, root, p) = &group[0];
        let root = *root;
        let entry = Self::ensure_entry(&mut self.cow, &mut self.inner, block);
        flush_home(self.inner.tempest_mut(), root, block);
        entry.merge_version(root, &p.data, p.dirty, policy, block, &mut self.conflicts);
        // The contributors drop their (identity-initialized) copies.
        let has_local_clean = self.variant == LcmVariant::Mcc;
        let t = self.inner.tempest_mut();
        for n in 0..self.privs.len() {
            if *t.tags[n].get(block) == Tag::ReadWrite {
                t.tags[n].set(
                    block,
                    if has_local_clean {
                        Tag::ReadOnly
                    } else {
                        Tag::Invalid
                    },
                );
            }
        }
    }

    /// The clean-copy variant in force.
    pub fn variant(&self) -> LcmVariant {
        self.variant
    }

    /// Registers `bytes` starting at `base` as a copy-on-write region with
    /// the given merge policy — the directive the C\*\* compiler emits for
    /// each aggregate (and for each reduction target, with a
    /// [`MergePolicy::Reduce`]).
    pub fn register_cow_region(&mut self, base: Addr, bytes: u64, merge: MergePolicy) {
        let first = base.block();
        let end = BlockId(base.offset(bytes - 1).block().0 + 1);
        self.policies
            .set(first, end, RegionPolicy::copy_on_write(merge));
    }

    /// Like [`Lcm::register_cow_region`] but with conflict detection
    /// enabled (paper §7.2/7.3).
    pub fn register_detecting_region(&mut self, base: Addr, bytes: u64, merge: MergePolicy) {
        let first = base.block();
        let end = BlockId(base.offset(bytes - 1).block().0 + 1);
        self.policies
            .set(first, end, RegionPolicy::copy_on_write(merge).detecting());
    }

    /// Registers `bytes` starting at `base` as a stale-data region
    /// (paper §7.5): readers keep aged snapshots until they
    /// [`MemoryProtocol::refresh_stale`].
    pub fn register_stale_region(&mut self, base: Addr, bytes: u64) {
        let first = base.block();
        let end = BlockId(base.offset(bytes - 1).block().0 + 1);
        self.policies.set(first, end, RegionPolicy::stale());
    }

    /// Number of copy-on-write entries live this phase (tests/inspection).
    pub fn live_cow_entries(&self) -> usize {
        self.cow.len()
    }

    /// Checks LCM's phase invariants, returning a description of the
    /// first violation found. Intended for tests (walks all phase state).
    ///
    /// Invariants:
    /// 1. outside a phase there is no private copy and no live
    ///    copy-on-write entry;
    /// 2. every private copy belongs to a copy-on-write region, is backed
    ///    by a ReadWrite tag, and is registered as a writer in the block's
    ///    phase entry;
    /// 3. a phase entry has a home clean copy iff the block has writers;
    /// 4. node-local clean copies only exist under the mcc variant, and
    ///    only at writers.
    pub fn verify_phase_invariants(&self) -> Result<(), String> {
        if !self.in_phase {
            if self.privs.iter().any(|m| !m.is_empty()) {
                return Err("private copies outlive the phase".into());
            }
            if !self.cow.is_empty() {
                return Err(format!(
                    "{} copy-on-write entries outlive the phase",
                    self.cow.len()
                ));
            }
            return Ok(());
        }
        for (n, privs) in self.privs.iter().enumerate() {
            let node = NodeId(n as u16);
            for (block, _) in privs.iter() {
                let policy = self.policies.get(block);
                if policy.coherence != CoherenceKind::CopyOnWrite {
                    return Err(format!(
                        "{node}: private copy of non-copy-on-write {block:?}"
                    ));
                }
                if self.inner.tempest().tag(node, block) != Tag::ReadWrite {
                    return Err(format!(
                        "{node}: private copy of {block:?} without a writable tag"
                    ));
                }
                match self.cow.get(block) {
                    None => {
                        return Err(format!(
                            "{node}: private copy of {block:?} has no phase entry"
                        ))
                    }
                    Some(e) if !e.writers.contains(node) => {
                        return Err(format!("{node}: not registered as a writer of {block:?}"));
                    }
                    Some(_) => {}
                }
            }
        }
        for (block, entry) in self.cow.iter() {
            if entry.home_clean == entry.writers.is_empty() {
                return Err(format!(
                    "{block:?}: home clean copy {} but writers {:?}",
                    entry.home_clean, entry.writers
                ));
            }
            if self.variant == LcmVariant::Scc && !entry.mcc_clean.is_empty() {
                return Err(format!("{block:?}: node-local clean copies under scc"));
            }
            if !entry.mcc_clean.difference(entry.writers).is_empty() {
                return Err(format!("{block:?}: clean copies at non-writers"));
            }
        }
        Ok(())
    }

    /// Ensures a phase entry exists for `block`, absorbing the block's
    /// pre-phase holders from the Stache directory on creation.
    fn ensure_entry<'a>(
        cow: &'a mut BlockTable<CowEntry>,
        inner: &mut Stache,
        block: BlockId,
    ) -> &'a mut CowEntry {
        cow.get_or_insert_with(block, || CowEntry::new(inner.absorb_block(block)))
    }

    /// Returns `node`'s private copy of `block`, creating it, together
    /// with clean-copy bookkeeping, if it does not already exist. This is
    /// the heart of `mark_modification` and of write faults on
    /// copy-on-write blocks.
    fn mark_block(&mut self, node: NodeId, block: BlockId, policy: RegionPolicy) -> &mut PrivCopy {
        if self.privs[node.index()].contains(block) {
            // Already private this interval.
            return self.privs[node.index()].get_mut(block).expect("contained");
        }
        let entry = Self::ensure_entry(&mut self.cow, &mut self.inner, block);
        entry.writers.add(node);
        let t = self.inner.tempest_mut();
        let home = t.home_of(block);
        t.machine.stats_mut(node).marks += 1;
        t.machine.record(Event::Mark { node, block });
        t.machine.record(Event::SpanBegin {
            node,
            what: "mark",
            block,
        });

        let init = match policy.merge.reduce_op() {
            // Reduction accumulators start at the identity; no clean
            // data is needed, so marking is purely local.
            Some(op) => op.identity_block(),
            None => {
                // Keep-one copies start from the clean value; fetch it if
                // the node has no readable copy (this is the scc refetch).
                if !t.tags[node.index()].get(block).readable() {
                    t.fill(node, block, Access::Write, MsgKind::CleanFill);
                }
                t.mem.read_block(block)
            }
        };

        // Home-side clean copy: established at the block's first mark.
        if !entry.home_clean {
            entry.home_clean = true;
            t.machine.stats_mut(home).clean_copies += 1;
            t.machine
                .charge(home, CycleCat::FlushReconcile, Knob::CleanCopyCreate, 1);
            t.machine.record(Event::CleanCopy { node: home, block });
        }
        // mcc: additionally keep a clean copy on the marking node.
        if self.variant == LcmVariant::Mcc && !entry.mcc_clean.contains(node) {
            entry.mcc_clean.add(node);
            t.machine.stats_mut(node).clean_copies += 1;
            t.machine
                .charge(node, CycleCat::FlushReconcile, Knob::CleanCopyCreate, 1);
            t.machine.record(Event::CleanCopy { node, block });
        }

        // The private copy itself: a block copy in the fault handler.
        t.machine
            .charge(node, CycleCat::FlushReconcile, Knob::CleanCopyCreate, 1);
        t.machine.record(Event::SpanEnd {
            node,
            what: "mark",
            block,
        });
        t.tags[node.index()].set(block, Tag::ReadWrite);
        self.privs[node.index()].get_or_insert_with(block, || PrivCopy::new(init))
    }

    /// Load from a copy-on-write block during a phase.
    fn cow_read(&mut self, node: NodeId, addr: Addr, block: BlockId, detecting: bool) -> u32 {
        if let Some(p) = self.privs[node.index()].get(block) {
            // An invocation sees its own modifications.
            let t = self.inner.tempest_mut();
            t.machine.hit(node, Access::Read);
            return p.data.word(addr.word_in_block());
        }
        if self.inner.tempest().tags[node.index()]
            .get(block)
            .readable()
        {
            if detecting {
                // Record the reference so a read that hits a pre-phase
                // copy still counts as *actual* for §7.2 detection.
                if let Some(entry) = self.cow.get_mut(block) {
                    entry.readers.add(node);
                }
            }
            let t = self.inner.tempest_mut();
            t.machine.hit(node, Access::Read);
            return t.mem.read_word(addr);
        }
        // Clean-copy fetch.
        let entry = Self::ensure_entry(&mut self.cow, &mut self.inner, block);
        entry.readers.add(node);
        let t = self.inner.tempest_mut();
        t.fill(node, block, Access::Read, MsgKind::CleanFill);
        t.tags[node.index()].set(block, Tag::ReadOnly);
        t.mem.read_word(addr)
    }

    /// Store to a copy-on-write block during a phase.
    fn cow_write(&mut self, node: NodeId, addr: Addr, bits: u32, policy: RegionPolicy) {
        assert!(
            policy.merge.reduce_op().is_none(),
            "plain store to a reduction region at {addr}; use MemoryProtocol::reduce"
        );
        // The compiler marks possibly-conflicting stores; the memory
        // system itself catches the rest (copy *at the reference*).
        let p = self.mark_block(node, addr.block(), policy);
        let w = addr.word_in_block();
        p.data.set_word(w, bits);
        p.dirty.set(w);
        self.inner.tempest_mut().machine.hit(node, Access::Write);
    }

    /// Applies one reconciled entry to global state and invalidates the
    /// outstanding copies of the block.
    fn apply_entry(&mut self, block: BlockId, entry: &CowEntry, policy: RegionPolicy) {
        let home = self.inner.tempest().home_of(block);
        if entry.is_unwritten() {
            let holders = entry.absorbed.union(entry.readers);
            if self.strict_detection && policy.detect_conflicts {
                // Strict mode: read-only copies do not survive the
                // synchronization point, so next-phase reads re-fault and
                // every reference is observed (§7.2).
                self.invalidate_outstanding(home, block, holders);
            } else {
                // Nothing was modified: holders keep their (still clean)
                // copies and return to ordinary directory management.
                self.inner.restore_shared(block, holders);
            }
            return;
        }

        // Install the merged value as the new global state; reduction
        // contributions combine with the location's initial value.
        let t = self.inner.tempest_mut();
        let merged = match policy.merge.reduce_op() {
            None => entry.pending,
            Some(op) => {
                let mut cur = t.mem.read_block(block);
                op.combine_masked(
                    &mut cur,
                    WordMask::full(),
                    &entry.pending,
                    entry.pending_mask,
                );
                cur
            }
        };
        t.mem.merge_block(block, &merged, entry.pending_mask);
        self.inner.tempest_mut().machine.record(Event::Reconcile {
            block,
            versions: entry.versions,
        });
        self.reconciled_words[home.index()] += entry.pending_mask.count() as u64;

        // Read-write conflict detection (§7.2/7.3): a block with writers
        // whose read-only copies were outstanding during the phase.
        if policy.detect_conflicts {
            // A written block always has a recorded writer: merge_version
            // adds the flushing node to `writers` before the entry can
            // reach here non-unwritten. An empty set means the directory
            // state was corrupted (e.g. by a mishandled re-delivery), so
            // fail loudly with a cycle-stamped diagnostic instead of
            // silently blaming the home node.
            let Some(writer) = entry.writers.iter().next() else {
                panic!(
                    "reconcile of {:?} at cycle {}: modified block has an empty writer set \
                     (versions={}, readers={:?}); directory state is corrupt",
                    block,
                    self.inner.tempest().machine.time(),
                    entry.versions,
                    entry.readers,
                );
            };
            let readers = entry
                .absorbed
                .union(entry.readers)
                .difference(entry.writers);
            for r in readers.iter() {
                let actual = entry.readers.contains(r);
                self.conflicts.push(ConflictRecord {
                    block,
                    word: None,
                    kind: ConflictKind::ReadWrite { actual },
                    winner: writer,
                    loser: r,
                });
                let t = self.inner.tempest_mut();
                t.machine.stats_mut(home).rw_conflicts += 1;
                t.machine.record(Event::RwConflict { block });
            }
        }

        // Invalidate every outstanding copy of the modified block.
        self.invalidate_outstanding(home, block, entry.participants());
    }

    /// Invalidates the copy of `block` that each of `nodes` still holds.
    fn invalidate_outstanding(&mut self, home: NodeId, block: BlockId, nodes: SharerSet) {
        for p in nodes.iter() {
            if self.inner.tempest().tag(p, block) != Tag::Invalid {
                self.inner.invalidate_copy(home, p, block);
            }
        }
    }
}

impl Lcm {
    /// Charges `node`'s first touch of `block` in the nested phase (a
    /// fill from the layered pre-call state) or a hit thereafter.
    fn nested_touch_cost(&mut self, node: NodeId, block: BlockId, access: Access) {
        let np = self.nested.as_mut().expect("nested phase open");
        let first = np.touched[node.index()].insert(block);
        let t = self.inner.tempest_mut();
        if first {
            t.fill(node, block, access, MsgKind::CleanFill);
        } else {
            t.machine.hit(node, access);
        }
    }

    /// The inner call's pre-call value of `block`: the parent
    /// invocation's private version if it has one, else the global clean
    /// value.
    fn nested_base(&self, block: BlockId) -> lcm_sim::BlockBuf {
        let parent = self.nested.as_ref().expect("nested phase open").parent;
        match self.privs[parent.index()].get(block) {
            Some(pp) => pp.data,
            None => self.inner.tempest().mem.read_block(block),
        }
    }

    /// Load from a copy-on-write block during a nested phase.
    fn nested_read(&mut self, node: NodeId, addr: Addr, block: BlockId) -> u32 {
        let w = addr.word_in_block();
        if let Some(p) =
            self.nested.as_ref().expect("nested phase open").privs[node.index()].get(block)
        {
            let word = p.data.word(w);
            self.inner.tempest_mut().machine.hit(node, Access::Read);
            return word;
        }
        self.nested_touch_cost(node, block, Access::Read);
        self.nested_base(block).word(w)
    }

    /// Returns `node`'s inner private copy of `block`, creating it from
    /// the layered pre-call state (or the operator identity for
    /// reductions) if it does not already exist.
    fn nested_mark(&mut self, node: NodeId, block: BlockId, policy: RegionPolicy) -> &mut PrivCopy {
        let np = self.nested.as_ref().expect("nested phase open");
        if np.privs[node.index()].contains(block) {
            let np = self.nested.as_mut().expect("nested phase open");
            return np.privs[node.index()].get_mut(block).expect("contained");
        }
        self.nested_touch_cost(node, block, Access::Write);
        let init = match policy.merge.reduce_op() {
            Some(op) => op.identity_block(),
            None => self.nested_base(block),
        };
        let t = self.inner.tempest_mut();
        t.machine.stats_mut(node).marks += 1;
        t.machine
            .charge(node, CycleCat::FlushReconcile, Knob::CleanCopyCreate, 1);
        t.machine.record(Event::Mark { node, block });
        let np = self.nested.as_mut().expect("nested phase open");
        np.privs[node.index()].get_or_insert_with(block, || PrivCopy::new(init))
    }

    /// Store to a copy-on-write block during a nested phase.
    fn nested_write(&mut self, node: NodeId, addr: Addr, bits: u32, policy: RegionPolicy) {
        assert!(
            policy.merge.reduce_op().is_none(),
            "plain store to a reduction region at {addr}; use MemoryProtocol::reduce"
        );
        let p = self.nested_mark(node, addr.block(), policy);
        let w = addr.word_in_block();
        p.data.set_word(w, bits);
        p.dirty.set(w);
        self.inner.tempest_mut().machine.hit(node, Access::Write);
    }

    /// A reduction assignment during a nested phase.
    fn nested_reduce(
        &mut self,
        node: NodeId,
        addr: Addr,
        op: ReduceOp,
        bits: u64,
        policy: RegionPolicy,
    ) {
        assert_eq!(
            policy.merge.reduce_op(),
            Some(op),
            "reduction operator mismatch at {addr}: region registered with {:?}",
            policy.merge
        );
        let p = self.nested_mark(node, addr.block(), policy);
        op.accumulate(&mut p.data, &mut p.dirty, addr.word_in_block(), bits);
        self.inner.tempest_mut().machine.hit(node, Access::Write);
    }

    /// Returns `node`'s modified inner copies to their homes for merging
    /// into the nested entries. Reduction accumulators stay cached, as in
    /// the outer phase, unless `all` (the nested reconcile) drains them.
    fn nested_flush(&mut self, node: NodeId, all: bool) {
        let np = self.nested.as_mut().expect("nested phase open");
        let t = self.inner.tempest_mut();
        np.privs[node.index()].drain(
            |block, _| !all && self.policies.get(block).merge.reduce_op().is_some(),
            |block, p| {
                let entry = np
                    .entries
                    .get_or_insert_with(block, || CowEntry::new(SharerSet::empty()));
                let home = flush_home(t, node, block);
                let policy = self.policies.get(block);
                let ww =
                    entry.merge_version(node, &p.data, p.dirty, policy, block, &mut self.conflicts);
                if ww > 0 {
                    t.machine.stats_mut(home).ww_conflicts += ww;
                }
                // The node may fetch the layered state again on its next
                // touch.
                np.touched[node.index()].remove(&block);
            },
        );
    }
}

impl NestedProtocol for Lcm {
    fn begin_nested_phase(&mut self, parent: NodeId) {
        assert!(self.in_phase, "a nested phase needs an open outer phase");
        assert!(
            self.nested.is_none(),
            "only one level of nesting is supported"
        );
        let nodes = self.privs.len();
        self.nested = Some(NestedPhase::new(nodes, parent));
    }

    fn reconcile_nested(&mut self) {
        assert!(self.nested.is_some(), "no nested phase to reconcile");
        // Drain every node's remaining inner copies, including the
        // retained reduction accumulators.
        for n in 0..self.privs.len() {
            self.nested_flush(NodeId(n as u16), true);
        }
        // Apply the merged inner state into the parent's private copies,
        // in block order: the parent invocation now (privately) owns these
        // modifications.
        let mut np = self.nested.take().expect("nested phase open");
        let parent = np.parent;
        for (block, entry) in np.entries.in_block_order() {
            if entry.pending_mask.is_empty() {
                continue;
            }
            let policy = self.policies.get(block);
            let pp = self.mark_block(parent, block, policy);
            match policy.merge.reduce_op() {
                None => pp.data.merge_words(&entry.pending, entry.pending_mask),
                Some(op) => op.combine_masked(
                    &mut pp.data,
                    WordMask::full(),
                    &entry.pending,
                    entry.pending_mask,
                ),
            }
            pp.dirty = pp.dirty.union(entry.pending_mask);
        }
        self.inner.tempest_mut().machine.barrier();
    }

    fn in_nested_phase(&self) -> bool {
        self.nested.is_some()
    }
}

/// Ships a modified version from `from` to `to` for merging: the flush
/// message, the receiver's per-version reconcile work, and both ends'
/// counters.
fn ship_version(t: &mut Tempest, from: NodeId, to: NodeId) {
    t.net.send(&mut t.machine, from, to, MsgKind::Flush, true);
    t.machine
        .charge(to, CycleCat::FlushReconcile, Knob::ReconcilePerVersion, 1);
    t.machine.stats_mut(to).versions_reconciled += 1;
    t.machine.stats_mut(from).flushes += 1;
}

/// Flushes `node`'s version of `block` home: the block copy out of the
/// node's cache, then [`ship_version`] to the home, which it returns.
fn flush_home(t: &mut Tempest, node: NodeId, block: BlockId) -> NodeId {
    let home = t.home_of(block);
    t.machine
        .charge(node, CycleCat::FlushReconcile, Knob::BlockFlush, 1);
    ship_version(t, node, home);
    home
}

impl MemoryProtocol for Lcm {
    fn name(&self) -> &'static str {
        match self.variant {
            LcmVariant::Scc => "lcm-scc",
            LcmVariant::Mcc => "lcm-mcc",
        }
    }

    fn tempest(&self) -> &Tempest {
        self.inner.tempest()
    }

    fn tempest_mut(&mut self) -> &mut Tempest {
        self.inner.tempest_mut()
    }

    fn sanity_check(&self) -> Result<(), String> {
        self.verify_phase_invariants()?;
        if !self.in_phase {
            // Outside a phase every block is back under ordinary
            // directory management, so the inner Stache invariants must
            // hold too. (Mid-phase, absorbed blocks are deliberately out
            // of the directory and would trip the walk.)
            self.inner.verify_coherence_invariants()?;
        }
        Ok(())
    }

    fn policies(&self) -> &PolicyTable {
        &self.policies
    }

    fn policies_mut(&mut self) -> &mut PolicyTable {
        &mut self.policies
    }

    fn read_word(&mut self, node: NodeId, addr: Addr) -> u32 {
        debug_assert!(addr.is_word_aligned(), "unaligned load at {addr}");
        let block = addr.block();
        let policy = self.policies.get(block);
        match policy.coherence {
            CoherenceKind::CopyOnWrite if self.nested.is_some() => {
                self.nested_read(node, addr, block)
            }
            CoherenceKind::CopyOnWrite if self.in_phase => {
                self.cow_read(node, addr, block, policy.detect_conflicts)
            }
            CoherenceKind::Stale => self.stale.read(self.inner.tempest_mut(), node, addr, block),
            _ => self.inner.read_word(node, addr),
        }
    }

    fn write_word(&mut self, node: NodeId, addr: Addr, bits: u32) {
        debug_assert!(addr.is_word_aligned(), "unaligned store at {addr}");
        let block = addr.block();
        let policy = self.policies.get(block);
        match policy.coherence {
            CoherenceKind::CopyOnWrite if self.nested.is_some() => {
                self.nested_write(node, addr, bits, policy)
            }
            CoherenceKind::CopyOnWrite if self.in_phase => self.cow_write(node, addr, bits, policy),
            CoherenceKind::Stale => {
                self.stale
                    .write(self.inner.tempest_mut(), node, addr, bits, block)
            }
            _ => self.inner.write_word(node, addr, bits),
        }
    }

    fn mark_modification(&mut self, node: NodeId, addr: Addr) {
        assert!(self.in_phase, "mark_modification outside a parallel phase");
        let block = addr.block();
        let policy = self.policies.get(block);
        assert_eq!(
            policy.coherence,
            CoherenceKind::CopyOnWrite,
            "mark_modification on a non-copy-on-write region at {addr}"
        );
        self.mark_block(node, block, policy);
    }

    fn flush_copies(&mut self, node: NodeId) {
        if self.nested.is_some() {
            self.nested_flush(node, false);
            return;
        }
        let t = self.inner.tempest_mut();
        self.privs[node.index()].drain(
            // Reduction accumulators stay cached across invocations — "the
            // locally cached accumulators are reconciled into a single
            // value" when the parallel call completes (§7.1). A new
            // invocation seeing the accumulator is harmless: contributions
            // combine regardless of where they gather.
            |block, _| self.in_phase && self.policies.get(block).merge.reduce_op().is_some(),
            |block, p| {
                let policy = self.policies.get(block);
                let entry = self
                    .cow
                    .get_mut(block)
                    .expect("private copy has a phase entry");

                // Ship the version home and merge it there.
                t.machine.record(Event::SpanBegin {
                    node,
                    what: "flush",
                    block,
                });
                let home = flush_home(t, node, block);
                t.machine.record(Event::Flush { node, block });
                let ww =
                    entry.merge_version(node, &p.data, p.dirty, policy, block, &mut self.conflicts);
                if ww > 0 {
                    t.machine.stats_mut(home).ww_conflicts += ww;
                    t.machine.record(Event::WwConflict { block, word: 0 });
                }

                // Local transition: mcc reinitializes from the local clean
                // copy; scc drops the copy entirely.
                if self.variant == LcmVariant::Mcc && entry.mcc_clean.contains(node) {
                    t.machine
                        .charge(node, CycleCat::FlushReconcile, Knob::LocalRefill, 1);
                    t.tags[node.index()].set(block, Tag::ReadOnly);
                } else {
                    t.tags[node.index()].set(block, Tag::Invalid);
                }
                t.machine.record(Event::SpanEnd {
                    node,
                    what: "flush",
                    block,
                });
            },
        );
    }

    fn begin_parallel_phase(&mut self) {
        assert!(!self.in_phase, "nested parallel phases are not supported");
        self.in_phase = true;
    }

    fn in_parallel_phase(&self) -> bool {
        self.in_phase
    }

    fn reconcile_copies(&mut self) {
        if !self.in_phase {
            self.inner.tempest_mut().machine.barrier();
            return;
        }
        if self.tree_reconcile {
            self.tree_combine_reductions();
        }
        // Close the phase first so the final flush drains everything,
        // including reduction accumulators retained between invocations.
        self.in_phase = false;
        // Every processor returns its modified copies home…
        for n in 0..self.privs.len() {
            self.flush_copies(NodeId(n as u16));
        }
        // …then the homes reconcile and the system-wide invalidations run,
        // in block order. The table is cleared, not drained, so the next
        // phase reuses its capacity.
        let mut table = std::mem::take(&mut self.cow);
        for (block, entry) in table.in_block_order() {
            let policy = self.policies.get(block);
            let home = self.inner.tempest().home_of(block);
            self.inner.tempest_mut().machine.record(Event::SpanBegin {
                node: home,
                what: "reconcile",
                block,
            });
            self.apply_entry(block, entry, policy);
            self.inner.tempest_mut().machine.record(Event::SpanEnd {
                node: home,
                what: "reconcile",
                block,
            });
        }
        table.clear();
        self.cow = table;
        self.inner.tempest_mut().machine.barrier();
    }

    fn reduce(&mut self, node: NodeId, addr: Addr, op: ReduceOp, bits: u64) {
        let block = addr.block();
        let policy = self.policies.get(block);
        if self.nested.is_some() && policy.coherence == CoherenceKind::CopyOnWrite {
            self.nested_reduce(node, addr, op, bits, policy);
            return;
        }
        if !(self.in_phase && policy.coherence == CoherenceKind::CopyOnWrite) {
            // Outside a phase (or an unregistered location): fall back to
            // coherent read-modify-write, like any conventional system.
            self.reduce_coherent(node, addr, op, bits);
            return;
        }
        assert_eq!(
            policy.merge.reduce_op(),
            Some(op),
            "reduction operator mismatch at {addr}: region registered with {:?}",
            policy.merge
        );
        let p = self.mark_block(node, block, policy);
        op.accumulate(&mut p.data, &mut p.dirty, addr.word_in_block(), bits);
        self.inner.tempest_mut().machine.hit(node, Access::Write);
    }

    fn refresh_stale(&mut self, node: NodeId, addr: Addr) {
        self.stale
            .refresh(self.inner.tempest_mut(), node, addr.block());
    }

    /// LCM's checkpoint is *incremental*: the phase discipline already
    /// funnels every modification through the home at reconcile time, so
    /// the boundary only has to persist the words reconciled since the
    /// previous boundary (4 bytes each, at their homes) — there is no
    /// scattered dirty state to chase. The embedded Stache directory
    /// (blocks written *outside* phases, e.g. initialization) is flushed
    /// and downgraded once via
    /// [`Stache::checkpoint_writeback`](lcm_stache::Stache), after which
    /// it too contributes only its entry words until rewritten. This is
    /// the checkpoint-size asymmetry the recovery sweep measures against
    /// the non-incremental Stache capture.
    ///
    /// # Panics
    /// Panics if called inside an open parallel phase (checkpoints are a
    /// phase-boundary operation; mid-phase private copies are
    /// deliberately inconsistent and are never persisted).
    fn checkpoint(&mut self) -> CheckpointImage {
        assert!(
            !self.in_phase && self.nested.is_none(),
            "checkpoint inside a parallel phase"
        );
        let mut img = self.inner.checkpoint_writeback();
        for (n, counter) in self.reconciled_words.iter_mut().enumerate() {
            let words = std::mem::take(counter);
            img.words += words;
            img.per_node[n] += words * WORD_BYTES as u64;
        }
        img
    }

    fn take_conflicts(&mut self) -> Vec<ConflictRecord> {
        std::mem::take(&mut self.conflicts)
    }
}
