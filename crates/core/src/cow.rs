//! Copy-on-write bookkeeping: private copies and per-block phase entries.
//!
//! During a parallel phase, each `mark_modification` gives the marking
//! node a [`PrivCopy`] — an inconsistent, writable version of the block,
//! private to that node's current invocation. The block's home tracks the
//! phase in a [`CowEntry`]: who holds clean read-only copies, who has
//! written, the merged value of all flushed versions, and enough per-word
//! provenance to detect conflicting claims.
//!
//! Both live in a `BlockTable`, the one block-keyed container of LCM's
//! phase state: a node's private copies in insertion (mark) order, with
//! one drain that every flush and reconcile goes through, and the
//! phase's entries, which reconcile walks in block order.

use lcm_rsm::{ConflictKind, ConflictRecord, KeepOrder, MergePolicy, RegionPolicy};
use lcm_sim::mem::{BlockBuf, BlockId, BlockMap, WordMask, WORDS_PER_BLOCK};
use lcm_sim::NodeId;
use lcm_stache::SharerSet;

/// A node's private, writable version of one block.
#[derive(Copy, Clone, Debug)]
pub struct PrivCopy {
    /// The version's contents. Initialized from the clean value for
    /// keep-one regions and from the operator identity for reductions.
    pub data: BlockBuf,
    /// Which words this version has stored to.
    pub dirty: WordMask,
}

impl PrivCopy {
    /// A private copy initialized from `data` with nothing dirty.
    pub fn new(data: BlockBuf) -> PrivCopy {
        PrivCopy {
            data,
            dirty: WordMask::empty(),
        }
    }
}

/// Sentinel in [`CowEntry::word_writer`] meaning "no claim yet".
const NO_WRITER: u16 = u16::MAX;

/// Home-side state of one block during a parallel phase.
#[derive(Clone, Debug)]
pub struct CowEntry {
    /// Nodes that held copies when the block entered the phase (absorbed
    /// from the Stache directory). Potential readers for §7.2 detection.
    pub absorbed: SharerSet,
    /// Nodes that fetched a clean copy during the phase (actual readers).
    pub readers: SharerSet,
    /// Nodes that marked (and possibly flushed) private copies.
    pub writers: SharerSet,
    /// Nodes holding a node-local clean copy (LCM-mcc only).
    pub mcc_clean: SharerSet,
    /// True once the home's clean copy has been established.
    pub home_clean: bool,
    /// The merge of all flushed versions so far.
    pub pending: BlockBuf,
    /// Words claimed in `pending`.
    pub pending_mask: WordMask,
    /// Per-word id of the node whose claim currently stands.
    word_writer: [u16; WORDS_PER_BLOCK],
    /// Number of versions flushed home this phase.
    pub versions: u32,
}

impl CowEntry {
    /// A fresh entry absorbing the block's pre-phase holders.
    pub fn new(absorbed: SharerSet) -> CowEntry {
        CowEntry {
            absorbed,
            readers: SharerSet::empty(),
            writers: SharerSet::empty(),
            mcc_clean: SharerSet::empty(),
            home_clean: false,
            pending: BlockBuf::zeroed(),
            pending_mask: WordMask::empty(),
            word_writer: [NO_WRITER; WORDS_PER_BLOCK],
            versions: 0,
        }
    }

    /// True when no version has been flushed and nobody marked the block.
    pub fn is_unwritten(&self) -> bool {
        self.writers.is_empty() && self.pending_mask.is_empty()
    }

    /// The node whose claim stands on word `w`, if any.
    pub fn word_writer(&self, w: usize) -> Option<NodeId> {
        let id = self.word_writer[w];
        (id != NO_WRITER).then_some(NodeId(id))
    }

    /// Every node involved with the block this phase (for invalidation).
    pub fn participants(&self) -> SharerSet {
        self.absorbed
            .union(self.readers)
            .union(self.writers)
            .union(self.mcc_clean)
    }

    /// Merges one flushed version into the pending value according to the
    /// region's merge policy. Returns the number of write-write conflicts
    /// found; when `policy.detect_conflicts`, also appends a record per
    /// conflict to `conflicts`.
    ///
    /// # Panics
    /// Panics if an 8-byte reduction version arrives with a torn (single
    /// word of a pair) dirty mask.
    pub fn merge_version(
        &mut self,
        node: NodeId,
        data: &BlockBuf,
        dirty: WordMask,
        policy: RegionPolicy,
        block: BlockId,
        conflicts: &mut Vec<ConflictRecord>,
    ) -> u64 {
        self.versions += 1;
        self.writers.add(node);
        match policy.merge {
            MergePolicy::KeepOne | MergePolicy::KeepOneOrdered(_) => {
                let order = policy.merge.keep_order();
                let overlap = self.pending_mask.intersect(dirty);
                let mut ww = 0;
                for w in overlap.iter_set() {
                    ww += 1;
                    let prev = self.word_writer(w).expect("claimed word has a writer");
                    let (winner, loser) = match order {
                        KeepOrder::LastWins => (node, prev),
                        KeepOrder::FirstWins => (prev, node),
                    };
                    if policy.detect_conflicts {
                        conflicts.push(ConflictRecord {
                            block,
                            word: Some(w as u8),
                            kind: ConflictKind::WriteWrite,
                            winner,
                            loser,
                        });
                    }
                }
                let claimed = match order {
                    KeepOrder::LastWins => dirty,
                    KeepOrder::FirstWins => dirty.minus(self.pending_mask),
                };
                self.pending.merge_words(data, claimed);
                for w in claimed.iter_set() {
                    self.word_writer[w] = node.0;
                }
                self.pending_mask = self.pending_mask.union(dirty);
                ww
            }
            MergePolicy::Reduce(op) => {
                // Every contribution combines with what the home holds,
                // and an unclaimed word holds the identity.
                if self.pending_mask.is_empty() {
                    self.pending = op.identity_block();
                }
                op.combine_masked(&mut self.pending, WordMask::full(), data, dirty);
                for w in dirty.iter_set() {
                    self.word_writer[w] = node.0;
                }
                self.pending_mask = self.pending_mask.union(dirty);
                0 // reductions combine; concurrent contributions are not conflicts
            }
        }
    }
}

/// A block-keyed slab: a page-indexed block-to-slot index (a
/// [`BlockMap`]) over a `Vec` of `(block, value)` pairs kept in
/// insertion order.
///
/// LCM keeps all of its phase state in tables of this one type: each
/// node's private copies, the phase's [`CowEntry`]s, and the same two
/// for an open nested phase. Values never move on insert, so the index
/// holds 4-byte slots however large the value (an entry is over 500
/// bytes); slot 0 means "no value", so a block's slot is its position
/// plus one. [`BlockTable::drain`] hands copies out in insertion order:
/// the order a node marked them, which is the order its flushes ship
/// them. `drain` and [`BlockTable::clear`] reset only the slots of the
/// blocks they remove, in O(len), and keep the index's pages, so the
/// next invocation or phase refills the table without regrowing it.
#[derive(Clone, Debug)]
pub(crate) struct BlockTable<T> {
    slots: BlockMap<u32>,
    items: Vec<(BlockId, T)>,
    /// Reusable `(block, slot)` buffer for [`BlockTable::in_block_order`].
    order: Vec<(BlockId, u32)>,
}

impl<T> Default for BlockTable<T> {
    fn default() -> Self {
        BlockTable {
            slots: BlockMap::default(),
            items: Vec::new(),
            order: Vec::new(),
        }
    }
}

impl<T> BlockTable<T> {
    /// Number of blocks with a value.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no block has a value.
    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Index into `items` of `block`'s value, if it has one.
    #[inline]
    fn index(&self, block: BlockId) -> Option<usize> {
        (*self.slots.get(block) as usize).checked_sub(1)
    }

    /// True when `block` has a value.
    pub(crate) fn contains(&self, block: BlockId) -> bool {
        self.index(block).is_some()
    }

    /// The value of `block`, if it has one.
    pub(crate) fn get(&self, block: BlockId) -> Option<&T> {
        Some(&self.items[self.index(block)?].1)
    }

    /// The value of `block`, mutably, if it has one.
    pub(crate) fn get_mut(&mut self, block: BlockId) -> Option<&mut T> {
        let index = self.index(block)?;
        Some(&mut self.items[index].1)
    }

    /// The value of `block`, created by `new` (and appended to the
    /// insertion order) if the block has none yet.
    pub(crate) fn get_or_insert_with(&mut self, block: BlockId, new: impl FnOnce() -> T) -> &mut T {
        let slot = self.slots.get_mut(block);
        if *slot == 0 {
            self.items.push((block, new()));
            *slot = u32::try_from(self.items.len()).expect("under 2^32 blocks per table");
        }
        let index = *slot as usize - 1;
        &mut self.items[index].1
    }

    /// Every value, in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (BlockId, &T)> + '_ {
        self.items.iter().map(|(block, value)| (*block, value))
    }

    /// Every value, in ascending block order: the order reconciles apply
    /// phase entries in.
    pub(crate) fn in_block_order(&mut self) -> impl Iterator<Item = (BlockId, &T)> + '_ {
        self.order.clear();
        self.order
            .extend(self.items.iter().map(|(block, _)| *block).zip(0..));
        self.order.sort_unstable_by_key(|&(block, _)| block);
        self.order
            .iter()
            .map(|&(block, index)| (block, &self.items[index as usize].1))
    }

    /// Removes, in insertion order, every value that `keep` does not
    /// retain and hands it to `take`. Retained values stay in their
    /// relative order, ahead of whatever is inserted next.
    pub(crate) fn drain(
        &mut self,
        mut keep: impl FnMut(BlockId, &T) -> bool,
        mut take: impl FnMut(BlockId, T),
    ) {
        let slots = &mut self.slots;
        let mut kept = 0;
        let removed = self.items.extract_if(.., |(block, value)| {
            let retain = keep(*block, value);
            kept += u32::from(retain);
            *slots.get_mut(*block) = if retain { kept } else { 0 };
            !retain
        });
        for (block, value) in removed {
            take(block, value);
        }
    }

    /// Drops every value, keeping the containers' capacity and pages.
    pub(crate) fn clear(&mut self) {
        for &(block, _) in &self.items {
            self.slots.set(block, 0);
        }
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_rsm::ReduceOp;
    use lcm_sim::mem::BLOCKS_PER_PAGE;
    use proptest::prelude::*;

    fn buf_with(words: &[(usize, u32)]) -> BlockBuf {
        let mut b = BlockBuf::zeroed();
        for &(w, v) in words {
            b.set_word(w, v);
        }
        b
    }

    fn mask_of(words: &[usize]) -> WordMask {
        let mut m = WordMask::empty();
        for &w in words {
            m.set(w);
        }
        m
    }

    #[test]
    fn disjoint_keep_one_versions_merge_cleanly() {
        let mut e = CowEntry::new(SharerSet::empty());
        let mut conflicts = Vec::new();
        let p = RegionPolicy::copy_on_write(MergePolicy::KeepOne);
        let ww = e.merge_version(
            NodeId(1),
            &buf_with(&[(0, 10)]),
            mask_of(&[0]),
            p,
            BlockId(7),
            &mut conflicts,
        );
        assert_eq!(ww, 0);
        let ww = e.merge_version(
            NodeId(2),
            &buf_with(&[(3, 30)]),
            mask_of(&[3]),
            p,
            BlockId(7),
            &mut conflicts,
        );
        assert_eq!(ww, 0);
        assert_eq!(e.pending.word(0), 10);
        assert_eq!(e.pending.word(3), 30);
        assert_eq!(e.versions, 2);
        assert_eq!(e.word_writer(0), Some(NodeId(1)));
        assert_eq!(e.word_writer(3), Some(NodeId(2)));
        assert!(conflicts.is_empty());
        assert!(!e.is_unwritten());
    }

    #[test]
    fn overlapping_claims_count_conflicts_last_wins() {
        let mut e = CowEntry::new(SharerSet::empty());
        let mut conflicts = Vec::new();
        let p = RegionPolicy::copy_on_write(MergePolicy::KeepOne).detecting();
        e.merge_version(
            NodeId(1),
            &buf_with(&[(2, 100)]),
            mask_of(&[2]),
            p,
            BlockId(7),
            &mut conflicts,
        );
        let ww = e.merge_version(
            NodeId(2),
            &buf_with(&[(2, 200)]),
            mask_of(&[2]),
            p,
            BlockId(7),
            &mut conflicts,
        );
        assert_eq!(ww, 1);
        assert_eq!(e.pending.word(2), 200, "last arrival wins");
        assert_eq!(e.word_writer(2), Some(NodeId(2)));
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].winner, NodeId(2));
        assert_eq!(conflicts[0].loser, NodeId(1));
        assert_eq!(conflicts[0].word, Some(2));
    }

    #[test]
    fn first_wins_keeps_earlier_claim() {
        let mut e = CowEntry::new(SharerSet::empty());
        let mut conflicts = Vec::new();
        let p = RegionPolicy::copy_on_write(MergePolicy::KeepOneOrdered(KeepOrder::FirstWins))
            .detecting();
        e.merge_version(
            NodeId(1),
            &buf_with(&[(2, 100)]),
            mask_of(&[2]),
            p,
            BlockId(7),
            &mut conflicts,
        );
        e.merge_version(
            NodeId(2),
            &buf_with(&[(2, 200), (3, 300)]),
            mask_of(&[2, 3]),
            p,
            BlockId(7),
            &mut conflicts,
        );
        assert_eq!(e.pending.word(2), 100, "first arrival wins");
        assert_eq!(e.pending.word(3), 300, "unclaimed word still merges");
        assert_eq!(e.word_writer(2), Some(NodeId(1)));
        assert_eq!(conflicts[0].winner, NodeId(1));
        assert_eq!(conflicts[0].loser, NodeId(2));
    }

    #[test]
    fn conflicts_counted_but_not_recorded_without_detection() {
        let mut e = CowEntry::new(SharerSet::empty());
        let mut conflicts = Vec::new();
        let p = RegionPolicy::copy_on_write(MergePolicy::KeepOne); // not detecting
        e.merge_version(
            NodeId(1),
            &buf_with(&[(2, 1)]),
            mask_of(&[2]),
            p,
            BlockId(7),
            &mut conflicts,
        );
        let ww = e.merge_version(
            NodeId(2),
            &buf_with(&[(2, 2)]),
            mask_of(&[2]),
            p,
            BlockId(7),
            &mut conflicts,
        );
        assert_eq!(ww, 1);
        assert!(conflicts.is_empty());
    }

    #[test]
    fn reduction_versions_combine() {
        let mut e = CowEntry::new(SharerSet::empty());
        let mut conflicts = Vec::new();
        let p = RegionPolicy::copy_on_write(MergePolicy::Reduce(ReduceOp::SumF32));
        let a = buf_with(&[(0, f32::to_bits(1.5))]);
        let b = buf_with(&[(0, f32::to_bits(2.0))]);
        let ww1 = e.merge_version(NodeId(1), &a, mask_of(&[0]), p, BlockId(7), &mut conflicts);
        let ww2 = e.merge_version(NodeId(2), &b, mask_of(&[0]), p, BlockId(7), &mut conflicts);
        assert_eq!(
            (ww1, ww2),
            (0, 0),
            "reduction contributions are not conflicts"
        );
        assert_eq!(f32::from_bits(e.pending.word(0)), 3.5);
    }

    #[test]
    fn f64_reduction_combines_pairs() {
        let mut e = CowEntry::new(SharerSet::empty());
        let mut conflicts = Vec::new();
        let p = RegionPolicy::copy_on_write(MergePolicy::Reduce(ReduceOp::SumF64));
        let mut a = BlockBuf::zeroed();
        a.set_f64(0, 10.0);
        let mut b = BlockBuf::zeroed();
        b.set_f64(0, 2.5);
        e.merge_version(
            NodeId(1),
            &a,
            mask_of(&[0, 1]),
            p,
            BlockId(7),
            &mut conflicts,
        );
        e.merge_version(
            NodeId(2),
            &b,
            mask_of(&[0, 1]),
            p,
            BlockId(7),
            &mut conflicts,
        );
        assert_eq!(e.pending.f64(0), 12.5);
    }

    #[test]
    #[should_panic(expected = "torn 8-byte reduction")]
    fn torn_f64_reduction_rejected() {
        let mut e = CowEntry::new(SharerSet::empty());
        let mut conflicts = Vec::new();
        let p = RegionPolicy::copy_on_write(MergePolicy::Reduce(ReduceOp::SumF64));
        e.merge_version(
            NodeId(1),
            &BlockBuf::zeroed(),
            mask_of(&[0]),
            p,
            BlockId(7),
            &mut conflicts,
        );
    }

    #[test]
    fn participants_unions_all_sets() {
        let mut e = CowEntry::new(SharerSet::single(NodeId(0)));
        e.readers.add(NodeId(1));
        e.writers.add(NodeId(2));
        e.mcc_clean.add(NodeId(3));
        let p = e.participants();
        for i in 0..4 {
            assert!(p.contains(NodeId(i)));
        }
        assert_eq!(p.count(), 4);
    }

    fn table_of(blocks: &[u64]) -> BlockTable<u64> {
        let mut t = BlockTable::default();
        for &b in blocks {
            *t.get_or_insert_with(BlockId(b), || 0) += b;
        }
        t
    }

    fn blocks_of(t: &BlockTable<u64>) -> Vec<u64> {
        t.iter().map(|(b, _)| b.0).collect()
    }

    #[test]
    fn table_walks_in_insertion_and_block_order() {
        let mut t = table_of(&[9, 2, 7, 2, 4]);
        assert_eq!(t.len(), 4, "a repeated block keeps its one slot");
        assert_eq!(t.get(BlockId(2)), Some(&4));
        assert_eq!(blocks_of(&t), [9, 2, 7, 4]);
        let sorted: Vec<u64> = t.in_block_order().map(|(b, _)| b.0).collect();
        assert_eq!(sorted, [2, 4, 7, 9]);
        assert_eq!(
            blocks_of(&t),
            [9, 2, 7, 4],
            "a sorted walk reorders nothing"
        );
    }

    #[test]
    fn drain_takes_in_insertion_order_and_keeps_the_rest_in_theirs() {
        let mut t = table_of(&[5, 8, 1, 6, 3, 4]);
        let mut taken = Vec::new();
        t.drain(|b, _| b.0 % 2 == 0, |b, v| taken.push((b.0, v)));
        assert_eq!(taken, [(5, 5), (1, 1), (3, 3)]);
        assert_eq!(blocks_of(&t), [8, 6, 4]);
        // The index follows the survivors to their new slots.
        for b in [8, 6, 4] {
            assert_eq!(t.get(BlockId(b)), Some(&b));
        }
        for b in [5, 1, 3] {
            assert!(!t.contains(BlockId(b)));
        }
        // New values land after the survivors.
        *t.get_or_insert_with(BlockId(5), || 50) += 1;
        *t.get_mut(BlockId(6)).unwrap() += 1;
        assert_eq!(blocks_of(&t), [8, 6, 4, 5]);
        assert_eq!(
            (t.get(BlockId(5)), t.get(BlockId(6))),
            (Some(&51), Some(&7))
        );
        t.drain(|_, _| false, |_, _| {});
        assert!(t.is_empty() && t.get(BlockId(8)).is_none());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut t = table_of(&[3, 1, 2, 300]);
        let cap = t.items.capacity();
        t.clear();
        assert!(t.is_empty() && !t.contains(BlockId(1)));
        assert_eq!(t.items.capacity(), cap);
        assert_eq!(t.slots.pages(), 2, "the index keeps its pages");
        *t.get_or_insert_with(BlockId(2), || 10) += 1;
        assert_eq!(blocks_of(&t), [2]);
        assert_eq!(t.get(BlockId(2)), Some(&11));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One table reused across random inserts, lookups, drains and
        /// clears matches a `Vec` of `(block, value)` in insertion order:
        /// iteration keeps that order, `in_block_order` sorts it, a drain
        /// takes in it and keeps the survivors in it, and no drained or
        /// cleared block is found again.
        #[test]
        fn table_matches_an_insertion_ordered_vec(
            ops in proptest::collection::vec((0u8..8, 0u64..3, 0u64..6, any::<u8>()), 0..200),
        ) {
            let mut t: BlockTable<u64> = BlockTable::default();
            let mut model: Vec<(BlockId, u64)> = Vec::new();
            let mut next = 0u64;
            for &(op, page, slot, salt) in &ops {
                let block = BlockId(page * BLOCKS_PER_PAGE as u64 + slot * 25);
                match op {
                    0 => {
                        t.clear();
                        model.clear();
                    }
                    1 => {
                        let keep = |b: BlockId, v: u64| !(b.0 + v + u64::from(salt)).is_multiple_of(3);
                        let mut taken = Vec::new();
                        t.drain(|b, &v| keep(b, v), |b, v| taken.push((b, v)));
                        let expect: Vec<(BlockId, u64)> =
                            model.iter().copied().filter(|&(b, v)| !keep(b, v)).collect();
                        model.retain(|&(b, v)| keep(b, v));
                        prop_assert_eq!(taken, expect);
                    }
                    2 => {
                        let expect = model.iter().find(|e| e.0 == block).map(|e| e.1);
                        prop_assert_eq!(t.get(block).copied(), expect);
                        prop_assert_eq!(t.contains(block), expect.is_some());
                    }
                    _ => {
                        next += 1;
                        let v = *t.get_or_insert_with(block, || next);
                        match model.iter().find(|e| e.0 == block) {
                            Some(&(_, old)) => prop_assert_eq!(v, old),
                            None => {
                                prop_assert_eq!(v, next);
                                model.push((block, next));
                            }
                        }
                    }
                }
                let listed: Vec<(BlockId, u64)> = t.iter().map(|(b, &v)| (b, v)).collect();
                prop_assert_eq!(&listed, &model);
                prop_assert_eq!(t.len(), model.len());
                let mut sorted = model.clone();
                sorted.sort_unstable();
                let walked: Vec<(BlockId, u64)> =
                    t.in_block_order().map(|(b, &v)| (b, v)).collect();
                prop_assert_eq!(walked, sorted);
            }
            for key in 0..5 * BLOCKS_PER_PAGE as u64 {
                let block = BlockId(key);
                let expect = model.iter().find(|e| e.0 == block).map(|e| e.1);
                prop_assert_eq!(t.get(block).copied(), expect, "block {}", key);
            }
        }
    }

    #[test]
    fn fresh_entry_is_unwritten() {
        let mut e = CowEntry::new(SharerSet::single(NodeId(5)));
        assert!(e.is_unwritten());
        e.readers.add(NodeId(1));
        assert!(e.is_unwritten(), "readers alone leave the block unwritten");
        assert_eq!(e.word_writer(0), None);
    }
}
