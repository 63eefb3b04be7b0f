//! Region policies: the RSM program/compiler interface.
//!
//! RSM exposes two points of control — the response to a copy *request*
//! and the *reconciliation* of returned copies — selected per region of
//! memory through directives. A [`PolicyTable`] maps block ranges to
//! [`RegionPolicy`] values; the C\*\* compiler registers its aggregates as
//! copy-on-write regions, its reduction targets as reduction regions, and
//! leaves everything else under the default coherent policy.

use crate::reconcile::MergePolicy;
use lcm_sim::mem::BlockId;
use std::cell::Cell;

/// How requests for blocks of a region are served.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum CoherenceKind {
    /// Ordinary sequentially-consistent cache coherence (the Stache
    /// default): single writer, many readers, eager invalidation.
    #[default]
    Coherent,
    /// LCM copy-on-write: `mark_modification` creates private writable
    /// copies; plain reads see the pre-phase (clean) value until
    /// `reconcile_copies`.
    CopyOnWrite,
    /// Stale-data (§7.5): read-only copies are allowed to age; consumers
    /// refresh explicitly. Writes behave as `Coherent`.
    Stale,
}

/// The full policy of one region.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct RegionPolicy {
    /// Request-side behavior.
    pub coherence: CoherenceKind,
    /// Reconcile-side behavior.
    pub merge: MergePolicy,
    /// When set, reconciliation records write-write and read-write
    /// conflicts (§7.2/7.3) instead of silently keeping one value.
    pub detect_conflicts: bool,
}

impl RegionPolicy {
    /// The default coherent, keep-one, non-detecting policy.
    pub fn coherent() -> RegionPolicy {
        RegionPolicy::default()
    }

    /// A copy-on-write policy with the given merge behavior.
    pub fn copy_on_write(merge: MergePolicy) -> RegionPolicy {
        RegionPolicy {
            coherence: CoherenceKind::CopyOnWrite,
            merge,
            detect_conflicts: false,
        }
    }

    /// A stale-data policy.
    pub fn stale() -> RegionPolicy {
        RegionPolicy {
            coherence: CoherenceKind::Stale,
            ..RegionPolicy::default()
        }
    }

    /// Returns this policy with conflict detection enabled.
    pub fn detecting(mut self) -> RegionPolicy {
        self.detect_conflicts = true;
        self
    }
}

/// A block range with an associated policy.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Entry {
    first: BlockId,
    end: BlockId, // exclusive
    policy: RegionPolicy,
}

/// Maps block ranges to policies; unmapped blocks are [`RegionPolicy::coherent`].
///
/// Ranges may not overlap (a block has exactly one policy); re-registering
/// an identical range replaces its policy, which is how the C\*\* runtime
/// flips an aggregate between phases.
///
/// ```
/// use lcm_rsm::{PolicyTable, RegionPolicy, MergePolicy, CoherenceKind};
/// use lcm_sim::mem::BlockId;
///
/// let mut t = PolicyTable::new();
/// t.set(BlockId(10), BlockId(20), RegionPolicy::copy_on_write(MergePolicy::KeepOne));
/// assert_eq!(t.get(BlockId(15)).coherence, CoherenceKind::CopyOnWrite);
/// assert_eq!(t.get(BlockId(20)).coherence, CoherenceKind::Coherent); // end is exclusive
/// ```
#[derive(Clone, Debug, Default)]
pub struct PolicyTable {
    entries: Vec<Entry>, // sorted by `first`
    last_hit: Cell<usize>,
}

impl PolicyTable {
    /// An empty table (everything coherent).
    pub fn new() -> PolicyTable {
        PolicyTable::default()
    }

    /// Registers `policy` for blocks `first..end`.
    ///
    /// # Panics
    /// Panics if the range is empty or overlaps an existing range other
    /// than exactly (which replaces).
    pub fn set(&mut self, first: BlockId, end: BlockId, policy: RegionPolicy) {
        assert!(first < end, "empty policy range");
        match self.find(first) {
            Some(i) => {
                let e = &mut self.entries[i];
                assert!(
                    e.first == first && e.end == end,
                    "policy range {:?}..{:?} overlaps existing {:?}..{:?}",
                    first,
                    end,
                    e.first,
                    e.end
                );
                e.policy = policy;
            }
            None => {
                let pos = self.entries.partition_point(|e| e.first < first);
                if let Some(next) = self.entries.get(pos) {
                    assert!(end <= next.first, "policy range overlaps a later range");
                }
                self.entries.insert(pos, Entry { first, end, policy });
            }
        }
    }

    /// Removes the policy registered at exactly `first..end`, restoring the
    /// default for those blocks.
    ///
    /// # Panics
    /// Panics if no such exact range is registered.
    pub fn remove(&mut self, first: BlockId, end: BlockId) {
        let i = self.find(first).expect("no policy registered for range");
        assert!(
            self.entries[i].first == first && self.entries[i].end == end,
            "range mismatch on remove"
        );
        self.entries.remove(i);
        self.last_hit.set(0);
    }

    /// The policy of `block` (default coherent when unmapped).
    #[inline]
    pub fn get(&self, block: BlockId) -> RegionPolicy {
        const DEFAULT: RegionPolicy = RegionPolicy {
            coherence: CoherenceKind::Coherent,
            merge: MergePolicy::KeepOne,
            detect_conflicts: false,
        };
        match self.find(block) {
            Some(i) => self.entries[i].policy,
            None => DEFAULT,
        }
    }

    /// Index of the entry containing `block`, with a one-entry lookaside.
    fn find(&self, block: BlockId) -> Option<usize> {
        let hint = self.last_hit.get();
        if let Some(e) = self.entries.get(hint) {
            if block >= e.first && block < e.end {
                return Some(hint);
            }
        }
        let pos = self.entries.partition_point(|e| e.end <= block);
        let e = self.entries.get(pos)?;
        if block >= e.first && block < e.end {
            self.last_hit.set(pos);
            Some(pos)
        } else {
            None
        }
    }

    /// Number of registered ranges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no range is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconcile::ReduceOp;

    #[test]
    fn default_policy_is_coherent_keep_one() {
        let t = PolicyTable::new();
        let p = t.get(BlockId(123));
        assert_eq!(p.coherence, CoherenceKind::Coherent);
        assert_eq!(p.merge, MergePolicy::KeepOne);
        assert!(!p.detect_conflicts);
        assert!(t.is_empty());
    }

    #[test]
    fn ranges_are_half_open() {
        let mut t = PolicyTable::new();
        t.set(
            BlockId(10),
            BlockId(20),
            RegionPolicy::copy_on_write(MergePolicy::KeepOne),
        );
        assert_eq!(t.get(BlockId(9)).coherence, CoherenceKind::Coherent);
        assert_eq!(t.get(BlockId(10)).coherence, CoherenceKind::CopyOnWrite);
        assert_eq!(t.get(BlockId(19)).coherence, CoherenceKind::CopyOnWrite);
        assert_eq!(t.get(BlockId(20)).coherence, CoherenceKind::Coherent);
    }

    #[test]
    fn multiple_disjoint_ranges() {
        let mut t = PolicyTable::new();
        t.set(BlockId(0), BlockId(5), RegionPolicy::stale());
        t.set(
            BlockId(100),
            BlockId(200),
            RegionPolicy::copy_on_write(MergePolicy::Reduce(ReduceOp::SumF32)),
        );
        t.set(
            BlockId(10),
            BlockId(20),
            RegionPolicy::coherent().detecting(),
        );
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(BlockId(3)).coherence, CoherenceKind::Stale);
        assert!(t.get(BlockId(15)).detect_conflicts);
        assert_eq!(
            t.get(BlockId(150)).merge.reduce_op(),
            Some(ReduceOp::SumF32)
        );
        assert_eq!(t.get(BlockId(50)).coherence, CoherenceKind::Coherent);
    }

    #[test]
    fn exact_replace_updates_policy() {
        let mut t = PolicyTable::new();
        t.set(BlockId(10), BlockId(20), RegionPolicy::coherent());
        t.set(BlockId(10), BlockId(20), RegionPolicy::stale());
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(BlockId(12)).coherence, CoherenceKind::Stale);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_ranges_rejected() {
        let mut t = PolicyTable::new();
        t.set(BlockId(10), BlockId(20), RegionPolicy::coherent());
        t.set(BlockId(15), BlockId(25), RegionPolicy::stale());
    }

    #[test]
    #[should_panic(expected = "overlaps a later range")]
    fn overlap_from_below_rejected() {
        let mut t = PolicyTable::new();
        t.set(BlockId(10), BlockId(20), RegionPolicy::coherent());
        t.set(BlockId(5), BlockId(15), RegionPolicy::stale());
    }

    #[test]
    #[should_panic(expected = "empty policy range")]
    fn empty_range_rejected() {
        PolicyTable::new().set(BlockId(5), BlockId(5), RegionPolicy::coherent());
    }

    #[test]
    fn remove_restores_default() {
        let mut t = PolicyTable::new();
        t.set(BlockId(10), BlockId(20), RegionPolicy::stale());
        t.remove(BlockId(10), BlockId(20));
        assert_eq!(t.get(BlockId(15)).coherence, CoherenceKind::Coherent);
        assert!(t.is_empty());
    }

    #[test]
    fn lookaside_survives_alternating_lookups() {
        let mut t = PolicyTable::new();
        t.set(BlockId(0), BlockId(10), RegionPolicy::stale());
        t.set(
            BlockId(20),
            BlockId(30),
            RegionPolicy::coherent().detecting(),
        );
        for _ in 0..10 {
            assert_eq!(t.get(BlockId(5)).coherence, CoherenceKind::Stale);
            assert!(t.get(BlockId(25)).detect_conflicts);
            assert_eq!(t.get(BlockId(15)).coherence, CoherenceKind::Coherent);
        }
    }

    #[test]
    fn builders_compose() {
        let p = RegionPolicy::copy_on_write(MergePolicy::KeepOne).detecting();
        assert_eq!(p.coherence, CoherenceKind::CopyOnWrite);
        assert!(p.detect_conflicts);
    }
}
