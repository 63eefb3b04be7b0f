//! Directory state under a pluggable sharer-set representation.
//!
//! Each block's home node records who caches the block and with what
//! rights. The directory enforces the classic single-writer/many-reader
//! invariant of sequentially-consistent coherence; LCM relaxes exactly
//! this invariant for its marked blocks by taking them *out* of the
//! directory for the duration of a parallel phase (see `lcm-core`).
//!
//! The simulator always tracks *exact* membership — that is its oracle
//! for tags and residency. What the modeled directory hardware can
//! *represent* is chosen by [`lcm_sim::DirBackend`], and governs the
//! **invalidation target set** ([`Directory::inval_targets`]):
//!
//! * full-map — targets are exactly the sharers;
//! * limited-pointer — an entry that ever exceeded its pointer capacity
//!   is sticky *overflowed*: targets become every node of the machine
//!   (broadcast) until the entry is rebuilt from scratch (taken idle,
//!   or re-created from an `Idle`/`Exclusive` state);
//! * coarse-vector — targets are the sharers' group footprint: every
//!   node of every `ceil(nodes/bits)`-sized bucket holding a sharer.
//!
//! Over-invalidation is correct (a spurious invalidation finds an
//! already-invalid tag and is acked) but costs messages and handler
//! cycles, which is exactly the scalability trade the backends model.

use crate::sharers::SharerSet;
use lcm_sim::mem::{BlockId, BlockMap};
use lcm_sim::{DirBackend, NodeId};

/// Directory state of one block.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum DirState {
    /// No cached copies; the home value is the only copy.
    #[default]
    Idle,
    /// Read-only copies at the given (non-empty) set of nodes.
    Shared(SharerSet),
    /// One writable copy at the given node.
    Exclusive(NodeId),
}

impl DirState {
    /// Every node holding a copy under this state.
    pub fn holders(self) -> SharerSet {
        match self {
            DirState::Idle => SharerSet::empty(),
            DirState::Shared(s) => s,
            DirState::Exclusive(n) => SharerSet::single(n),
        }
    }
}

/// One directory entry. The limited-pointer overflow flag is folded into
/// the variant, so an entry is no larger than a [`DirState`].
#[derive(Copy, Clone, Debug, Default, PartialEq)]
enum Entry {
    #[default]
    Idle,
    Shared(SharerSet),
    /// Shared, with a limited-pointer representation that has overflowed
    /// to broadcast. Never used under other backends.
    Overflowed(SharerSet),
    Exclusive(NodeId),
}

impl Entry {
    fn state(&self) -> DirState {
        match *self {
            Entry::Idle => DirState::Idle,
            Entry::Shared(s) | Entry::Overflowed(s) => DirState::Shared(s),
            Entry::Exclusive(n) => DirState::Exclusive(n),
        }
    }

    fn is_overflowed(&self) -> bool {
        matches!(self, Entry::Overflowed(_))
    }
}

/// The (logically distributed, physically one-table) directory: a
/// [`BlockMap`] of entries, so a lookup is two array indexings.
#[derive(Clone, Debug)]
pub struct Directory {
    entries: BlockMap<Entry>,
    /// Number of non-`Idle` entries.
    live: usize,
    /// Number of `Overflowed` entries.
    overflowed: usize,
    backend: DirBackend,
    nodes: usize,
}

impl Default for Directory {
    /// A full-map directory sized for the machine cap — the
    /// representation every test not exercising backends expects.
    fn default() -> Directory {
        Directory::with_backend(DirBackend::FullMap, crate::MAX_NODES)
    }
}

impl Directory {
    /// An empty full-map directory (all blocks `Idle`).
    pub fn new() -> Directory {
        Directory::default()
    }

    /// An empty directory representing sharers with `backend` on a
    /// machine of `nodes` nodes.
    pub fn with_backend(backend: DirBackend, nodes: usize) -> Directory {
        Directory {
            entries: BlockMap::default(),
            live: 0,
            overflowed: 0,
            backend,
            nodes,
        }
    }

    /// The backend this directory represents sharers with.
    pub fn backend(&self) -> DirBackend {
        self.backend
    }

    /// The state of `block`.
    #[inline]
    pub fn state(&self, block: BlockId) -> DirState {
        self.entries.get(block).state()
    }

    /// Sets the state of `block`. Storing `Idle` removes the entry.
    ///
    /// Returns `true` when this update pushed a limited-pointer entry
    /// *into* representation overflow (the caller charges the home's
    /// `dir_overflows` counter). Overflow is sticky while the entry
    /// stays `Shared` — real hardware has forgotten the membership and
    /// cannot repopulate its pointers — and clears when the entry is
    /// rebuilt from `Idle`/`Exclusive` or removed.
    ///
    /// # Panics
    /// Panics (in debug builds) if a `Shared` state has no sharers.
    #[inline]
    pub fn set(&mut self, block: BlockId, state: DirState) -> bool {
        let entry = match state {
            DirState::Idle => {
                self.take(block);
                return false;
            }
            DirState::Shared(s) => {
                debug_assert!(!s.is_empty(), "Shared state must have sharers");
                let fits = match self.backend {
                    DirBackend::LimitedPtr { ptrs } => s.count() <= u32::from(ptrs),
                    _ => true,
                };
                if fits {
                    Entry::Shared(s)
                } else {
                    Entry::Overflowed(s)
                }
            }
            DirState::Exclusive(n) => Entry::Exclusive(n),
        };
        // One lookup. Overflow is sticky while the entry stays shared.
        let slot = self.entries.get_mut(block);
        let was_idle = matches!(slot, Entry::Idle);
        let was_over = slot.is_overflowed();
        *slot = match entry {
            Entry::Shared(s) if was_over => Entry::Overflowed(s),
            e => e,
        };
        let now_over = slot.is_overflowed();
        self.live += usize::from(was_idle);
        self.overflowed = self.overflowed + usize::from(now_over) - usize::from(was_over);
        now_over && !was_over
    }

    /// True when `block`'s representation has overflowed to broadcast.
    pub fn is_overflowed(&self, block: BlockId) -> bool {
        self.entries.get(block).is_overflowed()
    }

    /// Number of entries currently in representation overflow.
    pub fn overflowed_entries(&self) -> usize {
        self.overflowed
    }

    /// The nodes an invalidation of `block` must be sent to under this
    /// directory's representation: a superset of the actual holders
    /// whenever the representation is imprecise, equal to them under
    /// full-map (and under the other backends while they are precise).
    pub fn inval_targets(&self, block: BlockId) -> SharerSet {
        match *self.entries.get(block) {
            Entry::Idle => SharerSet::empty(),
            Entry::Exclusive(n) => SharerSet::single(n),
            Entry::Overflowed(_) => SharerSet::all_below(self.nodes),
            Entry::Shared(s) => match self.backend {
                DirBackend::CoarseVec { bits } => {
                    let group = self.nodes.div_ceil(usize::from(bits.max(1)));
                    s.expand_groups(group, self.nodes)
                }
                _ => s,
            },
        }
    }

    /// Removes and returns the state of `block`, leaving it `Idle`.
    /// Used by LCM to absorb a block's holders when it enters a
    /// copy-on-write phase. Clears any representation overflow — the
    /// entry is rebuilt from scratch on its next use.
    pub fn take(&mut self, block: BlockId) -> DirState {
        let old = self.entries.set(block, Entry::Idle);
        self.live -= usize::from(!matches!(old, Entry::Idle));
        self.overflowed -= usize::from(old.is_overflowed());
        old.state()
    }

    /// Every non-idle entry, in ascending block order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, DirState)> + '_ {
        self.entries.iter().map(|(b, e)| (b, e.state()))
    }

    /// Number of non-idle entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when every block is idle.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(nodes: &[u16]) -> SharerSet {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    #[test]
    fn default_state_is_idle() {
        let d = Directory::new();
        assert_eq!(d.state(BlockId(7)), DirState::Idle);
        assert!(d.is_empty());
        assert_eq!(d.backend(), DirBackend::FullMap);
    }

    #[test]
    fn set_and_get() {
        let mut d = Directory::new();
        d.set(BlockId(1), DirState::Exclusive(NodeId(2)));
        assert_eq!(d.state(BlockId(1)), DirState::Exclusive(NodeId(2)));
        d.set(BlockId(1), DirState::Shared(SharerSet::single(NodeId(0))));
        assert_eq!(d.state(BlockId(1)).holders().count(), 1);
        d.set(BlockId(1), DirState::Idle);
        assert!(d.is_empty(), "Idle removes the entry");
    }

    #[test]
    fn take_removes_and_returns() {
        let mut d = Directory::new();
        d.set(BlockId(5), DirState::Exclusive(NodeId(1)));
        assert_eq!(d.take(BlockId(5)), DirState::Exclusive(NodeId(1)));
        assert_eq!(d.take(BlockId(5)), DirState::Idle);
        assert!(d.is_empty());
    }

    #[test]
    fn holders_cover_all_states() {
        assert!(DirState::Idle.holders().is_empty());
        let s: SharerSet = [NodeId(1), NodeId(4)].into_iter().collect();
        assert_eq!(DirState::Shared(s).holders(), s);
        assert_eq!(
            DirState::Exclusive(NodeId(3))
                .holders()
                .iter()
                .collect::<Vec<_>>(),
            vec![NodeId(3)]
        );
    }

    #[test]
    fn full_map_targets_are_exact() {
        let mut d = Directory::with_backend(DirBackend::FullMap, 16);
        let entered = d.set(BlockId(1), DirState::Shared(set_of(&[0, 5, 9])));
        assert!(!entered);
        assert_eq!(d.inval_targets(BlockId(1)), set_of(&[0, 5, 9]));
        assert!(!d.is_overflowed(BlockId(1)));
    }

    #[test]
    fn limited_ptr_overflows_to_broadcast_and_is_sticky() {
        let mut d = Directory::with_backend(DirBackend::LimitedPtr { ptrs: 2 }, 8);
        assert!(!d.set(BlockId(1), DirState::Shared(set_of(&[0, 1]))));
        assert_eq!(d.inval_targets(BlockId(1)), set_of(&[0, 1]));
        // Third sharer exceeds the two pointers: broadcast.
        assert!(d.set(BlockId(1), DirState::Shared(set_of(&[0, 1, 2]))));
        assert!(d.is_overflowed(BlockId(1)));
        assert_eq!(d.inval_targets(BlockId(1)), SharerSet::all_below(8));
        // Sticky: dropping back to two sharers does not regain precision
        // (the hardware's pointers were lost at overflow) — and it is
        // not a *new* overflow either.
        assert!(!d.set(BlockId(1), DirState::Shared(set_of(&[0, 1]))));
        assert!(d.is_overflowed(BlockId(1)));
        assert_eq!(d.inval_targets(BlockId(1)), SharerSet::all_below(8));
        assert_eq!(d.overflowed_entries(), 1);
        // Rebuilding from Exclusive clears it.
        d.set(BlockId(1), DirState::Exclusive(NodeId(3)));
        assert!(!d.is_overflowed(BlockId(1)));
        assert_eq!(d.inval_targets(BlockId(1)), set_of(&[3]));
        // So does take().
        assert!(d.set(BlockId(2), DirState::Shared(set_of(&[0, 1, 2, 3]))));
        d.take(BlockId(2));
        assert!(!d.is_overflowed(BlockId(2)));
        assert_eq!(d.overflowed_entries(), 0);
    }

    #[test]
    fn coarse_vec_targets_cover_groups() {
        // 8 nodes over a 4-bit vector: groups of 2.
        let mut d = Directory::with_backend(DirBackend::CoarseVec { bits: 4 }, 8);
        d.set(BlockId(1), DirState::Shared(set_of(&[0, 5])));
        assert_eq!(d.inval_targets(BlockId(1)), set_of(&[0, 1, 4, 5]));
        assert!(
            !d.is_overflowed(BlockId(1)),
            "coarse vectors never overflow; they are born imprecise"
        );
        // Exclusive entries are a single pointer under every backend.
        d.set(BlockId(2), DirState::Exclusive(NodeId(6)));
        assert_eq!(d.inval_targets(BlockId(2)), set_of(&[6]));
    }

    #[test]
    fn default_parameters_are_precise_up_to_64_nodes() {
        // The defaults re-spend the old u64 budget: 64 pointers cannot
        // overflow on a ≤64-node machine, and a 64-bit coarse vector
        // over ≤64 nodes has one node per bit.
        for backend in DirBackend::all() {
            let mut d = Directory::with_backend(backend, 64);
            let everyone = SharerSet::all_below(64);
            let entered = d.set(BlockId(1), DirState::Shared(everyone));
            assert!(!entered, "{backend}: no overflow at 64 nodes");
            assert_eq!(
                d.inval_targets(BlockId(1)),
                everyone,
                "{backend}: exact targets at 64 nodes"
            );
        }
    }
}
