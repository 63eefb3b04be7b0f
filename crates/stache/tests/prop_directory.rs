//! Property test: the directory matches a map of its non-idle states
//! under every sharer representation.

use lcm_sim::mem::{BlockId, BLOCKS_PER_PAGE};
use lcm_sim::{DirBackend, NodeId};
use lcm_stache::{DirState, Directory, SharerSet};
use proptest::prelude::*;
use std::collections::BTreeMap;

const NODES: usize = 8;
/// Blocks are drawn from this many pages; reads go two pages further.
const PAGES: u64 = 3;

const BACKENDS: [DirBackend; 3] = [
    DirBackend::FullMap,
    DirBackend::LimitedPtr { ptrs: 2 },
    DirBackend::CoarseVec { bits: 4 },
];

/// A few blocks per page, first and last included, so sequences revisit
/// the same entries.
fn block_of(page: u64, slot: u64) -> BlockId {
    BlockId(page * BLOCKS_PER_PAGE as u64 + slot * 42)
}

fn sharers_of(mask: u8) -> SharerSet {
    (0..NODES)
        .filter(|&n| mask & (1 << n) != 0)
        .map(|n| NodeId(n as u16))
        .collect()
}

/// A model entry: the state, and whether a limited-pointer
/// representation has overflowed (sticky while the entry stays shared).
type Model = BTreeMap<u64, (DirState, bool)>;

/// The invalidation targets `backend` must name for a model entry.
fn targets(backend: DirBackend, entry: Option<&(DirState, bool)>) -> SharerSet {
    match entry {
        None => SharerSet::empty(),
        Some(&(DirState::Shared(_), true)) => SharerSet::all_below(NODES),
        Some(&(DirState::Shared(s), false)) => match backend {
            // Every node whose group of ceil(NODES / bits) holds a sharer.
            DirBackend::CoarseVec { bits } => {
                let group = NODES.div_ceil(usize::from(bits));
                (0..NODES)
                    .filter(|&n| s.iter().any(|m| m.index() / group == n / group))
                    .map(|n| NodeId(n as u16))
                    .collect()
            }
            _ => s,
        },
        Some(&(state, _)) => state.holders(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random `set`/`take` sequences: every block reads its model state,
    /// overflow and invalidation targets (blocks two pages past the last
    /// touched one read idle), `set` reports exactly the entries that
    /// newly overflow, and `iter` yields the model in ascending order.
    #[test]
    fn directory_matches_a_btree_model(
        ops in proptest::collection::vec((0u8..6, 0u64..PAGES, 0u64..4, any::<u8>()), 0..160),
    ) {
        for backend in BACKENDS {
            let mut dir = Directory::with_backend(backend, NODES);
            let mut model = Model::new();
            for &(op, page, slot, bits) in &ops {
                let block = block_of(page, slot);
                let key = block.0;
                if op == 5 {
                    let expect = model.remove(&key).map_or(DirState::Idle, |e| e.0);
                    prop_assert_eq!(dir.take(block), expect);
                    continue;
                }
                let state = match op {
                    0 => DirState::Idle,
                    4 => DirState::Exclusive(NodeId(u16::from(bits) % NODES as u16)),
                    _ => DirState::Shared(sharers_of(bits | 1 << (bits % 8))),
                };
                let was_over = model.get(&key).is_some_and(|e| e.1);
                let now_over = match state {
                    DirState::Idle => {
                        model.remove(&key);
                        false
                    }
                    DirState::Shared(s) => {
                        let exceeds = matches!(
                            backend,
                            DirBackend::LimitedPtr { ptrs } if s.count() > u32::from(ptrs)
                        );
                        let over = was_over || exceeds;
                        model.insert(key, (state, over));
                        over
                    }
                    DirState::Exclusive(_) => {
                        model.insert(key, (state, false));
                        false
                    }
                };
                prop_assert_eq!(dir.set(block, state), now_over && !was_over, "{}", backend);
            }
            let end = (PAGES + 2) * BLOCKS_PER_PAGE as u64;
            for key in 0..end {
                let block = BlockId(key);
                let entry = model.get(&key);
                prop_assert_eq!(dir.state(block), entry.map_or(DirState::Idle, |e| e.0));
                prop_assert_eq!(dir.is_overflowed(block), entry.is_some_and(|e| e.1));
                prop_assert_eq!(dir.inval_targets(block), targets(backend, entry), "{}", backend);
            }
            let overflowed = model.values().filter(|e| e.1).count();
            prop_assert_eq!(dir.overflowed_entries(), overflowed);
            prop_assert_eq!(dir.len(), model.len());
            prop_assert_eq!(dir.is_empty(), model.is_empty());
            let listed: Vec<(BlockId, DirState)> = dir.iter().collect();
            let expect: Vec<(BlockId, DirState)> =
                model.iter().map(|(&b, e)| (BlockId(b), e.0)).collect();
            prop_assert_eq!(listed, expect);
        }
    }
}
