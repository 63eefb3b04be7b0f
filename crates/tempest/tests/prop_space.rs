//! Property tests for the address space, the tag tables and the
//! home-value store. The page-indexed tables are checked against a
//! `BTreeMap` model, including which pages they materialize and what they
//! read past their last page.

use lcm_sim::mem::{
    Addr, BlockBuf, BlockId, WordMask, BLOCKS_PER_PAGE, PAGE_BYTES, WORDS_PER_BLOCK,
};
use lcm_tempest::{AddressSpace, HomeMemory, Placement, Tag, TagTable};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn placements() -> impl Strategy<Value = Placement> {
    prop_oneof![
        Just(Placement::Interleaved),
        Just(Placement::Blocked),
        Just(Placement::PageInterleaved),
        (0u16..8).prop_map(|n| Placement::OnNode(lcm_sim::NodeId(n))),
    ]
}

proptest! {
    /// Every block of every allocation has a home inside the machine, the
    /// segment lookup finds the right segment, and segments never overlap.
    #[test]
    fn allocations_are_disjoint_and_homed(
        sizes in proptest::collection::vec((1u64..3 * PAGE_BYTES as u64, placements()), 1..8),
    ) {
        let nodes = 8;
        let mut space = AddressSpace::new(nodes);
        let mut allocs = Vec::new();
        for (i, (bytes, placement)) in sizes.iter().enumerate() {
            allocs.push((space.alloc(*bytes, *placement, &format!("s{i}")), *bytes));
        }
        // Segments are disjoint and ordered.
        let segs = space.segments();
        for w in segs.windows(2) {
            prop_assert!(w[0].end_block() <= w[1].first_block());
        }
        for (base, bytes) in allocs {
            let last = base.offset(bytes - 1);
            for block in [base.block(), last.block()] {
                let home = space.home_of(block);
                prop_assert!((home.0 as usize) < nodes);
                let seg = space.segment_of(block).expect("allocated block has a segment");
                prop_assert!(seg.contains_block(block));
            }
        }
    }

    /// Blocked placement assigns monotonically non-decreasing homes, so a
    /// contiguous chunk of a segment lives on a contiguous node range.
    #[test]
    fn blocked_homes_are_monotonic(pages in 1u64..6) {
        let nodes = 8;
        let mut space = AddressSpace::new(nodes);
        let base = space.alloc(pages * PAGE_BYTES as u64, Placement::Blocked, "m");
        let first = base.block().0;
        let blocks = pages * (PAGE_BYTES as u64 / 32);
        let mut prev = 0u16;
        for b in 0..blocks {
            let h = space.home_of(BlockId(first + b)).0;
            prop_assert!(h >= prev);
            prop_assert!((h as usize) < nodes);
            prev = h;
        }
    }

    /// Block-level and word-level views of the home store agree, and a
    /// masked merge touches exactly the masked words.
    #[test]
    fn merge_block_respects_mask(
        initial in proptest::array::uniform8(any::<u32>()),
        incoming in proptest::array::uniform8(any::<u32>()),
        mask in 0u8..,
    ) {
        let mut mem = HomeMemory::new();
        let block = BlockId(999);
        let mut init_buf = BlockBuf::zeroed();
        let mut in_buf = BlockBuf::zeroed();
        for w in 0..8 {
            init_buf.set_word(w, initial[w]);
            in_buf.set_word(w, incoming[w]);
        }
        mem.write_block(block, &init_buf);
        mem.merge_block(block, &in_buf, WordMask(mask));
        for w in 0..8 {
            let expect = if WordMask(mask).get(w) { incoming[w] } else { initial[w] };
            prop_assert_eq!(mem.read_word(block.word_addr(w)), expect);
        }
    }
}

/// Operations touch the first `PAGES` pages; reads go two pages further.
const PAGES: u64 = 5;
const BLOCKS: u64 = PAGES * BLOCKS_PER_PAGE as u64;
const READ_BLOCKS: u64 = BLOCKS + 2 * BLOCKS_PER_PAGE as u64;
const WORDS: u64 = WORDS_PER_BLOCK as u64;

fn tag_of(code: u8) -> Tag {
    match code {
        0 => Tag::Invalid,
        1 => Tag::ReadOnly,
        _ => Tag::ReadWrite,
    }
}

fn page_of(block: u64) -> u64 {
    block / BLOCKS_PER_PAGE as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `set`/`get`/`clear` on a tag table match a map of the non-`Invalid`
    /// tags: an `Invalid` set materializes no page, `iter` yields
    /// the valid blocks in ascending order, and blocks past the last page
    /// read `Invalid`.
    #[test]
    fn tag_table_matches_a_btree_model(
        ops in proptest::collection::vec((0u8..32, 0u64..BLOCKS, 0u8..3), 0..200),
    ) {
        let mut table = TagTable::default();
        let mut model: BTreeMap<u64, Tag> = BTreeMap::new();
        let mut pages: BTreeSet<u64> = BTreeSet::new();
        for &(op, block, code) in &ops {
            if op == 0 {
                table.clear();
                model.clear();
                pages.clear();
                continue;
            }
            let tag = tag_of(code);
            table.set(BlockId(block), tag);
            if tag == Tag::Invalid {
                model.remove(&block);
            } else {
                model.insert(block, tag);
                pages.insert(page_of(block));
            }
            prop_assert_eq!(*table.get(BlockId(block)), tag);
        }
        for block in 0..READ_BLOCKS {
            let expect = model.get(&block).copied().unwrap_or(Tag::Invalid);
            prop_assert_eq!(*table.get(BlockId(block)), expect, "block {}", block);
        }
        let valid: Vec<(BlockId, Tag)> = table.iter().map(|(b, &t)| (b, t)).collect();
        let expect: Vec<(BlockId, Tag)> = model.iter().map(|(&b, &t)| (BlockId(b), t)).collect();
        prop_assert_eq!(valid, expect);
        prop_assert_eq!(table.pages(), pages.len());
    }

    /// Word writes, block writes and masked merges on the home store
    /// match a map of written words: pages materialize on their first
    /// write (an empty merge writes nothing), and every word past the
    /// last page reads zero.
    #[test]
    fn home_memory_matches_reference(
        ops in proptest::collection::vec(
            (0u8..3, 0u64..BLOCKS * WORDS, any::<u32>(), any::<u8>()),
            0..120,
        ),
    ) {
        let mut mem = HomeMemory::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        let mut pages: BTreeSet<u64> = BTreeSet::new();
        for &(op, word, value, mask) in &ops {
            let block = word / WORDS;
            // A block whose word w holds value + w.
            let mut buf = BlockBuf::zeroed();
            for w in 0..WORDS_PER_BLOCK {
                buf.set_word(w, value.wrapping_add(w as u32));
            }
            let written = match op {
                0 => {
                    mem.write_word(Addr(word * 4), value);
                    model.insert(word, value);
                    true
                }
                1 => {
                    mem.write_block(BlockId(block), &buf);
                    for w in 0..WORDS {
                        model.insert(block * WORDS + w, buf.word(w as usize));
                    }
                    true
                }
                _ => {
                    let mask = WordMask(mask);
                    mem.merge_block(BlockId(block), &buf, mask);
                    for w in mask.iter_set() {
                        model.insert(block * WORDS + w as u64, buf.word(w));
                    }
                    !mask.is_empty()
                }
            };
            if written {
                pages.insert(page_of(block));
            }
        }
        prop_assert_eq!(mem.pages_touched(), pages.len());
        for word in 0..READ_BLOCKS * WORDS {
            let expect = model.get(&word).copied().unwrap_or(0);
            prop_assert_eq!(mem.read_word(Addr(word * 4)), expect, "word {}", word);
        }
        for block in 0..READ_BLOCKS {
            let got = mem.read_block(BlockId(block));
            for w in 0..WORDS {
                let expect = model.get(&(block * WORDS + w)).copied().unwrap_or(0);
                prop_assert_eq!(got.word(w as usize), expect);
            }
        }
    }
}
