//! Per-node fine-grain access control tags.
//!
//! Tempest's defining mechanism (and Blizzard-E's): every node holds an
//! access tag per 32-byte block. A load to an `Invalid` block or a store to
//! an `Invalid`/`ReadOnly` block *faults* into a user-level protocol
//! handler. Tags are stored in page-grained tables indexed by page number,
//! mirroring Blizzard's page-in/tag-per-block organization: a lookup is
//! two array indexings, with no hashing on the access path.

use lcm_sim::mem::{BlockId, BLOCKS_PER_PAGE};

/// Access tag of one block on one node.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Tag {
    /// No copy present; any access faults.
    #[default]
    Invalid,
    /// A read-only copy is present; stores fault.
    ReadOnly,
    /// A writable copy is present; no access faults.
    ReadWrite,
}

impl Tag {
    /// True when a load to a block with this tag proceeds without a fault.
    #[inline]
    pub fn readable(self) -> bool {
        self != Tag::Invalid
    }

    /// True when a store to a block with this tag proceeds without a fault.
    #[inline]
    pub fn writable(self) -> bool {
        self == Tag::ReadWrite
    }
}

/// One node's access-tag table.
///
/// A dense vector of pages indexed by page number. The address space
/// hands out pages contiguously from page 1, so the vector is as long as
/// the highest page this node has tagged. Absent pages, and pages past
/// the end, read as all-`Invalid`; pages materialize on the first `set`
/// of a non-`Invalid` tag.
///
/// ```
/// use lcm_tempest::{Tag, TagTable};
/// use lcm_sim::mem::BlockId;
/// let mut t = TagTable::new();
/// assert_eq!(t.get(BlockId(7)), Tag::Invalid);
/// t.set(BlockId(7), Tag::ReadOnly);
/// assert!(t.get(BlockId(7)).readable());
/// assert!(!t.get(BlockId(7)).writable());
/// ```
#[derive(Clone, Debug, Default)]
pub struct TagTable {
    pages: Vec<Option<Box<[Tag; BLOCKS_PER_PAGE]>>>,
}

impl TagTable {
    /// An empty (all-`Invalid`) table.
    pub fn new() -> TagTable {
        TagTable::default()
    }

    /// The tag of `block`.
    #[inline]
    pub fn get(&self, block: BlockId) -> Tag {
        match self.pages.get(block.page().0 as usize) {
            Some(Some(page)) => page[block.index_in_page()],
            _ => Tag::Invalid,
        }
    }

    /// Sets the tag of `block`, materializing its page if needed.
    #[inline]
    pub fn set(&mut self, block: BlockId, tag: Tag) {
        let index = block.page().0 as usize;
        if tag == Tag::Invalid && !matches!(self.pages.get(index), Some(Some(_))) {
            return; // avoid materializing a page just to store Invalid
        }
        if index >= self.pages.len() {
            self.pages.resize_with(index + 1, || None);
        }
        let page =
            self.pages[index].get_or_insert_with(|| Box::new([Tag::Invalid; BLOCKS_PER_PAGE]));
        page[block.index_in_page()] = tag;
    }

    /// Number of blocks currently tagged `tag` (O(pages); for tests and
    /// assertions, not hot paths).
    pub fn count(&self, tag: Tag) -> usize {
        self.pages
            .iter()
            .flatten()
            .map(|p| p.iter().filter(|&&t| t == tag).count())
            .sum()
    }

    /// Resets every tag to `Invalid` and releases the page tables.
    pub fn clear(&mut self) {
        self.pages.clear();
    }

    /// Iterates over all blocks whose tag is not `Invalid`, in ascending
    /// block order.
    pub fn iter_valid(&self) -> impl Iterator<Item = (BlockId, Tag)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(index, page)| Some((index, page.as_deref()?)))
            .flat_map(|(index, tags)| {
                let first = (index * BLOCKS_PER_PAGE) as u64;
                tags.iter().enumerate().filter_map(move |(i, &t)| {
                    (t != Tag::Invalid).then_some((BlockId(first + i as u64), t))
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tag_is_invalid() {
        let t = TagTable::new();
        assert_eq!(t.get(BlockId(999)), Tag::Invalid);
        assert!(!Tag::Invalid.readable());
        assert!(!Tag::Invalid.writable());
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut t = TagTable::new();
        t.set(BlockId(1), Tag::ReadOnly);
        t.set(BlockId(2), Tag::ReadWrite);
        assert_eq!(t.get(BlockId(1)), Tag::ReadOnly);
        assert_eq!(t.get(BlockId(2)), Tag::ReadWrite);
        assert_eq!(t.get(BlockId(3)), Tag::Invalid);
        t.set(BlockId(2), Tag::Invalid);
        assert_eq!(t.get(BlockId(2)), Tag::Invalid);
    }

    #[test]
    fn permissions_semantics() {
        assert!(Tag::ReadOnly.readable() && !Tag::ReadOnly.writable());
        assert!(Tag::ReadWrite.readable() && Tag::ReadWrite.writable());
    }

    #[test]
    fn invalid_set_does_not_materialize_pages() {
        let mut t = TagTable::new();
        t.set(BlockId(5), Tag::Invalid);
        assert_eq!(t.count(Tag::Invalid), 0, "no page should exist");
    }

    #[test]
    fn count_and_iter_valid() {
        let mut t = TagTable::new();
        t.set(BlockId(0), Tag::ReadOnly);
        t.set(BlockId(200), Tag::ReadWrite); // different page
        assert_eq!(t.count(Tag::ReadOnly), 1);
        assert_eq!(t.count(Tag::ReadWrite), 1);
        let valid: Vec<_> = t.iter_valid().collect();
        assert_eq!(
            valid,
            vec![(BlockId(0), Tag::ReadOnly), (BlockId(200), Tag::ReadWrite)]
        );
    }

    #[test]
    fn clear_resets_all() {
        let mut t = TagTable::new();
        t.set(BlockId(0), Tag::ReadWrite);
        t.clear();
        assert_eq!(t.get(BlockId(0)), Tag::Invalid);
        assert_eq!(t.iter_valid().count(), 0);
    }

    #[test]
    fn blocks_in_same_page_are_independent() {
        let mut t = TagTable::new();
        t.set(BlockId(10), Tag::ReadWrite);
        assert_eq!(t.get(BlockId(11)), Tag::Invalid);
        assert_eq!(t.get(BlockId(9)), Tag::Invalid);
    }
}
