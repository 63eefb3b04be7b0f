//! Per-node fine-grain access control tags.
//!
//! Tempest's defining mechanism (and Blizzard-E's): every node holds an
//! access tag per 32-byte block. A load to an `Invalid` block or a store to
//! an `Invalid`/`ReadOnly` block *faults* into a user-level protocol
//! handler. Tags are stored in a page-grained [`BlockMap`] indexed by page
//! number, mirroring Blizzard's page-in/tag-per-block organization: a
//! lookup is two array indexings, with no hashing on the access path.

use lcm_sim::mem::BlockMap;

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

/// One node's access-tag table: a [`BlockMap`] of tags, so absent
/// pages, and pages past the end, read as all-`Invalid`, and a page
/// materializes on the first `set` of another tag.
///
/// ```
/// use lcm_tempest::{Tag, TagTable};
/// use lcm_sim::mem::BlockId;
/// let mut t = TagTable::default();
/// assert_eq!(*t.get(BlockId(7)), Tag::Invalid);
/// t.set(BlockId(7), Tag::ReadOnly);
/// assert!(t.get(BlockId(7)).readable());
/// assert!(!t.get(BlockId(7)).writable());
/// ```
pub type TagTable = BlockMap<Tag>;

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_sim::mem::BlockId;

    #[test]
    fn default_tag_is_invalid() {
        let t = TagTable::default();
        assert_eq!(*t.get(BlockId(999)), Tag::Invalid);
        assert!(!Tag::Invalid.readable());
        assert!(!Tag::Invalid.writable());
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut t = TagTable::default();
        t.set(BlockId(1), Tag::ReadOnly);
        t.set(BlockId(2), Tag::ReadWrite);
        assert_eq!(*t.get(BlockId(1)), Tag::ReadOnly);
        assert_eq!(*t.get(BlockId(2)), Tag::ReadWrite);
        assert_eq!(*t.get(BlockId(3)), Tag::Invalid);
        t.set(BlockId(2), Tag::Invalid);
        assert_eq!(*t.get(BlockId(2)), Tag::Invalid);
    }

    #[test]
    fn permissions_semantics() {
        assert!(Tag::ReadOnly.readable() && !Tag::ReadOnly.writable());
        assert!(Tag::ReadWrite.readable() && Tag::ReadWrite.writable());
    }

    #[test]
    fn invalid_set_does_not_materialize_pages() {
        let mut t = TagTable::default();
        t.set(BlockId(5), Tag::Invalid);
        assert_eq!(t.pages(), 0, "no page should exist");
    }

    #[test]
    fn iter_yields_valid_tags_in_block_order() {
        let mut t = TagTable::default();
        t.set(BlockId(200), Tag::ReadWrite); // different page
        t.set(BlockId(0), Tag::ReadOnly);
        let valid: Vec<_> = t.iter().collect();
        assert_eq!(
            valid,
            vec![
                (BlockId(0), &Tag::ReadOnly),
                (BlockId(200), &Tag::ReadWrite)
            ]
        );
    }

    #[test]
    fn clear_resets_all() {
        let mut t = TagTable::default();
        t.set(BlockId(0), Tag::ReadWrite);
        t.clear();
        assert_eq!(*t.get(BlockId(0)), Tag::Invalid);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn blocks_in_same_page_are_independent() {
        let mut t = TagTable::default();
        t.set(BlockId(10), Tag::ReadWrite);
        assert_eq!(*t.get(BlockId(11)), Tag::Invalid);
        assert_eq!(*t.get(BlockId(9)), Tag::Invalid);
    }
}
