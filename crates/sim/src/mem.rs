//! Memory geometry: addresses, blocks, pages, words, and block buffers.
//!
//! The whole reproduction uses the geometry of the paper's CM-5/Blizzard-E
//! platform: a coherence *block* is 32 bytes ("a cache block holds eight
//! single-precision floats"), a *word* is 4 bytes, and protocol bookkeeping
//! is organized in 4 KB *pages* of 128 blocks, mirroring Blizzard's
//! page-grained local-memory allocation with block-grained access tags.

use std::fmt;

/// Size of a coherence block in bytes (eight single-precision floats).
pub const BLOCK_BYTES: usize = 32;
/// Size of a word in bytes. All protocol merging happens at word granularity.
pub const WORD_BYTES: usize = 4;
/// Number of words in a block.
pub const WORDS_PER_BLOCK: usize = BLOCK_BYTES / WORD_BYTES;
/// Number of blocks in a page.
pub const BLOCKS_PER_PAGE: usize = 128;
/// Size of a page in bytes.
pub const PAGE_BYTES: usize = BLOCK_BYTES * BLOCKS_PER_PAGE;

const BLOCK_SHIFT: u64 = 5; // log2(BLOCK_BYTES)
const PAGE_BLOCK_SHIFT: u64 = 7; // log2(BLOCKS_PER_PAGE)

/// A byte address in the simulated global address space.
///
/// Addresses are plain integers handed out by the allocator in
/// [`lcm-tempest`](https://docs.rs/lcm-tempest); they never alias host
/// memory. The newtype keeps them from being confused with sizes or
/// indices.
///
/// ```
/// use lcm_sim::mem::{Addr, BLOCK_BYTES};
/// let a = Addr(3 * BLOCK_BYTES as u64 + 12);
/// assert_eq!(a.block().0, 3);
/// assert_eq!(a.word_in_block(), 3);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The block containing this address.
    #[inline]
    pub fn block(self) -> BlockId {
        BlockId(self.0 >> BLOCK_SHIFT)
    }

    /// Byte offset of this address within its block.
    #[inline]
    pub fn offset_in_block(self) -> usize {
        (self.0 & (BLOCK_BYTES as u64 - 1)) as usize
    }

    /// Word index of this address within its block.
    ///
    /// The low two bits (sub-word offset) are ignored; protocol-visible
    /// accesses are word-aligned.
    #[inline]
    pub fn word_in_block(self) -> usize {
        self.offset_in_block() / WORD_BYTES
    }

    /// Returns the address `delta` bytes past this one.
    #[inline]
    pub fn offset(self, delta: u64) -> Addr {
        Addr(self.0 + delta)
    }

    /// True when the address is word (4-byte) aligned.
    #[inline]
    pub fn is_word_aligned(self) -> bool {
        self.0.is_multiple_of(WORD_BYTES as u64)
    }

    /// True when the address is block (32-byte) aligned.
    #[inline]
    pub fn is_block_aligned(self) -> bool {
        self.0.is_multiple_of(BLOCK_BYTES as u64)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Identifier of a coherence block: the address shifted right by
/// `log2(BLOCK_BYTES)`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub u64);

impl BlockId {
    /// Address of the first byte of the block.
    #[inline]
    pub fn base_addr(self) -> Addr {
        Addr(self.0 << BLOCK_SHIFT)
    }

    /// The page containing this block.
    #[inline]
    pub fn page(self) -> PageId {
        PageId(self.0 >> PAGE_BLOCK_SHIFT)
    }

    /// Index of this block within its page (`0..BLOCKS_PER_PAGE`).
    #[inline]
    pub fn index_in_page(self) -> usize {
        (self.0 & (BLOCKS_PER_PAGE as u64 - 1)) as usize
    }

    /// Address of word `w` (`0..WORDS_PER_BLOCK`) of this block.
    ///
    /// # Panics
    /// Panics if `w >= WORDS_PER_BLOCK`.
    #[inline]
    pub fn word_addr(self, w: usize) -> Addr {
        assert!(w < WORDS_PER_BLOCK, "word index {w} out of range");
        Addr((self.0 << BLOCK_SHIFT) + (w * WORD_BYTES) as u64)
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockId({:#x})", self.0)
    }
}

/// Identifier of a 4 KB page of 128 blocks.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct PageId(pub u64);

impl PageId {
    /// First block of the page.
    #[inline]
    pub fn first_block(self) -> BlockId {
        BlockId(self.0 << PAGE_BLOCK_SHIFT)
    }
}

/// One value per block, in pages of [`BLOCKS_PER_PAGE`] values indexed by
/// page number, as Blizzard's per-block tables are: a lookup is two array
/// indexings, with no hashing. The address space hands out pages
/// contiguously from page 1, so the page vector is as long as the highest
/// page that holds a value. Absent pages, and pages past the end, read as
/// `T::default()`; [`BlockMap::get_mut`] materializes a page, and a
/// [`BlockMap::set`] of the default value materializes nothing.
///
/// ```
/// use lcm_sim::mem::{BlockId, BlockMap};
/// let mut m: BlockMap<u8> = BlockMap::default();
/// m.set(BlockId(300), 7);
/// *m.get_mut(BlockId(2)) += 1;
/// assert_eq!(*m.get(BlockId(300)), 7);
/// assert_eq!(*m.get(BlockId(1 << 40)), 0);
/// assert_eq!(m.iter().collect::<Vec<_>>(), vec![(BlockId(2), &1), (BlockId(300), &7)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BlockMap<T> {
    pages: Vec<Option<Box<[T; BLOCKS_PER_PAGE]>>>,
    /// What every block of an absent page reads as.
    default: T,
}

impl<T: Copy + Default + PartialEq> BlockMap<T> {
    /// The value of `block`.
    #[inline]
    pub fn get(&self, block: BlockId) -> &T {
        match self.pages.get(block.page().0 as usize) {
            Some(Some(page)) => &page[block.index_in_page()],
            _ => &self.default,
        }
    }

    /// The value of `block`, mutably, materializing its page if needed.
    #[inline]
    pub fn get_mut(&mut self, block: BlockId) -> &mut T {
        let index = block.page().0 as usize;
        if index >= self.pages.len() {
            self.pages.resize_with(index + 1, || None);
        }
        let page =
            self.pages[index].get_or_insert_with(|| Box::new([T::default(); BLOCKS_PER_PAGE]));
        &mut page[block.index_in_page()]
    }

    /// Stores `value` for `block` and returns the value it replaces.
    /// Storing the default value in an absent page materializes nothing.
    #[inline]
    pub fn set(&mut self, block: BlockId, value: T) -> T {
        if value == self.default
            && !matches!(self.pages.get(block.page().0 as usize), Some(Some(_)))
        {
            return value;
        }
        std::mem::replace(self.get_mut(block), value)
    }

    /// Every block whose value is not the default, in ascending block
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &T)> + '_ {
        let firsts = (0..).step_by(BLOCKS_PER_PAGE);
        let pages = self.pages.iter().zip(firsts);
        pages
            .filter_map(|(page, first)| Some((first, page.as_deref()?)))
            .flat_map(move |(first, values)| {
                let blocks = (first..).map(BlockId).zip(values);
                blocks.filter(move |(_, v)| **v != self.default)
            })
    }

    /// Number of materialized pages: the table's storage footprint.
    pub fn pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }

    /// Resets every block to the default and releases the pages.
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

/// A bitmask over the eight words of one block.
///
/// LCM records, per private copy, which words have been stored to; the
/// reconciliation at the home node merges exactly these words and detects
/// conflicting claims on the same word.
///
/// ```
/// use lcm_sim::mem::WordMask;
/// let mut m = WordMask::empty();
/// m.set(0);
/// m.set(7);
/// assert_eq!(m.count(), 2);
/// assert!(m.get(7) && !m.get(3));
/// assert!(m.overlaps(WordMask::single(7)));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct WordMask(pub u8);

impl WordMask {
    /// No words set.
    #[inline]
    pub fn empty() -> WordMask {
        WordMask(0)
    }

    /// All eight words set.
    #[inline]
    pub fn full() -> WordMask {
        WordMask(0xff)
    }

    /// A mask with only word `w` set.
    ///
    /// # Panics
    /// Panics if `w >= WORDS_PER_BLOCK`.
    #[inline]
    pub fn single(w: usize) -> WordMask {
        assert!(w < WORDS_PER_BLOCK, "word index {w} out of range");
        WordMask(1 << w)
    }

    /// Marks word `w`.
    #[inline]
    pub fn set(&mut self, w: usize) {
        debug_assert!(w < WORDS_PER_BLOCK);
        self.0 |= 1 << w;
    }

    /// True when word `w` is marked.
    #[inline]
    pub fn get(self, w: usize) -> bool {
        debug_assert!(w < WORDS_PER_BLOCK);
        self.0 & (1 << w) != 0
    }

    /// True when no word is marked.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of marked words.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Union of two masks.
    #[inline]
    pub fn union(self, other: WordMask) -> WordMask {
        WordMask(self.0 | other.0)
    }

    /// Intersection of two masks.
    #[inline]
    pub fn intersect(self, other: WordMask) -> WordMask {
        WordMask(self.0 & other.0)
    }

    /// True when the two masks mark at least one common word.
    #[inline]
    pub fn overlaps(self, other: WordMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Words in `self` but not in `other`.
    #[inline]
    pub fn minus(self, other: WordMask) -> WordMask {
        WordMask(self.0 & !other.0)
    }

    /// Iterates over the indices of marked words, ascending.
    pub fn iter_set(self) -> impl Iterator<Item = usize> {
        (0..WORDS_PER_BLOCK).filter(move |&w| self.get(w))
    }
}

impl fmt::Debug for WordMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WordMask({:#010b})", self.0)
    }
}

/// An owned copy of one block's data.
///
/// `BlockBuf` is the unit of transfer and of protocol-private storage
/// (clean copies, private modified copies, merge buffers). Words may be
/// viewed as raw `u32` bits or as `f32`/`f64` values; `f64` values occupy
/// an even-aligned pair of words.
#[derive(Copy, Clone, PartialEq, Eq)]
pub struct BlockBuf {
    bytes: [u8; BLOCK_BYTES],
}

impl BlockBuf {
    /// A block of all-zero bytes.
    #[inline]
    pub fn zeroed() -> BlockBuf {
        BlockBuf {
            bytes: [0; BLOCK_BYTES],
        }
    }

    /// Builds a block from raw bytes.
    #[inline]
    pub fn from_bytes(bytes: [u8; BLOCK_BYTES]) -> BlockBuf {
        BlockBuf { bytes }
    }

    /// Raw byte view.
    #[inline]
    pub fn as_bytes(&self) -> &[u8; BLOCK_BYTES] {
        &self.bytes
    }

    /// Raw bit pattern of word `w`.
    #[inline]
    pub fn word(&self, w: usize) -> u32 {
        let o = w * WORD_BYTES;
        u32::from_le_bytes([
            self.bytes[o],
            self.bytes[o + 1],
            self.bytes[o + 2],
            self.bytes[o + 3],
        ])
    }

    /// Stores raw bit pattern `v` into word `w`.
    #[inline]
    pub fn set_word(&mut self, w: usize, v: u32) {
        let o = w * WORD_BYTES;
        self.bytes[o..o + WORD_BYTES].copy_from_slice(&v.to_le_bytes());
    }

    /// Word `w` viewed as an `f32`.
    #[inline]
    pub fn f32(&self, w: usize) -> f32 {
        f32::from_bits(self.word(w))
    }

    /// Stores `v` into word `w` as an `f32`.
    #[inline]
    pub fn set_f32(&mut self, w: usize, v: f32) {
        self.set_word(w, v.to_bits());
    }

    /// Words `w, w+1` viewed as an `f64`.
    ///
    /// # Panics
    /// Panics if `w` is odd or `w + 1 >= WORDS_PER_BLOCK`.
    #[inline]
    pub fn f64(&self, w: usize) -> f64 {
        assert!(
            w.is_multiple_of(2) && w + 1 < WORDS_PER_BLOCK,
            "f64 word index {w} invalid"
        );
        let lo = self.word(w) as u64;
        let hi = self.word(w + 1) as u64;
        f64::from_bits(lo | (hi << 32))
    }

    /// Stores `v` into words `w, w+1` as an `f64`.
    ///
    /// # Panics
    /// Panics if `w` is odd or `w + 1 >= WORDS_PER_BLOCK`.
    #[inline]
    pub fn set_f64(&mut self, w: usize, v: f64) {
        assert!(
            w.is_multiple_of(2) && w + 1 < WORDS_PER_BLOCK,
            "f64 word index {w} invalid"
        );
        let bits = v.to_bits();
        self.set_word(w, bits as u32);
        self.set_word(w + 1, (bits >> 32) as u32);
    }

    /// Copies the words selected by `mask` from `src` into `self`.
    #[inline]
    pub fn merge_words(&mut self, src: &BlockBuf, mask: WordMask) {
        for w in mask.iter_set() {
            self.set_word(w, src.word(w));
        }
    }
}

impl Default for BlockBuf {
    fn default() -> BlockBuf {
        BlockBuf::zeroed()
    }
}

impl fmt::Debug for BlockBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockBuf[")?;
        for w in 0..WORDS_PER_BLOCK {
            if w > 0 {
                write!(f, " ")?;
            }
            write!(f, "{:08x}", self.word(w))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_block_mapping() {
        let a = Addr(0);
        assert_eq!(a.block(), BlockId(0));
        assert_eq!(a.word_in_block(), 0);
        let b = Addr(31);
        assert_eq!(b.block(), BlockId(0));
        assert_eq!(b.word_in_block(), 7);
        let c = Addr(32);
        assert_eq!(c.block(), BlockId(1));
        assert_eq!(c.word_in_block(), 0);
    }

    #[test]
    fn addr_alignment_predicates() {
        assert!(Addr(0).is_block_aligned());
        assert!(Addr(64).is_block_aligned());
        assert!(!Addr(4).is_block_aligned());
        assert!(Addr(4).is_word_aligned());
        assert!(!Addr(5).is_word_aligned());
    }

    #[test]
    fn block_page_mapping() {
        let b = BlockId(127);
        assert_eq!(b.page(), PageId(0));
        assert_eq!(b.index_in_page(), 127);
        let b = BlockId(128);
        assert_eq!(b.page(), PageId(1));
        assert_eq!(b.index_in_page(), 0);
        assert_eq!(PageId(1).first_block(), BlockId(128));
    }

    #[test]
    fn block_map_reads_default_outside_its_pages() {
        let mut m: BlockMap<u32> = BlockMap::default();
        assert_eq!(m.set(BlockId(5), 0), 0);
        assert_eq!(m.pages(), 0, "a default set materializes nothing");
        assert_eq!(m.set(BlockId(130), 4), 0);
        *m.get_mut(BlockId(1)) += 2;
        assert_eq!(m.set(BlockId(130), 6), 4, "set returns the old value");
        assert_eq!(m.pages(), 2);
        assert_eq!(*m.get(BlockId(3 * 128)), 0, "past the last page");
        assert_eq!(*m.get(BlockId(2)), 0, "inside a page");
        m.set(BlockId(1), 0);
        assert_eq!(m.pages(), 2, "pages stay once materialized");
        let all: Vec<(BlockId, u32)> = m.iter().map(|(b, &v)| (b, v)).collect();
        assert_eq!(all, vec![(BlockId(130), 6)]);
        m.clear();
        assert_eq!((m.pages(), *m.get(BlockId(130))), (0, 0));
    }

    #[test]
    fn block_word_addr_roundtrip() {
        let b = BlockId(10);
        for w in 0..WORDS_PER_BLOCK {
            let a = b.word_addr(w);
            assert_eq!(a.block(), b);
            assert_eq!(a.word_in_block(), w);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_word_addr_out_of_range_panics() {
        BlockId(0).word_addr(8);
    }

    #[test]
    fn word_mask_basics() {
        let mut m = WordMask::empty();
        assert!(m.is_empty());
        m.set(3);
        m.set(5);
        assert_eq!(m.count(), 2);
        assert!(m.get(3));
        assert!(!m.get(4));
        assert_eq!(m.iter_set().collect::<Vec<_>>(), vec![3, 5]);
        assert!(m.overlaps(WordMask::single(5)));
        assert!(!m.overlaps(WordMask::single(4)));
        assert_eq!(m.union(WordMask::single(4)).count(), 3);
        assert_eq!(m.intersect(WordMask::single(3)), WordMask::single(3));
        assert_eq!(m.minus(WordMask::single(3)), WordMask::single(5));
        assert_eq!(WordMask::full().minus(WordMask::full()), WordMask::empty());
        assert_eq!(WordMask::full().count(), 8);
    }

    #[test]
    fn block_buf_words_and_floats() {
        let mut b = BlockBuf::zeroed();
        b.set_word(0, 0xdeadbeef);
        assert_eq!(b.word(0), 0xdeadbeef);
        b.set_f32(3, 1.5);
        assert_eq!(b.f32(3), 1.5);
        b.set_f64(4, -2.25);
        assert_eq!(b.f64(4), -2.25);
        // f64 occupies words 4 and 5; word 6 untouched.
        assert_eq!(b.word(6), 0);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn block_buf_f64_odd_word_panics() {
        BlockBuf::zeroed().f64(3);
    }

    #[test]
    fn block_buf_merge_words() {
        let mut dst = BlockBuf::zeroed();
        let mut src = BlockBuf::zeroed();
        for w in 0..WORDS_PER_BLOCK {
            src.set_word(w, (w as u32 + 1) * 100);
        }
        let mut mask = WordMask::empty();
        mask.set(1);
        mask.set(6);
        dst.merge_words(&src, mask);
        assert_eq!(dst.word(1), 200);
        assert_eq!(dst.word(6), 700);
        assert_eq!(dst.word(0), 0);
        assert_eq!(dst.word(7), 0);
    }

    #[test]
    fn debug_impls_are_nonempty() {
        assert!(!format!("{:?}", Addr(4)).is_empty());
        assert!(!format!("{:?}", BlockId(4)).is_empty());
        assert!(!format!("{:?}", WordMask::single(2)).is_empty());
        assert!(!format!("{:?}", BlockBuf::zeroed()).is_empty());
    }
}
