//! Authoritative home-node storage for the global address space.
//!
//! Each block's *home value* — the value the memory holds between coherent
//! epochs — lives here. Cached and private copies live in protocol-private
//! structures; this store is what a reconciliation updates and what fills
//! are served from. Storage is lazily materialized in zeroed 4 KB pages,
//! held in a vector indexed by page number.

use lcm_sim::mem::{Addr, BlockBuf, BlockId, BlockMap, WordMask, WORD_BYTES};

/// The home-value store for the whole global address space.
///
/// Although homes are *logically* distributed (ownership, cost accounting
/// and directories are per-node), the simulation keeps the bytes in one
/// map — a block's home node is a property of the address space, not of
/// where the host process stores the data.
///
/// The store is a [`BlockMap`] of blocks: absent pages, and pages past
/// the end, read as zero; the first write to a page materializes it.
///
/// ```
/// use lcm_tempest::HomeMemory;
/// use lcm_sim::mem::Addr;
/// let mut m = HomeMemory::new();
/// m.write_f32(Addr(0x1000), 2.5);
/// assert_eq!(m.read_f32(Addr(0x1000)), 2.5);
/// assert_eq!(m.read_word(Addr(0x2000)), 0); // untouched memory reads zero
/// ```
#[derive(Clone, Debug, Default)]
pub struct HomeMemory {
    blocks: BlockMap<BlockBuf>,
}

impl HomeMemory {
    /// An empty (all-zero) store.
    pub fn new() -> HomeMemory {
        HomeMemory::default()
    }

    /// Raw bits of the word at `addr` (low two address bits ignored).
    #[inline]
    pub fn read_word(&self, addr: Addr) -> u32 {
        self.blocks.get(addr.block()).word(addr.word_in_block())
    }

    /// Stores raw bits `v` into the word at `addr`.
    #[inline]
    pub fn write_word(&mut self, addr: Addr, v: u32) {
        self.blocks
            .get_mut(addr.block())
            .set_word(addr.word_in_block(), v);
    }

    /// The word at `addr` as an `f32`.
    #[inline]
    pub fn read_f32(&self, addr: Addr) -> f32 {
        f32::from_bits(self.read_word(addr))
    }

    /// Stores `v` at `addr` as an `f32`.
    #[inline]
    pub fn write_f32(&mut self, addr: Addr, v: f32) {
        self.write_word(addr, v.to_bits());
    }

    /// The two words starting at `addr` as an `f64`.
    #[inline]
    pub fn read_f64(&self, addr: Addr) -> f64 {
        let lo = self.read_word(addr) as u64;
        let hi = self.read_word(addr.offset(WORD_BYTES as u64)) as u64;
        f64::from_bits(lo | (hi << 32))
    }

    /// Stores `v` at `addr` as an `f64` (two consecutive words).
    #[inline]
    pub fn write_f64(&mut self, addr: Addr, v: f64) {
        let bits = v.to_bits();
        self.write_word(addr, bits as u32);
        self.write_word(addr.offset(WORD_BYTES as u64), (bits >> 32) as u32);
    }

    /// Copies the home value of `block` into a buffer.
    pub fn read_block(&self, block: BlockId) -> BlockBuf {
        *self.blocks.get(block)
    }

    /// Replaces the home value of `block`.
    pub fn write_block(&mut self, block: BlockId, buf: &BlockBuf) {
        *self.blocks.get_mut(block) = *buf;
    }

    /// Merges the words of `src` selected by `mask` into the home value of
    /// `block` — the core of LCM reconciliation.
    pub fn merge_block(&mut self, block: BlockId, src: &BlockBuf, mask: WordMask) {
        if mask.is_empty() {
            return;
        }
        self.blocks.get_mut(block).merge_words(src, mask);
    }

    /// Number of materialized pages (storage footprint; for tests).
    pub fn pages_touched(&self) -> usize {
        self.blocks.pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = HomeMemory::new();
        assert_eq!(m.read_word(Addr(0x1234 & !3)), 0);
        assert_eq!(m.read_block(BlockId(77)), BlockBuf::zeroed());
        assert_eq!(m.pages_touched(), 0);
    }

    #[test]
    fn word_write_read_roundtrip() {
        let mut m = HomeMemory::new();
        m.write_word(Addr(0x1000), 0xabcd1234);
        assert_eq!(m.read_word(Addr(0x1000)), 0xabcd1234);
        // Neighbor word untouched.
        assert_eq!(m.read_word(Addr(0x1004)), 0);
    }

    #[test]
    fn float_roundtrips() {
        let mut m = HomeMemory::new();
        m.write_f32(Addr(0x2000), -7.25);
        assert_eq!(m.read_f32(Addr(0x2000)), -7.25);
        m.write_f64(Addr(0x2008), 1e100);
        assert_eq!(m.read_f64(Addr(0x2008)), 1e100);
    }

    #[test]
    fn block_write_read_roundtrip() {
        let mut m = HomeMemory::new();
        let mut b = BlockBuf::zeroed();
        for w in 0..8 {
            b.set_word(w, w as u32 + 1);
        }
        m.write_block(BlockId(130), &b); // second page
        assert_eq!(m.read_block(BlockId(130)), b);
        assert_eq!(m.read_word(BlockId(130).word_addr(3)), 4);
    }

    #[test]
    fn merge_block_touches_only_masked_words() {
        let mut m = HomeMemory::new();
        let mut original = BlockBuf::zeroed();
        for w in 0..8 {
            original.set_word(w, 100 + w as u32);
        }
        m.write_block(BlockId(5), &original);

        let mut incoming = BlockBuf::zeroed();
        for w in 0..8 {
            incoming.set_word(w, 900 + w as u32);
        }
        let mut mask = WordMask::empty();
        mask.set(2);
        mask.set(7);
        m.merge_block(BlockId(5), &incoming, mask);

        let result = m.read_block(BlockId(5));
        assert_eq!(result.word(2), 902);
        assert_eq!(result.word(7), 907);
        assert_eq!(result.word(0), 100);
        assert_eq!(result.word(6), 106);
    }

    #[test]
    fn merge_with_empty_mask_is_noop() {
        let mut m = HomeMemory::new();
        let incoming = BlockBuf::zeroed();
        m.merge_block(BlockId(5), &incoming, WordMask::empty());
        assert_eq!(m.pages_touched(), 0, "empty merge must not materialize");
    }

    #[test]
    fn word_and_block_views_agree() {
        let mut m = HomeMemory::new();
        let a = BlockId(9).word_addr(4);
        m.write_word(a, 42);
        assert_eq!(m.read_block(BlockId(9)).word(4), 42);
    }
}
