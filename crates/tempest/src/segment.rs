//! The global address space: segments, allocation, and home placement.
//!
//! Tempest presents physically-distributed memory through one global
//! address space; every block has a *home node* that owns its directory
//! state and authoritative value. Programs (and the C\*\* runtime) choose a
//! [`Placement`] per allocation — the same lever the paper's programs use
//! when they partition a mesh so each processor's chunk is homed locally.

use lcm_sim::mem::{Addr, BlockId, BLOCK_BYTES, PAGE_BYTES};
use lcm_sim::NodeId;
use std::cell::Cell;
use std::fmt;

/// How the blocks of a segment are distributed across home nodes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Block `i` of the segment is homed on node `i mod P`.
    Interleaved,
    /// The segment is split into `P` contiguous chunks; chunk `k` is homed
    /// on node `k`. This is the placement a statically-partitioned C\*\*
    /// aggregate uses so each processor's rows live at home.
    Blocked,
    /// Every block is homed on one node (globals, reduction cells).
    OnNode(NodeId),
    /// Page `i` of the segment is homed on node `i mod P`, mirroring
    /// page-grained allocation in Blizzard/Stache.
    PageInterleaved,
}

/// A contiguous allocation in the global address space.
#[derive(Clone, Debug)]
pub struct Segment {
    base: Addr,
    blocks: u64,
    placement: Placement,
    /// Blocks per node under [`Placement::Blocked`], fixed at allocation
    /// so a home lookup divides once.
    chunk: u64,
    name: String,
}

impl Segment {
    /// First address of the segment.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Length in blocks.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Length in bytes.
    pub fn bytes(&self) -> u64 {
        self.blocks * BLOCK_BYTES as u64
    }

    /// The placement policy.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The debug name given at allocation.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// First block of the segment.
    pub fn first_block(&self) -> BlockId {
        self.base.block()
    }

    /// One-past-last block of the segment.
    pub fn end_block(&self) -> BlockId {
        BlockId(self.base.block().0 + self.blocks)
    }

    /// True when `block` lies inside this segment.
    pub fn contains_block(&self, block: BlockId) -> bool {
        block >= self.first_block() && block < self.end_block()
    }

    fn home_of(&self, block: BlockId, nodes: usize) -> NodeId {
        debug_assert!(self.contains_block(block));
        let off = block.0 - self.first_block().0;
        let p = nodes as u64;
        let node = match self.placement {
            Placement::Interleaved => off % p,
            Placement::Blocked => (off / self.chunk).min(p - 1),
            Placement::OnNode(n) => return n,
            Placement::PageInterleaved => {
                let page_off = off / (PAGE_BYTES / BLOCK_BYTES) as u64;
                page_off % p
            }
        };
        NodeId(node as u16)
    }
}

/// The global address space: a bump allocator over page-aligned segments
/// plus the block→home mapping.
///
/// Allocation never frees (the paper's programs allocate their data once);
/// clean copies and protocol state are not allocated here — they live in
/// protocol-private storage, as in Blizzard.
///
/// ```
/// use lcm_tempest::{AddressSpace, Placement};
/// let mut space = AddressSpace::new(4);
/// let a = space.alloc(1024, Placement::Interleaved, "matrix");
/// let home0 = space.home_of(a.block());
/// let home1 = space.home_of(a.offset(32).block());
/// assert_ne!(home0, home1); // consecutive blocks interleave
/// ```
#[derive(Clone, Debug)]
pub struct AddressSpace {
    nodes: usize,
    segments: Vec<Segment>,
    next: u64,
    last_hit: Cell<usize>,
}

/// Allocations begin above zero so that address 0 is never valid — a null
/// value for simulated pointers (the Adaptive quad-tree uses index 0 as
/// "no child").
const BASE: u64 = PAGE_BYTES as u64;

impl AddressSpace {
    /// An empty address space for a machine of `nodes` processors.
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    pub fn new(nodes: usize) -> AddressSpace {
        assert!(nodes > 0, "an address space needs at least one node");
        AddressSpace {
            nodes,
            segments: Vec::new(),
            next: BASE,
            last_hit: Cell::new(0),
        }
    }

    /// Number of nodes the placement policies map onto.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Allocates `bytes` (rounded up to whole pages) with the given
    /// placement, returning the segment's base address.
    ///
    /// # Panics
    /// Panics if `bytes == 0`.
    pub fn alloc(&mut self, bytes: u64, placement: Placement, name: &str) -> Addr {
        assert!(bytes > 0, "zero-byte allocation");
        let pages = bytes.div_ceil(PAGE_BYTES as u64);
        let base = Addr(self.next);
        let blocks = pages * (PAGE_BYTES / BLOCK_BYTES) as u64;
        self.next += pages * PAGE_BYTES as u64;
        self.segments.push(Segment {
            base,
            blocks,
            placement,
            chunk: blocks.div_ceil(self.nodes as u64).max(1),
            name: name.to_string(),
        });
        base
    }

    /// The segment containing `block`, if any.
    pub fn segment_of(&self, block: BlockId) -> Option<&Segment> {
        // Fast path: most lookups hit the same segment repeatedly.
        let hint = self.last_hit.get();
        if let Some(seg) = self.segments.get(hint) {
            if seg.contains_block(block) {
                return Some(seg);
            }
        }
        let idx = self
            .segments
            .binary_search_by(|seg| {
                if block < seg.first_block() {
                    std::cmp::Ordering::Greater
                } else if block >= seg.end_block() {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .ok()?;
        self.last_hit.set(idx);
        Some(&self.segments[idx])
    }

    /// The home node of `block`.
    ///
    /// # Panics
    /// Panics if `block` was never allocated.
    pub fn home_of(&self, block: BlockId) -> NodeId {
        match self.segment_of(block) {
            Some(seg) => seg.home_of(block, self.nodes),
            None => panic!("home_of: {block:?} is not part of any allocation"),
        }
    }

    /// All segments, in allocation (= address) order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total allocated bytes.
    pub fn allocated_bytes(&self) -> u64 {
        self.next - BASE
    }
}

impl fmt::Display for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "address space: {} segments, {} bytes",
            self.segments.len(),
            self.allocated_bytes()
        )?;
        for s in &self.segments {
            writeln!(
                f,
                "  {:>10} at {} ({} blocks, {:?})",
                s.name, s.base, s.blocks, s.placement
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_page_aligned_and_monotonic() {
        let mut s = AddressSpace::new(4);
        let a = s.alloc(10, Placement::Interleaved, "a");
        let b = s.alloc(PAGE_BYTES as u64 + 1, Placement::Blocked, "b");
        assert_eq!(a.0 % PAGE_BYTES as u64, 0);
        assert_eq!(b.0, a.0 + PAGE_BYTES as u64);
        assert_eq!(s.allocated_bytes(), 3 * PAGE_BYTES as u64);
    }

    #[test]
    fn address_zero_is_never_allocated() {
        let mut s = AddressSpace::new(2);
        let a = s.alloc(8, Placement::Interleaved, "a");
        assert!(a.0 > 0);
        assert!(s.segment_of(BlockId(0)).is_none());
    }

    #[test]
    fn interleaved_homes_round_robin() {
        let mut s = AddressSpace::new(4);
        let a = s.alloc(PAGE_BYTES as u64, Placement::Interleaved, "a");
        let b0 = a.block();
        for i in 0..8u64 {
            assert_eq!(s.home_of(BlockId(b0.0 + i)), NodeId((i % 4) as u16));
        }
    }

    #[test]
    fn blocked_homes_contiguous_chunks() {
        let mut s = AddressSpace::new(4);
        // One page = 128 blocks; chunks of 32.
        let a = s.alloc(PAGE_BYTES as u64, Placement::Blocked, "a");
        let b0 = a.block().0;
        assert_eq!(s.home_of(BlockId(b0)), NodeId(0));
        assert_eq!(s.home_of(BlockId(b0 + 31)), NodeId(0));
        assert_eq!(s.home_of(BlockId(b0 + 32)), NodeId(1));
        assert_eq!(s.home_of(BlockId(b0 + 127)), NodeId(3));
    }

    #[test]
    fn on_node_homes_everything_in_one_place() {
        let mut s = AddressSpace::new(8);
        let a = s.alloc(PAGE_BYTES as u64, Placement::OnNode(NodeId(5)), "g");
        for i in 0..128u64 {
            assert_eq!(s.home_of(BlockId(a.block().0 + i)), NodeId(5));
        }
    }

    #[test]
    fn page_interleaved_homes_by_page() {
        let mut s = AddressSpace::new(2);
        let a = s.alloc(2 * PAGE_BYTES as u64, Placement::PageInterleaved, "p");
        let b0 = a.block().0;
        assert_eq!(s.home_of(BlockId(b0)), NodeId(0));
        assert_eq!(s.home_of(BlockId(b0 + 127)), NodeId(0));
        assert_eq!(s.home_of(BlockId(b0 + 128)), NodeId(1));
    }

    #[test]
    fn segment_lookup_across_many_segments() {
        let mut s = AddressSpace::new(2);
        let mut bases = Vec::new();
        for i in 0..16 {
            bases.push(s.alloc(PAGE_BYTES as u64, Placement::Interleaved, &format!("s{i}")));
        }
        for (i, base) in bases.iter().enumerate() {
            let seg = s.segment_of(base.block()).expect("allocated");
            assert_eq!(seg.name(), format!("s{i}"));
        }
    }

    #[test]
    #[should_panic(expected = "not part of any allocation")]
    fn home_of_unallocated_panics() {
        AddressSpace::new(2).home_of(BlockId(12345));
    }

    #[test]
    fn blocked_never_exceeds_node_range() {
        // 3 pages over 7 nodes: chunk arithmetic must stay in range.
        let mut s = AddressSpace::new(7);
        let a = s.alloc(3 * PAGE_BYTES as u64, Placement::Blocked, "odd");
        let first = a.block().0;
        for i in 0..(3 * 128) {
            let h = s.home_of(BlockId(first + i));
            assert!((h.0 as usize) < 7);
        }
    }

    #[test]
    fn display_lists_segments() {
        let mut s = AddressSpace::new(2);
        s.alloc(64, Placement::Interleaved, "mesh");
        let text = format!("{s}");
        assert!(text.contains("mesh"));
    }
}
