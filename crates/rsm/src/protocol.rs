//! The protocol interface shared by Stache and LCM.
//!
//! The C\*\* runtime (and every application) is written against
//! [`MemoryProtocol`], so a program can be relinked against either memory
//! system — the paper's point that "a compiler can make this choice … by
//! selecting the libraries linked with a program". The RSM directives
//! (`mark_modification`, `flush_copies`, `reconcile_copies`) are part of
//! the trait with conservative defaults, making conventional coherent
//! memory (Stache) a trivial instance of the RSM family.

use crate::conflict::ConflictRecord;
use crate::policy::PolicyTable;
use crate::reconcile::{ReduceOp, ValueWidth};
use lcm_sim::mem::{Addr, WORD_BYTES};
use lcm_sim::NodeId;
use lcm_tempest::Tempest;

/// What one phase checkpoint had to capture, per protocol.
///
/// A fail-stop crash is repaired by rolling the dead node back to the
/// last phase boundary and re-executing, so each boundary must persist
/// enough protocol and memory state to restart from. How *much* state
/// that is differs sharply by memory system — LCM checkpoints only the
/// words reconciled since the previous boundary (its phase discipline
/// already funnels modifications through the home), while an
/// invalidation directory must capture dirty exclusive lines and the
/// directory itself — and that asymmetry is exactly what the recovery
/// sweep measures. The image carries byte counts only; capture and
/// restore *cycles* are charged by the runtime, centrally, so protocols
/// that never checkpoint stay byte-identical to older builds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointImage {
    /// Bytes captured at each node (index = node id).
    pub per_node: Vec<u64>,
    /// Dirty (exclusive) cache lines captured, at 32 bytes each.
    pub dirty_blocks: u64,
    /// Directory entries captured, at 8 bytes each.
    pub dir_entries: u64,
    /// Unreconciled data words captured, at 4 bytes each.
    pub words: u64,
}

impl CheckpointImage {
    /// Bytes to persist one directory entry: a 64-bit word packing the
    /// state discriminant with the sharer bitmap or owner id.
    pub const DIR_ENTRY_BYTES: u64 = 8;

    /// An empty image for a `nodes`-processor machine.
    pub fn empty(nodes: usize) -> CheckpointImage {
        CheckpointImage {
            per_node: vec![0; nodes],
            dirty_blocks: 0,
            dir_entries: 0,
            words: 0,
        }
    }

    /// Total bytes captured across all nodes.
    pub fn total_bytes(&self) -> u64 {
        self.per_node.iter().sum()
    }
}

/// A user-level memory system over the Tempest mechanisms.
///
/// Word accesses are the protocol-visible unit (the CM-5's single-
/// precision float); `f64` conveniences issue two word accesses, which is
/// also how the 32-bit-word Blizzard-E handles doubles.
pub trait MemoryProtocol {
    /// A short, stable system name ("stache", "lcm-scc", "lcm-mcc").
    fn name(&self) -> &'static str;

    /// Shared access to the underlying mechanisms.
    fn tempest(&self) -> &Tempest;

    /// Exclusive access to the underlying mechanisms.
    fn tempest_mut(&mut self) -> &mut Tempest;

    /// The region policy table.
    fn policies(&self) -> &PolicyTable;

    /// Mutable access to the region policy table (directive registration).
    fn policies_mut(&mut self) -> &mut PolicyTable;

    /// Loads the word at `addr` on `node`, faulting into the protocol as
    /// needed. `addr` must be word-aligned.
    fn read_word(&mut self, node: NodeId, addr: Addr) -> u32;

    /// Stores `bits` to the word at `addr` on `node`, faulting into the
    /// protocol as needed. `addr` must be word-aligned.
    fn write_word(&mut self, node: NodeId, addr: Addr, bits: u32);

    /// RSM directive: create an inconsistent, writable private copy of the
    /// block containing `addr` (no-op for protocols without copy-on-write
    /// support, i.e. plain coherent memory).
    fn mark_modification(&mut self, node: NodeId, addr: Addr) {
        let _ = (node, addr);
    }

    /// RSM directive: return `node`'s modified private copies to their
    /// homes for (partial) reconciliation. No-op by default.
    fn flush_copies(&mut self, node: NodeId) {
        let _ = node;
    }

    /// RSM directive: global barrier + full reconciliation, returning
    /// memory to a consistent state. Defaults to a plain barrier.
    fn reconcile_copies(&mut self) {
        self.barrier();
    }

    /// Begins a parallel phase (C\*\* parallel call). Protocols with
    /// copy-on-write semantics switch their marked regions into
    /// private-copy mode; plain coherent memory needs nothing.
    fn begin_parallel_phase(&mut self) {}

    /// True while a parallel phase is open.
    fn in_parallel_phase(&self) -> bool {
        false
    }

    /// A reduction assignment: combine `bits` into the location at `addr`
    /// under `op` (C\*\*'s `%+=` family). The default is a plain
    /// read-modify-write through coherent memory — the expensive shared
    /// accumulator of §7.1 that RSM's message-based reconciliation beats.
    fn reduce(&mut self, node: NodeId, addr: Addr, op: ReduceOp, bits: u64) {
        match op.width() {
            ValueWidth::W4 => {
                let cur = self.read_word(node, addr) as u64;
                self.write_word(node, addr, op.combine_bits(cur, bits) as u32);
            }
            ValueWidth::W8 => {
                let lo = self.read_word(node, addr) as u64;
                let hi = self.read_word(node, addr.offset(WORD_BYTES as u64)) as u64;
                let cur = lo | (hi << 32);
                let new = op.combine_bits(cur, bits);
                self.write_word(node, addr, new as u32);
                self.write_word(node, addr.offset(WORD_BYTES as u64), (new >> 32) as u32);
            }
        }
    }

    /// Stale-data directive (§7.5): drop `node`'s aged copy of the block
    /// containing `addr` so the next read fetches the producer's latest
    /// value. No-op for protocols without stale-data support.
    fn refresh_stale(&mut self, node: NodeId, addr: Addr) {
        let _ = (node, addr);
    }

    /// Captures a phase checkpoint, returning the bytes each node had to
    /// persist. Implementations may also *normalize* their state (e.g.
    /// write dirty lines back to their homes) so that later checkpoints
    /// are incremental — but must never change program-visible values.
    /// The default captures nothing, which is correct for any protocol
    /// whose home memory is always current.
    fn checkpoint(&mut self) -> CheckpointImage {
        CheckpointImage::empty(self.tempest().machine.nodes())
    }

    /// A global barrier with no reconciliation semantics.
    fn barrier(&mut self) {
        self.tempest_mut().machine.barrier();
    }

    /// Conflicts detected since the last call (for regions with
    /// `detect_conflicts`). Defaults to none.
    fn take_conflicts(&mut self) -> Vec<ConflictRecord> {
        Vec::new()
    }

    /// Checks the protocol's internal coherence invariants, returning a
    /// description of the first violation found. Protocols with real
    /// directory or phase state override this (Stache: single writer,
    /// sharer-list/directory agreement; LCM: phase-copy bookkeeping);
    /// the default has nothing to check.
    ///
    /// This is the hook behind [`crate::sanitizer`]: the fault sweeps run
    /// it after every benchmark to prove injected faults never corrupted
    /// protocol state. Implementations must be read-only and callable at
    /// any quiescent point (i.e. between top-level protocol operations).
    fn sanity_check(&self) -> Result<(), String> {
        Ok(())
    }

    // --- provided conveniences -------------------------------------------

    /// Charges `cycles` of local compute to `node`.
    fn compute(&mut self, node: NodeId, cycles: u64) {
        self.tempest_mut().machine.advance(node, cycles);
    }

    /// Loads the `f32` at `addr`.
    fn read_f32(&mut self, node: NodeId, addr: Addr) -> f32 {
        f32::from_bits(self.read_word(node, addr))
    }

    /// Stores the `f32` `v` at `addr`.
    fn write_f32(&mut self, node: NodeId, addr: Addr, v: f32) {
        self.write_word(node, addr, v.to_bits());
    }

    /// Loads the `u32` at `addr`.
    fn read_u32(&mut self, node: NodeId, addr: Addr) -> u32 {
        self.read_word(node, addr)
    }

    /// Stores the `u32` `v` at `addr`.
    fn write_u32(&mut self, node: NodeId, addr: Addr, v: u32) {
        self.write_word(node, addr, v);
    }

    /// Loads the `i32` at `addr`.
    fn read_i32(&mut self, node: NodeId, addr: Addr) -> i32 {
        self.read_word(node, addr) as i32
    }

    /// Stores the `i32` `v` at `addr`.
    fn write_i32(&mut self, node: NodeId, addr: Addr, v: i32) {
        self.write_word(node, addr, v as u32);
    }

    /// Loads the `f64` spanning the two words at `addr` (two accesses).
    fn read_f64(&mut self, node: NodeId, addr: Addr) -> f64 {
        let lo = self.read_word(node, addr) as u64;
        let hi = self.read_word(node, addr.offset(WORD_BYTES as u64)) as u64;
        f64::from_bits(lo | (hi << 32))
    }

    /// Stores the `f64` `v` at `addr` (two accesses).
    fn write_f64(&mut self, node: NodeId, addr: Addr, v: f64) {
        let bits = v.to_bits();
        self.write_word(node, addr, bits as u32);
        self.write_word(node, addr.offset(WORD_BYTES as u64), (bits >> 32) as u32);
    }

    /// Typed [`MemoryProtocol::reduce`] over an `f32` location.
    ///
    /// # Panics
    /// Panics if `op` is not an `f32`-width operator.
    fn reduce_f32(&mut self, node: NodeId, addr: Addr, op: ReduceOp, v: f32) {
        assert_eq!(op.width(), ValueWidth::W4, "{op} is not a 4-byte operator");
        self.reduce(node, addr, op, v.to_bits() as u64);
    }

    /// Typed [`MemoryProtocol::reduce`] over an `f64` location.
    ///
    /// # Panics
    /// Panics if `op` is not an `f64`-width operator.
    fn reduce_f64(&mut self, node: NodeId, addr: Addr, op: ReduceOp, v: f64) {
        assert_eq!(op.width(), ValueWidth::W8, "{op} is not an 8-byte operator");
        self.reduce(node, addr, op, v.to_bits());
    }

    /// Typed [`MemoryProtocol::reduce`] over an `i32` location.
    ///
    /// # Panics
    /// Panics if `op` is not a 4-byte operator.
    fn reduce_i32(&mut self, node: NodeId, addr: Addr, op: ReduceOp, v: i32) {
        assert_eq!(op.width(), ValueWidth::W4, "{op} is not a 4-byte operator");
        self.reduce(node, addr, op, v as u32 as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyTable;
    use lcm_sim::MachineConfig;

    /// A protocol that accesses home memory directly with no coherence —
    /// just enough to exercise the trait's provided methods.
    struct RawMemory {
        tempest: Tempest,
        policies: PolicyTable,
    }

    impl RawMemory {
        fn new() -> RawMemory {
            RawMemory {
                tempest: Tempest::new(MachineConfig::new(2)),
                policies: PolicyTable::new(),
            }
        }
    }

    impl MemoryProtocol for RawMemory {
        fn name(&self) -> &'static str {
            "raw"
        }
        fn tempest(&self) -> &Tempest {
            &self.tempest
        }
        fn tempest_mut(&mut self) -> &mut Tempest {
            &mut self.tempest
        }
        fn policies(&self) -> &PolicyTable {
            &self.policies
        }
        fn policies_mut(&mut self) -> &mut PolicyTable {
            &mut self.policies
        }
        fn read_word(&mut self, _node: NodeId, addr: Addr) -> u32 {
            self.tempest.mem.read_word(addr)
        }
        fn write_word(&mut self, _node: NodeId, addr: Addr, bits: u32) {
            self.tempest.mem.write_word(addr, bits);
        }
    }

    #[test]
    fn typed_accessors_roundtrip() {
        let mut p = RawMemory::new();
        let n = NodeId(0);
        p.write_f32(n, Addr(0x1000), 2.5);
        assert_eq!(p.read_f32(n, Addr(0x1000)), 2.5);
        p.write_i32(n, Addr(0x1004), -9);
        assert_eq!(p.read_i32(n, Addr(0x1004)), -9);
        p.write_u32(n, Addr(0x1008), 77);
        assert_eq!(p.read_u32(n, Addr(0x1008)), 77);
        p.write_f64(n, Addr(0x1010), 6.02e23);
        assert_eq!(p.read_f64(n, Addr(0x1010)), 6.02e23);
    }

    #[test]
    fn default_directives_are_noops() {
        let mut p = RawMemory::new();
        p.mark_modification(NodeId(0), Addr(0x1000));
        p.flush_copies(NodeId(0));
        assert!(p.take_conflicts().is_empty());
        p.reconcile_copies(); // default = barrier
        assert_eq!(p.tempest().machine.barriers(), 1);
    }

    #[test]
    fn compute_advances_the_clock() {
        let mut p = RawMemory::new();
        p.compute(NodeId(1), 123);
        assert_eq!(p.tempest().machine.clock(NodeId(1)), 123);
    }

    #[test]
    fn default_reduce_is_read_modify_write() {
        use crate::reconcile::ReduceOp;
        let mut p = RawMemory::new();
        let n = NodeId(0);
        p.write_f64(n, Addr(0x1000), 10.0);
        p.reduce_f64(n, Addr(0x1000), ReduceOp::SumF64, 2.5);
        p.reduce_f64(n, Addr(0x1000), ReduceOp::SumF64, 2.5);
        assert_eq!(p.read_f64(n, Addr(0x1000)), 15.0);

        p.write_f32(n, Addr(0x1010), 4.0);
        p.reduce_f32(n, Addr(0x1010), ReduceOp::MaxF32, 9.0);
        assert_eq!(p.read_f32(n, Addr(0x1010)), 9.0);

        p.write_i32(n, Addr(0x1014), 7);
        p.reduce_i32(n, Addr(0x1014), ReduceOp::SumI32, -2);
        assert_eq!(p.read_i32(n, Addr(0x1014)), 5);
    }

    #[test]
    #[should_panic(expected = "not an 8-byte operator")]
    fn reduce_f64_rejects_w4_ops() {
        use crate::reconcile::ReduceOp;
        let mut p = RawMemory::new();
        p.reduce_f64(NodeId(0), Addr(0x1000), ReduceOp::SumF32, 1.0);
    }

    #[test]
    fn default_checkpoint_is_empty() {
        let mut p = RawMemory::new();
        let img = p.checkpoint();
        assert_eq!(img, CheckpointImage::empty(2));
        assert_eq!(img.total_bytes(), 0);
        assert_eq!(img.per_node.len(), 2);
    }

    #[test]
    fn phase_defaults() {
        let mut p = RawMemory::new();
        assert!(!p.in_parallel_phase());
        p.begin_parallel_phase(); // no-op
        p.refresh_stale(NodeId(0), Addr(0x1000)); // no-op
        assert!(!p.in_parallel_phase());
    }
}
