//! The C\*\* runtime: aggregates, reduction variables, and the
//! compilation strategy.
//!
//! The paper's C\*\* compiler emits one of two code shapes per program:
//! LCM directives (`mark_modification` / `flush_copies` /
//! `reconcile_copies`, with the memory system catching unmarked stores),
//! or conservative *explicit copying* on a conventional memory system
//! (double-buffered aggregates swapped after each parallel call). This
//! runtime realizes both as a [`Strategy`], so the same application code
//! runs under either — the paper's point that "a compiler can make this
//! choice by selecting the libraries linked with a program".

use crate::aggregate::{Agg1, Agg2, AggInfo};
use crate::scalar::Scalar;
use lcm_rsm::{MemoryProtocol, MergePolicy, ReduceOp, RegionPolicy, ValueWidth};
use lcm_sim::mem::{Addr, BlockId, BLOCK_BYTES};
use lcm_sim::{CrashPlan, CycleCat, Knob, NodeId, Pcg32};
use lcm_tempest::Placement;
use std::ops::Range;

/// How the "compiler" implements C\*\* semantics.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Emit LCM directives; aggregates are copy-on-write regions and a
    /// parallel call is a phase ended by `reconcile_copies`.
    LcmDirectives,
    /// Conservative explicit copying on coherent memory: aggregates are
    /// double-buffered; reads come from the front copy, writes go to the
    /// back copy, and buffers swap after the parallel call.
    ExplicitCopy,
}

/// When the "compiler" emits `flush_copies` directives (paper §5.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// After every invocation that modified data — the conservative
    /// default, required whenever the compiler cannot prove that
    /// consecutive invocations on one processor touch distinct locations.
    #[default]
    PerInvocation,
    /// Only at the end of the parallel call. **Sound only when compiler
    /// analysis shows every invocation reads and writes locations no
    /// other invocation of the call accesses** (each invocation then
    /// cannot observe a predecessor's modifications, because there are
    /// none it would touch). The C\*\* compiler's §5.1 optimization.
    AtReconcile,
}

/// Tunables of the runtime.
#[derive(Copy, Clone, Debug)]
pub struct RuntimeConfig {
    /// Cycles charged per parallel-function invocation (call, scheduling
    /// and index arithmetic — work the protocol does not see).
    pub invocation_overhead: u64,
    /// Seed for the dynamic-partition schedule shuffle.
    pub seed: u64,
    /// Register aggregates with conflict detection (paper §7.2/7.3).
    pub detect_conflicts: bool,
    /// Flush-directive placement (see [`FlushPolicy`]).
    pub flush: FlushPolicy,
    /// Fail-stop crash schedule (disabled by default). An active plan
    /// makes the runtime checkpoint at phase boundaries and roll crashed
    /// nodes back to the last checkpoint; an inactive plan changes
    /// nothing, cycle for cycle. Crashes are cost-only: deterministic
    /// re-execution reproduces the dead node's exact values, so program
    /// outputs stay byte-identical at any crash rate.
    pub crash: CrashPlan,
    /// Checkpoint every N-th phase boundary (`>= 1`; only meaningful
    /// while [`RuntimeConfig::crash`] is active). Coarser checkpoints
    /// capture state less often but lose more re-executed work per
    /// crash — the granularity axis of the recovery sweep.
    pub checkpoint_every: u64,
    /// Ignored: nothing reads it, and every simulation runs on one host
    /// thread. Kept, at its default of 1, only because the host-time
    /// benchmark (`hostbench/src/sim.rs`) names it in a struct literal;
    /// it goes with the next change to that benchmark.
    pub sim_threads: usize,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            invocation_overhead: 50,
            seed: 0x5eed,
            detect_conflicts: false,
            flush: FlushPolicy::PerInvocation,
            crash: CrashPlan::disabled(),
            checkpoint_every: 1,
            sim_threads: 1,
        }
    }
}

/// A reduction variable (C\*\*'s `%+=` family targets): an `f64` location
/// with an associated reconciliation operator.
#[derive(Copy, Clone, Debug)]
pub struct ReduceVar {
    pub(crate) addr: Addr,
    pub(crate) op: ReduceOp,
}

impl ReduceVar {
    /// The reduction operator.
    pub fn op(&self) -> ReduceOp {
        self.op
    }
}

/// The C\*\* runtime over a memory protocol `P`.
///
/// ```
/// use lcm_cstar::{Runtime, Strategy, Partition};
/// use lcm_core::{Lcm, LcmVariant};
/// use lcm_sim::MachineConfig;
/// use lcm_tempest::Placement;
///
/// let mem = Lcm::new(MachineConfig::new(4), LcmVariant::Mcc);
/// let mut rt = Runtime::new(mem, Strategy::LcmDirectives);
/// let a = rt.new_aggregate2::<f32>(8, 8, Placement::Blocked, "m");
/// rt.init2(a, |r, c| (r + c) as f32);
/// rt.apply2(a, Partition::Static, |inv, r, c| {
///     let v = inv.get(a.at(r, c));
///     inv.set(a.at(r, c), v + 1.0);
/// });
/// assert_eq!(rt.peek2(a, 3, 4), 8.0);
/// ```
#[derive(Debug)]
pub struct Runtime<P> {
    pub(crate) mem: P,
    pub(crate) strategy: Strategy,
    pub(crate) aggs: Vec<AggInfo>,
    pub(crate) written: Vec<bool>,
    pub(crate) rng: Pcg32,
    pub(crate) overhead: u64,
    pub(crate) flush: FlushPolicy,
    detect_conflicts: bool,
    crash: CrashPlan,
    checkpoint_every: u64,
    /// Phase boundaries crossed so far (init and apply alike); the
    /// crash schedule draws per `(node, phase)` from this counter.
    phase: u64,
    /// Each node's clock at its last checkpoint — the restart point a
    /// crashed node rolls back to.
    ckpt_clocks: Vec<u64>,
    /// Bytes each node persisted at its last checkpoint — the state a
    /// crashed node must re-read to restart.
    ckpt_bytes: Vec<u64>,
}

impl<P: MemoryProtocol> Runtime<P> {
    /// A runtime with default configuration.
    pub fn new(mem: P, strategy: Strategy) -> Runtime<P> {
        Runtime::with_config(mem, strategy, RuntimeConfig::default())
    }

    /// A runtime with explicit configuration.
    ///
    /// # Panics
    /// Panics if `config.checkpoint_every == 0`.
    pub fn with_config(mem: P, strategy: Strategy, config: RuntimeConfig) -> Runtime<P> {
        assert!(
            config.checkpoint_every >= 1,
            "checkpoint_every must be at least 1"
        );
        let nodes = mem.tempest().nodes();
        Runtime {
            mem,
            strategy,
            aggs: Vec::new(),
            written: Vec::new(),
            rng: Pcg32::new(config.seed, 0xC5),
            overhead: config.invocation_overhead,
            flush: config.flush,
            detect_conflicts: config.detect_conflicts,
            crash: config.crash,
            checkpoint_every: config.checkpoint_every,
            phase: 0,
            ckpt_clocks: vec![0; nodes],
            ckpt_bytes: vec![0; nodes],
        }
    }

    /// The compilation strategy in force.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The memory system.
    pub fn mem(&self) -> &P {
        &self.mem
    }

    /// Mutable access to the memory system.
    pub fn mem_mut(&mut self) -> &mut P {
        &mut self.mem
    }

    /// Consumes the runtime, returning the memory system (for final
    /// statistics harvesting).
    pub fn into_mem(self) -> P {
        self.mem
    }

    /// Number of processors.
    pub fn nodes(&self) -> usize {
        self.mem.tempest().nodes()
    }

    /// Current simulated time (max node clock), in cycles.
    pub fn time(&self) -> u64 {
        self.mem.tempest().machine.time()
    }

    /// Phase boundaries crossed so far (init and apply alike).
    pub fn phases(&self) -> u64 {
        self.phase
    }

    /// Closes a profiler phase and, when a crash schedule is active,
    /// captures a checkpoint every `checkpoint_every`-th boundary.
    /// With the default (inactive) plan this is exactly the old
    /// `mark_phase` call — no draw, no charge, no state change.
    pub(crate) fn phase_boundary(&mut self, label: &'static str) {
        self.mem.tempest_mut().machine.mark_phase(label);
        self.phase += 1;
        if self.crash.is_active() && self.phase.is_multiple_of(self.checkpoint_every) {
            self.take_checkpoint();
        }
    }

    /// Captures a phase checkpoint and charges its capture cost: each
    /// node persists its share of the image at block-flush bandwidth
    /// under [`CycleCat::Checkpoint`].
    fn take_checkpoint(&mut self) {
        let img = self.mem.checkpoint();
        let t = self.mem.tempest_mut();
        for (i, &bytes) in img.per_node.iter().enumerate() {
            let node = NodeId(i as u16);
            let blocks = bytes.div_ceil(BLOCK_BYTES as u64);
            t.machine
                .charge(node, CycleCat::Checkpoint, Knob::BlockFlush, blocks);
            let s = t.machine.stats_mut(node);
            s.checkpoints += 1;
            s.checkpoint_bytes += bytes;
            self.ckpt_bytes[i] = bytes;
            self.ckpt_clocks[i] = t.machine.clock(node);
        }
    }

    /// Processes the crash schedule for the phase that just completed.
    ///
    /// Runs *after* the phase's reconciliation, so the merged global
    /// state is already identical to the crash-free run's — the fail-stop
    /// model is cost-only: the crashed node's private copies are gone,
    /// but its deterministic re-execution from the last checkpoint
    /// produces the very same versions, so only cycles and statistics
    /// move. Each crash charges:
    ///
    /// * the victim: the re-executed work (the crash point's fraction of
    ///   its work since the last checkpoint) plus a refill of its
    ///   checkpointed bytes, under [`CycleCat::Rollback`];
    /// * every survivor: one retry-timeout detection window under
    ///   [`CycleCat::CrashDetect`];
    ///
    /// ticks the victim's `crashes` counter, then resynchronizes with a
    /// barrier (survivors wait for the restart).
    pub(crate) fn process_crashes(&mut self) {
        if !self.crash.is_active() {
            return;
        }
        let nodes = self.nodes();
        let scheduled = self.crash.scheduled(nodes, self.phase);
        if scheduled.is_empty() {
            return;
        }
        for (node, point) in scheduled {
            let t = self.mem.tempest_mut();
            let at = t.machine.clock(node);
            t.machine.stats_mut(node).crashes += 1;
            for i in 0..nodes {
                let peer = NodeId(i as u16);
                if peer != node {
                    t.machine
                        .charge(peer, CycleCat::CrashDetect, Knob::RetryTimeout, 1);
                }
            }
            let work = at.saturating_sub(self.ckpt_clocks[node.index()]);
            let lost = work * point.frac_permille / 1000;
            t.machine.advance_as(node, lost, CycleCat::Rollback);
            let blocks = self.ckpt_bytes[node.index()].div_ceil(BLOCK_BYTES as u64);
            t.machine
                .charge(node, CycleCat::Rollback, Knob::LocalRefill, blocks);
        }
        self.mem.barrier();
    }

    fn register(&mut self, base: Addr, bytes: u64, merge: MergePolicy) {
        if self.strategy != Strategy::LcmDirectives {
            return;
        }
        let first = base.block();
        let end = BlockId(base.offset(bytes - 1).block().0 + 1);
        let mut policy = RegionPolicy::copy_on_write(merge);
        if self.detect_conflicts {
            policy = policy.detecting();
        }
        self.mem.policies_mut().set(first, end, policy);
    }

    fn new_storage(&mut self, len: usize, placement: Placement, name: &str) -> AggInfo {
        assert!(len > 0, "empty aggregate");
        let bytes = (len * 4) as u64;
        let base = self.mem.tempest_mut().alloc(bytes, placement, name);
        let back = match self.strategy {
            Strategy::ExplicitCopy => Some(self.mem.tempest_mut().alloc(
                bytes,
                placement,
                &format!("{name}.back"),
            )),
            Strategy::LcmDirectives => None,
        };
        self.register(base, bytes, MergePolicy::KeepOne);
        AggInfo {
            base,
            back,
            swapped: false,
            len,
            cols: len,
            name: name.to_string(),
        }
    }

    /// Allocates a one-dimensional aggregate of `len` elements.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    pub fn new_aggregate1<T: Scalar>(
        &mut self,
        len: usize,
        placement: Placement,
        name: &str,
    ) -> Agg1<T> {
        let info = self.new_storage(len, placement, name);
        let id = self.aggs.len();
        self.aggs.push(info);
        self.written.push(false);
        Agg1::new(id, len)
    }

    /// Allocates a `rows × cols` row-major aggregate.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new_aggregate2<T: Scalar>(
        &mut self,
        rows: usize,
        cols: usize,
        placement: Placement,
        name: &str,
    ) -> Agg2<T> {
        assert!(rows > 0 && cols > 0, "empty aggregate");
        let mut info = self.new_storage(rows * cols, placement, name);
        info.cols = cols;
        let id = self.aggs.len();
        self.aggs.push(info);
        self.written.push(false);
        Agg2::new(id, rows, cols)
    }

    /// Allocates an `f64` reduction variable with the given operator and
    /// initial value (homed on node 0, like a C\*\* global).
    ///
    /// # Panics
    /// Panics if `op` is not an 8-byte operator.
    pub fn new_reduction_f64(&mut self, op: ReduceOp, init: f64, name: &str) -> ReduceVar {
        assert_eq!(op.width(), ValueWidth::W8, "{op} is not an f64 operator");
        let addr = self
            .mem
            .tempest_mut()
            .alloc(8, Placement::OnNode(NodeId(0)), name);
        self.register(addr, 8, MergePolicy::Reduce(op));
        self.mem.write_f64(NodeId(0), addr, init);
        ReduceVar { addr, op }
    }

    /// Re-initializes a reduction variable (outside any parallel phase).
    pub fn set_reduction(&mut self, var: ReduceVar, value: f64) {
        self.mem.write_f64(NodeId(0), var.addr, value);
    }

    /// Reads a reduction variable without disturbing protocol state.
    pub fn peek_reduction(&self, var: ReduceVar) -> f64 {
        self.mem.tempest().mem.read_f64(var.addr)
    }

    /// Initializes a 1-D aggregate in parallel, each element written by
    /// its static owner (warming ownership the way a real program's
    /// initialization loop does). Writes both buffers under
    /// [`Strategy::ExplicitCopy`]. Ends with a barrier.
    pub fn init1<T: Scalar, F: FnMut(usize) -> T>(&mut self, agg: Agg1<T>, mut f: F) {
        for (node, range) in chunk_plan(agg.len, self.nodes()) {
            for i in range {
                self.init_element(agg.id, node, i, f(i).to_bits());
            }
        }
        self.mem.barrier();
        self.phase_boundary("init");
    }

    /// Initializes a 2-D aggregate in parallel by static row owner.
    /// Writes both buffers under [`Strategy::ExplicitCopy`]. Ends with a
    /// barrier.
    pub fn init2<T: Scalar, F: FnMut(usize, usize) -> T>(&mut self, agg: Agg2<T>, mut f: F) {
        for (node, rows) in chunk_plan(agg.rows, self.nodes()) {
            for r in rows {
                for c in 0..agg.cols {
                    self.init_element(agg.id, node, r * agg.cols + c, f(r, c).to_bits());
                }
            }
        }
        self.mem.barrier();
        self.phase_boundary("init");
    }

    fn init_element(&mut self, id: usize, node: NodeId, idx: usize, bits: u32) {
        let (front, back) = {
            let info = &self.aggs[id];
            (info.read_addr(idx), info.back.map(|_| info.write_addr(idx)))
        };
        self.mem.write_word(node, front, bits);
        if let Some(b) = back {
            if b != front {
                self.mem.write_word(node, b, bits);
            }
        }
    }

    /// Reads an element of a 1-D aggregate directly from home memory —
    /// zero cost, no protocol state disturbed. Intended for verification
    /// *between* parallel phases (during a phase, pending modifications
    /// are not yet visible here).
    pub fn peek1<T: Scalar>(&self, agg: Agg1<T>, i: usize) -> T {
        let addr = self.aggs[agg.id].read_addr(i);
        T::from_bits(self.mem.tempest().mem.read_word(addr))
    }

    /// Reads an element of a 2-D aggregate directly from home memory
    /// (see [`Runtime::peek1`]).
    pub fn peek2<T: Scalar>(&self, agg: Agg2<T>, r: usize, c: usize) -> T {
        let addr = self.aggs[agg.id].read_addr(agg.index(r, c));
        T::from_bits(self.mem.tempest().mem.read_word(addr))
    }
}

/// Splits `len` items into `nodes` contiguous chunks (the static
/// partition): chunk `k` goes to node `k`. Trailing chunks may be empty
/// when `len < nodes`.
pub(crate) fn chunk_plan(len: usize, nodes: usize) -> Vec<(NodeId, Range<usize>)> {
    let mut plan = Vec::with_capacity(nodes);
    for k in 0..nodes {
        let start = len * k / nodes;
        let end = len * (k + 1) / nodes;
        plan.push((NodeId(k as u16), start..end));
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_core::{Lcm, LcmVariant};
    use lcm_sim::MachineConfig;
    use lcm_stache::Stache;

    fn lcm_rt() -> Runtime<Lcm> {
        Runtime::new(
            Lcm::new(MachineConfig::new(4), LcmVariant::Mcc),
            Strategy::LcmDirectives,
        )
    }

    fn copy_rt() -> Runtime<Stache> {
        Runtime::new(Stache::new(MachineConfig::new(4)), Strategy::ExplicitCopy)
    }

    #[test]
    fn chunk_plan_covers_everything_contiguously() {
        for (len, nodes) in [(10, 3), (3, 8), (32, 32), (1000, 7)] {
            let plan = chunk_plan(len, nodes);
            assert_eq!(plan.len(), nodes);
            let mut next = 0;
            for (_, r) in &plan {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, len);
        }
    }

    #[test]
    fn lcm_strategy_allocates_single_buffer() {
        let mut rt = lcm_rt();
        let a = rt.new_aggregate2::<f32>(4, 4, Placement::Blocked, "m");
        assert!(rt.aggs[a.id].back.is_none());
    }

    #[test]
    fn copying_strategy_allocates_double_buffer() {
        let mut rt = copy_rt();
        let a = rt.new_aggregate2::<f32>(4, 4, Placement::Blocked, "m");
        assert!(rt.aggs[a.id].back.is_some());
    }

    #[test]
    fn init_and_peek_roundtrip() {
        let mut rt = lcm_rt();
        let a = rt.new_aggregate2::<i32>(8, 8, Placement::Blocked, "m");
        rt.init2(a, |r, c| (r * 100 + c) as i32);
        assert_eq!(rt.peek2(a, 3, 5), 305);
        let b = rt.new_aggregate1::<f32>(10, Placement::Interleaved, "v");
        rt.init1(b, |i| i as f32 * 0.5);
        assert_eq!(rt.peek1(b, 7), 3.5);
    }

    #[test]
    fn init_writes_both_buffers_under_copying() {
        let mut rt = copy_rt();
        let a = rt.new_aggregate1::<i32>(4, Placement::Blocked, "v");
        rt.init1(a, |i| i as i32 + 1);
        let info = &rt.aggs[a.id];
        let t = rt.mem().tempest();
        assert_eq!(t.mem.read_word(info.read_addr(2)), 3);
        assert_eq!(t.mem.read_word(info.write_addr(2)), 3);
        assert_ne!(info.read_addr(2), info.write_addr(2));
    }

    #[test]
    fn reduction_variable_roundtrip() {
        let mut rt = lcm_rt();
        let total = rt.new_reduction_f64(ReduceOp::SumF64, 10.0, "total");
        assert_eq!(rt.peek_reduction(total), 10.0);
        rt.set_reduction(total, -1.0);
        assert_eq!(rt.peek_reduction(total), -1.0);
    }

    #[test]
    #[should_panic(expected = "not an f64 operator")]
    fn f32_op_rejected_for_reduction_var() {
        lcm_rt().new_reduction_f64(ReduceOp::SumF32, 0.0, "t");
    }

    #[test]
    #[should_panic(expected = "empty aggregate")]
    fn empty_aggregate_rejected() {
        lcm_rt().new_aggregate1::<f32>(0, Placement::Blocked, "v");
    }
}
