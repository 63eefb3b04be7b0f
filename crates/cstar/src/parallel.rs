//! Parallel function application.
//!
//! `apply1`/`apply2` realize a C\*\* parallel call: one invocation per
//! aggregate element, invocations partitioned across processors, and the
//! semantics of "atomic and simultaneous" execution enforced by the
//! strategy in force — LCM directives (flush between invocations,
//! reconcile at the end) or explicit double-buffering (reads from the
//! front copy, writes to the back copy, swap at the end).
//!
//! The simulation executes invocations sequentially, one processor's
//! chunk at a time, with all costs charged to per-node logical clocks.
//! C\*\* semantics make the order unobservable: invocations cannot see
//! each other's modifications.

use crate::aggregate::Cell;
use crate::runtime::{chunk_plan, FlushPolicy, ReduceVar, Runtime, Strategy};
use crate::scalar::Scalar;
use lcm_rsm::MemoryProtocol;
use lcm_sim::NodeId;
use std::ops::Range;

/// How invocation chunks map to processors.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Partition {
    /// Chunk `k` always runs on node `k` — the repeatable schedule that
    /// lets Stache keep each chunk's interior resident forever
    /// (Stencil-stat).
    Static,
    /// Chunks are reassigned (shuffled) at the start of every parallel
    /// call — the paper's dynamically-partitioned variant, typical of
    /// load-balancing runtimes (Stencil-dyn).
    Dynamic,
}

/// The context handed to each parallel-function invocation.
///
/// Provides the element accessors (reads see the pre-call global state
/// plus the invocation's own writes; writes are private until the call
/// completes) and the reduction assignments.
pub struct Invocation<'a, P> {
    rt: &'a mut Runtime<P>,
    node: NodeId,
    dirty: bool,
}

impl<P: MemoryProtocol> Invocation<'_, P> {
    /// The processor running this invocation.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Reads an aggregate element.
    pub fn get<T: Scalar>(&mut self, cell: Cell<T>) -> T {
        let addr = self.rt.aggs[cell.id].read_addr(cell.idx);
        T::from_bits(self.rt.mem.read_word(self.node, addr))
    }

    /// Writes an aggregate element. Private to this invocation until the
    /// parallel call completes.
    pub fn set<T: Scalar>(&mut self, cell: Cell<T>, v: T) {
        self.dirty = true;
        self.rt.written[cell.id] = true;
        let addr = self.rt.aggs[cell.id].write_addr(cell.idx);
        self.rt.mem.write_word(self.node, addr, v.to_bits());
    }

    /// The write the *explicit-copying* compilation must perform to carry
    /// an unmodified value into the new global state (Threshold's
    /// "program itself copies values that are not updated"). A no-op
    /// under LCM, where unmodified locations simply keep their value.
    pub fn copy_through<T: Scalar>(&mut self, cell: Cell<T>, v: T) {
        if self.rt.strategy == Strategy::ExplicitCopy {
            self.set(cell, v);
        }
    }

    /// A reduction assignment (`total %op= v`).
    pub fn reduce_f64(&mut self, var: ReduceVar, v: f64) {
        self.dirty = true;
        self.rt.mem.reduce(self.node, var.addr, var.op, v.to_bits());
    }

    /// Charges extra application compute (beyond the per-invocation
    /// overhead) to this invocation's processor.
    pub fn compute(&mut self, cycles: u64) {
        self.rt.mem.compute(self.node, cycles);
    }
}

impl<P: MemoryProtocol + lcm_rsm::NestedProtocol> Invocation<'_, P> {
    /// A nested parallel call (C\*\*'s parallel-call-from-parallel-call):
    /// applies `f` to every element of `agg`, with inner invocations
    /// spread round-robin across all processors. Inner invocations see
    /// this invocation's private modifications as their pre-call state;
    /// their merged modifications become part of this invocation's
    /// private state when the call returns — global memory is untouched
    /// until the *outer* call reconciles.
    ///
    /// Only the LCM-directive strategy supports nesting (the paper's
    /// explicit-copying compilation was never defined for it).
    ///
    /// # Panics
    /// Panics under [`Strategy::ExplicitCopy`], or if a nested phase is
    /// already open (one level of nesting is supported).
    pub fn apply_nested1<T: Scalar, F>(&mut self, agg: crate::aggregate::Agg1<T>, mut f: F)
    where
        F: FnMut(&mut Invocation<'_, P>, usize),
    {
        assert_eq!(
            self.rt.strategy,
            Strategy::LcmDirectives,
            "nested parallel calls require the LCM-directive strategy"
        );
        let per_invocation_flush = self.rt.flush == FlushPolicy::PerInvocation;
        let overhead = self.rt.overhead;
        let nodes = self.rt.nodes();
        self.rt.mem.begin_nested_phase(self.node);
        let plan = chunk_plan(agg.len, nodes);
        let longest = plan.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
        for s in 0..longest {
            for (node, range) in &plan {
                let i = range.start + s;
                if i >= range.end {
                    continue;
                }
                self.rt.mem.compute(*node, overhead);
                let mut inv = Invocation {
                    rt: &mut *self.rt,
                    node: *node,
                    dirty: false,
                };
                f(&mut inv, i);
                let dirty = inv.dirty;
                if dirty && per_invocation_flush {
                    self.rt.mem.flush_copies(*node);
                }
            }
        }
        self.rt.mem.reconcile_nested();
        // The parent invocation now carries the inner call's modifications.
        self.dirty = true;
    }
}

impl<P: MemoryProtocol> Runtime<P> {
    /// Builds the chunk→node plan for this call.
    fn plan(&mut self, len: usize, partition: Partition) -> Vec<(NodeId, Range<usize>)> {
        let mut plan = chunk_plan(len, self.nodes());
        if partition == Partition::Dynamic {
            // Reassign chunks to nodes: shuffle the node column.
            let mut nodes: Vec<NodeId> = plan.iter().map(|(n, _)| *n).collect();
            self.rng.shuffle(&mut nodes);
            for (slot, node) in plan.iter_mut().zip(nodes) {
                slot.0 = node;
            }
        }
        plan
    }

    fn begin_apply(&mut self) {
        for w in &mut self.written {
            *w = false;
        }
        if self.strategy == Strategy::LcmDirectives {
            self.mem.begin_parallel_phase();
        }
    }

    fn end_apply(&mut self) {
        match self.strategy {
            Strategy::LcmDirectives => self.mem.reconcile_copies(),
            Strategy::ExplicitCopy => {
                self.mem.barrier();
                for (id, written) in self.written.iter().enumerate() {
                    if *written {
                        self.aggs[id].swap();
                    }
                }
            }
        }
        // Crashes strike after the merge: the global state is already
        // the crash-free run's, so rollback and re-execution only move
        // cycles and statistics (see `Runtime::process_crashes`).
        self.process_crashes();
        // One profiler phase per parallel step (barrier epoch).
        self.phase_boundary("apply");
    }

    #[inline]
    fn run_invocation<F: FnOnce(&mut Invocation<'_, P>)>(&mut self, node: NodeId, f: F) {
        self.mem.compute(node, self.overhead);
        let mut inv = Invocation {
            rt: self,
            node,
            dirty: false,
        };
        f(&mut inv);
        let dirty = inv.dirty;
        if dirty
            && self.strategy == Strategy::LcmDirectives
            && self.flush == FlushPolicy::PerInvocation
        {
            // The compiler cannot in general prove that consecutive
            // invocations on one processor touch distinct locations, so it
            // flushes modified copies between invocations (paper §5.1).
            // Under FlushPolicy::AtReconcile that proof exists and the
            // directive is elided.
            self.mem.flush_copies(node);
        }
    }

    /// Applies a parallel function to every element of a 1-D aggregate.
    /// The closure receives the invocation context and the element index
    /// (the pseudo-variable `#0`).
    ///
    /// Invocations are interleaved round-robin across processors,
    /// simulating concurrent progress: invocation `k` of every chunk runs
    /// before invocation `k + 1` of any chunk. C\*\* semantics make the
    /// order unobservable to the program, but it matters for the cost of
    /// *contended* baselines (a shared accumulator ping-pongs).
    pub fn apply1<T: Scalar, F>(
        &mut self,
        agg: crate::aggregate::Agg1<T>,
        partition: Partition,
        mut f: F,
    ) where
        F: FnMut(&mut Invocation<'_, P>, usize),
    {
        let plan = self.plan(agg.len, partition);
        self.begin_apply();
        let longest = plan.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
        for s in 0..longest {
            for (node, range) in &plan {
                let i = range.start + s;
                if i < range.end {
                    self.run_invocation(*node, |inv| f(inv, i));
                }
            }
        }
        self.end_apply();
    }

    /// Applies a parallel function to every element of a 2-D aggregate,
    /// partitioned by rows. The closure receives the invocation context
    /// and the element coordinates (`#0`, `#1`). Invocations interleave
    /// round-robin across processors (see [`Runtime::apply1`]).
    pub fn apply2<T: Scalar, F>(
        &mut self,
        agg: crate::aggregate::Agg2<T>,
        partition: Partition,
        mut f: F,
    ) where
        F: FnMut(&mut Invocation<'_, P>, usize, usize),
    {
        let cols = agg.cols;
        let plan = self.plan(agg.rows, partition);
        self.begin_apply();
        let longest = plan.iter().map(|(_, r)| r.len() * cols).max().unwrap_or(0);
        for s in 0..longest {
            for (node, rows) in &plan {
                if s < rows.len() * cols {
                    let r = rows.start + s / cols;
                    let c = s % cols;
                    self.run_invocation(*node, |inv| f(inv, r, c));
                }
            }
        }
        self.end_apply();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, RuntimeConfig, Strategy};
    use lcm_core::{Lcm, LcmVariant};
    use lcm_rsm::ReduceOp;
    use lcm_sim::MachineConfig;
    use lcm_stache::Stache;
    use lcm_tempest::Placement;

    fn lcm_rt(nodes: usize) -> Runtime<Lcm> {
        Runtime::new(
            Lcm::new(MachineConfig::new(nodes), LcmVariant::Mcc),
            Strategy::LcmDirectives,
        )
    }

    fn copy_rt(nodes: usize) -> Runtime<Stache> {
        Runtime::new(
            Stache::new(MachineConfig::new(nodes)),
            Strategy::ExplicitCopy,
        )
    }

    /// One relaxation step must read only pre-call values — the defining
    /// C** property — under both strategies.
    fn shift_left_is_simultaneous<P: MemoryProtocol>(rt: &mut Runtime<P>) {
        let a = rt.new_aggregate1::<i32>(16, Placement::Blocked, "v");
        rt.init1(a, |i| i as i32);
        rt.apply1(a, Partition::Static, |inv, i| {
            let next = if i + 1 < 16 { inv.get(a.at(i + 1)) } else { 0 };
            inv.set(a.at(i), next);
        });
        for i in 0..15 {
            assert_eq!(rt.peek1(a, i), i as i32 + 1, "element {i}");
        }
        assert_eq!(rt.peek1(a, 15), 0);
    }

    #[test]
    fn lcm_strategy_reads_pre_call_state() {
        shift_left_is_simultaneous(&mut lcm_rt(4));
    }

    #[test]
    fn copying_strategy_reads_pre_call_state() {
        shift_left_is_simultaneous(&mut copy_rt(4));
    }

    #[test]
    fn strategies_compute_identical_results_over_many_iterations() {
        let run = |mut rt: Runtime<Lcm>, strat2: Runtime<Stache>| {
            let mut rt2 = strat2;
            let a1 = rt.new_aggregate2::<f32>(12, 12, Placement::Blocked, "m");
            let a2 = rt2.new_aggregate2::<f32>(12, 12, Placement::Blocked, "m");
            rt.init2(a1, |r, c| (r * 17 + c * 3) as f32);
            rt2.init2(a2, |r, c| (r * 17 + c * 3) as f32);
            for _ in 0..5 {
                rt.apply2(a1, Partition::Static, |inv, r, c| {
                    if r > 0 && r < 11 && c > 0 && c < 11 {
                        let s = inv.get(a1.at(r - 1, c))
                            + inv.get(a1.at(r + 1, c))
                            + inv.get(a1.at(r, c - 1))
                            + inv.get(a1.at(r, c + 1));
                        inv.set(a1.at(r, c), s * 0.25);
                    }
                });
                rt2.apply2(a2, Partition::Static, |inv, r, c| {
                    if r > 0 && r < 11 && c > 0 && c < 11 {
                        let s = inv.get(a2.at(r - 1, c))
                            + inv.get(a2.at(r + 1, c))
                            + inv.get(a2.at(r, c - 1))
                            + inv.get(a2.at(r, c + 1));
                        inv.set(a2.at(r, c), s * 0.25);
                    } else {
                        let v = inv.get(a2.at(r, c));
                        inv.copy_through(a2.at(r, c), v);
                    }
                });
            }
            for r in 0..12 {
                for c in 0..12 {
                    assert_eq!(rt.peek2(a1, r, c), rt2.peek2(a2, r, c), "({r},{c})");
                }
            }
        };
        run(lcm_rt(4), copy_rt(4));
    }

    #[test]
    fn dynamic_partition_moves_chunks_static_does_not() {
        let mut rt = lcm_rt(8);
        let p1 = rt.plan(64, Partition::Static);
        let p2 = rt.plan(64, Partition::Static);
        assert_eq!(p1, p2);
        // Dynamic: over several draws, at least one differs from static.
        let mut moved = false;
        for _ in 0..5 {
            let p = rt.plan(64, Partition::Dynamic);
            let nodes: Vec<_> = p.iter().map(|(n, _)| n.0).collect();
            let mut sorted = nodes.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "a permutation of nodes");
            if nodes != (0..8).collect::<Vec<_>>() {
                moved = true;
            }
        }
        assert!(moved, "dynamic schedules should shuffle");
    }

    #[test]
    fn reduction_assignment_sums_across_invocations() {
        let mut rt = lcm_rt(4);
        let a = rt.new_aggregate1::<i32>(100, Placement::Blocked, "v");
        rt.init1(a, |i| i as i32);
        let total = rt.new_reduction_f64(ReduceOp::SumF64, 0.0, "total");
        rt.apply1(a, Partition::Static, |inv, i| {
            let v = inv.get(a.at(i));
            inv.reduce_f64(total, v as f64);
        });
        assert_eq!(rt.peek_reduction(total), (99 * 100 / 2) as f64);
    }

    #[test]
    fn reduction_under_copying_strategy_matches() {
        let mut rt = copy_rt(4);
        let a = rt.new_aggregate1::<i32>(100, Placement::Blocked, "v");
        rt.init1(a, |i| i as i32);
        let total = rt.new_reduction_f64(ReduceOp::SumF64, 0.0, "total");
        rt.apply1(a, Partition::Static, |inv, i| {
            let v = inv.get(a.at(i));
            inv.reduce_f64(total, v as f64);
        });
        assert_eq!(rt.peek_reduction(total), 4950.0);
    }

    #[test]
    fn copy_through_is_noop_under_lcm() {
        let mut rt = lcm_rt(2);
        let a = rt.new_aggregate1::<i32>(8, Placement::Blocked, "v");
        rt.init1(a, |i| i as i32);
        let flushes_before = rt.mem().tempest().machine.total_stats().flushes;
        rt.apply1(a, Partition::Static, |inv, i| {
            let v = inv.get(a.at(i));
            inv.copy_through(a.at(i), v);
        });
        assert_eq!(
            rt.mem().tempest().machine.total_stats().flushes,
            flushes_before,
            "nothing was modified, nothing flushed"
        );
        assert_eq!(rt.peek1(a, 5), 5);
    }

    #[test]
    fn invocation_overhead_is_charged() {
        let cfg = RuntimeConfig {
            invocation_overhead: 1000,
            ..RuntimeConfig::default()
        };
        let mem = Lcm::new(MachineConfig::new(1), LcmVariant::Mcc);
        let mut rt = Runtime::with_config(mem, Strategy::LcmDirectives, cfg);
        let a = rt.new_aggregate1::<i32>(10, Placement::Blocked, "v");
        let before = rt.time();
        rt.apply1(a, Partition::Static, |_inv, _i| {});
        assert!(rt.time() - before >= 10_000, "10 invocations x 1000 cycles");
    }

    #[test]
    fn phase_is_closed_after_apply() {
        let mut rt = lcm_rt(2);
        let a = rt.new_aggregate1::<i32>(4, Placement::Blocked, "v");
        rt.apply1(a, Partition::Static, |inv, i| inv.set(a.at(i), 1));
        assert!(!rt.mem().in_parallel_phase());
        assert_eq!(rt.mem().live_cow_entries(), 0);
    }

    #[test]
    fn invocations_interleave_round_robin() {
        let mut rt = lcm_rt(4);
        let a = rt.new_aggregate1::<i32>(16, Placement::Blocked, "v");
        let mut seen = Vec::new();
        rt.apply1(a, Partition::Static, |inv, i| seen.push((i, inv.node().0)));
        assert_eq!(seen.len(), 16);
        // Slot 0 of every chunk runs before slot 1 of any chunk.
        assert_eq!(&seen[0..4], &[(0, 0), (4, 1), (8, 2), (12, 3)]);
        assert_eq!(seen[4], (1, 0));
        // Every element ran on its static owner.
        for (i, n) in seen {
            assert_eq!(n as usize, i / 4, "element {i}");
        }
    }

    #[test]
    fn nested_apply_merges_into_the_parent_invocation() {
        // Outer call over a 4-element control aggregate: invocation 0
        // makes a nested call that increments every element of `data`.
        let mut rt = lcm_rt(4);
        let control = rt.new_aggregate1::<i32>(4, Placement::Blocked, "ctl");
        let data = rt.new_aggregate1::<i32>(32, Placement::Blocked, "data");
        rt.init1(data, |i| i as i32);
        rt.apply1(control, Partition::Static, |inv, k| {
            if k == 0 {
                inv.apply_nested1(data, |inner, i| {
                    let v = inner.get(data.at(i));
                    inner.set(data.at(i), v + 100);
                });
                // The parent sees the nested call's results immediately…
                assert_eq!(inv.get(data.at(5)), 105);
            } else if k == 3 {
                // …while sibling outer invocations still see the
                // pre-call state (round-robin runs k==3 after the
                // nested call completed on k==0's slot).
                let v = inv.get(data.at(5));
                assert!(v == 5 || v == 105, "got {v}"); // 5 unless k==0 ran first
            }
        });
        // After the outer reconcile the increments are global.
        for i in 0..32 {
            assert_eq!(rt.peek1(data, i), i as i32 + 100, "element {i}");
        }
    }

    #[test]
    fn nested_apply_with_reduction() {
        let mut rt = lcm_rt(4);
        let control = rt.new_aggregate1::<i32>(1, Placement::Blocked, "ctl");
        let data = rt.new_aggregate1::<i32>(64, Placement::Blocked, "data");
        rt.init1(data, |i| (i % 10) as i32);
        let total = rt.new_reduction_f64(ReduceOp::SumF64, 1000.0, "total");
        rt.apply1(control, Partition::Static, |inv, _| {
            inv.apply_nested1(data, |inner, i| {
                let v = inner.get(data.at(i)) as f64;
                inner.reduce_f64(total, v);
            });
        });
        let expect: f64 = 1000.0 + (0..64).map(|i| (i % 10) as f64).sum::<f64>();
        assert_eq!(rt.peek_reduction(total), expect);
    }

    #[test]
    #[should_panic(expected = "require the LCM-directive strategy")]
    fn nested_apply_rejected_under_copying() {
        let mem = lcm_core::Lcm::new(MachineConfig::new(2), LcmVariant::Mcc);
        let mut rt = Runtime::new(mem, Strategy::ExplicitCopy);
        let a = rt.new_aggregate1::<i32>(4, Placement::Blocked, "a");
        rt.apply1(a, Partition::Static, |inv, _| {
            inv.apply_nested1(a, |_, _| {});
        });
    }

    #[test]
    fn crashes_move_cycles_and_stats_but_never_values() {
        let run = |rate: f64| {
            let cfg = RuntimeConfig {
                crash: lcm_sim::CrashPlan::new(rate, 42),
                ..RuntimeConfig::default()
            };
            let mem = Lcm::new(MachineConfig::new(4), LcmVariant::Mcc);
            let mut rt = Runtime::with_config(mem, Strategy::LcmDirectives, cfg);
            let a = rt.new_aggregate1::<i32>(32, Placement::Blocked, "v");
            rt.init1(a, |i| i as i32);
            for _ in 0..6 {
                rt.apply1(a, Partition::Static, |inv, i| {
                    let v = inv.get(a.at(i));
                    inv.set(a.at(i), v + 1);
                });
            }
            let vals: Vec<i32> = (0..32).map(|i| rt.peek1(a, i)).collect();
            let time = rt.time();
            (vals, time, rt.into_mem())
        };
        let (v0, t0, m0) = run(0.0);
        let (v1, t1, m1) = run(0.6);
        assert_eq!(v0, v1, "outputs are byte-identical at any crash rate");
        let s0 = m0.tempest().machine.total_stats();
        let s1 = m1.tempest().machine.total_stats();
        assert_eq!(
            (s0.crashes, s0.checkpoints),
            (0, 0),
            "inactive plan is silent"
        );
        assert!(s1.crashes > 0, "rate 0.6 over 4x7 phases crashes someone");
        assert!(s1.checkpoints > 0 && s1.checkpoint_bytes > 0);
        assert!(t1 > t0, "recovery costs cycles");
        // New categories stay conservation-checked.
        m1.tempest()
            .machine
            .verify_ledger()
            .expect("ledger conserves");
        lcm_rsm::sanitizer::check(&m1).expect("sanitizer accepts the crashed run");
    }

    #[test]
    fn checkpoint_granularity_trades_capture_for_lost_work() {
        let run = |every: u64| {
            let cfg = RuntimeConfig {
                crash: lcm_sim::CrashPlan::new(0.4, 7),
                checkpoint_every: every,
                ..RuntimeConfig::default()
            };
            let mem = Lcm::new(MachineConfig::new(4), LcmVariant::Mcc);
            let mut rt = Runtime::with_config(mem, Strategy::LcmDirectives, cfg);
            let a = rt.new_aggregate1::<i32>(64, Placement::Blocked, "v");
            rt.init1(a, |i| i as i32);
            for _ in 0..8 {
                rt.apply1(a, Partition::Static, |inv, i| {
                    let v = inv.get(a.at(i));
                    inv.set(a.at(i), v.wrapping_mul(3) + 1);
                });
            }
            let vals: Vec<i32> = (0..64).map(|i| rt.peek1(a, i)).collect();
            (vals, rt.into_mem())
        };
        let (v1, m1) = run(1);
        let (v4, m4) = run(4);
        assert_eq!(v1, v4, "granularity never changes outputs");
        let s1 = m1.tempest().machine.total_stats();
        let s4 = m4.tempest().machine.total_stats();
        assert!(
            s1.checkpoints > s4.checkpoints,
            "coarser grain captures less often"
        );
        for m in [&m1, &m4] {
            m.tempest()
                .machine
                .verify_ledger()
                .expect("ledger conserves");
        }
    }

    #[test]
    fn uneven_chunks_are_fully_covered() {
        let mut rt = lcm_rt(4);
        let a = rt.new_aggregate1::<i32>(10, Placement::Blocked, "v");
        let mut seen: Vec<usize> = Vec::new();
        rt.apply1(a, Partition::Static, |_inv, i| seen.push(i));
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }
}
