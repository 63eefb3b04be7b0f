//! **Reductions** (paper §7.1): three ways to sum an array in parallel.
//!
//! The paper contrasts (a) protecting a shared accumulator — "a
//! bottleneck", (b) manually rewriting the loop into per-processor
//! partial sums, and (c) letting RSM reconcile locally-accumulated
//! contributions with the location's initial value — no extra compiler
//! analysis, and messages instead of memory ping-pong.

use crate::common::{RunResult, SystemKind};
use lcm_core::{Lcm, LcmVariant};
use lcm_cstar::{Partition, Runtime, RuntimeConfig, Strategy};
use lcm_rsm::{MemoryProtocol, ReduceOp};
use lcm_sim::MachineConfig;
use lcm_stache::Stache;
use lcm_tempest::Placement;

/// How the sum is implemented.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReductionMethod {
    /// C\*\* `%+=` on LCM: invocations accumulate into private copies;
    /// reconciliation combines the contributions.
    RsmReduce,
    /// A single shared accumulator updated by read-modify-write through
    /// coherent memory (ownership migrates on every update).
    SharedAccumulator,
    /// The hand-optimized rewrite: per-processor register accumulation,
    /// then one combining update per processor.
    ManualPartials,
}

impl ReductionMethod {
    /// All methods, slowest-baseline first.
    pub fn all() -> [ReductionMethod; 3] {
        [
            ReductionMethod::SharedAccumulator,
            ReductionMethod::ManualPartials,
            ReductionMethod::RsmReduce,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ReductionMethod::RsmReduce => "RSM-reduce",
            ReductionMethod::SharedAccumulator => "shared-acc",
            ReductionMethod::ManualPartials => "manual-partial",
        }
    }
}

/// The array-sum workload of §7.1.
#[derive(Copy, Clone, Debug)]
pub struct ArraySum {
    /// Elements to sum.
    pub len: usize,
    /// Summation passes (the paper's loop body runs repeatedly in real
    /// programs; more passes amortize initialization).
    pub passes: usize,
}

impl ArraySum {
    /// A representative configuration.
    pub fn default_size() -> ArraySum {
        ArraySum {
            len: 1 << 16,
            passes: 4,
        }
    }

    /// A scaled-down configuration for tests.
    pub fn small() -> ArraySum {
        ArraySum {
            len: 512,
            passes: 2,
        }
    }

    /// The exact expected sum for one pass.
    pub fn expected_one_pass(&self) -> f64 {
        (0..self.len).map(|i| (i % 7) as f64).sum()
    }
}

fn generic_run<P: MemoryProtocol>(
    rt: &mut Runtime<P>,
    w: &ArraySum,
    method: ReductionMethod,
) -> f64 {
    let a = rt.new_aggregate1::<f32>(w.len, Placement::Blocked, "a");
    rt.init1(a, |i| (i % 7) as f32);
    let total = rt.new_reduction_f64(ReduceOp::SumF64, 0.0, "total");
    let nodes = rt.nodes();
    for _ in 0..w.passes {
        rt.set_reduction(total, 0.0);
        match method {
            ReductionMethod::RsmReduce | ReductionMethod::SharedAccumulator => {
                // Identical source code: `total %+= a[#0]`. The memory
                // system makes it cheap (LCM) or a ping-pong (coherent).
                rt.apply1(a, Partition::Static, |inv, i| {
                    let v = inv.get(a.at(i)) as f64;
                    inv.reduce_f64(total, v);
                });
            }
            ReductionMethod::ManualPartials => {
                // The hand-rewrite: register accumulation per processor…
                let mut partials = vec![0.0f64; nodes];
                rt.apply1(a, Partition::Static, |inv, i| {
                    partials[inv.node().index()] += inv.get(a.at(i)) as f64;
                });
                // …then one combining update per processor.
                let p = rt.new_aggregate1::<u32>(nodes, Placement::Blocked, "p");
                rt.apply1(p, Partition::Static, |inv, k| {
                    inv.reduce_f64(total, partials[k]);
                });
            }
        }
    }
    rt.peek_reduction(total)
}

/// The array sum as a system-generic [`Workload`](crate::Workload):
/// the naive `total %+= a[#0]` source, compiled per memory system (LCM
/// reconciles private contributions; Stache ping-pongs the accumulator
/// block). This is the form the contention sweep runs, because it puts
/// a single hot block on the wire and so reacts strongly to link
/// bandwidth.
#[derive(Copy, Clone, Debug)]
pub struct ReductionSum(pub ArraySum);

impl crate::Workload for ReductionSum {
    type Output = f64;

    fn run<P: MemoryProtocol>(&self, rt: &mut Runtime<P>) -> f64 {
        // SharedAccumulator and RsmReduce share one source body; which
        // behavior the run gets is the memory system's choice.
        generic_run(rt, &self.0, ReductionMethod::SharedAccumulator)
    }
}

/// Runs the array sum with the given method on `nodes` processors.
/// Returns the computed sum and the measurements.
pub fn run_reduction(method: ReductionMethod, nodes: usize, w: &ArraySum) -> (f64, RunResult) {
    let cfg = RuntimeConfig::default();
    match method {
        ReductionMethod::RsmReduce => {
            let mem = Lcm::new(MachineConfig::new(nodes), LcmVariant::Mcc);
            let mut rt = Runtime::with_config(mem, Strategy::LcmDirectives, cfg);
            let sum = generic_run(&mut rt, w, method);
            (sum, RunResult::harvest(SystemKind::LcmMcc, rt.mem()))
        }
        _ => {
            let mem = Stache::new(MachineConfig::new(nodes));
            let mut rt = Runtime::with_config(mem, Strategy::ExplicitCopy, cfg);
            let sum = generic_run(&mut rt, w, method);
            (sum, RunResult::harvest(SystemKind::Stache, rt.mem()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_methods_compute_the_same_sum() {
        let w = ArraySum::small();
        let expected = w.expected_one_pass();
        for method in ReductionMethod::all() {
            let (sum, _) = run_reduction(method, 8, &w);
            assert_eq!(sum, expected, "{method:?}");
        }
    }

    #[test]
    fn rsm_reduce_beats_the_shared_accumulator() {
        let w = ArraySum {
            len: 4096,
            passes: 2,
        };
        let (_, rsm) = run_reduction(ReductionMethod::RsmReduce, 16, &w);
        let (_, shared) = run_reduction(ReductionMethod::SharedAccumulator, 16, &w);
        assert!(
            shared.time > 2 * rsm.time,
            "the shared accumulator should ping-pong: {} vs {}",
            shared.time,
            rsm.time
        );
    }

    #[test]
    fn rsm_reduce_is_competitive_with_manual_partials() {
        let w = ArraySum {
            len: 4096,
            passes: 2,
        };
        let (_, rsm) = run_reduction(ReductionMethod::RsmReduce, 16, &w);
        let (_, manual) = run_reduction(ReductionMethod::ManualPartials, 16, &w);
        // The paper's claim is not that RSM beats the hand-rewrite, only
        // that it matches it without the rewrite. Allow a modest factor.
        assert!(
            rsm.time < manual.time * 2,
            "RSM {} should be within 2x of manual {}",
            rsm.time,
            manual.time
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ReductionMethod::RsmReduce.label(), "RSM-reduce");
        assert_eq!(ReductionMethod::all().len(), 3);
    }
}
