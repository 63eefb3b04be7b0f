//! The kilonode scale sweep: benchmarks × systems × directory backends
//! across node counts from the paper's 32 up to 1024.
//!
//! The paper's machine stops at 32 processors and the old simulator at
//! 64 (one `u64` of sharer bits). This sweep drives the three directory
//! representations ([`lcm_sim::DirBackend`]) through the growth curve
//! the representations exist for: at ≤64 nodes all three are exactly
//! equivalent by construction (the defaults re-spend the old 64-bit
//! budget), and beyond it the limited-pointer backend pays broadcast
//! invalidations on overflowed entries and the coarse vector pays group
//! over-invalidation — both visible in `dir_overflows`,
//! `spurious_invals` and the `MsgOverhead` ledger column.
//!
//! Problem sizes scale weakly with the node count where the benchmark
//! has a natural per-node axis (Stencil rows, Unstructured graph), so
//! the node axis measures coherence and synchronization growth, not
//! shrinking per-node work.

use crate::common::{execute_with_machine, RunResult, SystemKind};
use crate::experiments::Benchmark;
use crate::stencil::Stencil;
use crate::threshold::Threshold;
use crate::unstructured::Unstructured;
use lcm_cstar::{Partition, RuntimeConfig};
use lcm_sim::{DirBackend, MachineConfig};

/// The swept machine sizes: the paper's 32, the old 64-node wall, and
/// doublings to the new 1024-node cap.
pub const SCALE_NODE_COUNTS: [usize; 6] = [32, 64, 128, 256, 512, 1024];

/// The five benchmarks of the scale sweep. Adaptive-stat is left out:
/// its static schedule makes it a near-duplicate of the dynamic variant
/// on this axis, and five benchmarks keep the kilonode grid affordable.
pub fn scale_benchmarks() -> [Benchmark; 5] {
    [
        Benchmark::StencilStat,
        Benchmark::StencilDyn,
        Benchmark::AdaptiveDyn,
        Benchmark::Threshold,
        Benchmark::Unstructured,
    ]
}

/// One cell of the scale grid.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Which benchmark ran.
    pub benchmark: Benchmark,
    /// Which memory system.
    pub system: SystemKind,
    /// Which directory representation.
    pub backend: DirBackend,
    /// Machine size.
    pub nodes: usize,
    /// The harvested (sanitizer-checked) run.
    pub result: RunResult,
}

/// The scale sweep's workload for `b` on a machine of `nodes` nodes.
/// Weak scaling: Stencil grows one row per node and Unstructured two
/// graph nodes (six edges) per processor; Adaptive and Threshold keep
/// the mesh bounded so the kilonode points stay affordable.
fn scale_workload(b: Benchmark, nodes: usize) -> ScaleWorkload {
    match b {
        Benchmark::StencilStat | Benchmark::StencilDyn => {
            let partition = if b == Benchmark::StencilStat {
                Partition::Static
            } else {
                Partition::Dynamic
            };
            ScaleWorkload::Stencil(Stencil {
                rows: nodes,
                cols: 64,
                iters: 4,
                partition,
            })
        }
        Benchmark::AdaptiveStat | Benchmark::AdaptiveDyn => {
            let partition = if b == Benchmark::AdaptiveStat {
                Partition::Static
            } else {
                Partition::Dynamic
            };
            ScaleWorkload::Adaptive(crate::adaptive::Adaptive {
                size: 64,
                iters: 10,
                max_depth: 2,
                subdivide_above: 2.0,
                partition,
            })
        }
        Benchmark::Threshold => ScaleWorkload::Threshold(Threshold {
            size: (nodes / 4).clamp(64, 256),
            iters: 5,
            threshold: 1.0,
            sources: 6,
        }),
        Benchmark::Unstructured => ScaleWorkload::Unstructured(Unstructured {
            // Dense enough that a value block's readers (the processors
            // of its eight graph nodes' neighbors) exceed 64 distinct
            // nodes once the machine passes the old 64-node wall.
            nodes: 2 * nodes,
            edges: 12 * nodes,
            iters: 8,
            seed: 42,
        }),
    }
}

enum ScaleWorkload {
    Stencil(Stencil),
    Adaptive(crate::adaptive::Adaptive),
    Threshold(Threshold),
    Unstructured(Unstructured),
}

/// Runs one grid cell: `b` on `system` over a `nodes`-node machine
/// whose directory uses `backend`. Every run passes the harvest-time
/// sanitizer (per-node ledger conservation, coherence invariants).
pub fn run_scale_point(
    b: Benchmark,
    nodes: usize,
    backend: DirBackend,
    system: SystemKind,
) -> RunResult {
    let mc = MachineConfig::new(nodes)
        .with_cost(lcm_sim::CostModel::default())
        .with_directory(backend);
    let cfg = RuntimeConfig::default();
    match scale_workload(b, nodes) {
        ScaleWorkload::Stencil(w) => execute_with_machine(system, mc, cfg, &w).1,
        ScaleWorkload::Adaptive(w) => execute_with_machine(system, mc, cfg, &w).1,
        ScaleWorkload::Threshold(w) => execute_with_machine(system, mc, cfg, &w).1,
        ScaleWorkload::Unstructured(w) => execute_with_machine(system, mc, cfg, &w).1,
    }
}

/// The full grid over `node_counts`: [`scale_benchmarks`] ×
/// [`SystemKind::all`] × [`DirBackend::all`], on a pool of at most
/// `jobs` workers. Points are enumerated and assembled in canonical
/// order (benchmark, nodes, system, backend), so the result — and any
/// CSV rendered from it — is byte-identical at every `jobs` value.
pub fn sweep_scale(node_counts: &[usize], jobs: usize) -> Vec<ScaleRow> {
    try_sweep_scale(node_counts, jobs).unwrap_or_else(|failures| {
        panic!(
            "{} scale point(s) failed:\n  {}",
            failures.len(),
            failures.join("\n  ")
        )
    })
}

/// [`sweep_scale`], but a failed grid point does not tear down the
/// sweep: every failure comes back tagged with its sweep key
/// (`benchmark/system/backend@nodes`) and the `file:line`-prefixed
/// panic message, so the offending configuration is identifiable from
/// stderr alone.
pub fn try_sweep_scale(node_counts: &[usize], jobs: usize) -> Result<Vec<ScaleRow>, Vec<String>> {
    let mut points = Vec::new();
    for b in scale_benchmarks() {
        for &nodes in node_counts {
            for system in SystemKind::all() {
                for backend in DirBackend::all() {
                    points.push((b, nodes, system, backend));
                }
            }
        }
    }
    let keys: Vec<String> = points
        .iter()
        .map(|&(b, nodes, system, backend)| {
            format!(
                "{}/{}/{}@{nodes}",
                b.label(),
                system.label(),
                backend.label()
            )
        })
        .collect();
    let results = lcm_sim::try_par_map(jobs, points, |_, (b, nodes, system, backend)| ScaleRow {
        benchmark: b,
        system,
        backend,
        nodes,
        result: run_scale_point(b, nodes, backend, system),
    });
    let mut rows = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for (key, r) in keys.into_iter().zip(results) {
        match r {
            Ok(row) => rows.push(row),
            Err(e) => failures.push(format!("{key}: {e}")),
        }
    }
    if failures.is_empty() {
        Ok(rows)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_canonically_ordered_and_deterministic() {
        let serial = sweep_scale(&[8], 1);
        let pooled = sweep_scale(&[8], 4);
        assert_eq!(serial.len(), 5 * 3 * 3);
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.benchmark, b.benchmark);
            assert_eq!(a.system, b.system);
            assert_eq!(a.backend, b.backend);
            assert_eq!(a.result.digest(), b.result.digest());
        }
    }

    #[test]
    fn backends_agree_exactly_below_the_overflow_point() {
        // 8 nodes: every backend is precise, so the runs are identical.
        for b in [Benchmark::Threshold, Benchmark::Unstructured] {
            let runs: Vec<RunResult> = DirBackend::all()
                .into_iter()
                .map(|backend| run_scale_point(b, 8, backend, SystemKind::Stache))
                .collect();
            assert_eq!(runs[0].digest(), runs[1].digest(), "{b}: limited-ptr");
            assert_eq!(runs[0].digest(), runs[2].digest(), "{b}: coarse-vec");
            assert_eq!(runs[0].totals.spurious_invals, 0);
        }
    }
}
