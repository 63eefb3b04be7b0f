//! Cost-model sensitivity: how the LCM-vs-Stache verdict moves with the
//! machine.
//!
//! The reproduction's cost model is a knob, not a measurement (DESIGN.md).
//! This sweep re-runs the dynamic stencil — the paper's closest contest
//! (LCM-mcc "roughly 2% faster" than Stache) — across a range of remote
//! round-trip latencies, showing *why* the result is robust: both systems
//! pay a miss-dominated bill, LCM-mcc's is smaller, and scaling the
//! network cost scales both sides. It also sweeps the processor count.

use crate::common::{execute, RunResult, SystemKind};
use crate::stencil::Stencil;
use lcm_cstar::{Partition, RuntimeConfig};
use lcm_sim::{CostModel, MachineConfig};

/// One sweep point: Stencil-dyn times under both systems.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub x: u64,
    /// LCM-mcc measurement.
    pub lcm: RunResult,
    /// Stache/explicit-copying measurement.
    pub stache: RunResult,
}

impl SweepPoint {
    /// Stache time over LCM time (> 1 means LCM wins).
    pub fn advantage(&self) -> f64 {
        self.stache.time as f64 / self.lcm.time as f64
    }
}

/// One sweep point: LCM-mcc then Stache under `cost` on `nodes` nodes.
fn point(x: u64, nodes: usize, cost: CostModel, w: &Stencil) -> SweepPoint {
    let run = |system| {
        let mc = MachineConfig::new(nodes).with_cost(cost);
        execute(system, mc, RuntimeConfig::default(), w).1
    };
    SweepPoint {
        x,
        lcm: run(SystemKind::LcmMcc),
        stache: run(SystemKind::Stache),
    }
}

/// Sweeps the remote round-trip latency (cycles) for the dynamic stencil
/// on a pool of at most `jobs` worker threads. Each latency's two runs
/// execute within one task and `par_map` returns points in input order,
/// so the result is the serial sweep's at any `jobs`.
pub fn sweep_remote_latency(
    latencies: &[u64],
    nodes: usize,
    w: &Stencil,
    jobs: usize,
) -> Vec<SweepPoint> {
    assert_eq!(
        w.partition,
        Partition::Dynamic,
        "the sweep studies the dynamic contest"
    );
    lcm_sim::par_map(jobs, latencies.to_vec(), |_, lat| {
        point(lat, nodes, CostModel::cm5().with_remote_latency(lat), w)
    })
}

/// Sweeps the processor count under the cm5 cost model on a pool of at
/// most `jobs` worker threads; points come back in `node_counts` order.
pub fn sweep_nodes(node_counts: &[usize], w: &Stencil, jobs: usize) -> Vec<SweepPoint> {
    lcm_sim::par_map(jobs, node_counts.to_vec(), |_, n| {
        point(n as u64, n, CostModel::cm5(), w)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> Stencil {
        Stencil {
            rows: 96,
            cols: 96,
            iters: 5,
            partition: Partition::Dynamic,
        }
    }

    #[test]
    fn lcm_advantage_grows_with_network_latency() {
        let points = sweep_remote_latency(&[500, 3000, 12000], 8, &workload(), 2);
        assert_eq!(points.len(), 3);
        // LCM-mcc misses less; costlier misses widen its win.
        assert!(
            points[2].advantage() > points[0].advantage(),
            "advantage {:.2} -> {:.2} should grow",
            points[0].advantage(),
            points[2].advantage()
        );
        // And the dynamic contest stays on LCM's side at CM-5-like cost.
        assert!(points[1].advantage() > 1.0);
    }

    #[test]
    fn miss_counts_are_latency_invariant() {
        // Latency changes time, never the protocol event stream.
        let points = sweep_remote_latency(&[500, 12000], 8, &workload(), 1);
        assert_eq!(points[0].lcm.misses(), points[1].lcm.misses());
        assert_eq!(points[0].stache.misses(), points[1].stache.misses());
    }

    #[test]
    fn node_sweep_runs_and_scales() {
        let points = sweep_nodes(&[2, 8], &workload(), 2);
        // More processors -> shorter per-node chunks -> less time.
        assert!(points[1].lcm.time < points[0].lcm.time);
        assert!(points[1].stache.time < points[0].stache.time);
    }

    #[test]
    #[should_panic(expected = "dynamic contest")]
    fn static_workload_rejected() {
        let w = Stencil {
            partition: Partition::Static,
            ..workload()
        };
        sweep_remote_latency(&[100], 4, &w, 1);
    }
}
