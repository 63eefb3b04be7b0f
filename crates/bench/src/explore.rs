//! Cost-model design-space exploration over captured traces.
//!
//! The expensive part of a design-space sweep is re-executing the
//! program at every grid point. This module does it once: each
//! (benchmark, system) pair is executed a single time in capture mode,
//! and the resulting [`TraceFile`] is re-priced under every cost model
//! of the grid by the `lcm-replay` engine — same clocks and ledgers,
//! a fraction of the cost.
//!
//! The grid ([`CostModel::cm5_grid`]) follows the sensitivity and
//! contention sections: remote latency maps onto `remote_miss` (with
//! `upgrade` scaled to ⅔ of it, as in the latency sweep) and bandwidth
//! onto `link_bandwidth_bytes_per_cycle` (0 = unlimited). Results are
//! returned in fixed grid order regardless of the worker count, so the
//! CSV is byte-identical at any `--jobs`.

use lcm_apps::{execute, SystemKind, Workload};
use lcm_cstar::RuntimeConfig;
use lcm_replay::{TraceFile, TraceHandle};
use lcm_serve::{Query, ServeEngine};
use lcm_sim::{CostModel, CycleCat, CycleLedger, DirBackend, MachineConfig, NodeId};
use std::sync::Arc;

/// The capture buffer: generous enough for the medium-scale benchmarks
/// (a dropped event makes a capture useless for replay). The trace grows
/// on demand, so an unused cap costs nothing.
pub const CAPTURE_CAPACITY: usize = 1 << 24;

/// Captures one (benchmark, system) execution on the machine `mc` as a
/// replayable trace file — under a finite-bandwidth cost model too,
/// whose contention charges replay must also reproduce. The file adopts
/// the capture's encoded log as recorded.
///
/// Fails if the capture buffer ([`CAPTURE_CAPACITY`] events) overflowed
/// — a truncated stream cannot account for every charged cycle.
pub fn capture_workload<W: Workload>(
    benchmark: &str,
    scale: &str,
    system: SystemKind,
    mc: MachineConfig,
    workload: &W,
) -> Result<TraceFile, String> {
    let (nodes, topology, cost) = (mc.nodes, mc.topology, mc.cost);
    let mc = mc.with_capture(CAPTURE_CAPACITY);
    let (_, result, trace) = execute(system, mc, RuntimeConfig::default(), workload);
    let metadata = vec![
        ("benchmark".to_string(), benchmark.to_string()),
        ("system".to_string(), system.label().to_string()),
        ("scale".to_string(), scale.to_string()),
    ];
    let (clocks, ledger, totals) = (result.clocks, result.ledger, result.totals);
    TraceFile::from_trace(
        nodes, topology, cost, metadata, trace, clocks, ledger, totals,
    )
    .map_err(|e| format!("{benchmark}/{system}: {e}"))
}

/// One re-priced grid point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreRow {
    /// Benchmark label (from the trace's metadata).
    pub benchmark: String,
    /// Memory-system label (from the trace's metadata).
    pub system: String,
    /// Link bandwidth in bytes/cycle; 0 = unlimited.
    pub bandwidth: u64,
    /// Remote-miss latency in cycles.
    pub latency: u64,
    /// Execution time under this cost model (max node clock).
    pub time: u64,
    /// Total network-contention cycles across all nodes.
    pub contention: u64,
    /// Total barrier-wait cycles across all nodes.
    pub barrier_wait: u64,
    /// Total wire bytes sent.
    pub bytes_sent: u64,
}

fn cat_total(ledger: &CycleLedger, nodes: usize, cat: CycleCat) -> u64 {
    (0..nodes).map(|n| ledger.get(NodeId(n as u16), cat)).sum()
}

#[allow(clippy::too_many_arguments)]
fn row(
    benchmark: &str,
    system: &str,
    bandwidth: u64,
    latency: u64,
    nodes: usize,
    time: u64,
    ledger: &CycleLedger,
    bytes_sent: u64,
) -> ExploreRow {
    ExploreRow {
        benchmark: benchmark.to_string(),
        system: system.to_string(),
        bandwidth,
        latency,
        time,
        contention: cat_total(ledger, nodes, CycleCat::NetContention),
        barrier_wait: cat_total(ledger, nodes, CycleCat::BarrierWait),
        bytes_sent,
    }
}

/// Re-prices every captured trace at every (bandwidth, latency) grid
/// point. Rows come back in fixed grid order — traces outermost, then
/// bandwidths, then latencies — so the output is deterministic at any
/// worker count.
///
/// The sweep is a thin client of the `lcm-serve` engine: traces are
/// loaded once, the grid is issued as one batch on `jobs` workers, and
/// repeated or provably-equivalent points come from the result cache —
/// byte-identical to a cold full replay (the serve test suite holds
/// that identity on this very grid).
pub fn explore_grid(
    files: &[TraceHandle],
    bandwidths: &[u64],
    latencies: &[u64],
    jobs: usize,
) -> Vec<ExploreRow> {
    let mut engine = ServeEngine::new();
    for (i, file) in files.iter().enumerate() {
        engine.load(&format!("trace-{i}"), Arc::clone(file));
    }
    let mut queries = Vec::with_capacity(files.len() * bandwidths.len() * latencies.len());
    let mut coords = Vec::with_capacity(queries.capacity());
    for (i, file) in files.iter().enumerate() {
        for &bw in bandwidths {
            for &lat in latencies {
                queries.push(Query {
                    trace: format!("trace-{i}"),
                    cost: CostModel::cm5_grid(bw, lat),
                    topology: file.topology,
                    backend: DirBackend::FullMap,
                });
                coords.push((i, bw, lat));
            }
        }
    }
    let answers = engine.query_batch(jobs, &queries);
    answers
        .into_iter()
        .zip(coords)
        .map(|(answer, (i, bw, lat))| {
            let (result, _) = answer.expect("grid queries address loaded traces");
            let nodes = files[i].nodes;
            ExploreRow {
                benchmark: result.benchmark.clone(),
                system: result.system.clone(),
                bandwidth: bw,
                latency: lat,
                time: result.time,
                contention: result.cat_total(CycleCat::NetContention),
                barrier_wait: result.cat_total(CycleCat::BarrierWait),
                bytes_sent: {
                    debug_assert_eq!(nodes, result.nodes);
                    result.totals().bytes_sent
                },
            }
        })
        .collect()
}

/// The execution-driven control: runs the *same* grid for one workload
/// by re-executing it at every point. Exists to benchmark replay
/// against (`repro bench`) and to cross-check the explorer in tests;
/// the explorer itself never re-executes.
pub fn reexecute_grid<W: Workload>(
    benchmark: &str,
    system: SystemKind,
    nodes: usize,
    config: RuntimeConfig,
    workload: &W,
    bandwidths: &[u64],
    latencies: &[u64],
) -> Vec<ExploreRow> {
    let mut rows = Vec::with_capacity(bandwidths.len() * latencies.len());
    for &bw in bandwidths {
        for &lat in latencies {
            let mc = MachineConfig::new(nodes).with_cost(CostModel::cm5_grid(bw, lat));
            let result = execute(system, mc, config, workload).1;
            rows.push(row(
                benchmark,
                system.label(),
                bw,
                lat,
                nodes,
                result.time,
                &result.ledger,
                result.totals.bytes_sent,
            ));
        }
    }
    rows
}

/// Renders explorer rows as CSV (stable column order, one header line).
pub fn explore_csv(rows: &[ExploreRow]) -> String {
    let mut csv = String::from(
        "benchmark,system,bandwidth_bytes_per_cycle,remote_latency,cycles,\
         net_contention_cycles,barrier_wait_cycles,bytes_sent\n",
    );
    for r in rows {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            r.benchmark,
            r.system,
            r.bandwidth,
            r.latency,
            r.time,
            r.contention,
            r.barrier_wait,
            r.bytes_sent
        ));
    }
    csv
}
