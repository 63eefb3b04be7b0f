//! Simulation points and the `suite` and `kilonode` workloads.
//!
//! A point is one program on one memory system and machine. The
//! benchmark builds the memory system and runtime itself, so the three
//! calls into the workspace — build, `Workload::run`, and
//! `RunResult::harvest` — are timed separately from outside.

use crate::pins;
use crate::trace::Tracer;
use crate::{Metric, Size};
use lcm_apps::adaptive::Adaptive;
use lcm_apps::reduction::{ArraySum, ReductionSum};
use lcm_apps::stencil::Stencil;
use lcm_apps::threshold::Threshold;
use lcm_apps::unstructured::Unstructured;
use lcm_apps::{Benchmark, RunResult, SystemKind, Workload};
use lcm_core::{Lcm, LcmVariant};
use lcm_cstar::{Partition, Runtime, RuntimeConfig, Strategy};
use lcm_rsm::MemoryProtocol;
use lcm_sim::{CostModel, CycleCat, DirBackend, MachineConfig, NodeId, Stamped};
use lcm_stache::Stache;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::Instant;

/// A C** program the benchmark runs.
#[derive(Clone, Copy, Debug)]
pub enum Program {
    /// Stencil relaxation.
    Stencil(Stencil),
    /// Adaptive mesh refinement.
    Adaptive(Adaptive),
    /// Threshold propagation.
    Threshold(Threshold),
    /// Unstructured graph relaxation.
    Unstructured(Unstructured),
    /// Array summation through one shared accumulator.
    Reduction(ReductionSum),
}

/// One simulation: a program on a memory system and machine.
#[derive(Clone, Debug)]
pub struct Point {
    /// `workload/benchmark/system`, the key of its pinned digest.
    pub key: String,
    /// Benchmark label.
    pub bench: &'static str,
    /// Memory system.
    pub system: SystemKind,
    /// The program.
    pub program: Program,
    /// The simulated machine.
    pub machine: MachineConfig,
}

impl Point {
    fn new(
        workload: &str,
        bench: &'static str,
        system: SystemKind,
        program: Program,
        machine: MachineConfig,
    ) -> Point {
        Point {
            key: format!("{workload}/{bench}/{}", system.label()),
            bench,
            system,
            program,
            machine,
        }
    }
}

/// The paper's six benchmarks on all three systems: medium scale (16
/// nodes) at full size, the paper's smoke sizes (4 nodes) at smoke size.
/// Default cost model, full-map directory, fabric off.
///
/// At full size every program keeps its medium problem size, but all but
/// Unstructured run fewer iterations (Stencil 2 of 15, Adaptive 8 of 40,
/// Threshold 3 of 15), so no point takes much over 70 ms. A point's
/// fastest run is steady only if the point often fits between two bursts
/// of host interference, and a 400 ms point seldom does.
pub fn suite_points(size: Size) -> Vec<Point> {
    let stat = Partition::Static;
    let dyna = Partition::Dynamic;
    let (nodes, programs) = match size {
        Size::Full => {
            let stencil = |partition| Stencil {
                rows: 256,
                cols: 256,
                iters: 2,
                partition,
            };
            let adaptive = |partition| Adaptive {
                size: 64,
                iters: 8,
                ..Adaptive::paper(partition)
            };
            (
                16,
                [
                    Program::Stencil(stencil(stat)),
                    Program::Stencil(stencil(dyna)),
                    Program::Adaptive(adaptive(stat)),
                    Program::Adaptive(adaptive(dyna)),
                    Program::Threshold(Threshold {
                        size: 256,
                        iters: 3,
                        threshold: 1.0,
                        sources: 6,
                    }),
                    Program::Unstructured(Unstructured {
                        iters: 100,
                        ..Unstructured::paper()
                    }),
                ],
            )
        }
        Size::Smoke => (
            4,
            [
                Program::Stencil(Stencil::small(stat)),
                Program::Stencil(Stencil::small(dyna)),
                Program::Adaptive(Adaptive::small(stat)),
                Program::Adaptive(Adaptive::small(dyna)),
                Program::Threshold(Threshold::small()),
                Program::Unstructured(Unstructured::small()),
            ],
        ),
    };
    let machine = MachineConfig::new(nodes).with_cost(CostModel::default());
    let mut points = Vec::new();
    for (bench, program) in Benchmark::all().into_iter().zip(programs) {
        for system in SystemKind::all() {
            points.push(Point::new(
                "suite",
                bench.label(),
                system,
                program,
                machine.clone(),
            ));
        }
    }
    points
}

/// Weak-scaled Unstructured (two graph nodes and twelve edges per
/// processor) and Stencil-dyn (one row per processor) on Stache and
/// LCM-mcc, with a 64-pointer limited directory and the contention
/// fabric on: 1024 nodes at full size, 128 at smoke size. Unstructured
/// runs two iterations (only the second sends overflowed entries'
/// broadcast invalidations to non-holders) and Stencil-dyn one, which
/// keeps every point under about 80 ms (see [`suite_points`]).
pub fn kilonode_points(size: Size) -> Vec<Point> {
    let nodes = match size {
        Size::Full => 1024,
        Size::Smoke => 128,
    };
    let machine = MachineConfig::new(nodes)
        .with_cost(CostModel::cm5_grid(16, 3000))
        .with_directory(DirBackend::LimitedPtr { ptrs: 64 });
    let programs = [
        (
            "Unstructured",
            Program::Unstructured(Unstructured {
                nodes: 2 * nodes,
                edges: 12 * nodes,
                iters: 2,
                seed: 42,
            }),
        ),
        (
            "Stencil-dyn",
            Program::Stencil(Stencil {
                rows: nodes,
                cols: 64,
                iters: 1,
                partition: Partition::Dynamic,
            }),
        ),
    ];
    let mut points = Vec::new();
    for (bench, program) in programs {
        for system in [SystemKind::Stache, SystemKind::LcmMcc] {
            points.push(Point::new(
                "kilonode",
                bench,
                system,
                program,
                machine.clone(),
            ));
        }
    }
    points
}

/// The serve trace set: Reduction and Stencil-dyn on all three systems
/// under the cm5 cost model (medium scale at full size, 16 nodes).
pub fn capture_points(size: Size) -> Vec<Point> {
    let (nodes, sum, stencil) = match size {
        Size::Full => (
            16,
            ArraySum::default_size(),
            Stencil {
                rows: 128,
                cols: 128,
                iters: 6,
                partition: Partition::Dynamic,
            },
        ),
        Size::Smoke => (
            4,
            ArraySum::small(),
            Stencil {
                rows: 48,
                cols: 48,
                iters: 3,
                partition: Partition::Dynamic,
            },
        ),
    };
    let machine = MachineConfig::new(nodes).with_cost(CostModel::cm5());
    let mut points = Vec::new();
    for (bench, program) in [
        ("Reduction", Program::Reduction(ReductionSum(sum))),
        ("Stencil-dyn", Program::Stencil(stencil)),
    ] {
        for system in SystemKind::all() {
            points.push(Point::new(
                "whatif",
                bench,
                system,
                program,
                machine.clone(),
            ));
        }
    }
    points
}

/// Runs `point` once with simulations on one thread. With
/// `capture = Some(capacity)` the machine records the re-priceable
/// charge stream (what `lcm_apps::execute_captured` does), returned with
/// the result; otherwise the stream is empty.
pub fn run_point(
    point: &Point,
    capture: Option<usize>,
    tr: &Tracer,
    unit: u32,
) -> (RunResult, Vec<Stamped>) {
    let mut mc = point.machine.clone();
    if let Some(capacity) = capture {
        mc = mc.with_capture(capacity);
    }
    match point.program {
        Program::Stencil(w) => on_system(point.system, mc, &w, tr, unit),
        Program::Adaptive(w) => on_system(point.system, mc, &w, tr, unit),
        Program::Threshold(w) => on_system(point.system, mc, &w, tr, unit),
        Program::Unstructured(w) => on_system(point.system, mc, &w, tr, unit),
        Program::Reduction(w) => on_system(point.system, mc, &w, tr, unit),
    }
}

fn on_system<W: Workload>(
    system: SystemKind,
    mc: MachineConfig,
    w: &W,
    tr: &Tracer,
    unit: u32,
) -> (RunResult, Vec<Stamped>) {
    let cfg = RuntimeConfig {
        sim_threads: 1,
        ..RuntimeConfig::default()
    };
    match system {
        SystemKind::Stache => drive(
            system,
            || Runtime::with_config(Stache::new(mc), Strategy::ExplicitCopy, cfg),
            w,
            tr,
            unit,
        ),
        SystemKind::LcmScc => drive(
            system,
            || Runtime::with_config(Lcm::new(mc, LcmVariant::Scc), Strategy::LcmDirectives, cfg),
            w,
            tr,
            unit,
        ),
        SystemKind::LcmMcc => drive(
            system,
            || Runtime::with_config(Lcm::new(mc, LcmVariant::Mcc), Strategy::LcmDirectives, cfg),
            w,
            tr,
            unit,
        ),
    }
}

fn drive<P: MemoryProtocol, W: Workload>(
    system: SystemKind,
    build: impl FnOnce() -> Runtime<P>,
    w: &W,
    tr: &Tracer,
    unit: u32,
) -> (RunResult, Vec<Stamped>) {
    let mut rt = tr.span("apps.build", unit, build);
    tr.span("apps.run", unit, || std::hint::black_box(w.run(&mut rt)));
    let capturing = rt.mem().tempest().machine.capture_enabled();
    if capturing {
        rt.mem_mut().tempest_mut().machine.finish_capture();
    }
    let result = tr.span("apps.harvest", unit, || {
        RunResult::harvest(system, rt.mem())
    });
    let events = if capturing {
        rt.mem().tempest().machine.trace().to_vec()
    } else {
        Vec::new()
    };
    (result, events)
}

/// Adds one run's counters to the benchmark's exact counts.
pub fn add_counts(counts: &mut BTreeMap<&'static str, u64>, r: &RunResult) {
    let contention: u64 = (0..r.clocks.len())
        .map(|n| r.ledger.get(NodeId(n as u16), CycleCat::NetContention))
        .sum();
    for (name, v) in [
        ("sim.accesses", r.totals.accesses()),
        ("sim.cycles", r.time),
        ("tempest.msgs", r.msgs_total()),
        ("tempest.bytes", r.msg_bytes.iter().map(|(_, b)| b).sum()),
        ("rsm.misses", r.misses()),
        ("rsm.clean_copies", r.clean_copies()),
        ("stache.spurious_invals", r.totals.spurious_invals),
        ("stache.dir_overflows", r.totals.dir_overflows),
        ("sim.contention_cycles", contention),
    ] {
        *counts.entry(name).or_default() += v;
    }
}

/// Checks a finished run against its pinned digest and makespan.
pub fn check(size: Size, point: &Point, r: &RunResult) -> Result<(), String> {
    pins::check(size, &point.key, r.digest(), r.time)
}

/// What one `suite` or `kilonode` run measured.
pub struct SimRun {
    /// Timed rounds after the warm-up pass.
    pub rounds: usize,
    /// Point executions attempted, warm-up included.
    pub attempted: u64,
    /// Each failed execution, named.
    pub failures: Vec<String>,
    /// Exact counters of one pass.
    pub counts: BTreeMap<&'static str, u64>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
}

/// Concurrent measurement lanes, one per core. Each lane runs whole
/// simulations on one thread, and the lanes start every unit together.
/// On a 2-core host each core's speed drifts partly on its own (one core
/// read 1.7x slower than the other at the same instant), so a unit timed
/// on both cores at once is less often slow; starting together keeps
/// which units overlap, and so the peak memory, the same in every round.
pub const LANES: usize = 2;

/// One lane's pass over every point: `(unit, seconds or failure)`, and
/// the counts of its runs.
type LanePass = (
    Vec<(usize, Result<f64, String>)>,
    BTreeMap<&'static str, u64>,
);

fn lane_pass(size: Size, points: &[Point], start: &Barrier, tr: &Tracer) -> LanePass {
    let mut counts = BTreeMap::new();
    let samples = (0..points.len())
        .map(|unit| {
            let p = &points[unit];
            start.wait();
            let t = Instant::now();
            let run = catch_unwind(AssertUnwindSafe(|| run_point(p, None, tr, unit as u32)));
            let secs = t.elapsed().as_secs_f64();
            let verdict = match &run {
                Ok((r, _)) => {
                    add_counts(&mut counts, r);
                    check(size, p, r).map(|()| secs)
                }
                Err(e) => Err(format!("panicked: {}", panic_message(e.as_ref()))),
            };
            (unit, verdict)
        })
        .collect();
    (samples, counts)
}

/// Runs every point once on each of [`LANES`] lanes, the lanes starting
/// each point together. Each point's faster run goes into `fastest`,
/// each failed run is named in `failures`, and lane 0's counts are
/// returned.
fn pass(
    size: Size,
    points: &[Point],
    tr: &Tracer,
    round: u32,
    fastest: &mut [f64],
    attempted: &mut u64,
    failures: &mut Vec<String>,
) -> BTreeMap<&'static str, u64> {
    let start = Barrier::new(LANES);
    let lanes: Vec<LanePass> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..LANES)
            .map(|_| s.spawn(|| lane_pass(size, points, &start, tr)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lanes catch their points' panics"))
            .collect()
    });
    let mut counts = BTreeMap::new();
    for (lane, (samples, lane_counts)) in lanes.into_iter().enumerate() {
        if lane == 0 {
            counts = lane_counts;
        }
        for (unit, verdict) in samples {
            *attempted += 1;
            match verdict {
                Ok(secs) => fastest[unit] = fastest[unit].min(secs),
                Err(e) => {
                    let key = &points[unit].key;
                    eprintln!("FAILED {key} (round {round}, lane {lane}): {e}");
                    failures.push(format!("{key}: {e}"));
                }
            }
        }
    }
    counts
}

fn finite(v: &[f64]) -> Vec<f64> {
    v.iter().copied().filter(|x| x.is_finite()).collect()
}

/// A cold pass: what round 0 of [`run_sim`] times as the set-up, for a
/// process to run as its first work. Returns the seconds (each point's
/// faster lane, summed), the executions attempted and each failure.
pub fn cold_pass(size: Size, points: &[Point]) -> (f64, u64, Vec<String>) {
    let mut cold = vec![f64::INFINITY; points.len()];
    let (mut attempted, mut failures) = (0, Vec::new());
    let tr = Tracer::new(false);
    pass(
        size,
        points,
        &tr,
        0,
        &mut cold,
        &mut attempted,
        &mut failures,
    );
    (finite(&cold).iter().sum(), attempted, failures)
}

/// Runs `points` round-robin on [`LANES`] lanes: one checked cold pass
/// (the set-up), then rounds until `seconds` would be exceeded (at least
/// two). Each point's time is its fastest run in any lane and round; its
/// set-up time is its faster cold run. In a traced run, rounds alternate
/// untraced and traced so the tracing overhead is measured in-run.
pub fn run_sim(size: Size, points: &[Point], seconds: f64, tr: &Tracer) -> SimRun {
    let traced = tr.is_on();
    tr.set_on(false);
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut counts = BTreeMap::new();
    // best[traced round][unit] and cold[unit]: fastest seconds.
    let mut best = [
        vec![f64::INFINITY; points.len()],
        vec![f64::INFINITY; points.len()],
    ];
    let mut cold = vec![f64::INFINITY; points.len()];

    let begin = Instant::now();
    let mut last = 0.0;
    let mut round = 0u32;
    while round < 3 || begin.elapsed().as_secs_f64() + last <= seconds {
        let on = traced && round > 0 && round.is_multiple_of(2);
        tr.set_round(round);
        tr.set_on(on);
        let t = Instant::now();
        let fastest = if round == 0 {
            &mut cold
        } else {
            &mut best[on as usize]
        };
        let lane_counts = pass(
            size,
            points,
            tr,
            round,
            fastest,
            &mut attempted,
            &mut failures,
        );
        tr.set_on(false);
        last = t.elapsed().as_secs_f64();
        if round == 0 {
            counts = lane_counts;
        }
        round += 1;
    }

    let mut end_to_end = Vec::new();
    let mut layers = Vec::new();
    if traced {
        let plain: f64 = finite(&best[0]).iter().sum();
        let with_spans: f64 = finite(&best[1]).iter().sum();
        layers = crate::sim_layers(&tr.spans(), &counts, plain, with_spans, 0.0);
    } else {
        let mut per_point = finite(&best[0]);
        if !per_point.is_empty() {
            let wall_s: f64 = per_point.iter().sum();
            per_point.sort_by(f64::total_cmp);
            end_to_end = crate::end_to_end(
                wall_s,
                finite(&cold).iter().sum(),
                per_point.len() as f64 / wall_s,
                &per_point,
            );
        }
    }
    SimRun {
        rounds: round as usize - 1,
        attempted,
        failures,
        counts,
        end_to_end,
        layers,
    }
}

/// The message of a caught panic.
pub fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}
