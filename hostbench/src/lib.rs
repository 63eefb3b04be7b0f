//! Host-time benchmark of the LCM reproduction.
//!
//! Three workloads drive the workspace through its public functions and
//! time each call from outside: `suite` (the paper's benchmarks at
//! medium scale), `kilonode` (1024-node simulations through the
//! contention fabric) and `whatif` (captured traces served over TCP).
//! Every unit of work is deterministic and checked, so a slower repeat
//! of the same unit measures only host interference: each unit's time
//! is its fastest round. See `README.md` for the estimator, the metrics
//! and how steady they are.

pub mod pins;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod whatif;

use std::collections::BTreeMap;
use std::fmt;

/// Problem size: `Full` is the benchmark; `Smoke` is for its tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Tiny sizes with the same structure.
    Smoke,
}

impl fmt::Display for Size {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        })
    }
}

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// 6 benchmarks x 3 systems at medium scale.
    Suite,
    /// 1024-node Unstructured and Stencil-dyn on Stache and LCM-mcc.
    Kilonode,
    /// Capture, encode, decode, validate, index, then a TCP script.
    Whatif,
}

impl Bench {
    /// All workloads, in report order.
    pub const ALL: [Bench; 3] = [Bench::Suite, Bench::Kilonode, Bench::Whatif];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Suite => "suite",
            Bench::Kilonode => "kilonode",
            Bench::Whatif => "whatif",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == s)
    }
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The counts that must repeat exactly from run to run, in report order.
pub const COUNTS: [&str; 14] = [
    "sim.accesses",
    "sim.cycles",
    "tempest.msgs",
    "tempest.bytes",
    "rsm.misses",
    "rsm.clean_copies",
    "stache.spurious_invals",
    "stache.dir_overflows",
    "sim.contention_cycles",
    "replay.bytes",
    "replay.events",
    "serve.cached",
    "serve.neighbor",
    "serve.differential",
];

/// The end-to-end metrics every workload reports, from per-unit fastest
/// times (`unit_s`, ascending): a simulation point or a request.
pub fn end_to_end(wall_s: f64, setup_s: f64, qps: f64, unit_s: &[f64]) -> Vec<Metric> {
    vec![
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("qps", qps, "1/s"),
        Metric::new("p50_ms", stats::percentile(unit_s, 50.0) * 1e3, "ms"),
        Metric::new("p99_ms", stats::percentile(unit_s, 99.0) * 1e3, "ms"),
        Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MB"),
    ]
}

/// The per-layer metrics every workload reports: the simulator layers
/// from spans, the tracing overhead (`with_spans_s` against `plain_s`,
/// fastest traced against fastest untraced rounds), the serve hit ratio
/// (0 off `whatif`) and the counts.
pub fn sim_layers(
    spans: &[trace::Span],
    counts: &BTreeMap<&'static str, u64>,
    plain_s: f64,
    with_spans_s: f64,
    hit_ratio: f64,
) -> Vec<Metric> {
    let ns = |name| trace::best_sum_ns(spans, name) as f64;
    let count = |name| counts.get(name).copied().unwrap_or(0);
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let run_ns = ns("apps.run");
    let mut layers = vec![
        Metric::new("apps.build_ms", ns("apps.build") / 1e6, "ms"),
        Metric::new("apps.run_ms", run_ns / 1e6, "ms"),
        Metric::new("apps.harvest_ms", ns("apps.harvest") / 1e6, "ms"),
        Metric::new(
            "sim.ns_per_access",
            per(run_ns, count("sim.accesses")),
            "ns",
        ),
        Metric::new(
            "tempest.ns_per_msg",
            per(run_ns, count("tempest.msgs")),
            "ns",
        ),
        Metric::new(
            "trace.overhead_pct",
            (with_spans_s - plain_s) / plain_s * 100.0,
            "%",
        ),
        Metric::new("serve.hit_ratio", hit_ratio, "ratio"),
    ];
    for name in COUNTS {
        layers.push(Metric::new(name, count(name) as f64, "count"));
    }
    layers
}

/// The result of one benchmark run.
pub struct Outcome {
    /// Workload.
    pub bench: Bench,
    /// Size.
    pub size: Size,
    /// Seed of the `whatif` script.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Timed rounds.
    pub rounds: usize,
    /// Set-ups behind `setup_s`.
    pub setups: usize,
    /// Operations attempted.
    pub attempted: u64,
    /// Each failed operation, named.
    pub failures: Vec<String>,
    /// Exact counts (every name in [`COUNTS`]).
    pub counts: BTreeMap<&'static str, u64>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Layers only this workload enters (traced `whatif`).
    pub own_layers: Vec<Metric>,
    /// Timed units behind each percentile.
    pub units: usize,
    /// `(repeat, neighbor, fresh)` scripted requests (`whatif`).
    pub script: Option<(u64, u64, u64)>,
    /// Spans of a traced run.
    pub spans: Vec<trace::Span>,
}

/// The simulation points of `suite` or `kilonode` (`whatif`'s are its
/// captures, [`sim::capture_points`]).
pub fn sim_points(bench: Bench, size: Size) -> Vec<sim::Point> {
    match bench {
        Bench::Kilonode => sim::kilonode_points(size),
        _ => sim::suite_points(size),
    }
}

/// Runs one workload for about `seconds` of timed rounds.
pub fn run(bench: Bench, size: Size, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let tr = trace::Tracer::new(traced);
    let mut out = match bench {
        Bench::Suite | Bench::Kilonode => {
            let points = sim_points(bench, size);
            let r = sim::run_sim(size, &points, seconds, &tr);
            Outcome {
                bench,
                size,
                seed,
                traced,
                rounds: r.rounds,
                setups: 1,
                attempted: r.attempted,
                failures: r.failures,
                counts: r.counts,
                metrics: if traced { r.layers } else { r.end_to_end },
                own_layers: Vec::new(),
                units: points.len(),
                script: None,
                spans: Vec::new(),
            }
        }
        Bench::Whatif => {
            let r = whatif::run_whatif(size, seed, seconds, &tr);
            Outcome {
                bench,
                size,
                seed,
                traced,
                rounds: r.rounds,
                setups: r.rounds,
                attempted: r.attempted,
                failures: r.failures,
                counts: r.counts,
                metrics: if traced { r.layers } else { r.end_to_end },
                own_layers: r.own_layers,
                units: whatif::per_client(size) * whatif::CLIENTS,
                script: Some(r.kinds),
                spans: Vec::new(),
            }
        }
    };
    for name in COUNTS {
        out.counts.entry(name).or_insert(0);
    }
    out.spans = tr.spans();
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; an undefined value reads 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

impl Outcome {
    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// Folds in cold passes timed in other processes (see
    /// [`sim::cold_pass`]): `setup_s` becomes the median of the run's own
    /// set-up and theirs, and their executions and failures count.
    pub fn add_setups(&mut self, others: Vec<(f64, u64, Vec<String>)>) {
        if others.is_empty() {
            return;
        }
        let mut setups = Vec::new();
        for (secs, attempted, failures) in others {
            if secs.is_finite() {
                setups.push(secs);
            }
            self.attempted += attempted;
            self.failures.extend(failures);
        }
        if let Some(m) = self.metrics.iter_mut().find(|m| m.name == "setup_s") {
            setups.push(m.value);
            m.value = stats::median(&setups);
            self.setups = setups.len();
        }
    }

    /// The run's context: host, threads, seed, rounds, samples, counts.
    pub fn info_json(&self) -> String {
        let n = self.units;
        let beyond = stats::beyond(n, 99.0);
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let script = self.script.map_or("null".to_string(), |(r, nb, f)| {
            format!("{{\"repeat\": {r}, \"neighbor\": {nb}, \"fresh\": {f}}}")
        });
        let connections = if self.bench == Bench::Whatif {
            whatif::CLIENTS
        } else {
            0
        };
        format!(
            "{{\"info\": {{\"workload\": \"{}\", \"size\": \"{}\", \"seed\": {}, \"rounds\": {}, \"setups\": {}, \
             \"tracing\": {}, \"host_cores\": {}, \"sim_threads\": 1, \"lanes\": {}, \
             \"connections\": {connections}, \"percentile_samples\": {n}, \
             \"beyond_p99\": {beyond}, \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \
             \"script\": {script}, \"counts\": {{{}}}, \"layers\": {}}}}}",
            self.bench.name(),
            self.size,
            self.seed,
            self.rounds,
            self.setups,
            self.traced,
            stats::host_cores(),
            sim::LANES,
            self.attempted,
            self.failures.len(),
            self.failures.len() as f64 / self.attempted.max(1) as f64,
            counts.join(", "),
            metrics_json(&self.own_layers),
        )
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics_json(&self.metrics)
        )
    }
}
