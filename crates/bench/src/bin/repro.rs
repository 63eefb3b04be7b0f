//! Regenerates every table and figure of the paper's evaluation.
//!
//! `repro --help` prints the flags and, from the [`SECTIONS`] table,
//! every section in run order; `all` (the default) runs the sections
//! marked as part of it. Simulated cycles are this reproduction's
//! "execution time"; the paper reports wall-clock seconds on a 32-node
//! CM-5, so compare *shapes* (who wins, by what factor), not absolute
//! values. Paper reference numbers are printed alongside where the paper
//! gives them.
//!
//! One driver ([`run`]) owns the command line, the lazily built shared
//! [`Suite`], per-section wall time, file output and exit codes (usage
//! errors exit 2, failures 1). Each section renders its report into a
//! text sink and returns its files by name; the driver writes them under
//! `--csv DIR`, and `BENCH_*.json` falls back to the working directory.
//! Stdout depends only on the arguments minus `--jobs` and output paths
//! (DESIGN.md §4d): host times, worker counts and file locations go to
//! stderr. `crates/bench/tests/sections.rs` pins this for every section,
//! and `repro bench` asserts it for every `all` section while timing it
//! at `--jobs 1` and on the pool.

#![forbid(unsafe_code)]

use lcm_apps::cache_limit::{chunk_blocks, stencil_on_limited_stache};
use lcm_apps::experiments::{Benchmark, Scale, Suite};
use lcm_apps::false_sharing::FalseSharing;
use lcm_apps::independent::{run_with_flush, IndependentMap};
use lcm_apps::nbody::{rms_error, run_nbody, NBody, NBodySystem};
use lcm_apps::race::{detect_races, RaceKernel};
use lcm_apps::reduction::{run_reduction, ArraySum, ReductionMethod, ReductionSum};
use lcm_apps::sensitivity::{sweep_nodes, sweep_remote_latency};
use lcm_apps::stale_data::{run_stale, StaleData, StaleSystem};
use lcm_apps::stencil::Stencil;
use lcm_apps::threshold::Threshold;
use lcm_apps::unstructured::Unstructured;
use lcm_apps::{execute, RunResult, SystemKind, Workload};
use lcm_bench::{critpath, explore, profile, report, BarChart, BenchReport};
use lcm_cstar::{FlushPolicy, Partition, RuntimeConfig};
use lcm_replay::{TraceFile, TraceHandle};
use lcm_sim::{CostModel, CrashPlan, CycleCat, FaultConfig, MachineConfig, NodeId};
use std::cell::{OnceCell, RefCell};
use std::fmt::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        let (msg, code) = match e {
            Error::Usage(msg) => (msg, 2),
            Error::Failed(msg) => (msg, 1),
        };
        eprintln!("{msg}");
        std::process::exit(code);
    }
}

// ==================================================================== driver

/// A failure that ends the run: `Usage` (bad flags, specs, section names
/// or input files) exits 2, `Failed` exits 1.
enum Error {
    Usage(String),
    Failed(String),
}

impl From<String> for Error {
    fn from(msg: String) -> Self {
        Error::Failed(msg)
    }
}

impl From<std::fmt::Error> for Error {
    fn from(_: std::fmt::Error) -> Self {
        Error::Failed("failed to write stdout".to_string())
    }
}

type Res<T> = Result<T, Error>;

/// A section's output files, by name: written under `--csv DIR`, or,
/// without it, only `BENCH_*.json`, to the working directory.
type Files = Vec<(String, Vec<u8>)>;

fn file(name: &str, contents: impl Into<Vec<u8>>) -> (String, Vec<u8>) {
    (name.to_string(), contents.into())
}

/// One entry of the section table.
struct Section {
    name: &'static str,
    /// Whether `all` runs it. The sections outside `all` would move the
    /// pinned `all` totals (finite link bandwidth, crashes, 1024-node
    /// machines), measure host time, or block as a server.
    in_all: bool,
    /// Renders the report into the sink and returns the files to write.
    run: fn(&Ctx, &mut dyn Write) -> Res<Files>,
    about: &'static str,
}

const fn section(
    name: &'static str,
    in_all: bool,
    run: fn(&Ctx, &mut dyn Write) -> Res<Files>,
    about: &'static str,
) -> Section {
    Section {
        name,
        in_all,
        run,
        about,
    }
}

/// Every section, in run order.
#[rustfmt::skip]
const SECTIONS: &[Section] = &[
    section("table1",      true,  table1,         "Table 1: cache misses and clean copies"),
    section("fig2",        true,  fig2,           "Figure 2: Stencil execution time"),
    section("fig3",        true,  fig3,           "Figure 3: benchmark execution time"),
    section("claims",      true,  claims,         "§6.3 prose claims, checked"),
    section("reduction",   true,  reduction,      "§7.1 reduction methods"),
    section("falseshare",  true,  false_sharing,  "§7.4 false sharing"),
    section("stale",       true,  stale,          "§7.5 stale data, refresh every k"),
    section("flushpolicy", true,  flush_policy,   "§5.1 flush elision"),
    section("cachelimit",  true,  cache_limit,    "§6.3 limited-cache ablation"),
    section("tree",        true,  tree_reconcile, "§5 tree-structured reconciliation"),
    section("nbody",       true,  nbody,          "§7.5 N-body, stale far-field positions"),
    section("sweep",       true,  sweeps,         "remote-latency and processor-count sensitivity"),
    section("races",       true,  races,          "§7.2/7.3 conflict detection"),
    section("faults",      true,  faults,         "slowdown vs message drop rate"),
    section("profile",     true,  cycle_profile,  "cycle-attribution profile of Stencil-dyn"),
    section("contention",  false, contention,     "time vs fat-tree link bandwidth"),
    section("explore",     false, design_space,   "capture once, replay a cost-model grid"),
    section("critpath",    false, critical_path,  "happens-before critical path and what-ifs"),
    section("recovery",    false, recovery,       "crash rate x checkpoint granularity"),
    section("scale",       false, scale,          "directory backends from 32 to 1024 nodes"),
    section("bench",       false, bench,          "each `all` section at --jobs 1 vs the pool"),
    section("serve",       false, serve,          "replay-server self-check, --bench, --listen"),
];

/// The flags, with their help text.
#[rustfmt::skip]
const FLAGS: &[(&str, &str)] = &[
    ("--scale paper|medium|smoke",  "workload size (default: medium)"),
    ("--jobs N",                    "workers across sweep points (default: host cores)"),
    ("--csv DIR",                   "write every section's files under DIR"),
    ("--svg DIR",                   "write fig2.svg and fig3.svg under DIR"),
    ("--faults RATE:SEED",          "add a drop-rate point to `faults`"),
    ("--crash RATE:SEED",           "add a crash-rate point to `recovery`"),
    ("--trace FILE",                "export profile's LCM-mcc events as Chrome-trace JSON"),
    ("--flow-trace FILE",           "export critpath's flow-annotated Perfetto trace"),
    ("--listen ADDR",               "serve: stay resident on ADDR"),
    ("--traces DIR",                "serve: load the .lcmtrace files in DIR"),
    ("--bench",                     "serve: run the load bench (BENCH_serve.json)"),
    ("--list-sections",             "print the sections and exit"),
    ("-h, --help",                  "print this help and exit"),
];

fn usage_text() -> String {
    let mut s = String::from(
        "usage: repro [FLAGS] [SECTION...] | repro replay FILE | repro critpath FILE\n\
         flags (--faults, --crash, --trace, --flow-trace and the serve flags also select\n\
         their section):\n",
    );
    for (flag, about) in FLAGS {
        s.push_str(&format!("  {flag:<28} {about}\n"));
    }
    s
}

fn section_list() -> String {
    let mut s =
        String::from("sections, in run order (default: all; * = not part of all):\n  all\n");
    for sec in SECTIONS {
        let mark = if sec.in_all { ' ' } else { '*' };
        s.push_str(&format!("  {:<11} {mark} {}\n", sec.name, sec.about));
    }
    s.push_str(
        "subcommands:\n  \
         replay <file.lcmtrace>     validate and summarize a captured trace\n  \
         critpath <file.lcmtrace>   critical-path analysis of a captured trace\n",
    );
    s
}

/// What a section reads: the parsed flags and the shared suite.
struct Ctx {
    scale: Scale,
    jobs: usize,
    csv: Option<PathBuf>,
    faults: Option<(f64, u64)>,
    crash: Option<(f64, u64)>,
    trace: Option<PathBuf>,
    flow_trace: Option<PathBuf>,
    listen: Option<String>,
    traces: Option<PathBuf>,
    serve_bench: bool,
    suite: OnceCell<Suite>,
    /// Sweep points that failed without stopping their section; any
    /// fails the run once every section's files are written.
    failures: RefCell<Vec<String>>,
}

impl Ctx {
    fn new(scale: Scale, jobs: usize) -> Ctx {
        Ctx {
            scale,
            jobs,
            csv: None,
            faults: None,
            crash: None,
            trace: None,
            flow_trace: None,
            listen: None,
            traces: None,
            serve_bench: false,
            suite: OnceCell::new(),
            failures: RefCell::new(Vec::new()),
        }
    }

    /// The benchmark suite that `table1`, `fig2`, `fig3` and `claims`
    /// read, run on first use.
    fn suite(&self) -> &Suite {
        self.suite.get_or_init(|| {
            eprintln!(
                "running the benchmark suite at scale '{}' ({} processors, {} worker(s))…",
                self.scale,
                self.scale.nodes(),
                self.jobs
            );
            let t0 = Instant::now();
            let suite = Suite::run(self.scale, self.jobs);
            eprintln!("…done in {:.1}s\n", t0.elapsed().as_secs_f64());
            suite
        })
    }
}

/// Streams section output straight to the process's stdout.
struct Stdout;

impl Write for Stdout {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        use std::io::Write as _;
        std::io::stdout()
            .write_all(s.as_bytes())
            .map_err(|_| std::fmt::Error)
    }
}

/// Parses the command line, then runs the selected sections in table
/// order, timing each and writing its files.
fn run(args: &[String]) -> Res<()> {
    let mut ctx = Ctx::new(Scale::Medium, lcm_sim::available_jobs());
    let mut svg: Option<PathBuf> = None;
    let mut what: Vec<&str> = Vec::new();
    let mut implied: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        let mut value = |want: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| Error::Usage(format!("{flag} requires {want}")))
        };
        match flag {
            "--jobs" => {
                ctx.jobs = value("a count >= 1")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| Error::Usage(format!("{flag} requires a count >= 1")))?;
            }
            "--faults" | "--crash" => {
                let spec = value("<rate>:<seed>")?;
                let (rate, seed) = parse_rate_seed(&spec).ok_or_else(|| {
                    Error::Usage(format!(
                        "bad {flag} spec {spec:?} (want <rate>:<seed>, e.g. 0.01:42)"
                    ))
                })?;
                // Out-of-range rates are the config layer's call, surfaced
                // here as its named error.
                let (checked, point, section) = if flag == "--faults" {
                    let checked = FaultConfig::drops(rate, seed).validate();
                    (checked, &mut ctx.faults, "faults")
                } else {
                    let checked = CrashPlan::try_new(rate, seed).map(|_| ());
                    (checked, &mut ctx.crash, "recovery")
                };
                checked.map_err(|e| Error::Usage(format!("{flag} {spec}: {e}")))?;
                *point = Some((rate, seed));
                implied.push(section);
            }
            "--trace" => {
                ctx.trace = Some(value("a file path")?.into());
                implied.push("profile");
            }
            "--flow-trace" => {
                ctx.flow_trace = Some(value("a file path")?.into());
                implied.push("critpath");
            }
            "--listen" => {
                ctx.listen = Some(value("an address (e.g. 127.0.0.1:7199)")?);
                implied.push("serve");
            }
            "--traces" => {
                ctx.traces = Some(value("a directory of .lcmtrace files")?.into());
                implied.push("serve");
            }
            "--bench" => {
                ctx.serve_bench = true;
                implied.push("serve");
            }
            "--csv" => ctx.csv = Some(value("a directory")?.into()),
            "--svg" => svg = Some(value("a directory")?.into()),
            "--scale" => {
                ctx.scale = match value("paper|medium|smoke")?.as_str() {
                    "paper" => Scale::Paper,
                    "medium" => Scale::Medium,
                    "smoke" => Scale::Smoke,
                    other => {
                        return Err(Error::Usage(format!(
                            "unknown scale {other:?} (paper|medium|smoke)"
                        )))
                    }
                }
            }
            "--list-sections" => {
                eprint!("{}", section_list());
                return Ok(());
            }
            "-h" | "--help" => {
                print!("{}", usage_text());
                eprint!("{}", section_list());
                return Ok(());
            }
            _ if flag.starts_with('-') => {
                return Err(Error::Usage(format!(
                    "unknown flag {flag:?}\n{}{}",
                    usage_text(),
                    section_list()
                )))
            }
            _ => what.push(flag),
        }
    }
    if what.is_empty() {
        what.push("all");
    }
    let is_section = |w: &str| w == "all" || SECTIONS.iter().any(|s| s.name == w);
    match what.as_slice() {
        ["replay", path] => return replay_summary(Path::new(path), &mut Stdout),
        ["replay", ..] => return Err(Error::Usage("usage: repro replay <file.lcmtrace>".into())),
        // `critpath FILE` is the offline subcommand; `critpath` among
        // section names is the capture-and-analyze section.
        ["critpath", path] if !is_section(path) => {
            return critpath_file(Path::new(path), &mut Stdout)
        }
        _ => {}
    }
    if let Some(bad) = what.iter().find(|w| !is_section(w)) {
        return Err(Error::Usage(format!(
            "unknown section {bad:?}\n{}",
            section_list()
        )));
    }
    what.extend(implied);
    let all = what.contains(&"all");
    for s in SECTIONS
        .iter()
        .filter(|s| (all && s.in_all) || what.contains(&s.name))
    {
        let t0 = Instant::now();
        let files = (s.run)(&ctx, &mut Stdout)?;
        write_files(ctx.csv.as_deref(), files)?;
        eprintln!("[{}: {:.2}s]", s.name, t0.elapsed().as_secs_f64());
    }
    if let (Some(dir), Some(suite)) = (svg, ctx.suite.get()) {
        write_svg(&dir, suite)?;
        eprintln!("SVG figures written to {}", dir.display());
    }
    let failures = ctx.failures.into_inner();
    if !failures.is_empty() {
        return Err(format!(
            "{} sweep point(s) failed:\n  {}",
            failures.len(),
            failures.join("\n  ")
        )
        .into());
    }
    Ok(())
}

/// Writes a section's files (see [`Files`]), naming each on stderr.
fn write_files(csv: Option<&Path>, files: Files) -> Res<()> {
    for (name, bytes) in files {
        let path = match csv {
            Some(dir) => dir.join(&name),
            None if name.starts_with("BENCH_") => PathBuf::from(&name),
            None => continue,
        };
        write_path(&path, &bytes)?;
        eprintln!("   {name} written to {}", path.display());
    }
    Ok(())
}

/// Writes one file, creating its directory and naming the path in any
/// error.
fn write_path(path: &Path, bytes: &[u8]) -> Res<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("failed to create directory {}: {e}", parent.display()))?;
    }
    std::fs::write(path, bytes).map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    Ok(())
}

fn write_svg(dir: &Path, suite: &Suite) -> Res<()> {
    let series = ["LCM-scc", "LCM-mcc", "Stache"];
    for (name, title, rows) in [
        ("fig2.svg", FIG2_TITLE, suite.fig2()),
        ("fig3.svg", FIG3_TITLE, suite.fig3()),
    ] {
        let mut chart = BarChart::new(title, "simulated cycles", &series);
        let mut groups: Vec<(Benchmark, [f64; 3])> = Vec::new();
        for (b, s, t) in rows {
            match groups.iter_mut().find(|(gb, _)| *gb == b) {
                Some((_, vs)) => vs[s.index()] = t as f64,
                None => {
                    let mut vs = [0.0; 3];
                    vs[s.index()] = t as f64;
                    groups.push((b, vs));
                }
            }
        }
        for (b, vs) in groups {
            chart.push_group(b.label(), &vs);
        }
        write_path(&dir.join(name), chart.to_svg().as_bytes())?;
    }
    Ok(())
}

/// Parses a `<rate>:<seed>` spec's *shape*; range checking is
/// [`FaultConfig::validate`]'s and [`CrashPlan::try_new`]'s job so the
/// CLI reports their named errors.
fn parse_rate_seed(spec: &str) -> Option<(f64, u64)> {
    let (rate, seed) = spec.split_once(':')?;
    Some((rate.parse().ok()?, seed.parse().ok()?))
}

/// `"unlimited"` for bandwidth 0, else `"N B/cy"`.
fn bw_label(bw: u64) -> String {
    if bw == 0 {
        "unlimited".to_string()
    } else {
        format!("{bw} B/cy")
    }
}

// ============================================================ suite sections

const FIG2_TITLE: &str = "Figure 2: Stencil execution time";
const FIG3_TITLE: &str = "Figure 3: benchmark execution time";

fn k(x: u64) -> String {
    format!("{:.0}", x as f64 / 1000.0)
}

fn table1(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    let suite = ctx.suite();
    out.write_str(
        "== Table 1: benchmark cache misses and clean copies (thousands) ==
   (paper values in parentheses; paper ran 32-node CM-5)
",
    )?;
    writeln!(
        out,
        "{:<14} | {:>16} {:>16} {:>16} | {:>14} {:>14}",
        "Program", "misses scc", "misses mcc", "misses Copying", "clean scc", "clean mcc"
    )?;
    writeln!(out, "{}", "-".repeat(102))?;
    for (b, misses, clean) in suite.table1() {
        let fmt_ref = |v: Option<f64>| v.map(|x| format!("({x:.0})")).unwrap_or_default();
        let [r_scc, r_mcc, r_cp, r_cscc, r_cmcc] = match b.paper_table1() {
            Some((a, b2, c, d, e)) => [a, Some(b2), Some(c), d, Some(e)].map(fmt_ref),
            None => Default::default(),
        };
        writeln!(
            out,
            "{:<14} | {:>8} {:>7} {:>8} {:>7} {:>8} {:>7} | {:>6} {:>7} {:>6} {:>7}",
            b.label(),
            k(misses[0]),
            r_scc,
            k(misses[1]),
            r_mcc,
            k(misses[2]),
            r_cp,
            k(clean[0]),
            r_cscc,
            k(clean[1]),
            r_cmcc,
        )?;
    }
    writeln!(out)?;
    Ok(vec![
        file("table1.csv", report::table1_csv(suite)),
        file("messages.csv", report::messages_csv(suite, &[])),
        file("network.csv", report::network_csv(suite)),
    ])
}

fn fig2(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    let suite = ctx.suite();
    fig(suite, FIG2_TITLE, "fig2.csv", suite.fig2(), out)
}

fn fig3(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    let suite = ctx.suite();
    fig(suite, FIG3_TITLE, "fig3.csv", suite.fig3(), out)
}

fn fig(
    suite: &Suite,
    title: &str,
    csv: &str,
    rows: Vec<(Benchmark, SystemKind, u64)>,
    out: &mut dyn Write,
) -> Res<Files> {
    writeln!(out, "== {title} (simulated cycles) ==")?;
    let mut last: Option<Benchmark> = None;
    for &(b, s, time) in &rows {
        if last != Some(b) {
            writeln!(out, "{}:", b.label())?;
            last = Some(b);
        }
        let base = suite.result(b, SystemKind::Stache).time as f64;
        writeln!(
            out,
            "  {:<8} {:>14} cycles   ({:.2}x vs Stache)",
            s.label(),
            time,
            time as f64 / base
        )?;
    }
    writeln!(out)?;
    Ok(vec![file(csv, report::fig_csv(&rows))])
}

fn claims(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    let suite = ctx.suite();
    writeln!(out, "== §6.3 prose claims, checked against this run ==")?;
    let claims = suite.claims();
    for c in &claims {
        writeln!(
            out,
            "[{}] {}\n        paper: {:<14} measured: {}",
            if c.holds { "PASS" } else { "FAIL" },
            c.description,
            c.paper,
            c.measured
        )?;
    }
    writeln!(
        out,
        "{} of {} claims hold at scale '{}'\n",
        claims.iter().filter(|c| c.holds).count(),
        claims.len(),
        suite.scale()
    )?;
    Ok(Vec::new())
}

// ================================================================ ablations

/// The array-sum workload of the reduction section at a given scale.
fn reduction_worksize(scale: Scale) -> ArraySum {
    match scale {
        Scale::Paper => ArraySum {
            len: 1 << 20,
            passes: 2,
        },
        Scale::Medium => ArraySum::default_size(),
        Scale::Smoke => ArraySum::small(),
    }
}

fn reduction(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    let nodes = ctx.scale.nodes();
    writeln!(
        out,
        "== §7.1 Reductions: summing an array on {nodes} processors =="
    )?;
    let w = reduction_worksize(ctx.scale);
    let runs = lcm_sim::par_map(ctx.jobs, ReductionMethod::all().to_vec(), |_, method| {
        run_reduction(method, nodes, &w)
    });
    let mut base = None;
    for (method, (sum, r)) in ReductionMethod::all().into_iter().zip(runs) {
        let base_time = *base.get_or_insert(r.time) as f64;
        writeln!(
            out,
            "  {:<15} {:>14} cycles ({:>5.2}x vs shared-acc)  sum={}  misses={}",
            method.label(),
            r.time,
            r.time as f64 / base_time,
            sum,
            r.misses()
        )?;
    }
    writeln!(out)?;
    Ok(Vec::new())
}

fn false_sharing(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    writeln!(
        out,
        "== §7.4 False sharing: 8 writers, one block, 200 rounds =="
    )?;
    let w = FalseSharing::default_size();
    let configs = vec![
        ("Stache packed", SystemKind::Stache, w),
        ("Stache padded", SystemKind::Stache, w.padded()),
        ("LCM-mcc packed", SystemKind::LcmMcc, w),
        ("LCM-scc packed", SystemKind::LcmScc, w),
    ];
    let runs = lcm_sim::par_map(ctx.jobs, configs, |_, (label, sys, wl)| {
        let mc = MachineConfig::new(w.writers);
        (label, execute(sys, mc, RuntimeConfig::default(), &wl).1)
    });
    for (label, r) in runs {
        writeln!(
            out,
            "  {:<15} {:>12} cycles  misses={:<6} invalidations={}",
            label,
            r.time,
            r.misses(),
            r.totals.invalidations_sent
        )?;
    }
    writeln!(out)?;
    Ok(Vec::new())
}

fn stale(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    writeln!(
        out,
        "== §7.5 Stale data: producer field, consumers refresh every k =="
    )?;
    let base = StaleData::default_size();
    let (lag, r) = run_stale(StaleSystem::Coherent, 8, &base);
    writeln!(
        out,
        "  {:<22} {:>12} cycles  misses={:<6} staleness={}",
        "coherent (k=1)",
        r.time,
        r.misses(),
        lag
    )?;
    let ks = vec![2usize, 4, 8, 16];
    let runs = lcm_sim::par_map(ctx.jobs, ks.clone(), |_, k| {
        let w = StaleData {
            refresh_every: k,
            ..base
        };
        run_stale(StaleSystem::StaleRegion, 8, &w)
    });
    for (k, (lag, r)) in ks.into_iter().zip(runs) {
        writeln!(
            out,
            "  {:<22} {:>12} cycles  misses={:<6} staleness={:.0}  refreshes={}",
            format!("stale region (k={k})"),
            r.time,
            r.misses(),
            lag,
            r.totals.stale_refreshes
        )?;
    }
    writeln!(out)?;
    Ok(Vec::new())
}

fn flush_policy(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    out.write_str(
        "== §5.1 flush elision: per-invocation vs at-reconcile flushes ==
   (sound when the compiler proves invocations touch distinct locations)
",
    )?;
    let nodes = ctx.scale.nodes();
    let w = match ctx.scale {
        Scale::Paper => IndependentMap {
            len: 1 << 18,
            sweeps: 4,
        },
        Scale::Medium => IndependentMap::default_size(),
        Scale::Smoke => IndependentMap::small(),
    };
    let mut runs = lcm_sim::par_map(
        ctx.jobs,
        vec![FlushPolicy::PerInvocation, FlushPolicy::AtReconcile],
        |_, policy| run_with_flush(policy, nodes, &w).1,
    );
    let at_rec = runs.pop().expect("two policies ran");
    let per_inv = runs.pop().expect("two policies ran");
    writeln!(
        out,
        "  per-invocation {:>12} cycles, {:>8} flushes",
        per_inv.time, per_inv.totals.flushes
    )?;
    writeln!(
        out,
        "  at-reconcile   {:>12} cycles, {:>8} flushes  ({:.2}x faster)\n",
        at_rec.time,
        at_rec.totals.flushes,
        per_inv.time as f64 / at_rec.time as f64
    )?;
    Ok(Vec::new())
}

fn cache_limit(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    writeln!(
        out,
        "== §6.3 limited-cache ablation: Stencil-stat on a bounded Stache =="
    )?;
    let w = Stencil {
        rows: 256,
        cols: 256,
        iters: 10,
        partition: Partition::Static,
    };
    let nodes = 16;
    let chunk = chunk_blocks(&w, nodes);
    let mc = MachineConfig::new(nodes);
    let lcm = execute(SystemKind::LcmMcc, mc, RuntimeConfig::default(), &w).1;
    writeln!(out, "  LCM-mcc (reference)         {:>12} cycles", lcm.time)?;
    let caps = vec![
        ("Stache unbounded (paper)", None),
        ("Stache cap = 2x chunk", Some(2 * chunk)),
        ("Stache cap = chunk/2", Some(chunk / 2)),
        ("Stache cap = chunk/8", Some(chunk / 8)),
    ];
    let runs = lcm_sim::par_map(ctx.jobs, caps, |_, (label, cap)| {
        (label, stencil_on_limited_stache(cap, nodes, &w))
    });
    for (label, r) in runs {
        writeln!(
            out,
            "  {:<27} {:>12} cycles, {:>8} misses, {:>8} evictions",
            label,
            r.time,
            r.misses(),
            r.totals.evictions
        )?;
    }
    writeln!(out)?;
    Ok(Vec::new())
}

fn tree_reconcile(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    use lcm_core::{Lcm, LcmVariant};
    use lcm_cstar::{Runtime, Strategy};
    use lcm_rsm::{MemoryProtocol, ReduceOp};
    use lcm_tempest::Placement;
    writeln!(
        out,
        "== §5 tree-structured reconciliation (reduction bottleneck) =="
    )?;
    let nodes = ctx.scale.nodes().max(16);
    let runs = lcm_sim::par_map(ctx.jobs, vec![false, true], |_, tree| {
        let mut mem = Lcm::new(MachineConfig::new(nodes), LcmVariant::Mcc);
        mem.set_tree_reconcile(tree);
        let mut rt = Runtime::new(mem, Strategy::LcmDirectives);
        let a = rt.new_aggregate1::<f32>(nodes * 64, Placement::Blocked, "a");
        rt.init1(a, |i| (i % 5) as f32);
        let total = rt.new_reduction_f64(ReduceOp::SumF64, 0.0, "total");
        rt.apply1(a, Partition::Static, |inv, i| {
            let v = inv.get(a.at(i)) as f64;
            inv.reduce_f64(total, v);
        });
        let machine = &rt.mem().tempest().machine;
        (
            machine.time(),
            machine.stats(NodeId(0)).versions_reconciled,
            rt.peek_reduction(total),
        )
    });
    for (tree, (time, merged, sum)) in [false, true].into_iter().zip(runs) {
        writeln!(
            out,
            "  {:<8} total time {:>10} cycles; home node merged {:>3} versions (sum={})",
            if tree { "tree" } else { "direct" },
            time,
            merged,
            sum
        )?;
    }
    writeln!(out)?;
    Ok(Vec::new())
}

fn nbody(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    writeln!(out, "== §7.5 N-body: stale far-field positions ==")?;
    let base = NBody::default_size();
    let (reference, coherent) = run_nbody(NBodySystem::Coherent, 8, &base);
    writeln!(
        out,
        "  {:<18} {:>12} cycles, {:>6} misses, rms error 0",
        "coherent",
        coherent.time,
        coherent.misses()
    )?;
    let ks = vec![2usize, 4, 8, 16];
    let runs = lcm_sim::par_map(ctx.jobs, ks.clone(), |_, k| {
        let w = NBody {
            refresh_every: k,
            ..base
        };
        run_nbody(NBodySystem::StaleRegion, 8, &w)
    });
    for (k, (pos, run)) in ks.into_iter().zip(runs) {
        writeln!(
            out,
            "  {:<18} {:>12} cycles, {:>6} misses, rms error {:.4}",
            format!("refresh every {k}"),
            run.time,
            run.misses(),
            rms_error(&reference, &pos)
        )?;
    }
    writeln!(out)?;
    Ok(Vec::new())
}

/// The sensitivity-sweep stencil at a given scale.
fn sensitivity_stencil(scale: Scale) -> Stencil {
    let (rows, iters) = match scale {
        Scale::Paper => (512, 10),
        Scale::Medium => (256, 8),
        Scale::Smoke => (64, 4),
    };
    Stencil {
        rows,
        cols: rows,
        iters,
        partition: Partition::Dynamic,
    }
}

/// Swept remote latencies (cycles) of the sensitivity section.
const SWEEP_LATENCIES: [u64; 5] = [500, 1500, 3000, 6000, 12000];
/// Swept processor counts of the sensitivity section.
const SWEEP_NODES: [usize; 4] = [4, 8, 16, 32];

fn sweeps(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    writeln!(
        out,
        "== Sensitivity: Stencil-dyn LCM-mcc advantage vs machine parameters =="
    )?;
    let w = sensitivity_stencil(ctx.scale);
    let latency = sweep_remote_latency(&SWEEP_LATENCIES, ctx.scale.nodes(), &w, ctx.jobs);
    let nodes = sweep_nodes(&SWEEP_NODES, &w, ctx.jobs);
    writeln!(
        out,
        "remote round-trip latency sweep ({} processors):",
        ctx.scale.nodes()
    )?;
    for p in latency {
        writeln!(
            out,
            "  remote_miss={:>6} cy: LCM-mcc {:>12}, Stache {:>12}  (advantage {:.2}x)",
            p.x,
            p.lcm.time,
            p.stache.time,
            p.advantage()
        )?;
    }
    writeln!(out, "processor-count sweep (default cost model):")?;
    for p in nodes {
        writeln!(
            out,
            "  P={:>2}: LCM-mcc {:>12}, Stache {:>12}  (advantage {:.2}x)",
            p.x,
            p.lcm.time,
            p.stache.time,
            p.advantage()
        )?;
    }
    writeln!(out)?;
    Ok(Vec::new())
}

fn races(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    writeln!(out, "== §7.2/7.3 Conflict detection ==")?;
    let kernels = RaceKernel::all();
    let found = lcm_sim::par_map(ctx.jobs, kernels.to_vec(), |_, kernel| {
        detect_races(kernel, 4)
    });
    for (kernel, conflicts) in kernels.into_iter().zip(found) {
        writeln!(out, "  {:?}: {} conflict(s)", kernel, conflicts.len())?;
        for c in conflicts.iter().take(4) {
            writeln!(out, "    - {c}")?;
        }
    }
    writeln!(out)?;
    Ok(Vec::new())
}

// ===================================================== fault-model sections

/// The Stencil-dyn workload of the fault, contention, explore, recovery,
/// critpath, profile and serve sections.
fn stencil_dyn(scale: Scale) -> Stencil {
    let (rows, iters) = match scale {
        Scale::Paper => (256, 10),
        Scale::Medium => (128, 6),
        Scale::Smoke => (48, 3),
    };
    Stencil {
        rows,
        cols: rows,
        iters,
        partition: Partition::Dynamic,
    }
}

/// The Threshold workload of the fault, recovery and critpath sections.
fn threshold(scale: Scale) -> Threshold {
    match scale {
        Scale::Paper => Threshold {
            size: 256,
            iters: 15,
            threshold: 1.0,
            sources: 6,
        },
        Scale::Medium => Threshold {
            size: 96,
            iters: 8,
            threshold: 1.0,
            sources: 4,
        },
        Scale::Smoke => Threshold::small(),
    }
}

/// The unstructured-mesh workload of the contention, recovery and
/// critpath sections.
fn unstructured(scale: Scale) -> Unstructured {
    match scale {
        Scale::Paper => Unstructured::paper(),
        Scale::Medium => Unstructured {
            iters: 100,
            ..Unstructured::paper()
        },
        Scale::Smoke => Unstructured::small(),
    }
}

/// A sweep's rates: the section's `defaults` plus the custom
/// `--faults`/`--crash` point's rate, ascending, and that point's seed
/// (else `seed`).
fn swept_rates(defaults: &[f64], point: Option<(f64, u64)>, seed: u64) -> (Vec<f64>, u64) {
    let mut rates = defaults.to_vec();
    let Some((rate, seed)) = point else {
        return (rates, seed);
    };
    if rate > 0.0 && !rates.contains(&rate) {
        rates.push(rate);
        rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    }
    (rates, seed)
}

/// Drop rates and seed of the `faults` sweep; the first rate, 0, is
/// the fault-free baseline.
fn fault_rates(ctx: &Ctx) -> (Vec<f64>, u64) {
    swept_rates(&[0.0, 0.001, 0.01, 0.05], ctx.faults, 0xC0FFEE)
}

/// The unreliable-network sweep: execution-time slowdown vs message drop
/// rate, for all three systems on two benchmarks.
fn faults(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    let (_, seed) = fault_rates(ctx);
    write!(
        out,
        "== Unreliable network: slowdown vs message drop rate (seed {seed}) ==
   each drop costs a timeout plus an exponentially backed-off retransmit;
   outputs are checked bit-identical to the fault-free run, and every run
   ends with the coherence-invariant sanitizer
"
    )?;
    let mut g = Grid {
        ctx,
        out,
        csv: "benchmark,system,drop_rate,seed,cycles,slowdown,msgs_delivered,retries,timeouts,dropped,duplicated\n".to_string(),
    };
    faults_grid(&mut g, "Stencil-dyn", &stencil_dyn(ctx.scale))?;
    faults_grid(&mut g, "Threshold", &threshold(ctx.scale))?;
    writeln!(g.out)?;
    Ok(vec![file("faults.csv", g.csv)])
}

/// One benchmark's `(system × drop rate)` grid; each system's block
/// ends with its message mix at the maximum rate.
fn faults_grid<W>(g: &mut Grid, name: &str, w: &W) -> Res<()>
where
    W: Workload + Sync,
    W::Output: PartialEq + Send,
{
    let (rates, seed) = fault_rates(g.ctx);
    let (nodes, max_rate) = (g.ctx.scale.nodes(), rates[rates.len() - 1]);
    g.run(
        name,
        w,
        &rates,
        |&rate| {
            let faults = FaultConfig::drops(rate, seed);
            let mc = MachineConfig::new(nodes).with_faults(faults);
            (mc, RuntimeConfig::default())
        },
        |rate| (format!("drop={rate:<6}"), format!("{rate},{seed}")),
        |_, &rate, r| {
            let t = &r.totals;
            let (retries, timeouts) = (t.retries, t.timeouts);
            let (dropped, dup) = (t.msgs_dropped, t.msgs_duplicated);
            let mut cols = format!(
                "retries={retries:<6} timeouts={timeouts:<6} dropped={dropped:<6} dup={dup}"
            );
            if rate == max_rate {
                let mix: Vec<String> = r
                    .msg_kinds
                    .iter()
                    .filter(|(_, n)| *n > 0)
                    .map(|(kind, n)| format!("{}={n}", kind.label()))
                    .collect();
                cols += &format!("\n           msgs at max rate: {}", mix.join(" "));
            }
            let msgs = r.msgs_total();
            (cols, format!("{msgs},{retries},{timeouts},{dropped},{dup}"))
        },
    )?;
    Ok(())
}

/// Swept link bandwidths in bytes/cycle; 0 means unlimited — the
/// default (dormant) network model, and the baseline every slowdown in
/// the section is measured against.
const CONTENTION_BANDWIDTHS: [u64; 4] = [0, 64, 16, 4];

/// The link-contention sweep: execution time vs fat-tree link bandwidth
/// for all three systems on four benchmarks.
fn contention(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    out.write_str(
        "== Link contention: CM-5 fat-tree fabric, time vs link bandwidth ==
   finite bandwidth serializes each message onto its fat-tree route and
   queues it behind in-flight traffic (charged to the receiver as
   net_contention); bw=unlimited is the dormant default model and the
   per-system baseline
",
    )?;
    let (scale, nodes) = (ctx.scale, ctx.scale.nodes());
    let mut g = Grid {
        ctx,
        out,
        csv: "benchmark,system,bandwidth_bytes_per_cycle,cycles,slowdown,net_contention_cycles,msgs,bytes\n".to_string(),
    };
    let red = ReductionSum(reduction_worksize(scale));
    contention_grid(&mut g, "Reduction", nodes, &red)?;
    let fs = if matches!(scale, Scale::Smoke) {
        FalseSharing::small()
    } else {
        FalseSharing::default_size()
    };
    contention_grid(&mut g, "FalseShare", fs.writers, &fs)?;
    contention_grid(&mut g, "Unstructured", nodes, &unstructured(scale))?;
    contention_grid(&mut g, "Stencil-dyn", nodes, &stencil_dyn(scale))?;
    writeln!(g.out)?;
    Ok(vec![file("contention.csv", g.csv)])
}

/// One benchmark's `(system × bandwidth)` grid, then the busiest links
/// of its most contended Stache run.
fn contention_grid<W>(g: &mut Grid, name: &str, nodes: usize, w: &W) -> Res<()>
where
    W: Workload + Sync,
    W::Output: PartialEq + Send,
{
    let runs = g.run(
        name,
        w,
        &CONTENTION_BANDWIDTHS,
        |&bw| {
            let cost = CostModel::cm5().with_link_bandwidth(bw);
            let mc = MachineConfig::new(nodes).with_cost(cost);
            (mc, RuntimeConfig::default())
        },
        |&bw| (format!("bw={:<10}", bw_label(bw)), bw.to_string()),
        |_, _, r| {
            let queued = r.ledger.totals()[CycleCat::NetContention.index()];
            let (msgs, bytes) = (r.msgs_total(), r.totals.bytes_sent);
            (
                format!("net_contention={queued}"),
                format!("{queued},{msgs},{bytes}"),
            )
        },
    )?;
    let (tightest, bw) = CONTENTION_BANDWIDTHS
        .iter()
        .enumerate()
        .filter(|(_, &bw)| bw > 0)
        .min_by_key(|(_, &bw)| bw)
        .expect("the sweep includes a finite bandwidth");
    if let Some(r) = &runs[SystemKind::Stache.index()][tightest] {
        let links = profile::hottest_links_table(r, 5);
        if !links.is_empty() {
            writeln!(g.out, "  hottest links (Stache at {bw} B/cycle):")?;
            write!(g.out, "{links}")?;
        }
    }
    Ok(())
}

// ==================================================== perturbation grids

/// The one driver of the perturbation-grid sections (`faults`,
/// `contention`, `recovery`): where their rows go.
struct Grid<'a> {
    ctx: &'a Ctx,
    out: &'a mut dyn Write,
    csv: String,
}

impl Grid<'_> {
    /// Runs one benchmark `w` over [`SystemKind::all`] × `points` on
    /// [`lcm_sim::try_par_map`], then renders the grid in that order.
    /// `setup` builds a point's machine and runtime; `points[0]` is the
    /// baseline each system's outputs and slowdowns are measured
    /// against. A row is `coords` (the point's stdout and CSV columns),
    /// cycles, slowdown, then `cols` (the section's own columns). A point
    /// that panics, diverges from its baseline (perturbations move
    /// cycles, never values — DESIGN.md §4d) or lost its baseline is
    /// recorded in [`Ctx::failures`] and skipped; the rest still render.
    ///
    /// Returns `runs[system.index()][point]`, `None` where skipped.
    fn run<W, P>(
        &mut self,
        name: &str,
        w: &W,
        points: &[P],
        setup: impl Fn(&P) -> (MachineConfig, RuntimeConfig) + Sync,
        coords: impl Fn(&P) -> (String, String),
        mut cols: impl FnMut(SystemKind, &P, &RunResult) -> (String, String),
    ) -> Res<Vec<Vec<Option<RunResult>>>>
    where
        W: Workload + Sync,
        W::Output: PartialEq + Send,
        P: Sync,
    {
        writeln!(self.out, "{name}:")?;
        let cells: Vec<(SystemKind, &P)> = SystemKind::all()
            .into_iter()
            .flat_map(|system| points.iter().map(move |p| (system, p)))
            .collect();
        let results = lcm_sim::try_par_map(self.ctx.jobs, cells, |_, (system, p)| {
            let (mc, config) = setup(p);
            let (output, r, _) = execute(system, mc, config, w);
            (output, r)
        });
        let mut runs = Vec::new();
        for (system, slot) in SystemKind::all()
            .into_iter()
            .zip(results.chunks(points.len()))
        {
            let baseline = slot[0].as_ref().ok();
            let mut kept = Vec::with_capacity(points.len());
            for (p, result) in points.iter().zip(slot) {
                let (at, at_csv) = coords(p);
                let checked = match (result, baseline) {
                    (Err(e), _) => Err(e.clone()),
                    (Ok(_), None) => Err("no baseline to check against".to_string()),
                    (Ok((output, _)), Some((base, _))) if output != base => {
                        Err("output diverged from the baseline".to_string())
                    }
                    (Ok((_, r)), Some((_, base))) => Ok((r, r.time as f64 / base.time as f64)),
                };
                let (r, slowdown) = match checked {
                    Ok(run) => run,
                    Err(why) => {
                        let at = at.trim_end();
                        let failure = format!("{name}/{system} {at}: {why}");
                        self.ctx.failures.borrow_mut().push(failure);
                        kept.push(None);
                        continue;
                    }
                };
                let (extra, extra_csv) = cols(system, p, r);
                let (label, time) = (system.label(), r.time);
                writeln!(
                    self.out,
                    "  {label:<8} {at} {time:>13} cycles ({slowdown:>5.2}x)  {extra}"
                )?;
                writeln!(
                    self.csv,
                    "{name},{system},{at_csv},{time},{slowdown:.4},{extra_csv}"
                )?;
                kept.push(Some(r.clone()));
            }
            runs.push(kept);
        }
        Ok(runs)
    }
}

// ========================================================= capture sections

/// Swept link bandwidths of the explore grid (bytes/cycle; 0 = unlimited).
const EXPLORE_BANDWIDTHS: [u64; 4] = [0, 64, 16, 4];
/// Swept remote-miss latencies of the explore grid (cycles).
const EXPLORE_LATENCIES: [u64; 3] = [500, 3000, 12000];
/// The benchmarks of the explore and serve trace set, each captured on
/// all three systems.
const TRACE_SET: [&str; 2] = ["Reduction", "Stencil-dyn"];

/// A trace-set capture's name, e.g. `stencil-dyn-lcm-mcc`.
fn trace_name(bench: &str, system: SystemKind) -> String {
    format!("{}-{}", bench.to_lowercase(), system.label().to_lowercase())
}

/// Captures one trace-set member and validates it against its
/// execution-driven run.
fn capture_validated(bench: &str, scale: Scale, system: SystemKind) -> Result<TraceFile, String> {
    let label = scale.to_string();
    let mc = MachineConfig::new(scale.nodes()).with_cost(CostModel::cm5());
    let file = match bench {
        "Reduction" => {
            let w = ReductionSum(reduction_worksize(scale));
            explore::capture_workload(bench, &label, system, mc, &w)
        }
        _ => explore::capture_workload(bench, &label, system, mc, &stencil_dyn(scale)),
    }?;
    lcm_replay::validate(&file)
        .map_err(|e| format!("capture {bench}/{system} failed validation: {e}"))?;
    Ok(file)
}

/// The design-space exploration: capture each trace-set pair once (one
/// at a time: medium captures run to millions of events), validate it,
/// then re-price it across the bandwidth × latency grid with the replay
/// engine. With `--csv`, every capture is also saved as a `.lcmtrace`.
fn design_space(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    writeln!(
        out,
        "== Design-space exploration: replayed cost-model grid (scale '{}') ==",
        ctx.scale
    )?;
    out.write_str(
        "   each (benchmark, system) pair executes once in capture mode; every grid
   point below is the trace re-priced by lcm-replay, not a re-execution,
   and each capture is validated to reproduce its execution-driven run
",
    )?;
    let mut files = Files::new();
    let mut rows = Vec::new();
    let (mut events, mut capture_secs, mut replay_secs) = (0, 0.0, 0.0);
    for bench in TRACE_SET {
        for system in SystemKind::all() {
            let t0 = Instant::now();
            let trace = capture_validated(bench, ctx.scale, system)?;
            capture_secs += t0.elapsed().as_secs_f64();
            if ctx.csv.is_some() {
                let name = format!("{}.lcmtrace", trace_name(bench, system));
                files.push(file(&name, trace.to_bytes()));
            }
            events += trace.event_count();
            let t1 = Instant::now();
            rows.extend(explore::explore_grid(
                &[Arc::new(trace)],
                &EXPLORE_BANDWIDTHS,
                &EXPLORE_LATENCIES,
                ctx.jobs,
            ));
            replay_secs += t1.elapsed().as_secs_f64();
        }
    }
    writeln!(
        out,
        "   {} traces ({events} events) captured+validated; {} grid points replayed",
        TRACE_SET.len() * SystemKind::all().len(),
        rows.len()
    )?;
    eprintln!("   (wall-clock: capture+validate {capture_secs:.1}s, replay {replay_secs:.2}s)");
    writeln!(
        out,
        "  {:<12} {:<9} {:>10} | {:>13} {:>13} {:>13}",
        "benchmark", "system", "bandwidth", "lat=500", "lat=3000", "lat=12000"
    )?;
    for chunk in rows.chunks(EXPLORE_LATENCIES.len()) {
        let r = &chunk[0];
        let times: Vec<String> = chunk.iter().map(|r| r.time.to_string()).collect();
        writeln!(
            out,
            "  {:<12} {:<9} {:>10} | {:>13} {:>13} {:>13}",
            r.benchmark,
            r.system,
            bw_label(r.bandwidth),
            times[0],
            times[1],
            times[2]
        )?;
    }
    writeln!(out)?;
    files.push(file("explore.csv", explore::explore_csv(&rows)));
    Ok(files)
}

/// Link bandwidth (bytes/cycle) of the `critpath` section's captures:
/// finite, so network contention exists and the on-path vs slack-hidden
/// split has something to say about it.
const CRITPATH_BANDWIDTH: u64 = 16;

/// Chrome-trace export cap for `--flow-trace`: beyond this many capture
/// events the JSON becomes unloadable, so the export keeps a prefix and
/// says so on stderr.
const FLOW_EXPORT_EVENTS: usize = 4_000_000;

/// One analyzed capture of the `critpath` section. The edge list is
/// already summarized (latency rows, optional flow JSON) and dropped by
/// the worker, so nine captures' edges never coexist in memory.
struct CritOut {
    benchmark: &'static str,
    system: SystemKind,
    cp: lcm_replay::CritPath,
    whatifs: Vec<critpath::WhatIfRow>,
    latency: Vec<report::MsgLatencyRow>,
    flow_json: Option<(String, usize)>,
}

/// Captures one benchmark×system execution at finite bandwidth, runs the
/// happens-before analysis, and validates its what-if projections
/// against genuine replays under modified cost models.
fn critpath_one(
    bench: usize,
    system: SystemKind,
    scale: Scale,
    want_flow: bool,
) -> Result<CritOut, String> {
    let cost = CostModel::cm5().with_link_bandwidth(CRITPATH_BANDWIDTH);
    let mc = MachineConfig::new(scale.nodes()).with_cost(cost);
    let label = scale.to_string();
    let benchmark = ["Stencil-dyn", "Threshold", "Unstructured"][bench.min(2)];
    let file = match bench {
        0 => explore::capture_workload(benchmark, &label, system, mc, &stencil_dyn(scale)),
        1 => explore::capture_workload(benchmark, &label, system, mc, &threshold(scale)),
        _ => explore::capture_workload(benchmark, &label, system, mc, &unstructured(scale)),
    }?;
    let system_label = system.label();
    lcm_replay::validate(&file)
        .map_err(|e| format!("{benchmark}/{system_label}: capture failed validation: {e}"))?;
    let mut cp = lcm_replay::analyze(&file);
    if cp.path_length() != cp.makespan {
        return Err(format!(
            "{benchmark}/{system_label}: path length {} != makespan {}",
            cp.path_length(),
            cp.makespan
        ));
    }
    let mut whatifs = critpath::top_whatifs(&cp, 10);
    // Exactly-checkable projection: zeroing `net_contention` must equal a
    // genuine replay of the same trace at unlimited bandwidth, because no
    // other charge in the stream depends on the link model. A mismatch
    // means the analyzer's cost arithmetic diverged from the engine's —
    // fail the section rather than print a wrong projection.
    let mut bw0 = file.cost;
    bw0.link_bandwidth_bytes_per_cycle = 0;
    let r0 = lcm_replay::replay(&file, &bw0, file.topology);
    let nc0 = cp.whatif(&[CycleCat::NetContention], 0);
    if nc0 != r0.time {
        return Err(format!(
            "{benchmark}/{system_label}: what-if net_contention x0% projects {nc0} cycles but \
             a zero-bandwidth replay takes {}",
            r0.time
        ));
    }
    let note = format!("exact;replay={}", r0.time);
    match whatifs.iter_mut().find(|w| w.item == "net_contention x0%") {
        Some(w) => w.note = note,
        None => whatifs.push(critpath::WhatIfRow {
            item: "net_contention x0%".to_string(),
            predicted: nc0,
            note,
        }),
    }
    // Tolerance-checked projection: doubling the remote-stall categories
    // vs a genuine replay with `remote_miss` doubled. These diverge where
    // the engine prices a charge by `remote_miss - msg_send` rather than
    // proportionally (§4h documents the limit); the measured error is
    // reported in the row's note.
    let mut rm2 = file.cost;
    rm2.remote_miss *= 2;
    let r2 = lcm_replay::replay(&file, &rm2, file.topology);
    let pred2 = cp.whatif(
        &[CycleCat::ReadStallRemote, CycleCat::WriteStallRemote],
        200,
    );
    let err2 = 100.0 * (pred2 as f64 - r2.time as f64) / r2.time as f64;
    whatifs.push(critpath::WhatIfRow {
        item: "remote_stalls x200%".to_string(),
        predicted: pred2,
        note: format!("replay={};err={err2:+.2}%", r2.time),
    });
    let latency = critpath::msg_latency_rows(benchmark, system_label, &cp);
    let flow_json =
        (want_flow && benchmark == "Stencil-dyn" && system == SystemKind::LcmMcc).then(|| {
            // Event `seq`s are positions, so the export keeps the edges
            // whose ends both fall before the cut.
            let cut = file.event_count().min(FLOW_EXPORT_EVENTS);
            let cut_seq = cut as u64;
            cp.edges
                .retain(|e| e.send_seq < cut_seq && e.recv_seq < cut_seq);
            let (flows, path) = critpath::flow_annotations(&cp);
            (
                profile::chrome_trace_json(file.events().take(cut), file.nodes, &[], &flows, &path),
                file.event_count() - cut,
            )
        });
    cp.edges = Vec::new();
    Ok(CritOut {
        benchmark,
        system,
        cp,
        whatifs,
        latency,
        flow_json,
    })
}

/// The `critpath` section: capture every benchmark×system pair at finite
/// bandwidth, run the happens-before analysis, print per-pair reports
/// and the on-path vs slack-hidden headline table.
fn critical_path(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    write!(
        out,
        "== Critical path: happens-before analysis of captured executions ==
   each benchmark×system pair executes once in capture mode with
   {CRITPATH_BANDWIDTH} B/cy links; the happens-before walk reproduces the makespan
   bit-exactly, splits every ledger category into on-path vs slack-
   hidden cycles, and projects causal what-ifs (validated against
   genuine replays under modified cost models)
"
    )?;
    let (scale, want_flow) = (ctx.scale, ctx.flow_trace.is_some());
    let t0 = Instant::now();
    let items: Vec<(usize, SystemKind)> = (0..3)
        .flat_map(|b| SystemKind::all().into_iter().map(move |s| (b, s)))
        .collect();
    let outs = lcm_sim::par_map(ctx.jobs, items, |_, (bench, system)| {
        critpath_one(bench, system, scale, want_flow)
    })
    .into_iter()
    .collect::<Result<Vec<CritOut>, String>>()
    .map_err(|e| format!("critpath: {e}"))?;
    eprintln!(
        "   (wall-clock: capture+analyze {:.1}s)",
        t0.elapsed().as_secs_f64()
    );
    for o in &outs {
        writeln!(out, "-- {} / {} --", o.benchmark, o.system.label())?;
        writeln!(out, "{}", critpath::critpath_report(&o.cp, &o.whatifs))?;
    }
    out.write_str(
        "net contention, on-path share (the flat ledger counts every stall;
only the on-path fraction actually bounds the run):
",
    )?;
    writeln!(
        out,
        "  {:<14} {:>24} {:>24}",
        "benchmark", "Stache", "LCM-mcc"
    )?;
    let cell = |bench: &str, sys: SystemKind| -> String {
        outs.iter()
            .find(|o| o.benchmark == bench && o.system == sys)
            .map_or("-".to_string(), |o| {
                let i = CycleCat::NetContention.index();
                let (on, tot) = (o.cp.on_path_by_cat()[i], o.cp.total_by_cat()[i]);
                if tot == 0 {
                    "none".to_string()
                } else {
                    format!("{:.1}% of {tot}", 100.0 * on as f64 / tot as f64)
                }
            })
    };
    for bench in ["Stencil-dyn", "Threshold", "Unstructured"] {
        writeln!(
            out,
            "  {bench:<14} {:>24} {:>24}",
            cell(bench, SystemKind::Stache),
            cell(bench, SystemKind::LcmMcc)
        )?;
    }
    writeln!(out)?;
    let mut latency: Vec<report::MsgLatencyRow> = Vec::new();
    let mut entries = Vec::new();
    for o in outs {
        if let (Some(path), Some((json, truncated))) = (&ctx.flow_trace, &o.flow_json) {
            write_path(path, json.as_bytes())?;
            eprintln!(
                "   flow-annotated Chrome-trace JSON written to {} — load it at \
                 ui.perfetto.dev and follow the send→recv arrows",
                path.display()
            );
            if *truncated > 0 {
                eprintln!(
                    "   (export truncated: {truncated} events past the first \
                     {FLOW_EXPORT_EVENTS} were dropped, with their flow arrows)"
                );
            }
        }
        latency.extend(o.latency);
        entries.push((
            o.benchmark.to_string(),
            o.system.label().to_string(),
            o.cp,
            o.whatifs,
        ));
    }
    let mut files = vec![file("critpath.csv", critpath::critpath_csv(&entries))];
    // The one cross-section coupling: when this run also built the suite,
    // `messages.csv` (written plain by `table1`, earlier in run order)
    // gains the captures' delivery-latency columns.
    if let Some(suite) = ctx.suite.get() {
        let messages = report::messages_csv(suite, &latency);
        files.push(file("messages.csv", messages));
    }
    Ok(files)
}

/// The cycle-attribution profile: Stencil-dyn on all three systems with
/// tracing on, per-node cycle breakdowns, hottest blocks, and message
/// histograms. `--trace FILE` also exports the LCM-mcc event stream as
/// Chrome-trace JSON.
fn cycle_profile(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    out.write_str(
        "== Cycle-attribution profile: Stencil-dyn, every cycle to a category ==
   (per-node category sums are conservation-checked against the clocks
   by the sanitizer on every harvest)
",
    )?;
    let nodes = ctx.scale.nodes();
    let w = stencil_dyn(ctx.scale);
    // The three traced runs execute concurrently; reports print in the
    // fixed system order afterwards.
    let traced = lcm_sim::par_map(ctx.jobs, SystemKind::all().to_vec(), |_, system| {
        let mc = MachineConfig::new(nodes).with_trace(2_000_000);
        let (_, r, trace) = execute(system, mc, RuntimeConfig::default(), &w);
        (r, trace)
    });
    let cost = CostModel::cm5();
    let mut results = Vec::new();
    for (system, (r, trace)) in SystemKind::all().into_iter().zip(traced) {
        writeln!(
            out,
            "{}",
            profile::profile_report(&r, trace.events(), &cost)
        )?;
        if let (SystemKind::LcmMcc, Some(path)) = (system, &ctx.trace) {
            write_path(
                path,
                profile::chrome_trace_json(trace.events(), nodes, &[], &[], &[]).as_bytes(),
            )?;
            eprintln!(
                "Chrome-trace JSON ({} events) written to {} — load it at \
                 ui.perfetto.dev or chrome://tracing",
                trace.len(),
                path.display()
            );
        }
        results.push(r);
    }
    // Critical-path drill-down: one more LCM-mcc execution in capture
    // mode, analyzed by the happens-before walk. The flat breakdown above
    // counts every charged cycle; this splits each category into cycles
    // on the critical path vs cycles hidden behind a slower node.
    writeln!(
        out,
        "-- critical-path drill-down (LCM-mcc, captured execution) --"
    )?;
    let mc = MachineConfig::new(nodes).with_cost(CostModel::cm5());
    let label = ctx.scale.to_string();
    match explore::capture_workload("Stencil-dyn", &label, SystemKind::LcmMcc, mc, &w) {
        Ok(file) => {
            let cp = lcm_replay::analyze(&file);
            write!(out, "{}", critpath::drilldown_table(&cp))?;
            writeln!(
                out,
                "  path length {} == makespan {} ({} epochs); run the `critpath` \
                 section for slack histograms and what-ifs",
                cp.path_length(),
                cp.makespan,
                cp.epochs.len()
            )?;
        }
        // Deterministic for a given scale, so stdout stays --jobs-stable.
        Err(e) => writeln!(out, "  drill-down unavailable: {e}")?,
    }
    writeln!(out)?;
    let entries: Vec<(&str, &RunResult)> = results.iter().map(|r| ("Stencil-dyn", r)).collect();
    Ok(vec![
        file("profile.csv", profile::profile_csv(&entries)),
        file("phases.csv", profile::phases_csv(&entries)),
    ])
}

// ========================================================= recovery & scale

/// Default crash rates of the recovery sweep (0 is run separately as the
/// per-system baseline every slowdown and output check measures against).
const RECOVERY_RATES: [f64; 2] = [0.05, 0.2];
/// Swept checkpoint granularities: checkpoint every N-th phase boundary.
const RECOVERY_EVERY: [u64; 2] = [1, 4];
/// Default crash-schedule seed of the recovery sweep.
const RECOVERY_SEED: u64 = 0x5EED;

/// Per-system accumulation across the whole recovery grid, for
/// `BENCH_recovery.json`.
#[derive(Default, Clone, Copy)]
struct RecoveryAgg {
    runs: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    crashes: u64,
    checkpoint_cycles: u64,
    rollback_cycles: u64,
    crash_detect_cycles: u64,
}

/// The adaptive-mesh workload of the recovery sweep.
fn recovery_adaptive(scale: Scale) -> lcm_apps::adaptive::Adaptive {
    use lcm_apps::adaptive::Adaptive;
    match scale {
        Scale::Paper => Adaptive::paper(Partition::Dynamic),
        Scale::Medium => Adaptive {
            size: 64,
            iters: 40,
            ..Adaptive::paper(Partition::Dynamic)
        },
        Scale::Smoke => Adaptive::small(Partition::Dynamic),
    }
}

/// Crash rates and seed of the `recovery` sweep (the crash-free
/// baseline is not among the rates).
fn crash_rates(ctx: &Ctx) -> (Vec<f64>, u64) {
    swept_rates(&RECOVERY_RATES, ctx.crash, RECOVERY_SEED)
}

/// The fail-stop recovery sweep: crash rate × checkpoint granularity over
/// the Fig-3 benchmarks (plus Reduction and Stencil) × 3 systems. A
/// failing grid point is recorded in [`Ctx::failures`] and skipped, so
/// the rest of the sweep and its files still complete.
fn recovery(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    let (_, seed) = crash_rates(ctx);
    write!(
        out,
        "== Fail-stop recovery: crash rate x checkpoint granularity (seed {seed}) ==
   every phase boundary may checkpoint; a crashed node rolls back to the
   last checkpoint and re-executes, so crashes change cycles and statistics
   only — outputs are checked bit-identical to the crash-free run. LCM
   checkpoints only unreconciled modified words; Stache must capture its
   directory plus every dirty line — that asymmetry is the point.
"
    )?;
    let scale = ctx.scale;
    let mut g = Grid {
        ctx,
        out,
        csv: "benchmark,system,crash_rate,crash_seed,checkpoint_every,cycles,slowdown,crashes,checkpoints,checkpoint_bytes,checkpoint_cycles,rollback_cycles,crash_detect_cycles\n".to_string(),
    };
    let mut aggs = [RecoveryAgg::default(); 3];
    let red = ReductionSum(reduction_worksize(scale));
    recovery_grid(&mut g, "Reduction", &red, &mut aggs)?;
    recovery_grid(&mut g, "Stencil-dyn", &stencil_dyn(scale), &mut aggs)?;
    let adaptive = recovery_adaptive(scale);
    recovery_grid(&mut g, "Adaptive-dyn", &adaptive, &mut aggs)?;
    recovery_grid(&mut g, "Threshold", &threshold(scale), &mut aggs)?;
    recovery_grid(&mut g, "Unstructured", &unstructured(scale), &mut aggs)?;
    let mut json =
        format!("{{\n  \"scale\": \"{scale}\",\n  \"crash_seed\": {seed},\n  \"systems\": [\n");
    for (si, system) in SystemKind::all().into_iter().enumerate() {
        let a = &aggs[si];
        writeln!(
            json,
            "    {{\"system\": \"{}\", \"runs\": {}, \"checkpoints\": {}, \
             \"checkpoint_bytes\": {}, \"crashes\": {}, \"checkpoint_cycles\": {}, \
             \"rollback_cycles\": {}, \"crash_detect_cycles\": {}}}{}",
            system.label(),
            a.runs,
            a.checkpoints,
            a.checkpoint_bytes,
            a.crashes,
            a.checkpoint_cycles,
            a.rollback_cycles,
            a.crash_detect_cycles,
            if si + 1 < 3 { "," } else { "" },
        )?;
    }
    json.push_str("  ]\n}\n");
    writeln!(g.out)?;
    Ok(vec![
        file("recovery.csv", g.csv),
        file("BENCH_recovery.json", json),
    ])
}

/// One benchmark's `(system × crash rate × checkpoint granularity)`
/// grid, then the checkpoint-size asymmetry at the highest rate.
fn recovery_grid<W>(g: &mut Grid, name: &str, w: &W, aggs: &mut [RecoveryAgg; 3]) -> Res<()>
where
    W: Workload + Sync,
    W::Output: PartialEq + Send,
{
    let (rates, seed) = crash_rates(g.ctx);
    // The crash-free baseline first; an inactive plan never checkpoints,
    // so its granularity does not matter.
    let points: Vec<(f64, u64)> = std::iter::once((0.0, 1))
        .chain(
            rates
                .iter()
                .flat_map(|&r| RECOVERY_EVERY.map(|every| (r, every))),
        )
        .collect();
    let nodes = g.ctx.scale.nodes();
    let runs = g.run(
        name,
        w,
        &points,
        |&(rate, every)| {
            let config = RuntimeConfig {
                crash: CrashPlan::new(rate, seed),
                checkpoint_every: every,
                ..RuntimeConfig::default()
            };
            (MachineConfig::new(nodes), config)
        },
        |(rate, every)| {
            let at = format!("crash={rate:<5} every={every}");
            (at, format!("{rate},{seed},{every}"))
        },
        |system, _, r| {
            let t = &r.totals;
            let cats = r.ledger.totals();
            let ck_cycles = cats[CycleCat::Checkpoint.index()];
            let rb_cycles = cats[CycleCat::Rollback.index()];
            let det_cycles = cats[CycleCat::CrashDetect.index()];
            let agg = &mut aggs[system.index()];
            agg.runs += 1;
            agg.checkpoints += t.checkpoints;
            agg.checkpoint_bytes += t.checkpoint_bytes;
            agg.crashes += t.crashes;
            agg.checkpoint_cycles += ck_cycles;
            agg.rollback_cycles += rb_cycles;
            agg.crash_detect_cycles += det_cycles;
            let (crashes, ckpts, bytes) = (t.crashes, t.checkpoints, t.checkpoint_bytes);
            (
                format!(
                    "crashes={crashes:<3} ckpts={ckpts:<4} ckpt_bytes={bytes:<9} rollback_cy={rb_cycles}"
                ),
                format!("{crashes},{ckpts},{bytes},{ck_cycles},{rb_cycles},{det_cycles}"),
            )
        },
    )?;
    // The headline asymmetry, per benchmark: what one full checkpoint
    // schedule costs each protocol at the highest swept rate.
    let at_max = points.len() - RECOVERY_EVERY.len();
    let bytes = |s: SystemKind| {
        runs[s.index()][at_max]
            .as_ref()
            .map(|r| r.totals.checkpoint_bytes)
    };
    if let (Some(mcc), Some(stache)) = (bytes(SystemKind::LcmMcc), bytes(SystemKind::Stache)) {
        writeln!(
            g.out,
            "  checkpoint bytes at crash={} every=1: LCM-mcc {} vs Stache {} ({:.2}x)",
            rates[rates.len() - 1],
            mcc,
            stache,
            stache as f64 / mcc.max(1) as f64
        )?;
    }
    Ok(())
}

/// The kilonode scale sweep: five benchmarks × 3 systems × 3 directory
/// backends across machines of 32→1024 nodes (32 and 64 at `--scale
/// smoke`). Prints the divergence and backend-overhead summaries.
fn scale(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    use lcm_apps::scale_sweep::{scale_benchmarks, sweep_scale, ScaleRow, SCALE_NODE_COUNTS};
    use lcm_sim::DirBackend;
    let node_counts: &[usize] = match ctx.scale {
        Scale::Smoke => &SCALE_NODE_COUNTS[..2],
        Scale::Medium | Scale::Paper => &SCALE_NODE_COUNTS,
    };
    writeln!(
        out,
        "== Scale: directory backends from the paper's 32 nodes to {} ==",
        node_counts[node_counts.len() - 1]
    )?;
    out.write_str(
        "   full-map invalidates exactly; limited-ptr entries that overflow their
   pointers broadcast to the whole machine; coarse-vec invalidates whole
   node groups. The defaults re-spend the old 64-bit budget, so all three
   are bit-identical up to 64 nodes and diverge only beyond the old wall.\n
",
    )?;
    // Failures come back tagged with their sweep key, so one bad grid
    // point names itself instead of an anonymous panic.
    let rows = sweep_scale(node_counts, ctx.jobs).map_err(|failures| {
        format!(
            "scale: {} grid point(s) failed:\n  {}",
            failures.len(),
            failures.join("\n  ")
        )
    })?;

    let mut csv = String::from(
        "benchmark,system,backend,nodes,cycles,misses,msgs,invalidations_sent,\
         dir_overflows,spurious_invals,msg_overhead_cycles,digest\n",
    );
    for row in &rows {
        let r = &row.result;
        let msgs: u64 = r.msg_kinds.iter().map(|(_, c)| c).sum();
        let msg_overhead: u64 = (0..row.nodes)
            .map(|n| r.ledger.get(NodeId(n as u16), CycleCat::MsgOverhead))
            .sum();
        writeln!(
            csv,
            "{},{},{},{},{},{},{},{},{},{},{},{:016x}",
            row.benchmark.label(),
            r.system.label(),
            row.backend.label(),
            row.nodes,
            r.time,
            r.misses(),
            msgs,
            r.totals.invalidations_sent,
            r.totals.dir_overflows,
            r.totals.spurious_invals,
            msg_overhead,
            r.digest(),
        )?;
    }

    let find = |b, nodes, sys, backend: DirBackend| -> &ScaleRow {
        rows.iter()
            .find(|r| {
                r.benchmark == b
                    && r.nodes == nodes
                    && r.result.system == sys
                    && r.backend == backend
            })
            .expect("grid is complete")
    };
    let time = |b, nodes, sys, backend| find(b, nodes, sys, backend).result.time;

    writeln!(out, "   Stache vs LCM-mcc, full-map (cycles, ratio):")?;
    writeln!(
        out,
        "   {:<14} {:>6} {:>12} {:>12} {:>7}",
        "benchmark", "nodes", "stache", "lcm-mcc", "ratio"
    )?;
    for b in scale_benchmarks() {
        for &nodes in node_counts {
            let st = time(b, nodes, SystemKind::Stache, DirBackend::FullMap);
            let mcc = time(b, nodes, SystemKind::LcmMcc, DirBackend::FullMap);
            writeln!(
                out,
                "   {:<14} {:>6} {:>12} {:>12} {:>6.2}x",
                b.label(),
                nodes,
                st,
                mcc,
                st as f64 / mcc.max(1) as f64
            )?;
        }
    }
    out.write_str(
        "
   backend overhead under Stache (cycles vs full-map; overflow costs):
",
    )?;
    writeln!(
        out,
        "   {:<14} {:>6} {:<12} {:>12} {:>8} {:>10} {:>12}",
        "benchmark", "nodes", "backend", "cycles", "vs full", "overflows", "spurious"
    )?;
    let backends = [
        DirBackend::LimitedPtr { ptrs: 64 },
        DirBackend::CoarseVec { bits: 64 },
    ];
    for b in scale_benchmarks() {
        for &nodes in node_counts {
            let full = time(b, nodes, SystemKind::Stache, DirBackend::FullMap);
            for backend in backends {
                let r = &find(b, nodes, SystemKind::Stache, backend).result;
                writeln!(
                    out,
                    "   {:<14} {:>6} {:<12} {:>12} {:>7.2}x {:>10} {:>12}",
                    b.label(),
                    nodes,
                    backend.label(),
                    r.time,
                    r.time as f64 / full.max(1) as f64,
                    r.totals.dir_overflows,
                    r.totals.spurious_invals,
                )?;
            }
        }
    }
    writeln!(out)?;

    // BENCH_scale.json: the divergence trend and overflow totals, summed
    // over benchmarks, for trend-tracking across releases.
    let counts: Vec<String> = node_counts.iter().map(|n| n.to_string()).collect();
    let mut json = format!(
        "{{\n  \"node_counts\": [{}],\n  \"divergence_full_map\": [\n",
        counts.join(", ")
    );
    for (i, &nodes) in node_counts.iter().enumerate() {
        let sum = |sys| -> u64 {
            scale_benchmarks()
                .into_iter()
                .map(|b| time(b, nodes, sys, DirBackend::FullMap))
                .sum()
        };
        let (st, mcc) = (sum(SystemKind::Stache), sum(SystemKind::LcmMcc));
        writeln!(
            json,
            "    {{\"nodes\": {nodes}, \"stache_cycles\": {st}, \"lcm_mcc_cycles\": {mcc}, \
             \"ratio\": {:.4}}}{}",
            st as f64 / mcc.max(1) as f64,
            if i + 1 < node_counts.len() { "," } else { "" },
        )?;
    }
    json.push_str("  ],\n  \"backend_overhead_stache\": [\n");
    for (bi, backend) in backends.into_iter().enumerate() {
        for (i, &nodes) in node_counts.iter().enumerate() {
            let (mut cycles, mut full, mut ovf, mut spur) = (0u64, 0u64, 0u64, 0u64);
            for b in scale_benchmarks() {
                let r = &find(b, nodes, SystemKind::Stache, backend).result;
                cycles += r.time;
                ovf += r.totals.dir_overflows;
                spur += r.totals.spurious_invals;
                full += time(b, nodes, SystemKind::Stache, DirBackend::FullMap);
            }
            let last = bi + 1 == backends.len() && i + 1 == node_counts.len();
            writeln!(
                json,
                "    {{\"backend\": \"{}\", \"nodes\": {nodes}, \"cycles\": {cycles}, \
                 \"vs_full_map\": {:.4}, \"dir_overflows\": {ovf}, \"spurious_invals\": {spur}}}{}",
                backend.label(),
                cycles as f64 / full.max(1) as f64,
                if last { "" } else { "," },
            )?;
        }
    }
    json.push_str("  ]\n}\n");
    Ok(vec![file("scale.csv", csv), file("BENCH_scale.json", json)])
}

// ================================================================ host time

/// The `bench` section: runs every `all` section at `--jobs 1` and at
/// the effective pool size into buffers, fails unless both legs print
/// the same stdout and files byte for byte, and writes the wall-clock
/// trajectory to `BENCH_sweep.json`. Each leg builds its own suite,
/// timed under `table1`, the first section that reads it.
fn bench(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    let mut report = BenchReport::new(&ctx.scale.to_string(), ctx.jobs);
    // Time the pooled legs at the *effective* worker count: more workers
    // than cores measures oversubscription, not pool speedup. Both counts
    // land in BENCH_sweep.json.
    let jobs = report.effective_jobs;
    if report.oversubscribed() {
        eprintln!(
            "warning: --jobs {} exceeds the host's {} core(s); timing the pooled legs at \
             {jobs} worker(s)",
            ctx.jobs, report.host_cores
        );
    }
    writeln!(
        out,
        "== Wall-clock bench: each `all` section serially and on the pool, scale '{}' ==",
        ctx.scale
    )?;
    let serial = Ctx::new(ctx.scale, 1);
    let pooled = Ctx::new(ctx.scale, jobs);
    let mut sections = 0;
    for s in SECTIONS.iter().filter(|s| s.in_all) {
        let leg = |c: &Ctx| -> Res<(String, Files)> {
            let mut text = String::new();
            let files = (s.run)(c, &mut text)?;
            Ok((text, files))
        };
        let (a, b) = report.time_section(s.name, || leg(&serial), || leg(&pooled));
        let ((text_a, files_a), (text_b, files_b)) = (a?, b?);
        let names = |f: &Files| f.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
        let differs = if text_a != text_b {
            Some("stdout".to_string())
        } else if names(&files_a) != names(&files_b) {
            Some("the set of files".to_string())
        } else {
            files_a
                .iter()
                .zip(&files_b)
                .find(|(x, y)| x.1 != y.1)
                .map(|(x, _)| x.0.clone())
        };
        if let Some(what) = differs {
            return Err(format!(
                "bench: section `{}` differs in {what} between --jobs 1 and --jobs {jobs}",
                s.name
            )
            .into());
        }
        let t = report.sections.last().expect("just timed");
        eprintln!(
            "  {:<11} serial {:>8.2}s   jobs={jobs} {:>8.2}s   speedup {:.2}x",
            t.section,
            t.serial_secs,
            t.parallel_secs,
            t.speedup()
        );
        sections += 1;
    }
    eprintln!(
        "  {:<11} serial {:>8.2}s   jobs={jobs} {:>8.2}s   speedup {:.2}x",
        "total",
        report.total_serial(),
        report.total_parallel(),
        report.speedup()
    );
    writeln!(
        out,
        "  {sections} sections: stdout and files byte-identical between the two legs\n"
    )?;
    Ok(vec![file("BENCH_sweep.json", report.to_json())])
}

// ==================================================================== serve

/// Captures the serve section's default trace set on `jobs` workers.
fn serve_trace_set(scale: Scale, jobs: usize) -> Result<Vec<(String, TraceHandle)>, String> {
    let specs: Vec<(&str, SystemKind)> = TRACE_SET
        .into_iter()
        .flat_map(|b| SystemKind::all().map(|s| (b, s)))
        .collect();
    lcm_sim::par_map(jobs, specs, |_, (bench, system)| {
        let file = capture_validated(bench, scale, system)?;
        Ok((trace_name(bench, system), Arc::new(file)))
    })
    .into_iter()
    .collect()
}

/// Loads every `.lcmtrace` in `dir` (sorted by name) as shared handles.
fn serve_load_dir(dir: &Path) -> Result<Vec<(String, TraceHandle)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("--traces {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "lcmtrace"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!(
            "--traces {}: no .lcmtrace files found",
            dir.display()
        ));
    }
    paths
        .into_iter()
        .map(|p| {
            let name = p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| p.display().to_string());
            Ok((name, Arc::new(TraceFile::read_from(&p)?)))
        })
        .collect()
}

/// The full serve query grid: every loaded trace at every explore
/// (bandwidth, latency) point, in fixed grid order.
fn serve_grid(engine: &lcm_serve::ServeEngine) -> Vec<lcm_serve::Query> {
    let mut queries = Vec::new();
    for t in engine.traces() {
        for bw in EXPLORE_BANDWIDTHS {
            for lat in EXPLORE_LATENCIES {
                queries.push(lcm_serve::Query {
                    trace: t.name.clone(),
                    cost: CostModel::cm5_grid(bw, lat),
                    topology: t.handle.topology,
                    backend: lcm_sim::DirBackend::FullMap,
                });
            }
        }
    }
    queries
}

/// Names a grid query in self-check failures.
fn query_label(q: &lcm_serve::Query) -> String {
    format!(
        "{} bw={} lat={}",
        q.trace, q.cost.link_bandwidth_bytes_per_cycle, q.cost.remote_miss
    )
}

/// The `serve` section. Three modes:
///
/// * default — a self-check: batched == sequential, differential ==
///   full replay on every grid point, cached rerun byte-identical, and
///   a real TCP roundtrip (including a corrupt frame answered with a
///   named error, and two pipelined frames answered in order) agreeing
///   with the in-process engine.
/// * `--bench` — a closed-loop load generator writing
///   `BENCH_serve.json` (per-query cold/differential/cached costs and
///   qps + p50/p99 across client counts).
/// * `--listen ADDR` — a resident server until a client SHUTDOWN.
///
/// `--traces DIR` serves captured `.lcmtrace` files instead of
/// capturing the default explore set.
fn serve(ctx: &Ctx, out: &mut dyn Write) -> Res<Files> {
    let (scale, jobs) = (ctx.scale, ctx.jobs);
    let t0 = Instant::now();
    let traces = match &ctx.traces {
        Some(dir) => serve_load_dir(dir)?,
        None => serve_trace_set(scale, jobs)?,
    };
    let mut engine = lcm_serve::ServeEngine::new();
    let mut events = 0usize;
    for (name, handle) in traces {
        events += handle.event_count();
        engine.load(&name, handle);
    }
    let engine = Arc::new(engine);
    eprintln!(
        "   (wall-clock: {} trace(s) loaded+indexed in {:.1}s)",
        engine.traces().len(),
        t0.elapsed().as_secs_f64()
    );
    let serve_err = |e: String| format!("serve: {e}");

    if let Some(addr) = &ctx.listen {
        let server =
            lcm_serve::Server::start(addr, Arc::clone(&engine), jobs).map_err(serve_err)?;
        writeln!(
            out,
            "lcm-serve: {} trace(s) ({events} events) resident on {}",
            engine.traces().len(),
            server.addr
        )?;
        for t in engine.traces() {
            writeln!(
                out,
                "  {:<24} {:>3} nodes   fingerprint {:#018x}",
                t.name, t.handle.nodes, t.fingerprint
            )?;
        }
        writeln!(
            out,
            "(send a SHUTDOWN request to stop; protocol: crates/serve/src/proto.rs)"
        )?;
        server.wait();
        return Ok(Vec::new());
    }
    if ctx.serve_bench {
        return serve_bench(scale, jobs, &engine, out);
    }

    // ---- self-check: every identity the server's answers rest on.
    writeln!(out, "== lcm-serve self-check (scale '{scale}') ==")?;
    let queries = serve_grid(&engine);
    writeln!(
        out,
        "   {} trace(s), {} grid queries (bandwidth x latency explore grid)",
        engine.traces().len(),
        queries.len()
    )?;
    let failed = |what: &str, q: &lcm_serve::Query| {
        format!("serve self-check FAILED: {what} for {}", query_label(q))
    };

    let t1 = Instant::now();
    let batched = engine
        .query_batch(jobs, &queries)
        .into_iter()
        .collect::<Result<Vec<_>, String>>()
        .map_err(serve_err)?;
    eprintln!(
        "   (wall-clock: cold batch {:.2}s)",
        t1.elapsed().as_secs_f64()
    );

    // Batched == sequential, on a fresh engine so nothing is pre-cached.
    let mut sequential = lcm_serve::ServeEngine::new();
    for t in engine.traces() {
        sequential.load(&t.name, Arc::clone(&t.handle));
    }
    for (q, (br, _)) in queries.iter().zip(&batched) {
        let (sr, _) = sequential.query(q).map_err(serve_err)?;
        if **br != *sr {
            return Err(failed("batched result diverges from sequential", q).into());
        }
    }
    writeln!(
        out,
        "   batched == sequential: {} points byte-identical",
        queries.len()
    )?;

    // Differential == full event-walk replay, on every grid point.
    let failures: Vec<String> = lcm_sim::par_map(jobs, queries.clone(), |_, q| {
        engine
            .verify(&q)
            .err()
            .map(|e| format!("{}: {e}", query_label(&q)))
    })
    .into_iter()
    .flatten()
    .collect();
    if !failures.is_empty() {
        return Err(format!(
            "serve self-check FAILED: differential replay diverged:\n  {}",
            failures.join("\n  ")
        )
        .into());
    }
    writeln!(
        out,
        "   differential == full replay: {} points byte-identical",
        queries.len()
    )?;

    // A cached rerun answers every point from the cache, byte-for-byte.
    let rerun = engine.query_batch(jobs, &queries);
    for ((q, (first, _)), again) in queries.iter().zip(&batched).zip(rerun) {
        let (cached, class) = again.map_err(serve_err)?;
        if class != lcm_serve::QueryClass::Cached || !Arc::ptr_eq(first, &cached) {
            return Err(failed("rerun was not a cache hit", q).into());
        }
    }
    writeln!(
        out,
        "   cached rerun: {} points, all exact hits",
        queries.len()
    )?;

    // A real TCP roundtrip must agree with the in-process engine, and a
    // corrupt frame must come back as a named error, not a panic.
    let server =
        lcm_serve::Server::start("127.0.0.1:0", Arc::clone(&engine), jobs).map_err(serve_err)?;
    let addr = server.addr.to_string();
    let mut client = lcm_serve::Client::connect(&addr).map_err(serve_err)?;
    let listed = client
        .list()
        .map_err(|e| format!("serve: LIST failed: {e}"))?;
    if listed.len() != engine.traces().len() {
        return Err(format!(
            "serve self-check FAILED: LIST returned {} traces, engine holds {}",
            listed.len(),
            engine.traces().len()
        )
        .into());
    }
    let over_wire = client
        .query_batch(&queries)
        .map_err(|e| format!("serve: QUERY failed: {e}"))?;
    for ((q, (local, _)), wire) in queries.iter().zip(&batched).zip(&over_wire) {
        if **local != wire.result {
            return Err(failed("TCP result diverges from in-process", q).into());
        }
    }
    writeln!(
        out,
        "   TCP roundtrip: LIST + {}-query batch byte-identical to in-process",
        queries.len()
    )?;
    // Corrupt request on a raw socket: opcode 9 does not exist.
    {
        use std::io::Write as _;
        let mut raw = std::net::TcpStream::connect(&addr)
            .map_err(|e| format!("serve: raw connect failed: {e}"))?;
        raw.write_all(&1u32.to_le_bytes())
            .and_then(|()| raw.write_all(&[9u8]))
            .map_err(|e| format!("serve: raw write failed: {e}"))?;
        let frame = lcm_serve::proto::read_frame(&mut raw)
            .map_err(|e| format!("serve: corrupt-frame probe got no response: {e}"))?
            .ok_or_else(|| {
                "serve: corrupt-frame probe: connection closed without a response".to_string()
            })?;
        match lcm_serve::proto::decode_query_response(&frame) {
            Err(e) if e.contains("malformed request") => {
                writeln!(out, "   corrupt request: named error response ({e})")?;
            }
            other => {
                return Err(format!("serve self-check FAILED: corrupt frame got {other:?}").into())
            }
        }
    }
    // Two QUERY frames in one write: both answered, in order, each
    // byte-identical to the in-process engine.
    {
        use lcm_serve::proto::{encode_query_request, read_frame, write_frame};
        use std::io::Write as _;
        let probe_err = |e: String| format!("serve: pipelined-frames probe: {e}");
        let picks = [0, queries.len() - 1];
        let mut both = Vec::new();
        for &i in &picks {
            write_frame(&mut both, &encode_query_request(&queries[i..=i])).map_err(probe_err)?;
        }
        let mut raw = std::net::TcpStream::connect(&addr).map_err(|e| probe_err(e.to_string()))?;
        raw.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .and_then(|()| raw.write_all(&both))
            .map_err(|e| probe_err(e.to_string()))?;
        for &i in &picks {
            let frame = read_frame(&mut raw)
                .map_err(probe_err)?
                .ok_or_else(|| probe_err("connection closed before both answers".into()))?;
            let wire = lcm_serve::proto::decode_query_response(&frame).map_err(probe_err)?;
            if wire.len() != 1 || wire[0].result != *batched[i].0 {
                return Err(
                    failed("pipelined answer diverges from in-process", &queries[i]).into(),
                );
            }
        }
        writeln!(
            out,
            "   pipelined frames: 2 QUERY frames in one write, answered in order, \
             byte-identical to in-process"
        )?;
    }
    client
        .shutdown()
        .map_err(|e| format!("serve: SHUTDOWN failed: {e}"))?;
    server.wait();
    writeln!(out, "   shutdown: acknowledged and drained")?;
    let (cached, neighbor, differential) = engine.stats.snapshot();
    eprintln!(
        "   (engine counters: {cached} cached, {neighbor} neighbor, \
         {differential} differential)"
    );
    writeln!(out)?;
    Ok(Vec::new())
}

/// The `serve --bench` load generator: per-query engine-path costs plus
/// a closed-loop TCP sweep across client counts, written to
/// `BENCH_serve.json`. Every timing goes to stderr and the JSON.
fn serve_bench(
    scale: Scale,
    jobs: usize,
    engine: &Arc<lcm_serve::ServeEngine>,
    out: &mut dyn Write,
) -> Res<Files> {
    writeln!(out, "== lcm-serve load bench (scale '{scale}') ==")?;
    eprintln!("  {jobs} pool worker(s)");
    let queries = serve_grid(engine);
    let n = queries.len();
    let bench_err = |e: String| format!("serve bench: {e}");

    // Per-query engine paths, each averaged over the whole grid.
    let time_pass = |f: &dyn Fn(&lcm_serve::Query) -> Result<(), String>| {
        let t = Instant::now();
        for q in &queries {
            f(q).map_err(bench_err)?;
        }
        Ok::<f64, String>(t.elapsed().as_secs_f64() * 1e6 / n as f64)
    };
    let cold_full_us = time_pass(&|q| engine.query_full(q).map(drop))?;
    let entry_of = |q: &lcm_serve::Query| {
        engine
            .traces()
            .iter()
            .find(|t| t.name == q.trace)
            .expect("grid queries address loaded traces")
    };
    let differential_us = time_pass(&|q| {
        engine.replay_differential(entry_of(q), q);
        Ok(())
    })?;
    // Prime the cache, then time pure hits.
    time_pass(&|q| engine.query(q).map(drop))?;
    let cached_us = time_pass(&|q| engine.query(q).map(drop))?;
    eprintln!(
        "  per query: cold full replay {cold_full_us:.0}us   differential \
         {differential_us:.0}us   cached {cached_us:.1}us"
    );

    // Closed-loop TCP sweep: N clients, each issuing single-query
    // requests back-to-back over its own connection.
    let server =
        lcm_serve::Server::start("127.0.0.1:0", Arc::clone(engine), jobs).map_err(bench_err)?;
    let addr = server.addr.to_string();
    let reqs_per_client = match scale {
        Scale::Smoke => 60,
        _ => 240,
    };
    let mut sweep_rows = Vec::new();
    for clients in [1usize, 2, 4, 8] {
        let t = Instant::now();
        let client = |c: usize| -> Result<Vec<u64>, String> {
            let mut cl = lcm_serve::Client::connect(&addr)?;
            (0..reqs_per_client)
                .map(|i| {
                    let t = Instant::now();
                    cl.query(&queries[(c + i) % n])?;
                    Ok(t.elapsed().as_nanos() as u64)
                })
                .collect()
        };
        let per_client: Vec<Result<Vec<u64>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients).map(|c| s.spawn(move || client(c))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("bench client panicked"))
                .collect()
        });
        let mut all_lat = Vec::with_capacity(clients * reqs_per_client);
        for lat in per_client {
            all_lat.extend(lat.map_err(|e| format!("serve bench client: {e}"))?);
        }
        let wall = t.elapsed().as_secs_f64();
        all_lat.sort_unstable();
        let total = clients * reqs_per_client;
        let qps = total as f64 / wall;
        // Nanosecond samples, reported in fractional microseconds: at
        // ~16us a whole-microsecond step would be 6%.
        let p50 = profile::percentile(&all_lat, 50) as f64 / 1e3;
        let p99 = profile::percentile(&all_lat, 99) as f64 / 1e3;
        eprintln!(
            "  {clients} client(s): {total} requests in {wall:.2}s   {qps:>8.0} q/s   \
             p50 {p50:.1}us   p99 {p99:.1}us"
        );
        sweep_rows.push(format!(
            "    {{\"clients\": {clients}, \"requests\": {total}, \"qps\": {qps:.1}, \
             \"p50_us\": {p50:.3}, \"p99_us\": {p99:.3}}}"
        ));
    }
    server.stop();
    let (cached, neighbor, differential) = engine.stats.snapshot();
    let host_cores = lcm_sim::available_jobs();
    let json = format!(
        "{{\n  \"scale\": \"{scale}\",\n  \"jobs_requested\": {jobs},\n  \
         \"jobs_effective\": {},\n  \"host_cores\": {host_cores},\n  \"traces\": {},\n  \
         \"grid_points\": {n},\n  \"per_query_us\": {{\"cold_full\": {cold_full_us:.1}, \
         \"differential\": {differential_us:.1}, \"cached\": {cached_us:.2}}},\n  \
         \"engine_counters\": {{\"cached\": {cached}, \"neighbor\": {neighbor}, \
         \"differential\": {differential}}},\n  \"closed_loop\": [\n{}\n  ]\n}}\n",
        jobs.min(host_cores).max(1),
        engine.traces().len(),
        sweep_rows.join(",\n"),
    );
    writeln!(out)?;
    Ok(vec![file("BENCH_serve.json", json)])
}

// ============================================================== subcommands

/// The `replay` subcommand: parse a `.lcmtrace`, validate it against its
/// own footer, and summarize what it holds. Unreadable files and failed
/// validation exit 1.
fn replay_summary(path: &Path, out: &mut dyn Write) -> Res<()> {
    let file = TraceFile::read_from(path)?;
    writeln!(
        out,
        "{} (.lcmtrace v{})",
        path.display(),
        lcm_replay::VERSION
    )?;
    for (k, v) in &file.metadata {
        writeln!(out, "  {k}: {v}")?;
    }
    writeln!(out, "  nodes: {}   topology: {}", file.nodes, file.topology)?;
    writeln!(out, "  fingerprint: {:#018x}", file.fingerprint())?;
    writeln!(
        out,
        "  events: {}   phase marks: {}",
        file.event_count(),
        file.phases().len()
    )?;
    let r = lcm_replay::validate(&file).map_err(|e| format!("  validation FAILED: {e}"))?;
    writeln!(
        out,
        "  validation: OK (replay reproduces the execution-driven run exactly)"
    )?;
    writeln!(
        out,
        "  time: {} cycles   barriers: {}   msgs: {}   bytes sent: {}",
        r.time, r.barriers, file.totals.msgs_sent, file.totals.bytes_sent
    )?;
    writeln!(out, "  cycles by category (all nodes):")?;
    for cat in CycleCat::all() {
        let total: u64 = (0..file.nodes)
            .map(|n| r.ledger.get(NodeId(n as u16), cat))
            .sum();
        if total > 0 {
            writeln!(out, "    {:<18} {total}", cat.label())?;
        }
    }
    Ok(())
}

/// The `critpath` subcommand: parse a `.lcmtrace` and run the
/// happens-before analysis offline. Unreadable or corrupt files are a
/// usage-level failure (exit 2, like bad flags) naming the format error.
fn critpath_file(path: &Path, out: &mut dyn Write) -> Res<()> {
    let file = TraceFile::read_from(path).map_err(|e| Error::Usage(format!("critpath: {e}")))?;
    writeln!(
        out,
        "{} (.lcmtrace v{})",
        path.display(),
        lcm_replay::VERSION
    )?;
    for (k, v) in &file.metadata {
        writeln!(out, "  {k}: {v}")?;
    }
    writeln!(out, "  nodes: {}   topology: {}", file.nodes, file.topology)?;
    let cp = lcm_replay::analyze(&file);
    if cp.path_length() != cp.makespan {
        return Err(format!(
            "critpath: path length {} != makespan {} — the happens-before walk \
             does not reproduce this capture",
            cp.path_length(),
            cp.makespan
        )
        .into());
    }
    if cp.unmatched_recvs > 0 || cp.unmatched_sends > 0 {
        eprintln!(
            "  note: {} recv(s) and {} send(s) had no FIFO partner (faulty capture?); \
             program-order and barrier edges still cover the path",
            cp.unmatched_recvs, cp.unmatched_sends
        );
    }
    let whatifs = critpath::top_whatifs(&cp, 10);
    write!(out, "{}", critpath::critpath_report(&cp, &whatifs))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_cstar::Runtime;
    use lcm_rsm::MemoryProtocol;

    /// Answers 0, except on a 3-node machine, where Stache panics and
    /// LCM-mcc answers 1.
    struct Toy;

    impl Workload for Toy {
        type Output = u32;

        fn run<P: MemoryProtocol>(&self, rt: &mut Runtime<P>) -> u32 {
            match (rt.mem().name(), rt.nodes()) {
                ("stache", 3) => panic!("toy failure"),
                ("lcm-mcc", 3) => 1,
                _ => 0,
            }
        }
    }

    #[test]
    fn grid_names_failing_points_and_renders_the_rest() {
        let ctx = Ctx::new(Scale::Smoke, 2);
        let mut out = String::new();
        let mut g = Grid {
            ctx: &ctx,
            out: &mut out,
            csv: String::new(),
        };
        let runs = g
            .run(
                "Toy",
                &Toy,
                &[2usize, 3, 4],
                |&n| (MachineConfig::new(n), RuntimeConfig::default()),
                |n| (format!("nodes={n:<3}"), n.to_string()),
                |_, _, r| (format!("clocks={}", r.clocks.len()), String::new()),
            )
            .unwrap_or_else(|_| panic!("rendering into a String never fails"));
        let csv = g.csv;
        let rendered: Vec<(&str, &str)> = out
            .lines()
            .skip(1)
            .map(|l| {
                let mut words = l.split_whitespace();
                (words.next().unwrap(), words.next().unwrap())
            })
            .collect();
        assert_eq!(
            rendered,
            [
                ("LCM-scc", "nodes=2"),
                ("LCM-scc", "nodes=3"),
                ("LCM-scc", "nodes=4"),
                ("LCM-mcc", "nodes=2"),
                ("LCM-mcc", "nodes=4"),
                ("Stache", "nodes=2"),
                ("Stache", "nodes=4"),
            ],
            "{out}"
        );
        assert!(out.starts_with("Toy:\n"));
        assert_eq!(csv.lines().count(), 7, "{csv}");
        assert!(csv.contains("\nToy,Stache,4,"), "{csv}");
        let failures = ctx.failures.into_inner();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert_eq!(
            failures[0],
            "Toy/LCM-mcc nodes=3: output diverged from the baseline"
        );
        assert!(
            failures[1].starts_with("Toy/Stache nodes=3: ") && failures[1].ends_with("toy failure"),
            "{}",
            failures[1]
        );
        let stache = &runs[SystemKind::Stache.index()];
        assert!(runs[SystemKind::LcmMcc.index()][1].is_none());
        assert!(stache[1].is_none());
        assert_eq!(stache[2].as_ref().map(|r| r.clocks.len()), Some(4));
    }
}
