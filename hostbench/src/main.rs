//! Command line of the host-time benchmark. See `README.md`.

use lcm_hostbench::{pins, run, sim, sim_points, stats, trace, whatif, Bench, Size};
use std::process::{exit, Command, Stdio};

const USAGE: &str = "\
usage: lcm-hostbench --workload suite|kilonode|whatif [--seed N] [--seconds S] [--trace 0|1]
       lcm-hostbench --spread N [--workload W] [--seed N] [--seconds S]
       lcm-hostbench --print-pins
       lcm-hostbench --cold-pass suite|kilonode   (run by the benchmark itself)";

/// The documented default seed; claims are checked again on seed 1001.
const DEFAULT_SEED: u64 = 1;

/// Cold passes in fresh processes besides a run's own, so that `suite`
/// and `kilonode` report `setup_s` as the median of five set-ups. They
/// run before the measured `--seconds`.
const EXTRA_SETUPS: usize = 4;

struct Args {
    workload: Option<Bench>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spread: Option<u64>,
    print_pins: bool,
    cold_pass: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        spread: None,
        print_pins: false,
        cold_pass: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            a.print_pins = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = Some(Bench::parse(&value).ok_or_else(bad)?),
            "--cold-pass" => {
                a.workload = Some(
                    Bench::parse(&value)
                        .filter(|&b| b != Bench::Whatif)
                        .ok_or_else(bad)?,
                );
                a.cold_pass = true;
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spread" => a.spread = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2)
    });
    if args.print_pins {
        print_pins();
    } else if let (true, Some(bench)) = (args.cold_pass, args.workload) {
        let (secs, attempted, failures) =
            sim::cold_pass(Size::Full, &sim_points(bench, Size::Full));
        println!("{secs} {attempted} {}", failures.len());
    } else if let Some(n) = args.spread {
        let workloads = args.workload.map_or(Bench::ALL.to_vec(), |w| vec![w]);
        for w in workloads {
            spread(w, n, &args);
        }
    } else if let Some(bench) = args.workload {
        let setups: Vec<_> = if bench == Bench::Whatif || args.trace {
            Vec::new()
        } else {
            (0..EXTRA_SETUPS).map(|_| cold_pass_child(bench)).collect()
        };
        let mut out = run(bench, Size::Full, args.seed, args.seconds, args.trace);
        out.add_setups(setups);
        if args.trace {
            let path = format!(".bench_out/spans-{}-seed{}.jsonl", bench.name(), args.seed);
            if let Err(e) = trace::write_jsonl(&out.spans, std::path::Path::new(&path)) {
                eprintln!("warning: writing {path}: {e}");
            }
        }
        println!("{}", out.info_json());
        println!("{}", out.result_json());
    } else {
        eprintln!("{USAGE}");
        exit(2);
    }
}

/// Runs [`sim::cold_pass`] in a fresh process of this executable, which
/// names its failures on stderr: `(seconds, attempted, failures)`.
fn cold_pass_child(bench: Bench) -> (f64, u64, Vec<String>) {
    let failed = |why: String| {
        (
            f64::NAN,
            1,
            vec![format!("{} cold pass: {why}", bench.name())],
        )
    };
    let out = match std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--cold-pass", bench.name()])
            .stderr(Stdio::inherit())
            .output()
    }) {
        Ok(out) => out,
        Err(e) => return failed(e.to_string()),
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<&str> = stdout.split_whitespace().collect();
    match (out.status.success(), fields.as_slice()) {
        (true, [secs, attempted, n_failed]) => {
            match (secs.parse(), attempted.parse(), n_failed.parse::<usize>()) {
                (Ok(secs), Ok(attempted), Ok(n)) => {
                    let named = format!("{} cold pass: a run failed (named above)", bench.name());
                    (secs, attempted, vec![named; n])
                }
                _ => failed(format!("unreadable result {stdout:?}")),
            }
        }
        _ => failed(format!("{} with output {stdout:?}", out.status)),
    }
}

/// Runs every point once at both sizes and prints `pins.txt`.
fn print_pins() {
    let tr = trace::Tracer::new(false);
    for size in [Size::Full, Size::Smoke] {
        for (points, capture) in [
            (sim::suite_points(size), None),
            (sim::kilonode_points(size), None),
            (sim::capture_points(size), Some(whatif::CAPTURE_CAPACITY)),
        ] {
            for p in points {
                let (r, _) = sim::run_point(&p, capture, &tr, 0);
                println!("{}", pins::line(size, &p.key, r.digest(), r.time));
            }
        }
    }
}

/// Runs `bench` `n` times as child processes on consecutive seeds and
/// prints each end-to-end metric's median, quartiles, IQR/median and
/// (max - min)/median, and whether the counts repeated exactly.
fn spread(bench: Bench, n: u64, args: &Args) {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("spread: locating this executable: {e}");
        exit(1)
    });
    let mut names: Vec<String> = Vec::new();
    let mut values: Vec<Vec<f64>> = Vec::new();
    let mut counts: Vec<String> = Vec::new();
    for i in 0..n {
        let seed = args.seed + i;
        let out = Command::new(&exe)
            .args(["--workload", bench.name(), "--trace", "0"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .unwrap_or_else(|e| {
                eprintln!("spread: running {}: {e}", exe.display());
                exit(1)
            });
        let stdout = String::from_utf8_lossy(&out.stdout);
        let result = stdout.lines().last().unwrap_or("");
        if !out.status.success() || !result.contains("\"correct\": true") {
            eprintln!("spread: {} seed {seed} failed: {result}", bench.name());
            exit(1);
        }
        if let Some(info) = stdout.lines().find(|l| l.starts_with("{\"info\"")) {
            // The serve class counts follow the seed; the rest must not.
            let fixed: Vec<&str> = field(info, "\"counts\": {")
                .split(", ")
                .filter(|c| !c.starts_with("\"serve."))
                .collect();
            counts.push(fixed.join(", "));
        }
        for (name, v) in parse_metrics(result) {
            match names.iter().position(|k| *k == name) {
                Some(k) => values[k].push(v),
                None => {
                    names.push(name);
                    values.push(vec![v]);
                }
            }
        }
        eprintln!("spread: {} seed {seed}: {result}", bench.name());
    }
    println!(
        "== {} x{n} (seconds {}, host cores {}) ==",
        bench.name(),
        args.seconds,
        stats::host_cores()
    );
    println!(
        "  {:<12} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "metric", "median", "q1", "q3", "iqr/med", "rng/med"
    );
    for (name, v) in names.iter().zip(&values) {
        let med = stats::median(v);
        let [q1, _, q3] = stats::quartiles(v);
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        println!(
            "  {name:<12} {med:>12.6} {q1:>12.6} {q3:>12.6} {:>9.4} {:>9.4}",
            (q3 - q1) / med,
            (hi - lo) / med
        );
    }
    let repeat = counts.windows(2).all(|w| w[0] == w[1]);
    println!("  seed-independent counts repeat exactly across runs: {repeat}");
}

/// The text of the `{...}` object that follows `key` in `line`.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    line.find(key)
        .map(|i| &line[i + key.len()..])
        .and_then(|rest| rest.find('}').map(|j| &rest[..j]))
        .unwrap_or("")
}

/// `(name, value)` of every metric in a result line.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    const SEP: &str = "\": {\"value\": ";
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(p) = rest.find(SEP) {
        let name = rest[..p].rsplit('"').next().unwrap_or("").to_string();
        let tail = &rest[p + SEP.len()..];
        let end = tail.find(',').unwrap_or(tail.len());
        if let Ok(v) = tail[..end].trim().parse() {
            out.push((name, v));
        }
        rest = &tail[end..];
    }
    out
}
