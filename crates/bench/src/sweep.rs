//! The parallel sweep engine and the wall-clock bench trajectory.
//!
//! Every evaluation artifact is assembled from *sweep points* — one
//! independent simulation per `(benchmark, system, scale, fault,
//! sensitivity)` configuration. [`SweepKey`] is that configuration's
//! canonical identity: its derived `Ord` fixes one global order
//! (benchmark, then system, then scale, then fault rate, then swept
//! parameter), and [`SweepEngine::run`] executes the points on a
//! fixed-size worker pool ([`lcm_sim::par_map`]) while returning results
//! in exactly that order. Tables, figures and CSVs built from the
//! returned vector are therefore byte-identical no matter how many
//! worker threads ran the points or which finished first.
//!
//! [`BenchReport`] is the other half of the story: the `repro bench`
//! mode times each section serially and on the pool and serializes the
//! trajectory as `BENCH_sweep.json` (hand-rolled writer — the workspace
//! takes no serialization dependency).

use std::fmt::Write as _;
use std::time::Instant;

/// Canonical identity of one sweep point.
///
/// Fault rates are stored in parts-per-million so the key is totally
/// ordered (`f64` is not `Ord`); `sensitivity` carries the swept machine
/// parameter (remote latency, processor count, …) or 0 when the point
/// isn't part of a sensitivity sweep.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SweepKey {
    /// Benchmark label, e.g. `"Stencil-dyn"`.
    pub benchmark: String,
    /// System label, e.g. `"LCM-mcc"`.
    pub system: String,
    /// Scale label, e.g. `"medium"`.
    pub scale: String,
    /// Message-drop probability in parts-per-million (0 = reliable).
    pub fault_ppm: u32,
    /// Swept parameter value (latency cycles, node count, …), 0 if none.
    pub sensitivity: u64,
}

impl SweepKey {
    /// A reliable-network, non-sensitivity point.
    pub fn new(benchmark: &str, system: &str, scale: &str) -> Self {
        SweepKey {
            benchmark: benchmark.to_string(),
            system: system.to_string(),
            scale: scale.to_string(),
            fault_ppm: 0,
            sensitivity: 0,
        }
    }

    /// Sets the fault coordinate from a drop probability in `[0, 1]`.
    pub fn with_fault(mut self, drop_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_rate),
            "drop rate is a probability"
        );
        self.fault_ppm = (drop_rate * 1_000_000.0).round() as u32;
        self
    }

    /// Sets the swept-parameter coordinate.
    pub fn with_sensitivity(mut self, x: u64) -> Self {
        self.sensitivity = x;
        self
    }

    /// The fault coordinate back as a drop probability.
    pub fn fault_rate(&self) -> f64 {
        f64::from(self.fault_ppm) / 1_000_000.0
    }
}

/// Executes keyed sweep points on a fixed-size worker pool, assembling
/// results in canonical key order.
#[derive(Clone, Copy, Debug)]
pub struct SweepEngine {
    jobs: usize,
}

impl SweepEngine {
    /// An engine dispatching on at most `jobs` workers (min 1).
    pub fn new(jobs: usize) -> Self {
        SweepEngine { jobs: jobs.max(1) }
    }

    /// The worker count this engine dispatches on.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f` over every point concurrently and returns the results
    /// sorted by [`SweepKey`] — the same vector a `jobs = 1` engine
    /// produces, whatever the input order or thread schedule. Duplicate
    /// keys are rejected: two points with one identity would make the
    /// assembled output ambiguous.
    pub fn run<T, R, F>(&self, mut points: Vec<(SweepKey, T)>, f: F) -> Vec<(SweepKey, R)>
    where
        T: Send,
        R: Send,
        F: Fn(&SweepKey, T) -> R + Sync,
    {
        points.sort_by(|a, b| a.0.cmp(&b.0));
        for w in points.windows(2) {
            assert_ne!(w[0].0, w[1].0, "duplicate sweep point {:?}", w[0].0);
        }
        let (keys, items): (Vec<SweepKey>, Vec<T>) = points.into_iter().unzip();
        let results = lcm_sim::par_map(self.jobs, items, |i, item| f(&keys[i], item));
        keys.into_iter().zip(results).collect()
    }
}

/// Wall-clock timing of one repro section, serial vs pooled.
#[derive(Clone, Debug)]
pub struct SectionTiming {
    /// Section name as passed to `repro` (e.g. `"table1"`, `"faults"`).
    pub section: String,
    /// Wall-clock seconds with `--jobs 1`.
    pub serial_secs: f64,
    /// Wall-clock seconds with the report's `jobs` workers.
    pub parallel_secs: f64,
}

impl SectionTiming {
    /// Serial over parallel wall-clock (> 1 means the pool helped).
    pub fn speedup(&self) -> f64 {
        self.serial_secs / self.parallel_secs.max(1e-9)
    }
}

/// The `repro bench` trajectory: per-section wall-clock at `jobs = 1`
/// and `jobs = N`, serialized as `BENCH_sweep.json`.
///
/// The parallel legs run on `effective_jobs`, the requested worker count
/// clamped to the host's `available_parallelism`: timing more workers
/// than cores does not measure pool speedup, it measures oversubscription
/// (a fictitious slowdown on small hosts). Both counts are recorded so
/// the JSON is honest about what actually ran.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Scale the sections ran at.
    pub scale: String,
    /// Worker count the user asked for (`--jobs N`).
    pub jobs: usize,
    /// Worker count the parallel legs actually ran on:
    /// `min(jobs, host_cores)`, at least 1.
    pub effective_jobs: usize,
    /// `available_parallelism` of the measuring host.
    pub host_cores: usize,
    /// One entry per timed section.
    pub sections: Vec<SectionTiming>,
}

impl BenchReport {
    /// An empty report for `jobs` requested workers at `scale`. Clamps
    /// the effective worker count to the host's cores.
    pub fn new(scale: &str, jobs: usize) -> Self {
        let host_cores = lcm_sim::available_jobs();
        BenchReport {
            scale: scale.to_string(),
            jobs,
            effective_jobs: jobs.min(host_cores).max(1),
            host_cores,
            sections: Vec::new(),
        }
    }

    /// True when the user asked for more workers than the host has cores
    /// (the parallel legs were clamped to [`BenchReport::effective_jobs`]).
    pub fn oversubscribed(&self) -> bool {
        self.jobs > self.effective_jobs
    }

    /// Times `serial` then `parallel` (in that order, so cache warm-up
    /// favors neither measurement systematically across sections) and
    /// records the section.
    pub fn time_section<R>(
        &mut self,
        section: &str,
        serial: impl FnOnce() -> R,
        parallel: impl FnOnce() -> R,
    ) -> (R, R) {
        let t0 = Instant::now();
        let a = serial();
        let serial_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let b = parallel();
        let parallel_secs = t1.elapsed().as_secs_f64();
        self.sections.push(SectionTiming {
            section: section.to_string(),
            serial_secs,
            parallel_secs,
        });
        (a, b)
    }

    /// Total serial wall-clock across sections.
    pub fn total_serial(&self) -> f64 {
        self.sections.iter().map(|s| s.serial_secs).sum()
    }

    /// Total pooled wall-clock across sections.
    pub fn total_parallel(&self) -> f64 {
        self.sections.iter().map(|s| s.parallel_secs).sum()
    }

    /// Overall serial-over-parallel speedup.
    pub fn speedup(&self) -> f64 {
        self.total_serial() / self.total_parallel().max(1e-9)
    }

    /// The `BENCH_sweep.json` document (stable key order, no deps).
    pub fn to_json(&self) -> String {
        let mut j = String::from("{\n");
        let _ = writeln!(j, "  \"scale\": \"{}\",", self.scale);
        let _ = writeln!(j, "  \"jobs_requested\": {},", self.jobs);
        let _ = writeln!(j, "  \"jobs_effective\": {},", self.effective_jobs);
        let _ = writeln!(j, "  \"host_cores\": {},", self.host_cores);
        j.push_str("  \"sections\": [\n");
        for (i, s) in self.sections.iter().enumerate() {
            let _ = write!(
                j,
                "    {{\"section\": \"{}\", \"serial_secs\": {:.4}, \
                 \"parallel_secs\": {:.4}, \"speedup\": {:.3}}}",
                s.section,
                s.serial_secs,
                s.parallel_secs,
                s.speedup()
            );
            j.push_str(if i + 1 < self.sections.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        j.push_str("  ],\n");
        let _ = writeln!(
            j,
            "  \"total\": {{\"serial_secs\": {:.4}, \"parallel_secs\": {:.4}, \
             \"speedup\": {:.3}}}",
            self.total_serial(),
            self.total_parallel(),
            self.speedup()
        );
        j.push_str("}\n");
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: &str, s: &str, fault: f64, x: u64) -> SweepKey {
        SweepKey::new(b, s, "smoke")
            .with_fault(fault)
            .with_sensitivity(x)
    }

    #[test]
    fn key_order_is_benchmark_system_scale_fault_sensitivity() {
        let mut keys = vec![
            key("Stencil", "Stache", 0.0, 0),
            key("Stencil", "LCM-mcc", 0.01, 0),
            key("Stencil", "LCM-mcc", 0.001, 0),
            key("Barnes", "Stache", 0.05, 9),
            key("Stencil", "LCM-mcc", 0.001, 500),
        ];
        keys.sort();
        let labels: Vec<(String, String, u32, u64)> = keys
            .into_iter()
            .map(|k| (k.benchmark, k.system, k.fault_ppm, k.sensitivity))
            .collect();
        assert_eq!(
            labels,
            vec![
                ("Barnes".into(), "Stache".into(), 50_000, 9),
                ("Stencil".into(), "LCM-mcc".into(), 1_000, 0),
                ("Stencil".into(), "LCM-mcc".into(), 1_000, 500),
                ("Stencil".into(), "LCM-mcc".into(), 10_000, 0),
                ("Stencil".into(), "Stache".into(), 0, 0),
            ]
        );
    }

    #[test]
    fn fault_ppm_round_trips() {
        assert_eq!(key("b", "s", 0.001, 0).fault_ppm, 1000);
        assert!((key("b", "s", 0.05, 0).fault_rate() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn engine_output_is_canonical_regardless_of_input_order_and_jobs() {
        let scrambled: Vec<(SweepKey, u64)> = [(0.01, 3), (0.0, 1), (0.05, 9), (0.001, 2)]
            .iter()
            .map(|&(f, v)| (key("Stencil", "LCM-mcc", f, 0), v))
            .collect();
        let serial =
            SweepEngine::new(1).run(scrambled.clone(), |k, v| (u64::from(k.fault_ppm), v * v));
        for jobs in [2, 8] {
            let par = SweepEngine::new(jobs)
                .run(scrambled.clone(), |k, v| (u64::from(k.fault_ppm), v * v));
            assert_eq!(
                serial
                    .iter()
                    .map(|(k, r)| (k.clone(), *r))
                    .collect::<Vec<_>>(),
                par.iter().map(|(k, r)| (k.clone(), *r)).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
        let ppms: Vec<u32> = serial.iter().map(|(k, _)| k.fault_ppm).collect();
        assert_eq!(
            ppms,
            vec![0, 1_000, 10_000, 50_000],
            "canonical fault order"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate sweep point")]
    fn duplicate_keys_are_rejected() {
        let pts = vec![(key("b", "s", 0.0, 0), 1), (key("b", "s", 0.0, 0), 2)];
        SweepEngine::new(2).run(pts, |_, v| v);
    }

    #[test]
    fn bench_report_serializes_sections_and_totals() {
        let mut report = BenchReport::new("smoke", 4);
        report.time_section("suite", || 1 + 1, || 2 + 2);
        report.sections[0].serial_secs = 2.0;
        report.sections[0].parallel_secs = 0.5;
        let json = report.to_json();
        assert!(json.contains("\"scale\": \"smoke\""));
        assert!(json.contains("\"jobs_requested\": 4"));
        assert!(json.contains(&format!("\"jobs_effective\": {}", report.effective_jobs)));
        assert!(json.contains(&format!("\"host_cores\": {}", report.host_cores)));
        assert!(json.contains("\"section\": \"suite\""));
        assert!(json.contains("\"speedup\": 4.000"));
        assert!(json.ends_with("}\n"));
        assert!((report.speedup() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn effective_jobs_never_exceeds_host_cores() {
        let report = BenchReport::new("smoke", usize::MAX);
        assert_eq!(report.effective_jobs, report.host_cores.max(1));
        assert!(report.oversubscribed() || report.host_cores == usize::MAX);
        let one = BenchReport::new("smoke", 1);
        assert_eq!(one.effective_jobs, 1);
        assert!(!one.oversubscribed());
    }
}
