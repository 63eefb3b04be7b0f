//! The wall-clock bench trajectory.
//!
//! Every evaluation artifact is assembled from independent sweep points,
//! built in print order and run on [`lcm_sim::par_map`], which returns
//! results in input order: tables, figures and CSVs are byte-identical
//! no matter how many worker threads ran the points (DESIGN.md §4d).
//! [`BenchReport`] measures what the pool buys: the `repro bench` mode
//! times each section serially and on the pool and serializes the
//! trajectory as `BENCH_sweep.json` (hand-rolled writer — the workspace
//! takes no serialization dependency).

use std::fmt::Write as _;
use std::time::Instant;

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
