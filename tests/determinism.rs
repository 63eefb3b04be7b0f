//! The byte-identity contract of the parallel sweep pool, at the level
//! no CLI output reaches.
//!
//! Every artifact `repro` emits is assembled from independent sweep
//! points in input order (DESIGN.md §4d), so running the pool with any
//! worker count must produce *exactly* the results of a serial run.
//! `crates/bench/tests/sections.rs` pins every section's stdout and
//! files at `--jobs 1` vs `4`; this test pins what no section prints in
//! full: per-run `RunResult` digests across `jobs = 1 / 2 / 8`.

use lcm_apps::experiments::{Benchmark, Scale, Suite};
use lcm_apps::SystemKind;

#[test]
fn suite_results_are_identical_across_worker_counts() {
    let serial = Suite::run(Scale::Smoke, 1);
    for jobs in [2, 8] {
        let pooled = Suite::run(Scale::Smoke, jobs);
        for b in Benchmark::all() {
            for s in SystemKind::all() {
                assert_eq!(
                    serial.result(b, s).digest(),
                    pooled.result(b, s).digest(),
                    "jobs={jobs}: {}/{} digest diverged",
                    b.label(),
                    s.label()
                );
            }
        }
    }
}
