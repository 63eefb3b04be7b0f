//! The byte-identity contract of the parallel sweep engine.
//!
//! Every artifact `repro` emits is assembled from independent sweep
//! points in canonical key order (DESIGN.md §4d), so running the pool
//! with any worker count must produce *exactly* the bytes of a serial
//! run. These tests pin that end to end: per-run `RunResult` digests,
//! every rendered CSV, the prose-claim verdicts, and the sensitivity
//! sweeps all compared across `jobs = 1 / 2 / 8`.

use lcm_apps::experiments::{Benchmark, Scale, Suite};
use lcm_apps::sensitivity::{sweep_nodes_jobs, sweep_remote_latency_jobs};
use lcm_apps::stencil::Stencil;
use lcm_apps::SystemKind;
use lcm_bench::report;
use lcm_cstar::Partition;

#[test]
fn suite_results_are_identical_across_worker_counts() {
    let serial = Suite::run_jobs(Scale::Smoke, 1);
    for jobs in [2, 8] {
        let pooled = Suite::run_jobs(Scale::Smoke, jobs);
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

#[test]
fn rendered_csv_bytes_are_identical_across_worker_counts() {
    let serial = Suite::run_jobs(Scale::Smoke, 1);
    let pooled = Suite::run_jobs(Scale::Smoke, 8);
    assert_eq!(report::table1_csv(&serial), report::table1_csv(&pooled));
    assert_eq!(
        report::fig_csv(&serial.fig2()),
        report::fig_csv(&pooled.fig2())
    );
    assert_eq!(
        report::fig_csv(&serial.fig3()),
        report::fig_csv(&pooled.fig3())
    );
    assert_eq!(
        report::messages_csv(&serial, &[]),
        report::messages_csv(&pooled, &[])
    );
    assert_eq!(report::network_csv(&serial), report::network_csv(&pooled));
}

#[test]
fn claim_verdicts_are_identical_across_worker_counts() {
    let serial = Suite::run_jobs(Scale::Smoke, 1);
    let pooled = Suite::run_jobs(Scale::Smoke, 4);
    let render = |s: &Suite| {
        s.claims()
            .iter()
            .map(|c| format!("{} {} {}", c.holds, c.description, c.measured))
            .collect::<Vec<_>>()
    };
    assert_eq!(render(&serial), render(&pooled));
}

#[test]
fn sensitivity_sweeps_are_identical_across_worker_counts() {
    let w = Stencil {
        rows: 64,
        cols: 64,
        iters: 3,
        partition: Partition::Dynamic,
    };
    let lat = [500, 3000, 12000];
    let serial = sweep_remote_latency_jobs(&lat, 4, &w, 1);
    let nodes_serial = sweep_nodes_jobs(&[2, 4, 8], &w, 1);
    for jobs in [2, 8] {
        let pooled = sweep_remote_latency_jobs(&lat, 4, &w, jobs);
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.x, b.x, "jobs={jobs}: sweep order changed");
            assert_eq!(a.lcm.digest(), b.lcm.digest(), "jobs={jobs}: x={}", a.x);
            assert_eq!(
                a.stache.digest(),
                b.stache.digest(),
                "jobs={jobs}: x={}",
                a.x
            );
        }
        let nodes_pooled = sweep_nodes_jobs(&[2, 4, 8], &w, jobs);
        for (a, b) in nodes_serial.iter().zip(&nodes_pooled) {
            assert_eq!((a.x, a.lcm.digest()), (b.x, b.lcm.digest()), "jobs={jobs}");
        }
    }
}
