//! The benchmark's own checks, at smoke size.

use lcm_apps::{Benchmark, Scale};
use lcm_hostbench::whatif::{Kind, Script, Sensitivity};
use lcm_hostbench::{run, sim, trace::Tracer, Bench, Size};

/// Shortest runs: every workload still does two timed rounds.
const SECONDS: f64 = 0.01;

#[test]
fn counts_repeat_exactly_across_runs_with_one_seed() {
    for bench in Bench::ALL {
        let plain = run(bench, Size::Smoke, 7, SECONDS, false);
        let traced = run(bench, Size::Smoke, 7, SECONDS, true);
        for out in [&plain, &traced] {
            assert!(out.correct(), "{}: {:?}", bench.name(), out.failures);
            assert!(out.rounds >= 2, "{}", bench.name());
        }
        assert_eq!(plain.counts, traced.counts, "{}", bench.name());
        assert!(plain.counts["sim.accesses"] > 0, "{}", bench.name());
        assert!(plain.spans.is_empty() && !traced.spans.is_empty());
    }
}

#[test]
fn whatif_script_and_class_counts_change_with_the_seed() {
    let sens = [Sensitivity {
        latency: true,
        bandwidth: true,
    }; 6];
    let script = Script::generate(1, &sens, 100);
    assert_eq!(script, Script::generate(1, &sens, 100));
    assert_ne!(script, Script::generate(2, &sens, 100));

    let classes = |seed| {
        let out = run(Bench::Whatif, Size::Smoke, seed, SECONDS, false);
        assert!(out.correct(), "seed {seed}: {:?}", out.failures);
        let c = &out.counts;
        let served = (
            c["serve.cached"],
            c["serve.neighbor"],
            c["serve.differential"],
        );
        assert_eq!(Some(served), out.script, "seed {seed}");
        served
    };
    let seen: Vec<_> = (1..=3).map(classes).collect();
    assert!(seen.windows(2).any(|w| w[0] != w[1]), "{seen:?}");
}

#[test]
fn fresh_queries_avoid_knobs_a_trace_never_charges() {
    // A trace insensitive to latency takes one fresh query per
    // bandwidth, and one in all when bandwidth cannot matter either.
    let sens = [
        Sensitivity {
            latency: false,
            bandwidth: true,
        },
        Sensitivity {
            latency: false,
            bandwidth: false,
        },
    ];
    for seed in 1..=3 {
        let script = Script::generate(seed, &sens, 200);
        assert_eq!(script.kind_counts().2, 4 + 1, "seed {seed}");
    }
}

#[test]
fn every_seed_asks_for_the_same_fresh_pairs() {
    let sens = [Sensitivity {
        latency: true,
        bandwidth: true,
    }; 6];
    let pairs = |seed| {
        let script = Script::generate(seed, &sens, 500);
        let mut p: Vec<_> = script
            .clients
            .iter()
            .flatten()
            .filter(|r| r.kind == Kind::Fresh)
            .map(|r| {
                (
                    script.distinct[r.spec].trace,
                    script.distinct[r.spec].bandwidth,
                )
            })
            .collect();
        p.sort_unstable();
        p
    };
    assert_eq!(pairs(1), pairs(2));
    assert_eq!(pairs(1).len(), 2 * 12 * (75 / 12));
}

#[test]
fn suite_points_are_the_paper_suite() {
    let tr = Tracer::new(false);
    let smoke = sim::suite_points(Size::Smoke);
    let full = sim::suite_points(Size::Full);
    for (i, b) in Benchmark::all().into_iter().enumerate() {
        for (j, system) in lcm_apps::SystemKind::all().into_iter().enumerate() {
            let p = &smoke[3 * i + j];
            let (r, _) = sim::run_point(p, None, &tr, 0);
            assert_eq!(
                r.digest(),
                b.run(Scale::Smoke, system).digest(),
                "{}",
                p.key
            );
            sim::check(Size::Smoke, p, &r).unwrap();
        }
    }
    // Unstructured runs at the library's own medium configuration; the
    // other full-size points take it with fewer iterations.
    for (j, system) in lcm_apps::SystemKind::all().into_iter().enumerate() {
        let p = &full[3 * 5 + j];
        let (r, _) = sim::run_point(p, None, &tr, 0);
        let want = Benchmark::Unstructured.run(Scale::Medium, system);
        assert_eq!(r.digest(), want.digest(), "{}", p.key);
        sim::check(Size::Full, p, &r).unwrap();
    }
}
