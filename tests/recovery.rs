//! Fail-stop crash recovery: under ANY deterministic crash schedule —
//! alone or combined with every existing network-fault class (drops,
//! duplicates, delays, barrier stalls) — every memory system must
//! compute results bit-identical to the clean run. A crash costs
//! checkpoint, rollback and re-execution cycles (ledger-conserved,
//! sanitizer-checked inside every harvest) but never changes a value:
//! the §4d contract extended from an unreliable network to mortal nodes.

use lcm::prelude::*;
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

/// The protocol-rich stencil of `tests/faults.rs`: ping-pongs boundary
/// blocks, exercises copy-on-write phases, reconciliation and
/// invalidations on all three systems.
fn stencil() -> lcm::apps::stencil::Stencil {
    lcm::apps::stencil::Stencil {
        rows: 24,
        cols: 24,
        iters: 3,
        partition: Partition::Dynamic,
    }
}

/// A network-fault schedule (on the machine) plus a fail-stop crash
/// plan (on the runtime).
#[derive(Copy, Clone, Debug)]
struct Schedule {
    faults: FaultConfig,
    crash: CrashPlan,
}

impl Schedule {
    /// Crashes at `rate` from `seed` over a reliable network.
    fn crashes(rate: f64, seed: u64) -> Schedule {
        Schedule {
            faults: FaultConfig::default(),
            crash: CrashPlan::new(rate, seed),
        }
    }
}

/// Runs the stencil under a schedule's network faults and crash plan.
fn run_with_recovery(
    system: SystemKind,
    schedule: Schedule,
    checkpoint_every: u64,
) -> (u64, RunResult) {
    let cfg = RuntimeConfig {
        crash: schedule.crash,
        checkpoint_every,
        ..RuntimeConfig::default()
    };
    let mc = MachineConfig::new(4).with_faults(schedule.faults);
    let (out, r, _) = execute(system, mc, cfg, &stencil());
    (out, r)
}

/// A mixed schedule: every network-fault class active at once, plus
/// fail-stop crashes.
fn crash_schedule() -> impl proptest::strategy::Strategy<Value = Schedule> {
    (
        (0u32..=60, 0u32..=30, 0u32..=30, 1u64..400, 0u64..u64::MAX),
        (0u32..=40, 1u64..20_000, 1u32..=400, 0u64..u64::MAX),
    )
        .prop_map(
            |(
                (drop_pm, dup_pm, delay_pm, max_delay, seed),
                (stall_pc, stall_cycles, crash_pm, crash_seed),
            )| {
                Schedule {
                    faults: FaultConfig {
                        drop_rate: drop_pm as f64 / 1000.0,
                        dup_rate: dup_pm as f64 / 1000.0,
                        delay_rate: delay_pm as f64 / 1000.0,
                        max_delay,
                        seed,
                        max_retries: 40,
                        stall_rate: stall_pc as f64 / 100.0,
                        stall_cycles,
                    },
                    crash: CrashPlan::new(crash_pm as f64 / 1000.0, crash_seed),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline property: crashes layered on top of any network-fault
    /// schedule still yield the bit-identical program output on every
    /// system, only ever cost cycles, and keep the ledger conserved (the
    /// sanitizer runs inside every harvest).
    #[test]
    fn crashes_with_any_fault_schedule_preserve_results(schedule in crash_schedule()) {
        for system in SystemKind::all() {
            let (clean_out, clean) =
                run_with_recovery(system, Schedule::crashes(0.0, 0), 1);
            let (faulty_out, faulty) = run_with_recovery(system, schedule, 1);
            prop_assert_eq!(&clean_out, &faulty_out);
            prop_assert!(faulty.time >= clean.time);
            // A clean run never checkpoints and never crashes.
            prop_assert_eq!(clean.totals.checkpoints, 0);
            prop_assert_eq!(clean.totals.crashes, 0);
        }
    }

    /// Checkpoint granularity is a pure cost axis: coarser checkpoints
    /// under the same crash-and-fault schedule change cycles only.
    #[test]
    fn checkpoint_granularity_never_changes_results(schedule in crash_schedule()) {
        for system in SystemKind::all() {
            let (out_1, _) = run_with_recovery(system, schedule, 1);
            let (out_2, _) = run_with_recovery(system, schedule, 2);
            let (out_8, _) = run_with_recovery(system, schedule, 8);
            prop_assert_eq!(&out_1, &out_2);
            prop_assert_eq!(&out_1, &out_8);
        }
    }

    /// Identical `(schedule, crash seed)` pairs reproduce identical runs:
    /// cycle counts, crash counts, checkpoint bytes and all.
    #[test]
    fn identical_crash_seeds_reproduce_identical_runs(schedule in crash_schedule()) {
        for system in SystemKind::all() {
            let (out_a, a) = run_with_recovery(system, schedule, 1);
            let (out_b, b) = run_with_recovery(system, schedule, 1);
            prop_assert_eq!(out_a, out_b);
            prop_assert_eq!(a.time, b.time);
            prop_assert_eq!(&a.totals, &b.totals);
        }
    }

    /// Message conservation survives crashes: detection is charged in
    /// cycles, not messages, so every delivered message is still counted
    /// at both ends and the per-kind sum still matches the network total.
    #[test]
    fn message_accounting_is_conserved_under_crashes(schedule in crash_schedule()) {
        for system in SystemKind::all() {
            let (_, r) = run_with_recovery(system, schedule, 1);
            prop_assert_eq!(r.totals.msgs_sent, r.totals.msgs_recv);
            prop_assert_eq!(r.msgs_total(), r.totals.msgs_sent);
            prop_assert_eq!(r.totals.msgs_dropped, r.net_dropped);
            prop_assert_eq!(r.totals.msgs_duplicated, r.net_duplicated);
        }
    }
}

/// A node that crashes while the network is ALSO dropping its retries and
/// stalling its barriers — the nastiest interaction the model allows —
/// still recovers to byte-identical output, and the crash machinery
/// demonstrably engaged.
#[test]
fn crash_during_retry_storm_and_barrier_stalls_recovers() {
    let hostile = Schedule {
        faults: FaultConfig {
            drop_rate: 0.05,
            dup_rate: 0.02,
            delay_rate: 0.02,
            max_delay: 200,
            seed: 11,
            max_retries: 40,
            stall_rate: 0.5,
            stall_cycles: 5_000,
        },
        crash: CrashPlan::new(0.5, 0xDEAD),
    };
    for system in SystemKind::all() {
        let (clean_out, clean) = run_with_recovery(system, Schedule::crashes(0.0, 0), 1);
        let (out, r) = run_with_recovery(system, hostile, 1);
        assert_eq!(clean_out, out, "{system}: recovery changed the answer");
        assert!(r.totals.crashes > 0, "{system}: the schedule crashed nodes");
        assert!(
            r.totals.checkpoints > 0,
            "{system}: active crash plans checkpoint at phase boundaries"
        );
        assert!(
            r.totals.checkpoint_bytes > 0,
            "{system}: checkpoints captured state"
        );
        assert!(r.time > clean.time, "{system}: recovery costs cycles");
        // Cycles moved into the recovery categories and nowhere else
        // broke: per-node conservation was already checked by the
        // sanitizer inside harvest; the totals must show the work.
        let cats = r.ledger.totals();
        assert!(cats[CycleCat::Checkpoint.index()] > 0, "{system}");
        assert!(cats[CycleCat::Rollback.index()] > 0, "{system}");
        assert!(cats[CycleCat::CrashDetect.index()] > 0, "{system}");
    }
}

/// Crash-free runs are bit-identical to a build without the crash
/// subsystem: an inactive plan draws nothing, checkpoints nothing, and
/// charges nothing.
#[test]
fn inactive_crash_plan_is_invisible() {
    for system in SystemKind::all() {
        let (out_a, a) = run_with_recovery(system, Schedule::crashes(0.0, 0), 1);
        // Same run through the plain (non-fault) path.
        let (out_b, b, _) = execute(
            system,
            MachineConfig::new(4),
            RuntimeConfig::default(),
            &stencil(),
        );
        assert_eq!(out_a, out_b);
        assert_eq!(a.time, b.time, "{system}: dormant recovery cost cycles");
        let cats = a.ledger.totals();
        assert_eq!(cats[CycleCat::Checkpoint.index()], 0);
        assert_eq!(cats[CycleCat::Rollback.index()], 0);
        assert_eq!(cats[CycleCat::CrashDetect.index()], 0);
    }
}

/// The acceptance sweep shape: crash rates {0, 0.1, 0.3, 0.6} × both
/// checkpoint granularities, all three systems, bit-identical outputs
/// throughout — and the checkpoint-size asymmetry: LCM's incremental
/// unreconciled-word checkpoints are strictly smaller than Stache's
/// dirty-line + directory captures.
#[test]
fn acceptance_crash_rate_sweep_is_bit_identical() {
    for system in SystemKind::all() {
        let mut reference = None;
        for rate in [0.0, 0.1, 0.3, 0.6] {
            for every in [1, 4] {
                let schedule = Schedule::crashes(rate, 0xC0FFEE);
                let (out, _) = run_with_recovery(system, schedule, every);
                match &reference {
                    None => reference = Some(out),
                    Some(expected) => {
                        assert_eq!(
                            expected, &out,
                            "{system} at crash rate {rate} every {every}"
                        )
                    }
                }
            }
        }
    }
    let bytes = |system: SystemKind| {
        let (_, r) = run_with_recovery(system, Schedule::crashes(0.3, 7), 1);
        r.totals.checkpoint_bytes
    };
    let (mcc, stache) = (bytes(SystemKind::LcmMcc), bytes(SystemKind::Stache));
    assert!(
        mcc < stache,
        "LCM-mcc checkpoints {mcc} bytes, Stache {stache}: the asymmetry is the result"
    );
}

/// Reductions (read-modify-write combining) survive crash recovery
/// exactly: the combined sum's bits never drift.
#[test]
fn reductions_survive_crashes_exactly() {
    struct Sum;
    impl Workload for Sum {
        type Output = f64;
        fn run<P: MemoryProtocol>(&self, rt: &mut Runtime<P>) -> f64 {
            let a = rt.new_aggregate1::<f32>(256, lcm::tempest::Placement::Blocked, "a");
            rt.init1(a, |i| (i % 9) as f32);
            let total = rt.new_reduction_f64(ReduceOp::SumF64, 0.0, "total");
            rt.apply1(a, Partition::Static, |inv, i| {
                let v = inv.get(a.at(i)) as f64;
                inv.reduce_f64(total, v);
            });
            rt.peek_reduction(total)
        }
    }
    let mut sums = std::collections::BTreeSet::new();
    for system in SystemKind::all() {
        for rate in [0.0, 0.2, 0.6] {
            let cfg = RuntimeConfig {
                crash: CrashPlan::new(rate, 3),
                ..RuntimeConfig::default()
            };
            let (sum, _, _) = execute(system, MachineConfig::new(4), cfg, &Sum);
            sums.insert((system.label(), sum.to_bits()));
        }
    }
    // One distinct sum per system (systems may differ in rounding order,
    // crash rates within a system may not).
    assert_eq!(
        sums.len(),
        SystemKind::all().len(),
        "a reduction drifted across crash rates: {sums:?}"
    );
}

/// A sweep grid containing an unrunnable point must not lose the
/// healthy points, and the failure report must carry both the sweep key
/// and the panic site (`file:line`) so the offending configuration is
/// identifiable from stderr alone. This drives a *real* simulator panic
/// (an invalid crash rate rejected inside `CrashPlan::new`) through the
/// same `try_par_map` + key-tagging contract the scale and `repro` grid
/// drivers use.
#[test]
fn sweep_failures_carry_sweep_key_and_panic_location() {
    // crash_rate 2.0 fails the crash plan's range check inside the point.
    let points = vec![0.0, 0.1, 0.4, 2.0];
    let keys: Vec<String> = points
        .iter()
        .map(|rate| format!("stencil/LCM-mcc/crash-rate={rate}"))
        .collect();
    let run = |rate| {
        run_with_recovery(SystemKind::LcmMcc, Schedule::crashes(rate, 9), 2)
            .1
            .digest()
    };
    let baseline = run(points[0]);
    for jobs in [1, 4] {
        let results = lcm::sim::try_par_map(jobs, points.clone(), |_, rate| run(rate));
        let mut failures = Vec::new();
        for (key, r) in keys.iter().zip(&results) {
            match r {
                Ok(digest) => {
                    if key.ends_with("crash-rate=0") {
                        assert_eq!(*digest, baseline, "jobs={jobs}: healthy point drifted");
                    }
                }
                Err(e) => failures.push(format!("{key}: {e}")),
            }
        }
        assert_eq!(failures.len(), 1, "jobs={jobs}: {failures:?}");
        let report = &failures[0];
        assert!(
            report.starts_with("stencil/LCM-mcc/crash-rate=2:"),
            "jobs={jobs}: sweep key missing: {report}"
        );
        assert!(
            report.contains("fault.rs:"),
            "jobs={jobs}: panic location missing: {report}"
        );
        assert!(
            report.ends_with("crash_rate 2 outside [0, 1]"),
            "jobs={jobs}: panic message lost: {report}"
        );
    }
}
