//! Unreliable-network robustness: under ANY deterministic fault schedule
//! (drops, duplicates, delays, barrier stalls), every memory system must
//! compute results bit-identical to the fault-free run, keep its
//! coherence invariants (the sanitizer runs inside every harvest), and
//! conserve message accounting. Faults change *costs*, never *values*.

use lcm::prelude::*;
use lcm::sim::FaultOutcome;
use lcm::tempest::MsgKind;
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

/// A small but protocol-rich workload: a dynamic-partition stencil
/// (ping-pongs boundary blocks, exercises copy-on-write phases,
/// reconciliation, and invalidations on all three systems).
fn stencil() -> lcm::apps::stencil::Stencil {
    lcm::apps::stencil::Stencil {
        rows: 24,
        cols: 24,
        iters: 3,
        partition: Partition::Dynamic,
    }
}

/// Runs `w` on `system` over a 4-node machine injecting `faults`.
fn run_faulty<W: Workload>(
    system: SystemKind,
    faults: FaultConfig,
    w: &W,
) -> (W::Output, RunResult) {
    let mc = MachineConfig::new(4).with_faults(faults);
    let (out, r, _) = execute(system, mc, RuntimeConfig::default(), w);
    (out, r)
}

/// A reduction workload: exercises the combining path and `reduce` RMWs.
fn array_sum_output(system: SystemKind, faults: FaultConfig) -> (f64, RunResult) {
    struct Sum;
    impl Workload for Sum {
        type Output = f64;
        fn run<P: MemoryProtocol>(&self, rt: &mut Runtime<P>) -> f64 {
            let a = rt.new_aggregate1::<f32>(256, Placement::Blocked, "a");
            rt.init1(a, |i| (i % 9) as f32);
            let total = rt.new_reduction_f64(ReduceOp::SumF64, 0.0, "total");
            rt.apply1(a, Partition::Static, |inv, i| {
                let v = inv.get(a.at(i)) as f64;
                inv.reduce_f64(total, v);
            });
            rt.peek_reduction(total)
        }
    }
    run_faulty(system, faults, &Sum)
}

/// An arbitrary mixed fault schedule, bounded so runs stay fast.
fn fault_schedule() -> impl proptest::strategy::Strategy<Value = FaultConfig> {
    (
        0u32..=80,
        0u32..=40,
        0u32..=40,
        1u64..400,
        0u64..u64::MAX,
        0u32..=50,
        1u64..20_000,
    )
        .prop_map(
            |(drop_pm, dup_pm, delay_pm, max_delay, seed, stall_pc, stall_cycles)| FaultConfig {
                // Per-mille rates keep the combined probability under 1.
                drop_rate: drop_pm as f64 / 1000.0,
                dup_rate: dup_pm as f64 / 1000.0,
                delay_rate: delay_pm as f64 / 1000.0,
                max_delay,
                seed,
                max_retries: 40,
                stall_rate: stall_pc as f64 / 100.0,
                stall_cycles,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: for every system, any fault schedule yields
    /// the bit-identical program output, the sanitizer stays silent
    /// (it runs inside harvest and panics on violation), and fault costs
    /// only ever slow the run down.
    #[test]
    fn any_fault_schedule_preserves_results(faults in fault_schedule()) {
        let w = stencil();
        for system in SystemKind::all() {
            let (clean_out, clean) =
                run_faulty(system, FaultConfig::default(), &w);
            let (faulty_out, faulty) =
                run_faulty(system, faults, &w);
            prop_assert_eq!(&clean_out, &faulty_out);
            prop_assert!(faulty.time >= clean.time);
            // Fault-free protocol work is unchanged: same misses, same
            // delivered first-attempt traffic shape.
            prop_assert_eq!(clean.misses(), faulty.misses());
            prop_assert_eq!(clean.totals.flushes, faulty.totals.flushes);
        }
    }

    /// Reductions (read-modify-write combining) survive faults exactly.
    #[test]
    fn reductions_are_fault_oblivious(faults in fault_schedule()) {
        for system in SystemKind::all() {
            let (clean, _) = array_sum_output(system, FaultConfig::default());
            let (faulty, r) = array_sum_output(system, faults);
            prop_assert_eq!(clean, faulty);
            prop_assert_eq!(r.net_dropped, r.totals.msgs_dropped);
        }
    }

    /// Message conservation: every delivered message is counted at both
    /// ends, dropped attempts at neither, and the network total equals
    /// the per-kind sum — no matter the schedule.
    #[test]
    fn message_accounting_is_conserved(faults in fault_schedule()) {
        let w = stencil();
        for system in SystemKind::all() {
            let (_, r) = run_faulty(system, faults, &w);
            prop_assert_eq!(r.totals.msgs_sent, r.totals.msgs_recv);
            prop_assert_eq!(r.msgs_total(), r.totals.msgs_sent);
            prop_assert_eq!(r.totals.msgs_dropped, r.net_dropped);
            prop_assert_eq!(r.totals.msgs_duplicated, r.net_duplicated);
            // Every duplicate was nacked.
            prop_assert_eq!(r.msgs_of(MsgKind::Nack), r.net_duplicated);
        }
    }

    /// Identical `(rates, seed)` pairs reproduce identical runs — cycle
    /// counts, statistics, and fault schedules.
    #[test]
    fn identical_seeds_reproduce_identical_runs(faults in fault_schedule()) {
        let w = stencil();
        for system in SystemKind::all() {
            let (out_a, a) = run_faulty(system, faults, &w);
            let (out_b, b) = run_faulty(system, faults, &w);
            prop_assert_eq!(out_a, out_b);
            prop_assert_eq!(a.time, b.time);
            prop_assert_eq!(&a.totals, &b.totals);
            prop_assert_eq!(&a.msg_kinds, &b.msg_kinds);
        }
    }
}

/// The acceptance sweep shape: drop rates {0, 0.001, 0.01, 0.05} on two
/// benchmarks, all three systems, bit-identical outputs throughout.
#[test]
fn acceptance_drop_rate_sweep_is_bit_identical() {
    let w = stencil();
    for system in SystemKind::all() {
        let mut reference = None;
        let mut last_time = 0u64;
        for rate in [0.0, 0.001, 0.01, 0.05] {
            let faults = FaultConfig::drops(rate, 0xC0FFEE);
            let (out, r) = run_faulty(system, faults, &w);
            match &reference {
                None => reference = Some(out),
                Some(expected) => assert_eq!(expected, &out, "{system} at drop rate {rate}"),
            }
            assert!(r.time >= last_time, "{system}: more drops, more cycles");
            last_time = r.time;
        }

        let mut sums = std::collections::BTreeSet::new();
        for rate in [0.0, 0.001, 0.01, 0.05] {
            let (sum, _) = array_sum_output(system, FaultConfig::drops(rate, 7));
            sums.insert(sum.to_bits());
        }
        assert_eq!(
            sums.len(),
            1,
            "{system}: reduction drifted across drop rates"
        );
    }
}

/// Barrier-aligned stalls slow nodes down deterministically without
/// changing results.
#[test]
fn barrier_stalls_change_time_not_results() {
    let w = stencil();
    let stalls = FaultConfig {
        stall_rate: 0.5,
        stall_cycles: 5_000,
        seed: 3,
        ..FaultConfig::default()
    };
    for system in SystemKind::all() {
        let (clean_out, clean) = run_faulty(system, FaultConfig::default(), &w);
        let (stalled_out, stalled) = run_faulty(system, stalls, &w);
        assert_eq!(clean_out, stalled_out);
        assert!(stalled.totals.stall_cycles > 0, "{system}: stalls occurred");
        assert!(stalled.time > clean.time, "{system}: stalls cost time");
        assert_eq!(clean.misses(), stalled.misses());
    }
}

/// The structured failure path: a hopeless network (100% drops) turns
/// the exhausted retransmission budget into a node-death verdict — the
/// receiver's crash counter ticks after the sender's full retry budget —
/// instead of hanging or silently succeeding.
#[test]
fn hopeless_network_fails_structurally() {
    use lcm::sim::{FaultPlan, Machine};
    use lcm::tempest::Network;
    let cfg = FaultConfig {
        drop_rate: 1.0,
        max_retries: 4,
        ..FaultConfig::default()
    };
    let mut m = Machine::new(MachineConfig::new(2).with_faults(cfg));
    let mut net = Network::new();
    net.send(&mut m, NodeId(0), NodeId(1), MsgKind::Flush, false);
    assert_eq!(m.stats(NodeId(1)).crashes, 1, "the receiver judged dead");
    assert_eq!(m.stats(NodeId(0)).crashes, 0);
    // Five attempts: the first plus four retries, each timed out.
    assert_eq!(m.stats(NodeId(0)).retries, 4);
    assert_eq!(m.stats(NodeId(0)).timeouts, 5);
    // The plan drew one outcome per attempt; the escalated delivery to
    // the restarted node consults it no further.
    assert_eq!(m.faults().decisions(), 5);
    let _ = FaultPlan::disabled(); // the disabled plan is part of the public API
    let _ = FaultOutcome::Deliver;
}
