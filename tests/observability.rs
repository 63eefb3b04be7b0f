//! Observability invariants: the cycle ledger conserves every simulated
//! cycle (per-node category sums equal the node clocks, on every
//! benchmark and every system), and the structured event stream
//! reconciles *exactly* with the `NodeStats` counters — tracing is a
//! view of the same execution, never a second bookkeeping system that
//! can drift.

use lcm::prelude::*;
use lcm::sim::Event;

/// A protocol-rich workload: dynamic-partition stencil (copy-on-write
/// phases, reconciliation, boundary ping-pong on all three systems).
fn stencil() -> lcm::apps::stencil::Stencil {
    lcm::apps::stencil::Stencil {
        rows: 24,
        cols: 24,
        iters: 3,
        partition: Partition::Dynamic,
    }
}

/// Asserts the conservation invariant directly on a harvested result:
/// every cycle of every node's clock is attributed to exactly one
/// category.
fn assert_conserved(label: &str, r: &RunResult) {
    assert_eq!(r.clocks.len(), r.ledger.nodes(), "{label}: node count");
    for (n, &clock) in r.clocks.iter().enumerate() {
        let node = NodeId(n as u16);
        let sum: u64 = CycleCat::all().iter().map(|&c| r.ledger.get(node, c)).sum();
        assert_eq!(
            sum, clock,
            "{label}: node {n} categories sum to {sum}, clock reads {clock}"
        );
        assert_eq!(r.ledger.node_total(node), clock, "{label}: node_total");
    }
}

/// Every benchmark of the suite, on every system, conserves cycles.
/// (The sanitizer asserts this inside every harvest too; this test makes
/// the invariant visible and keeps it covered even if the sanitizer's
/// harvest wiring changes.)
#[test]
fn cycle_ledger_conserves_on_every_benchmark() {
    let suite = Suite::run(Scale::Smoke, 1);
    for b in Benchmark::all() {
        for s in SystemKind::all() {
            let r = suite.result(b, s);
            assert_conserved(&format!("{}/{}", b.label(), s.label()), r);
            let grand: u64 = r.ledger.totals().iter().sum();
            assert_eq!(grand, r.clocks.iter().sum::<u64>(), "machine-wide sum");
        }
    }
}

/// Conservation must survive an unreliable network: retry/backoff stalls
/// land in their own category, not in a rounding gap.
#[test]
fn cycle_ledger_conserves_under_faults() {
    let w = stencil();
    for s in SystemKind::all() {
        let faults = FaultConfig::drops(0.02, 0xC0FFEE);
        let mc = MachineConfig::new(4).with_faults(faults);
        let (_, r, _) = execute(s, mc, RuntimeConfig::default(), &w);
        assert_conserved(&format!("faulty/{}", s.label()), &r);
        assert!(
            r.ledger.cat_total(CycleCat::RetryBackoff) > 0,
            "{}: dropped messages must surface as retry/backoff cycles",
            s.label()
        );
    }
}

/// The event stream reconciles exactly with the `NodeStats` counters for
/// a small Stencil run on all three protocols: every counted miss,
/// upgrade, mark, flush, invalidation, message, and barrier has exactly
/// one trace event, and nothing was dropped.
#[test]
fn trace_events_reconcile_with_node_stats() {
    let w = stencil();
    for s in SystemKind::all() {
        let mc = MachineConfig::new(4).with_trace(1 << 22);
        let (_, r, trace) = execute(s, mc, RuntimeConfig::default(), &w);
        let label = s.label();
        assert_eq!(r.trace_dropped, 0, "{label}: buffer must hold the run");
        assert_eq!(r.trace_events, trace.len(), "{label}: event count");

        // Sequence numbers are the recording order, gap-free.
        for (i, e) in trace.events().enumerate() {
            assert_eq!(e.seq, i as u64, "{label}: seq gap at {i}");
        }

        let count =
            |f: &dyn Fn(&Event) -> bool| trace.events().filter(|e| f(&e.event)).count() as u64;
        let t = &r.totals;
        assert_eq!(
            count(&|e| matches!(e, Event::ReadMiss { .. })),
            t.read_miss_local + t.read_miss_remote,
            "{label}: read misses"
        );
        assert_eq!(
            count(&|e| matches!(e, Event::WriteMiss { .. })),
            t.write_miss_local + t.write_miss_remote,
            "{label}: write misses"
        );
        assert_eq!(
            count(&|e| matches!(e, Event::ReadMiss { remote: true, .. })),
            t.read_miss_remote,
            "{label}: remote read misses"
        );
        assert_eq!(
            count(&|e| matches!(e, Event::Upgrade { .. })),
            t.upgrades,
            "{label}: upgrades"
        );
        assert_eq!(
            count(&|e| matches!(e, Event::Mark { .. })),
            t.marks,
            "{label}: marks"
        );
        assert_eq!(
            count(&|e| matches!(e, Event::CleanCopy { .. })),
            t.clean_copies,
            "{label}: clean copies"
        );
        assert_eq!(
            count(&|e| matches!(e, Event::Flush { .. })),
            t.flushes,
            "{label}: flushes"
        );
        assert_eq!(
            count(&|e| matches!(e, Event::Invalidate { .. })),
            t.invalidations_sent,
            "{label}: invalidations"
        );
        assert_eq!(
            count(&|e| matches!(e, Event::MsgSend { .. })),
            t.msgs_sent,
            "{label}: message sends"
        );
        assert_eq!(
            count(&|e| matches!(e, Event::MsgRecv { .. })),
            t.msgs_recv,
            "{label}: message receipts"
        );
        // One Barrier event per global barrier; stats count per node.
        assert_eq!(
            count(&|e| matches!(e, Event::Barrier { .. })) * 4,
            t.barriers,
            "{label}: barriers"
        );
        // Wire-byte accounting: send and receive sides agree, and the
        // per-kind histogram carried by the result sums to the totals.
        assert_eq!(t.bytes_sent, t.bytes_recv, "{label}: byte conservation");
        let per_kind: u64 = r.msg_bytes.iter().map(|&(_, b)| b).sum();
        assert_eq!(per_kind, t.bytes_sent, "{label}: per-kind byte sum");
        let event_bytes: u64 = (trace.events())
            .filter_map(|e| match e.event {
                Event::MsgSend { bytes, .. } => Some(bytes),
                _ => None,
            })
            .sum();
        assert_eq!(event_bytes, t.bytes_sent, "{label}: event byte sum");

        // Span events are balanced and cycle stamps never run backwards.
        let begins = count(&|e| matches!(e, Event::SpanBegin { .. }));
        let ends = count(&|e| matches!(e, Event::SpanEnd { .. }));
        assert_eq!(begins, ends, "{label}: span balance");
        // Phase boundaries were stamped: one init plus one per step.
        assert!(!r.phases.is_empty(), "{label}: phases recorded");
        assert_eq!(r.phases[0].label, "init", "{label}: first phase");
        assert_eq!(
            r.phases.iter().filter(|p| p.label == "apply").count(),
            3,
            "{label}: one apply phase per iteration"
        );
        for w in r.phases.windows(2) {
            assert!(w[0].at <= w[1].at, "{label}: phase cycles monotonic");
        }
    }
}

/// Tracing off (the default) records nothing and drops nothing — the
/// zero-cost-when-off contract, checked through the public path.
#[test]
fn tracing_off_records_nothing() {
    let mc = MachineConfig::new(4);
    let (_, r, trace) = execute(SystemKind::LcmMcc, mc, RuntimeConfig::default(), &stencil());
    assert!(trace.is_empty());
    assert_eq!(r.trace_events, 0);
    assert_eq!(r.trace_dropped, 0);
    // The ledger and phases still work with tracing off.
    assert_conserved("untraced", &r);
    assert!(!r.phases.is_empty());
}
