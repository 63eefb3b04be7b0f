//! The critical-path analyzer's contract (DESIGN.md §4h).
//!
//! Three guarantees, end to end:
//!
//! * **Path identity** — the extracted critical path's length equals the
//!   capture's makespan bit-for-bit, on every Figure-3 benchmark on all
//!   three memory systems, including a finite-bandwidth capture and a
//!   faulty (message-dropping) capture; and the analyzer's per-category
//!   totals equal the replay engine's cycle ledger exactly.
//! * **Edge reality** — every message edge the analyzer matched points
//!   at a genuinely recorded `MsgSend`/`MsgRecv` pair in the stream,
//!   never at an invented dependency.
//! * **Causal what-ifs** — the exactly-checkable projection (zeroing
//!   `net_contention`) equals a genuine replay at unlimited bandwidth,
//!   and the tolerance-checked projection (doubling the remote-stall
//!   categories) lands within 10% of a genuine replay with
//!   `remote_miss` doubled.

use lcm_apps::adaptive::Adaptive;
use lcm_apps::stencil::Stencil;
use lcm_apps::threshold::Threshold;
use lcm_apps::unstructured::Unstructured;
use lcm_apps::{SystemKind, Workload};
use lcm_bench::explore;
use lcm_cstar::Partition;
use lcm_replay::{analyze, replay, validate, CritPath, TraceFile};
use lcm_sim::{CostModel, CycleCat, Event, FaultConfig, MachineConfig, NodeId, Stamped};

const NODES: usize = 8;

fn capture<W: Workload>(benchmark: &str, system: SystemKind, w: &W) -> TraceFile {
    explore::capture_workload(
        benchmark,
        "smoke",
        system,
        MachineConfig::new(NODES).with_cost(CostModel::cm5()),
        w,
    )
    .expect("capture holds the whole stream")
}

/// Path length == makespan, and the analyzer's category totals ==
/// the replay engine's ledger, summed over nodes.
fn assert_path_identity(file: &TraceFile, what: &str) -> CritPath {
    let r = validate(file).unwrap_or_else(|e| panic!("{what}: {e}"));
    let cp = analyze(file);
    assert_eq!(cp.makespan, r.time, "{what}: analyzer makespan");
    assert_eq!(
        cp.path_length(),
        cp.makespan,
        "{what}: path length != makespan"
    );
    let totals = cp.total_by_cat();
    for cat in CycleCat::all() {
        let ledger: u64 = (0..file.nodes)
            .map(|n| r.ledger.get(NodeId(n as u16), cat))
            .sum();
        assert_eq!(
            totals[cat.index()],
            ledger,
            "{what}: {} total diverges from the replay ledger",
            cat.label()
        );
    }
    // On-path cycles are a subset of the totals, category by category.
    for (on, total) in cp.on_path_by_cat().iter().zip(&totals) {
        assert!(on <= total, "{what}: on-path exceeds total");
    }
    cp
}

#[test]
fn path_equals_makespan_on_every_benchmark_and_system() {
    for system in SystemKind::all() {
        assert_path_identity(
            &capture("Stencil-dyn", system, &Stencil::small(Partition::Dynamic)),
            &format!("Stencil-dyn/{system}"),
        );
        assert_path_identity(
            &capture("Adaptive-dyn", system, &Adaptive::small(Partition::Dynamic)),
            &format!("Adaptive-dyn/{system}"),
        );
        assert_path_identity(
            &capture("Threshold", system, &Threshold::small()),
            &format!("Threshold/{system}"),
        );
        assert_path_identity(
            &capture("Unstructured", system, &Unstructured::small()),
            &format!("Unstructured/{system}"),
        );
    }
}

#[test]
fn path_holds_under_finite_bandwidth_and_whatif_is_exact() {
    let mut cost = CostModel::cm5();
    cost.link_bandwidth_bytes_per_cycle = 8;
    for system in SystemKind::all() {
        let file = explore::capture_workload(
            "Stencil-dyn",
            "smoke",
            system,
            MachineConfig::new(NODES).with_cost(cost),
            &Stencil::small(Partition::Dynamic),
        )
        .expect("capture holds the whole stream");
        let cp = assert_path_identity(&file, &format!("Stencil-dyn/{system} @ 8 B/cycle"));
        let nc = cp.total_by_cat()[CycleCat::NetContention.index()];
        assert!(
            nc > 0,
            "{system}: the 8 B/cycle capture must see contention"
        );
        // Zeroing net_contention is exactly checkable: no other charge in
        // the stream depends on the link model, so the projection must
        // equal a genuine replay of the trace at unlimited bandwidth.
        let mut bw0 = file.cost;
        bw0.link_bandwidth_bytes_per_cycle = 0;
        let r0 = replay(&file, &bw0, file.topology);
        assert_eq!(
            cp.whatif(&[CycleCat::NetContention], 0),
            r0.time,
            "{system}: net_contention x0% projection vs zero-bandwidth replay"
        );
        // Leaving every category alone projects the makespan itself.
        assert_eq!(
            cp.whatif(&[CycleCat::NetContention], 100),
            cp.makespan,
            "{system}: x100% is the identity projection"
        );
    }
}

#[test]
fn path_holds_on_a_faulty_capture() {
    // Message drops trigger timeouts and retries; the retry charges land
    // in the stream like any other, so the path identity must survive.
    let file = explore::capture_workload(
        "Threshold",
        "smoke",
        SystemKind::LcmMcc,
        MachineConfig::new(NODES).with_faults(FaultConfig::drops(0.05, 42)),
        &Threshold::small(),
    )
    .expect("capture holds the whole stream");
    let cp = assert_path_identity(&file, "Threshold/LCM-mcc @ 5% drops");
    assert!(
        cp.total_by_cat()[CycleCat::RetryBackoff.index()] > 0,
        "the faulty capture must have retried"
    );
    // Only successful deliveries record send/recv pairs (a lost attempt
    // charges retry cycles without an event), so even a faulty stream
    // matches cleanly — nothing is invented and nothing dangles.
    assert!(
        file.totals.msgs_dropped > 0,
        "the fault plan must have dropped messages"
    );
    assert_eq!(cp.unmatched_sends, 0, "faulty capture still matches FIFO");
    assert_eq!(cp.unmatched_recvs, 0, "faulty capture still matches FIFO");
}

#[test]
fn path_edges_are_real_recorded_dependencies() {
    let file = capture("Unstructured", SystemKind::LcmMcc, &Unstructured::small());
    let cp = analyze(&file);
    assert!(!cp.edges.is_empty(), "Unstructured must exchange messages");
    // An event's seq is its position; look each edge endpoint up by it
    // and demand a genuinely recorded event of the right shape.
    let events: Vec<Stamped> = file.events().collect();
    let at = |seq: u64| {
        let ev = events
            .get(seq as usize)
            .unwrap_or_else(|| panic!("seq {seq} not in the stream"));
        assert_eq!(ev.seq, seq, "seq is the position");
        ev
    };
    for edge in &cp.edges {
        let send = at(edge.send_seq);
        match send.event {
            Event::MsgSend {
                from,
                to,
                kind,
                bytes,
            } => {
                assert_eq!((from, to), (edge.from, edge.to), "send endpoints");
                assert_eq!(kind, edge.kind, "send kind");
                assert_eq!(bytes, edge.bytes, "send bytes");
                assert_eq!(send.cycle, edge.send_cycle, "send cycle stamp");
            }
            ref other => panic!("edge send seq {} is {other:?}", edge.send_seq),
        }
        let recv = at(edge.recv_seq);
        match recv.event {
            Event::MsgRecv {
                node, from, kind, ..
            } => {
                assert_eq!((from, node), (edge.from, edge.to), "recv endpoints");
                assert_eq!(kind, edge.kind, "recv kind");
                assert_eq!(recv.cycle, edge.recv_cycle, "recv cycle stamp");
            }
            ref other => panic!("edge recv seq {} is {other:?}", edge.recv_seq),
        }
        assert!(edge.send_seq < edge.recv_seq, "sends precede their recvs");
    }
}

#[test]
fn analysis_is_identical_for_capture_and_disk_round_trip() {
    let file = capture("Threshold", SystemKind::LcmScc, &Threshold::small());
    let dir = std::env::temp_dir().join(format!("lcm-critpath-test-{}", std::process::id()));
    let path = dir.join("threshold.lcmtrace");
    file.write_to(&path).expect("writes");
    let back = TraceFile::read_from(&path).expect("reads");
    std::fs::remove_dir_all(&dir).ok();
    let a = analyze(&file);
    let b = analyze(&back);
    // CritPath is pure data; Debug formatting covers every field.
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "capture vs disk");
}

#[test]
fn remote_stall_whatif_tracks_genuine_replay_within_tolerance() {
    // Doubling the remote-stall categories approximates a replay with
    // remote_miss doubled. They diverge only where the engine prices a
    // charge by `remote_miss - msg_send` (§4h documents the limit), so
    // the projection must land within 10% on every system.
    for (name, file) in [
        (
            "Stencil-dyn",
            capture(
                "Stencil-dyn",
                SystemKind::Stache,
                &Stencil::small(Partition::Dynamic),
            ),
        ),
        (
            "Threshold",
            capture("Threshold", SystemKind::LcmMcc, &Threshold::small()),
        ),
        (
            "Unstructured",
            capture("Unstructured", SystemKind::LcmScc, &Unstructured::small()),
        ),
    ] {
        let cp = analyze(&file);
        let pred = cp.whatif(
            &[CycleCat::ReadStallRemote, CycleCat::WriteStallRemote],
            200,
        );
        let mut rm2 = file.cost;
        rm2.remote_miss *= 2;
        let r2 = replay(&file, &rm2, file.topology);
        let err = 100.0 * (pred as f64 - r2.time as f64) / r2.time as f64;
        assert!(
            err.abs() <= 10.0,
            "{name}: remote_stalls x200% projects {pred}, genuine replay says {} ({err:+.2}%)",
            r2.time
        );
    }
}
