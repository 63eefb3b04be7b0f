//! The trace-capture / replay contract (DESIGN.md §4f).
//!
//! Three guarantees, end to end:
//!
//! * **Round-trip fidelity** — serializing a capture to `.lcmtrace`
//!   bytes and parsing them back reproduces the identical event stream,
//!   machine configuration and footer.
//! * **Exact replay** — replaying a capture under its own cost model
//!   rebuilds every per-node clock and every cycle-ledger cell of the
//!   execution-driven run, for all four Figure-3 benchmarks on all
//!   three memory systems, including a capture taken under finite link
//!   bandwidth (so contention charges replay exactly too). Re-pricing
//!   at a link bandwidth of 2^63 or more, or at prices near `u64::MAX`,
//!   agrees between the event walk and the differential index instead
//!   of panicking or wrapping.
//! * **Explorer determinism and speed** — the design-space explorer
//!   produces byte-identical CSV at any worker count, and re-pricing a
//!   grid by replay beats re-executing it.

use lcm_apps::adaptive::Adaptive;
use lcm_apps::stencil::Stencil;
use lcm_apps::threshold::Threshold;
use lcm_apps::unstructured::Unstructured;
use lcm_apps::{SystemKind, Workload};
use lcm_bench::explore;
use lcm_cstar::{Partition, RuntimeConfig};
use lcm_replay::{compare_replayed, replay, reprice, validate, TraceFile};
use lcm_sim::{CostModel, CycleCat, Event, MachineConfig, NodeId, Topology, Trace};
use std::time::{Duration, Instant};

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

/// Validates one capture and cross-checks the replayed clocks/ledger
/// against the execution-driven footer (validate() already does this;
/// the explicit re-check here keeps the test meaningful if validate()
/// ever weakens).
fn assert_exact(file: &TraceFile, what: &str) {
    let r = validate(file).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(r.clocks, file.clocks, "{what}: clocks");
    assert_eq!(
        r.time,
        file.clocks.iter().copied().max().unwrap(),
        "{what}: time"
    );
    for n in 0..file.nodes {
        for cat in CycleCat::all() {
            assert_eq!(
                r.ledger.get(NodeId(n as u16), cat),
                file.ledger.get(NodeId(n as u16), cat),
                "{what}: node {n} {}",
                cat.label()
            );
        }
    }
}

#[test]
fn replay_reproduces_execution_on_every_benchmark_and_system() {
    for system in SystemKind::all() {
        assert_exact(
            &capture("Stencil-dyn", system, &Stencil::small(Partition::Dynamic)),
            &format!("Stencil-dyn/{system}"),
        );
        assert_exact(
            &capture("Adaptive-dyn", system, &Adaptive::small(Partition::Dynamic)),
            &format!("Adaptive-dyn/{system}"),
        );
        assert_exact(
            &capture("Threshold", system, &Threshold::small()),
            &format!("Threshold/{system}"),
        );
        assert_exact(
            &capture("Unstructured", system, &Unstructured::small()),
            &format!("Unstructured/{system}"),
        );
    }
}

#[test]
fn replay_is_exact_under_a_finite_bandwidth_capture() {
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
        let contention: u64 = (0..file.nodes)
            .map(|n| file.ledger.get(NodeId(n as u16), CycleCat::NetContention))
            .sum();
        assert!(
            contention > 0,
            "{system}: the 8 B/cycle capture must have seen contention"
        );
        assert_exact(&file, &format!("Stencil-dyn/{system} @ 8 B/cycle"));
    }
}

#[test]
fn huge_link_bandwidths_price_without_panicking() {
    // A per-hop `bandwidth * width` product would wrap to zero at 2^63 on
    // a width-2 link; pricing must divide once and agree across paths.
    let file = capture("Threshold", SystemKind::LcmMcc, &Threshold::small());
    let topologies = [
        Topology::default(),
        Topology::FatTree { arity: 2 },
        Topology::Crossbar,
        Topology::Flat,
    ];
    for bw in [1u64 << 63, u64::MAX] {
        let mut cost = file.cost;
        cost.link_bandwidth_bytes_per_cycle = bw;
        for topology in topologies {
            let full = replay(&file, &cost, topology);
            let diff = reprice(&file, &cost, topology);
            compare_replayed(&diff, &full).unwrap_or_else(|e| panic!("bw={bw} {topology}: {e}"));
            assert!(!full.links.is_empty(), "bw={bw} {topology}: fabric is live");
            // Every message fits one cycle of serialization per hop.
            for l in &full.links {
                assert!(
                    l.busy_cycles <= l.msgs * (1 + cost.ni_occupancy),
                    "bw={bw} {topology}: {} busy {} cycles",
                    l.label,
                    l.busy_cycles
                );
            }
        }
    }
}

/// Sets one cost-model price.
type SetPrice = fn(&mut CostModel, u64);

/// The prices whose sums can reach `u64::MAX` in one query: a setter
/// per field, with its index in wire order.
const HUGE_FIELDS: [(&str, usize, SetPrice); 4] = [
    ("remote_miss", 3, |c, v| c.remote_miss = v),
    ("barrier_base", 9, |c, v| c.barrier_base = v),
    ("msg_header_bytes", 14, |c, v| c.msg_header_bytes = v),
    ("ni_occupancy", 16, |c, v| c.ni_occupancy = v),
];

#[test]
fn huge_prices_saturate_identically_on_every_path() {
    // Clock, ledger, fabric and byte sums must saturate rather than
    // overflow; saturating sums of non-negative terms agree in any
    // order, so the event walk and the index still match exactly.
    let file = capture("Threshold", SystemKind::LcmMcc, &Threshold::small());
    for bw in [0u64, 16] {
        for (name, field, set) in HUGE_FIELDS {
            for v in [u64::MAX / 2, u64::MAX] {
                let mut cost = CostModel::cm5_grid(bw, 3_000);
                set(&mut cost, v);
                for topology in [Topology::default(), Topology::Crossbar] {
                    let full = replay(&file, &cost, topology);
                    let diff = reprice(&file, &cost, topology);
                    compare_replayed(&diff, &full)
                        .unwrap_or_else(|e| panic!("{name}={v} bw={bw} {topology}: {e}"));
                    if v == u64::MAX && file.index().field_sensitive(field, bw) {
                        assert!(
                            full.time == u64::MAX || full.totals.bytes_sent == u64::MAX,
                            "{name}={v} bw={bw} {topology}: a charged huge price saturates"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn trace_files_round_trip_through_bytes() {
    let file = capture("Threshold", SystemKind::LcmMcc, &Threshold::small());
    let bytes = file.to_bytes();
    let parsed = TraceFile::from_bytes(&bytes).expect("parses");
    assert!(file.events().eq(parsed.events()), "event stream");
    assert_eq!(file.clocks, parsed.clocks, "clocks");
    assert_eq!(file.cost, parsed.cost, "cost model");
    assert_eq!(file.topology, parsed.topology, "topology");
    assert_eq!(file.metadata, parsed.metadata, "metadata");
    assert_eq!(file.phases(), parsed.phases(), "phase index");
    assert_eq!(file.totals, parsed.totals, "totals");
    assert_eq!(file.fingerprint(), parsed.fingerprint(), "fingerprint");
    assert_eq!(bytes, parsed.to_bytes(), "re-serialization is stable");
    // The parsed file passes validation too: nothing was lost in transit.
    validate(&parsed).expect("parsed file validates");
}

#[test]
fn trace_files_survive_disk() {
    let file = capture("Threshold", SystemKind::LcmScc, &Threshold::small());
    let dir = std::env::temp_dir().join(format!("lcmtrace-test-{}", std::process::id()));
    let path = dir.join("threshold.lcmtrace");
    file.write_to(&path).expect("writes");
    let back = TraceFile::read_from(&path).expect("reads");
    assert!(file.events().eq(back.events()));
    std::fs::remove_dir_all(&dir).ok();
    // Missing files name the path in the error.
    let err = TraceFile::read_from(&path).expect_err("gone");
    assert!(
        err.contains("threshold.lcmtrace"),
        "error names the path: {err}"
    );
}

#[test]
fn explorer_is_deterministic_across_worker_counts() {
    let files: Vec<lcm_replay::TraceHandle> = SystemKind::all()
        .into_iter()
        .map(|s| std::sync::Arc::new(capture("Threshold", s, &Threshold::small())))
        .collect();
    let bandwidths = [0, 16, 4];
    let latencies = [500, 3000, 12000];
    let serial = explore::explore_grid(&files, &bandwidths, &latencies, 1);
    for jobs in [2, 4, 8] {
        let pooled = explore::explore_grid(&files, &bandwidths, &latencies, jobs);
        assert_eq!(serial, pooled, "jobs={jobs}: explorer rows diverged");
        assert_eq!(
            explore::explore_csv(&serial),
            explore::explore_csv(&pooled),
            "jobs={jobs}: CSV bytes diverged"
        );
    }
}

#[test]
fn replaying_a_grid_beats_reexecuting_it() {
    let w = Stencil::small(Partition::Dynamic);
    let system = SystemKind::LcmMcc;
    let bandwidths = [0, 16, 4];
    let latencies = [500, 3000, 12000];

    let file = std::sync::Arc::new(capture("Stencil-dyn", system, &w));
    // Each side is timed as its fastest of three interleaved repetitions
    // of the same deterministic work, so a burst of host load during one
    // repetition cannot decide the comparison.
    let (mut reexec_time, mut replay_time) = (Duration::MAX, Duration::MAX);
    let (mut reexec, mut replayed) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let start = Instant::now();
        reexec = explore::reexecute_grid(
            "Stencil-dyn",
            system,
            NODES,
            RuntimeConfig::default(),
            &w,
            &bandwidths,
            &latencies,
        );
        reexec_time = reexec_time.min(start.elapsed());

        let start = Instant::now();
        replayed = explore::explore_grid(std::slice::from_ref(&file), &bandwidths, &latencies, 1);
        replay_time = replay_time.min(start.elapsed());
    }

    assert_eq!(reexec.len(), replayed.len());
    // The capture-model point must agree exactly with re-execution; the
    // remaining points re-price the same fixed control flow.
    let baseline = replayed
        .iter()
        .zip(&reexec)
        .find(|(r, _)| r.bandwidth == 0 && r.latency == file.cost.remote_miss);
    if let Some((r, x)) = baseline {
        assert_eq!(r.time, x.time, "capture-model grid point");
    }
    assert!(
        replay_time < reexec_time,
        "replaying the grid ({replay_time:?}) must beat re-executing it ({reexec_time:?})"
    );
}

#[test]
fn replay_repricing_matches_reexecution_without_contention() {
    // Under unlimited bandwidth the simulator's control flow is
    // cost-model independent, so replay under a *different* model must
    // equal a genuine re-execution under that model.
    let w = Threshold::small();
    for system in SystemKind::all() {
        let file = capture("Threshold", system, &w);
        for &lat in &[500u64, 12000] {
            let cost = CostModel::cm5_grid(0, lat);
            let r = replay(&file, &cost, file.topology);
            let mc = MachineConfig::new(NODES).with_cost(cost);
            let exec = lcm_apps::execute(system, mc, RuntimeConfig::default(), &w).1;
            assert_eq!(
                r.time, exec.time,
                "{system} @ latency {lat}: replay vs re-execution"
            );
            assert_eq!(r.clocks, exec.clocks, "{system} @ latency {lat}: clocks");
        }
    }
}

/// Pins the encoding: the bytes of one smoke-size capture must not move.
/// A change to the event codec, the string table's numbering or any
/// header or footer field shows up here as a new length or checksum.
#[test]
fn smoke_capture_bytes_are_pinned() {
    let file = capture(
        "Stencil-dyn",
        SystemKind::LcmMcc,
        &Stencil::small(Partition::Dynamic),
    );
    let bytes = file.to_bytes();
    let checksum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    assert_eq!(
        (bytes.len(), checksum),
        (2_483_205, 0x3a53_c452_7dd0_16fb),
        "the .lcmtrace encoding moved"
    );
}

/// The adapter over a decoded stream and the constructor that adopts
/// the capture's log build the same file, byte for byte.
#[test]
fn adapter_and_adoption_agree_on_the_smoke_capture() {
    let mc = MachineConfig::new(NODES).with_cost(CostModel::cm5());
    let (nodes, topology, cost) = (mc.nodes, mc.topology, mc.cost);
    let (_, r, trace) = lcm_apps::execute(
        SystemKind::LcmMcc,
        mc.with_capture(explore::CAPTURE_CAPACITY),
        RuntimeConfig::default(),
        &Stencil::small(Partition::Dynamic),
    );
    let meta = vec![("benchmark".to_string(), "Stencil-dyn".to_string())];
    let (clocks, ledger, totals) = (r.clocks.clone(), r.ledger.clone(), r.totals.clone());
    let events = trace.to_vec();
    let adapted = TraceFile::from_capture(
        nodes,
        topology,
        cost,
        meta.clone(),
        events,
        clocks,
        &ledger,
        totals,
    )
    .expect("a complete stream");
    let adopted = TraceFile::from_trace(
        nodes, topology, cost, meta, trace, r.clocks, r.ledger, r.totals,
    )
    .expect("a complete trace");
    assert!(!adopted.phases().is_empty(), "the capture marks phases");
    assert_eq!(adapted.to_bytes(), adopted.to_bytes());
}

/// Validation checks the events, not only the footer: one event's
/// payload changed to another valid value, the checksum resealed,
/// parses and then fails validation.
#[test]
fn a_tampered_event_fails_validation() {
    let file = capture("Threshold", SystemKind::LcmMcc, &Threshold::small());
    // Bump the first work record whose cycle count's low 7-bit group
    // has room, so exactly one varint byte changes.
    let mut tampered = false;
    let mut trace = Trace::with_capacity(file.event_count());
    for ev in file.events() {
        let event = match ev.event {
            Event::Work { node, cycles, hits } if !tampered && cycles % 128 != 127 => {
                tampered = true;
                let cycles = cycles + 1;
                Event::Work { node, cycles, hits }
            }
            event => event,
        };
        trace.record_at(ev.cycle, event);
    }
    assert!(tampered, "the capture holds a work record");
    let (meta, clocks) = (file.metadata.clone(), file.clocks.clone());
    let (ledger, totals) = (file.ledger.clone(), file.totals.clone());
    let (nodes, topology, cost) = (file.nodes, file.topology, file.cost);
    let forged = TraceFile::from_trace(nodes, topology, cost, meta, trace, clocks, ledger, totals)
        .expect("a complete trace");
    let (good, bad) = (file.to_bytes(), forged.to_bytes());
    assert_eq!(good.len(), bad.len());
    let body = good.len() - 8;
    let moved = (0..body).filter(|&i| good[i] != bad[i]).count();
    assert_eq!(
        moved, 1,
        "one payload byte differs, then the resealed checksum"
    );
    let parsed = TraceFile::from_bytes(&bad).expect("the tampered file is well formed");
    let err = validate(&parsed).expect_err("the tampered event is caught");
    assert!(err.contains("diverge"), "unexpected error: {err}");
}
