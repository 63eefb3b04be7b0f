//! Hostile-input hardening for the `.lcmtrace` reader: bit flips,
//! truncations, resealed deep corruption, absurd length prefixes and
//! out-of-range indices must all come back as *named* `Err` strings —
//! never a panic, and never a giant speculative allocation.
//!
//! The checksum is verified before any parsing, so random corruption is
//! caught as a checksum mismatch; the interesting tests therefore
//! *reseal* the checksum after mutating, forcing the mutation through
//! the deeper validators.

use lcm_replay::codec::cost_from_fields;
use lcm_replay::{compare_replayed, replay, reprice, TraceFile, MAGIC, VERSION};
use lcm_sim::{
    BlockId, CostModel, CycleCat, CycleLedger, Event, Knob, NodeId, NodeStats, Stamped, Topology,
    Trace,
};
use proptest::prelude::*;

/// FNV-1a, matching the format's checksum (the algorithm is fixed by
/// the on-disk format, so reimplementing it here is not duplication —
/// a drift would be a format break this test should catch).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Recomputes and patches the trailing checksum so a mutation survives
/// the integrity check and reaches the structural validators.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len();
    assert!(n >= 8, "reseal needs room for the checksum");
    let sum = fnv1a(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
}

/// A representative capture with events of several shapes (charges,
/// messages, a phase mark, a barrier) — enough surface that random
/// mutations can land in every section of the file.
fn sample_file() -> TraceFile {
    let nodes = 3;
    let mut ledger = CycleLedger::new(nodes);
    ledger.charge(NodeId(0), CycleCat::Compute, 120);
    ledger.charge(NodeId(1), CycleCat::ReadStallRemote, 77);
    let events = vec![
        Stamped {
            seq: 0,
            cycle: 10,
            event: Event::Work {
                node: NodeId(0),
                cycles: 9,
                hits: 1,
            },
        },
        Stamped {
            seq: 1,
            cycle: 4,
            event: Event::Charge {
                node: NodeId(1),
                cat: CycleCat::ReadStallRemote,
                knob: Knob::RemoteMiss,
                units: 2,
            },
        },
        Stamped {
            seq: 2,
            cycle: 9,
            event: Event::MsgSend {
                from: NodeId(1),
                to: NodeId(0),
                kind: "GetShared",
                bytes: 48,
            },
        },
        Stamped {
            seq: 3,
            cycle: 20,
            event: Event::PhaseMark { label: "apply" },
        },
        Stamped {
            seq: 4,
            cycle: 25,
            event: Event::Barrier { at: 25 },
        },
        Stamped {
            seq: 5,
            cycle: 26,
            event: Event::ReadMiss {
                node: NodeId(2),
                block: BlockId(7),
                remote: true,
            },
        },
    ];
    TraceFile::from_capture(
        nodes,
        Topology::FatTree { arity: 4 },
        CostModel::cm5(),
        vec![("benchmark".into(), "fuzz".into())],
        events,
        vec![25, 25, 26],
        &ledger,
        NodeStats::default(),
    )
    .expect("sample capture is gap-free")
}

// ---------------------------------------------------------------------
// Hand-rolled writer for crafting malicious files from scratch.
// ---------------------------------------------------------------------

/// Number of serialized cost-model fields. Fixed by the version-2 wire
/// format; `layout_guard_parses_a_hand_rolled_file` fails loudly if the
/// real writer ever disagrees.
const COST_FIELDS: usize = 18;

struct Raw {
    out: Vec<u8>,
}

impl Raw {
    /// Starts a syntactically valid version-`VERSION` file: magic,
    /// version, node count, topology tag and a zeroed cost model.
    fn new(nodes: u64, topology_tag: u8) -> Raw {
        let mut r = Raw { out: Vec::new() };
        r.out.extend_from_slice(MAGIC);
        r.out.extend_from_slice(&VERSION.to_le_bytes());
        r.varint(nodes);
        r.byte(topology_tag); // 2 = Flat (no operand)
        for _ in 0..COST_FIELDS {
            r.varint(0);
        }
        r
    }

    fn byte(&mut self, b: u8) {
        self.out.push(b);
    }

    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.out.push(byte);
                return;
            }
            self.out.push(byte | 0x80);
        }
    }

    fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    fn string(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }

    fn u64_le(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Empty metadata section plus the (unchecked) fingerprint.
    fn no_metadata(&mut self) {
        self.varint(0);
        self.u64_le(0);
    }

    /// A well-formed footer for `nodes` nodes and `recorded` events.
    fn footer(&mut self, nodes: usize, recorded: u64) {
        for _ in 0..nodes {
            self.varint(0); // clock
        }
        for _ in 0..nodes * CycleCat::all().len() {
            self.varint(0); // ledger cell
        }
        for _ in 0..NodeStats::FIELDS {
            self.varint(0); // stats field
        }
        self.varint(recorded);
    }

    /// Appends the checksum and returns the finished file bytes.
    fn seal(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.out);
        self.out.extend_from_slice(&sum.to_le_bytes());
        self.out
    }
}

/// A minimal, completely empty but valid file: guards every other
/// hand-rolled test against wire-layout drift. If the real format
/// changes shape, this fails first and names the real problem.
fn empty_file_bytes() -> Vec<u8> {
    let mut r = Raw::new(1, 2);
    r.no_metadata();
    r.varint(0); // string table
    r.varint(0); // events
    r.varint(0); // phase index
    r.footer(1, 0);
    r.seal()
}

#[test]
fn layout_guard_parses_a_hand_rolled_file() {
    let f = TraceFile::from_bytes(&empty_file_bytes()).expect("hand-rolled layout matches reader");
    assert_eq!(f.nodes, 1);
    assert_eq!(f.topology, Topology::Flat);
    assert_eq!(f.event_count(), 0);
}

/// A version-2 file (the pre-directory-backend format: 31 stats fields,
/// 64-node bound) must be rejected by a version-3 reader with an error
/// naming both versions — the footer is unprefixed, so misparsing it
/// silently would corrupt every stats field after the 31st.
#[test]
fn older_version_is_rejected_naming_both_versions() {
    let mut bytes = empty_file_bytes();
    bytes[MAGIC.len()..MAGIC.len() + 2].copy_from_slice(&2u16.to_le_bytes());
    reseal(&mut bytes);
    let err = TraceFile::from_bytes(&bytes).expect_err("old version detected");
    assert!(
        err.contains("version 2") && err.contains(&format!("version {VERSION}")),
        "error must name the file's version and the reader's: {err}"
    );
}

/// A capture from a machine beyond the old 64-node wall round-trips:
/// kilonode node ids in events, clocks and the ledger all survive.
#[test]
fn kilonode_capture_round_trips() {
    let nodes = 1024;
    let mut ledger = CycleLedger::new(nodes);
    ledger.charge(NodeId(1023), CycleCat::Compute, 55);
    let events = vec![
        Stamped {
            seq: 0,
            cycle: 3,
            event: Event::ReadMiss {
                node: NodeId(1023),
                block: BlockId(9),
                remote: true,
            },
        },
        Stamped {
            seq: 1,
            cycle: 8,
            event: Event::MsgSend {
                from: NodeId(1023),
                to: NodeId(512),
                kind: "GetShared",
                bytes: 48,
            },
        },
    ];
    let mut clocks = vec![0u64; nodes];
    clocks[1023] = 55;
    let f = TraceFile::from_capture(
        nodes,
        Topology::FatTree { arity: 4 },
        CostModel::cm5(),
        vec![("benchmark".into(), "kilonode".into())],
        events,
        clocks.clone(),
        &ledger,
        NodeStats::default(),
    )
    .expect("kilonode capture is valid");
    let back = TraceFile::from_bytes(&f.to_bytes()).expect("kilonode file parses");
    assert_eq!(back.nodes, nodes);
    assert_eq!(back.clocks, clocks);
    assert_eq!(back.ledger.get(NodeId(1023), CycleCat::Compute), 55);
    assert_eq!(back.event_count(), 2);
}

/// The node bound rises with `lcm_sim::MAX_NODES`, not past it.
#[test]
fn node_count_beyond_max_nodes_is_rejected() {
    let mut r = Raw::new(1025, 2);
    r.no_metadata();
    let err = TraceFile::from_bytes(&r.seal()).expect_err("oversized node count");
    assert!(err.contains("implausible node count 1025"), "{err}");
}

// ---------------------------------------------------------------------
// Absurd length prefixes: named errors, not multi-gigabyte allocations.
// ---------------------------------------------------------------------

/// A count field claiming ~2^60 elements must be rejected before any
/// allocation happens. If `with_capacity` ran first, this test would be
/// an OOM kill, not a failure.
#[test]
fn absurd_counts_error_instead_of_allocating() {
    const HUGE: u64 = 1 << 60;

    // Metadata count.
    let mut r = Raw::new(1, 2);
    r.varint(HUGE);
    let err = TraceFile::from_bytes(&r.seal()).expect_err("huge metadata count");
    assert!(err.contains("implausible metadata count"), "{err}");

    // String-table count.
    let mut r = Raw::new(1, 2);
    r.no_metadata();
    r.varint(HUGE);
    let err = TraceFile::from_bytes(&r.seal()).expect_err("huge string count");
    assert!(err.contains("implausible string-table count"), "{err}");

    // Event count.
    let mut r = Raw::new(1, 2);
    r.no_metadata();
    r.varint(0);
    r.varint(HUGE);
    let err = TraceFile::from_bytes(&r.seal()).expect_err("huge event count");
    assert!(err.contains("implausible event count"), "{err}");

    // Phase-index count.
    let mut r = Raw::new(1, 2);
    r.no_metadata();
    r.varint(0);
    r.varint(0);
    r.varint(HUGE);
    let err = TraceFile::from_bytes(&r.seal()).expect_err("huge phase count");
    assert!(err.contains("implausible phase-index count"), "{err}");
}

// ---------------------------------------------------------------------
// Out-of-range indices: every referencing field is validated by name.
// ---------------------------------------------------------------------

#[test]
fn out_of_range_indices_are_named_errors() {
    // Unknown topology tag.
    let err = TraceFile::from_bytes(&Raw::new(1, 9).seal()).expect_err("bad topology");
    assert!(err.contains("unknown topology tag 9"), "{err}");

    // String index beyond the interned table (PhaseMark label).
    let mut r = Raw::new(1, 2);
    r.no_metadata();
    r.varint(1);
    r.string("GetShared");
    r.varint(1); // one event
    r.byte(19); // PhaseMark
    r.zigzag(0);
    r.varint(7); // label index: out of range
    let err = TraceFile::from_bytes(&r.seal()).expect_err("bad string index");
    assert!(err.contains("string index 7 out of range"), "{err}");

    // Node id beyond the node count (ReadMiss).
    let mut r = Raw::new(1, 2);
    r.no_metadata();
    r.varint(0);
    r.varint(1);
    r.byte(0); // ReadMiss
    r.zigzag(0);
    r.varint(9); // node id: out of range
    r.varint(0); // block
    r.byte(1); // remote
    let err = TraceFile::from_bytes(&r.seal()).expect_err("bad node id");
    assert!(err.contains("node id 9 out of range"), "{err}");

    // Cycle-category index beyond the table (ChargeRaw).
    let mut r = Raw::new(1, 2);
    r.no_metadata();
    r.varint(0);
    r.varint(1);
    r.byte(16); // ChargeRaw
    r.zigzag(0);
    r.varint(0); // node
    r.byte(200); // category index: out of range
    r.varint(1); // cycles
    let err = TraceFile::from_bytes(&r.seal()).expect_err("bad category");
    assert!(err.contains("unknown cycle category index 200"), "{err}");

    // Knob index beyond the table (Charge).
    let mut r = Raw::new(1, 2);
    r.no_metadata();
    r.varint(0);
    r.varint(1);
    r.byte(15); // Charge
    r.zigzag(0);
    r.varint(0); // node
    r.byte(0); // category
    r.byte(250); // knob index: out of range
    r.varint(1); // units
    let err = TraceFile::from_bytes(&r.seal()).expect_err("bad knob");
    assert!(err.contains("unknown knob index 250"), "{err}");

    // Unknown event opcode.
    let mut r = Raw::new(1, 2);
    r.no_metadata();
    r.varint(0);
    r.varint(1);
    r.byte(77); // opcode: unknown
    r.zigzag(0);
    let err = TraceFile::from_bytes(&r.seal()).expect_err("bad opcode");
    assert!(err.contains("unknown event opcode 77"), "{err}");
}

/// A fat tree of arity below 2 cannot be built into a contention fabric,
/// so a finite-bandwidth trace declaring one would decode and then
/// panic in every replay. The reader rejects it by name instead.
#[test]
fn degenerate_fat_tree_arity_is_a_named_error() {
    for arity in [0usize, 1] {
        let mut f = sample_file();
        f.topology = Topology::FatTree { arity };
        f.cost.link_bandwidth_bytes_per_cycle = 16;
        let err = TraceFile::from_bytes(&f.to_bytes()).expect_err("degenerate arity");
        assert!(
            err.contains(&format!("fat-tree arity {arity} is below 2")),
            "{err}"
        );
    }
    let mut f = sample_file();
    f.topology = Topology::FatTree { arity: 2 };
    f.cost.link_bandwidth_bytes_per_cycle = 16;
    let back = TraceFile::from_bytes(&f.to_bytes()).expect("arity 2 is a fabric");
    lcm_replay::replay(&back, &back.cost, back.topology);
}

#[test]
fn footer_cross_checks_are_enforced() {
    // Footer event count disagreeing with the stream.
    let mut r = Raw::new(1, 2);
    r.no_metadata();
    r.varint(0);
    r.varint(0);
    r.varint(0);
    r.footer(1, 3); // claims 3 events, stream holds 0
    let err = TraceFile::from_bytes(&r.seal()).expect_err("count mismatch");
    assert!(err.contains("footer says 3 events"), "{err}");

    // Junk after the footer.
    let mut r = Raw::new(1, 2);
    r.no_metadata();
    r.varint(0);
    r.varint(0);
    r.varint(0);
    r.footer(1, 0);
    r.byte(0xAB);
    let err = TraceFile::from_bytes(&r.seal()).expect_err("trailing bytes");
    assert!(err.contains("trailing bytes"), "{err}");
}

/// Cycle stamps are summed from signed deltas. A file whose deltas carry
/// a stamp past `i64::MAX` (or below zero) names the event instead of
/// overflowing.
#[test]
fn cycle_stamp_overflow_is_a_named_error() {
    for (deltas, event) in [([i64::MAX, 1], 1), ([0, -1], 1), ([-5, 0], 0)] {
        let mut r = Raw::new(1, 2);
        r.no_metadata();
        r.varint(0);
        r.varint(2);
        for d in deltas {
            r.byte(10); // Barrier
            r.zigzag(d);
        }
        r.varint(0);
        r.footer(1, 2);
        let err = TraceFile::from_bytes(&r.seal()).expect_err("stamp out of range");
        assert!(
            err.contains(&format!("cycle stamp overflows at event {event}")),
            "{deltas:?}: {err}"
        );
    }
}

/// `Charge.units` and `Reconcile.versions` are 32-bit: a wider varint is
/// a named error, not a silent truncation that misprices the charge.
#[test]
fn wide_32_bit_fields_are_named_errors() {
    let mut r = Raw::new(1, 2);
    r.no_metadata();
    r.varint(0);
    r.varint(1);
    r.byte(15); // Charge
    r.zigzag(0);
    r.varint(0); // node
    r.byte(0); // category
    r.byte(0); // knob
    r.varint(1 << 32); // units
    let err = TraceFile::from_bytes(&r.seal()).expect_err("wide units");
    assert!(err.contains("charge units 4294967296 exceeds u32"), "{err}");

    let mut r = Raw::new(1, 2);
    r.no_metadata();
    r.varint(0);
    r.varint(1);
    r.byte(6); // Reconcile
    r.zigzag(0);
    r.varint(3); // block
    r.varint(1 << 32); // versions
    let err = TraceFile::from_bytes(&r.seal()).expect_err("wide versions");
    assert!(
        err.contains("reconcile versions 4294967296 exceeds u32"),
        "{err}"
    );
}

/// A one-node file holding a Barrier at cycle 4 then a PhaseMark
/// `"apply"` at cycle 9, with `entries` as its phase seek table.
fn phase_file(entries: &[(u64, u64, u64)]) -> Vec<u8> {
    let mut r = Raw::new(1, 2);
    r.no_metadata();
    r.varint(1);
    r.string("apply");
    r.varint(2);
    r.byte(10); // Barrier
    r.zigzag(4);
    r.byte(19); // PhaseMark
    r.zigzag(5);
    r.varint(0); // "apply"
    r.varint(entries.len() as u64);
    for &(label, event, cycle) in entries {
        r.varint(label);
        r.varint(event);
        r.varint(cycle);
    }
    r.footer(1, 2);
    r.seal()
}

/// The phase seek table must list exactly the stream's phase marks: an
/// entry past the stream, one that points at another event or carries
/// another cycle, and a missing entry are named errors.
#[test]
fn phase_seek_table_is_checked_against_the_marks() {
    let f = TraceFile::from_bytes(&phase_file(&[(0, 1, 9)])).expect("matching table");
    assert_eq!(f.phases().len(), 1);
    let ev = f.events().nth(f.phases()[0].event as usize);
    assert_eq!(
        ev.map(|ev| ev.event),
        Some(Event::PhaseMark { label: "apply" })
    );

    let err = TraceFile::from_bytes(&phase_file(&[(0, 2, 9)])).expect_err("past the stream");
    assert!(
        err.contains("phase index entry 0 points at event 2, past the stream"),
        "{err}"
    );
    for entry in [(0, 0, 4), (0, 1, 8)] {
        let err = TraceFile::from_bytes(&phase_file(&[entry])).expect_err("wrong target");
        assert!(
            err.contains("phase index entry 0") && err.contains("does not match"),
            "{entry:?}: {err}"
        );
    }
    let err = TraceFile::from_bytes(&phase_file(&[])).expect_err("missing entry");
    assert!(
        err.contains("phase index lists 0 of the stream's 1 phase marks"),
        "{err}"
    );
}

/// A two-node file whose events are `write` over an empty label table.
fn two_node_file(events: u64, write: impl FnOnce(&mut Raw)) -> Vec<u8> {
    let mut r = Raw::new(2, 2);
    r.no_metadata();
    r.varint(0);
    r.varint(events);
    write(&mut r);
    r.varint(0);
    r.footer(2, events);
    r.seal()
}

/// Senders short-circuit self-sends, so a transfer from a node to
/// itself never crosses the network; the contention fabric cannot route
/// one. The reader names it instead of handing it to replay.
#[test]
fn self_transfer_is_a_named_error() {
    let bytes = two_node_file(2, |r| {
        for (from, to) in [(0, 1), (1, 1)] {
            r.byte(18); // Xfer
            r.zigzag(0);
            r.varint(from);
            r.varint(to);
            r.varint(8); // bytes
        }
    });
    let err = TraceFile::from_bytes(&bytes).expect_err("self-transfer");
    assert!(err.contains("self-transfer at event 1"), "{err}");
}

/// Differential pricing equals full pricing on every file that parses,
/// even where the index's sums pass `u64::MAX`: transfer sizes, work
/// cycles and cache hits that together overflow saturate on both paths.
#[test]
fn index_sums_saturate_like_full_pricing() {
    const HALF: u64 = 1 << 63;
    let bytes = two_node_file(6, |r| {
        for _ in 0..2 {
            r.byte(18); // Xfer 0 -> 1
            r.zigzag(0);
            r.varint(0);
            r.varint(1);
            r.varint(HALF);
            r.byte(17); // Work on node 0
            r.zigzag(0);
            r.varint(0);
            r.varint(HALF); // cycles
            r.varint(HALF); // hits
        }
        r.byte(10); // Barrier
        r.zigzag(0);
        r.byte(17); // Work on node 1
        r.zigzag(0);
        r.varint(1);
        r.varint(HALF);
        r.varint(HALF);
    });
    let f = TraceFile::from_bytes(&bytes).expect("a well-formed file");
    for cost in [f.cost, CostModel::cm5(), CostModel::cm5_grid(16, 3000)] {
        let (diff, full) = (
            reprice(&f, &cost, f.topology),
            replay(&f, &cost, f.topology),
        );
        assert_eq!(full.totals.bytes_sent, u64::MAX, "the full walk saturates");
        compare_replayed(&diff, &full).expect("differential == full");
    }
}

/// A sender's cache hits between two of its transfers that sum past
/// `u64::MAX` saturate its pending delta as the full walk saturates its
/// clock. Priced at one cache-hit cycle each on a one-byte-per-cycle
/// fabric: the saturated sender sends its second transfer long after
/// the first one's backlog drained, where a wrapped sum would send it
/// five cycles later, into that backlog.
#[test]
fn a_senders_hit_sum_saturates_between_its_transfers() {
    const HALF: u64 = 1 << 63;
    let xfer = |r: &mut Raw, bytes: u64| {
        r.byte(18); // Xfer 0 -> 1
        r.zigzag(0);
        r.varint(0);
        r.varint(1);
        r.varint(bytes);
    };
    let bytes = two_node_file(4, |r| {
        xfer(r, 1 << 16);
        for hits in [HALF, HALF + 5] {
            r.byte(17); // Work on node 0
            r.zigzag(0);
            r.varint(0);
            r.varint(0); // cycles
            r.varint(hits);
        }
        xfer(r, 8);
    });
    let f = TraceFile::from_bytes(&bytes).expect("a well-formed file");
    let mut cost = CostModel::cm5();
    cost.cache_hit = 1;
    cost.link_bandwidth_bytes_per_cycle = 1;
    for topology in [Topology::Crossbar, Topology::FatTree { arity: 4 }] {
        let (diff, full) = (reprice(&f, &cost, topology), replay(&f, &cost, topology));
        compare_replayed(&diff, &full).expect("differential == full");
    }
}

/// Builds a valid event from random draws: node ids below `nodes`,
/// labels from a small mixed set, a barrier's `at` equal to its stamp
/// (the encoding stores that value once), and transfers between two
/// distinct nodes.
fn event_from(nodes: u16, op: u8, cycle: u64, a: u64, b: u64) -> Event {
    const LABELS: [&str; 4] = ["GetShared", "apply", "read_fault", "prop-only-label"];
    let node = NodeId((a % u64::from(nodes)) as u16);
    let peer = NodeId((b % u64::from(nodes)) as u16);
    let label = LABELS[(b % 4) as usize];
    let block = BlockId(b);
    match op {
        0 => Event::ReadMiss {
            node,
            block,
            remote: a & 1 == 1,
        },
        1 => Event::WriteMiss {
            node,
            block,
            remote: a & 2 == 2,
        },
        2 => Event::Upgrade { node, block },
        3 => Event::Mark { node, block },
        4 => Event::CleanCopy { node, block },
        5 => Event::Flush { node, block },
        6 => Event::Reconcile {
            block,
            versions: a as u32,
        },
        7 => Event::Invalidate { node, block },
        8 => Event::WwConflict {
            block,
            word: a as u8,
        },
        9 => Event::RwConflict { block },
        10 => Event::Barrier { at: cycle },
        11 => Event::MsgSend {
            from: node,
            to: peer,
            kind: label,
            bytes: a,
        },
        12 => Event::MsgRecv {
            node,
            from: peer,
            kind: label,
            bytes: a,
        },
        13 => Event::SpanBegin {
            node,
            what: label,
            block,
        },
        14 => Event::SpanEnd {
            node,
            what: label,
            block,
        },
        15 => Event::Charge {
            node,
            cat: CycleCat::all()[(b % CycleCat::COUNT as u64) as usize],
            knob: Knob::all()[(a % Knob::COUNT as u64) as usize],
            units: b as u32,
        },
        16 => Event::ChargeRaw {
            node,
            cat: CycleCat::all()[(a % CycleCat::COUNT as u64) as usize],
            cycles: b,
        },
        17 => Event::Work {
            node,
            cycles: a,
            hits: b,
        },
        18 => Event::Xfer {
            from: node,
            to: if peer == node {
                NodeId((node.0 + 1) % nodes)
            } else {
                peer
            },
            bytes: b,
        },
        _ => Event::PhaseMark { label },
    }
}

// ---------------------------------------------------------------------
// Property tests: random hostility never panics the reader.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A single flipped bit anywhere in the file is always rejected
    /// (the checksum covers every byte, including itself: flipping a
    /// checksum byte makes the stored and computed values disagree).
    #[test]
    fn any_bit_flip_is_rejected(pos_seed in 0u64..u64::MAX, bit in 0u8..8) {
        let bytes = sample_file().to_bytes();
        let mut mutated = bytes.clone();
        let pos = (pos_seed % mutated.len() as u64) as usize;
        mutated[pos] ^= 1 << bit;
        prop_assert!(mutated != bytes || TraceFile::from_bytes(&mutated).is_ok());
        if mutated != bytes {
            let err = TraceFile::from_bytes(&mutated).expect_err("flip detected");
            prop_assert!(!err.is_empty());
        }
    }

    /// Every possible truncation errors by name — "file too short" for
    /// stubs, a checksum mismatch otherwise — and never panics.
    #[test]
    fn any_truncation_is_rejected(len_seed in 0u64..u64::MAX) {
        let bytes = sample_file().to_bytes();
        let len = (len_seed % bytes.len() as u64) as usize;
        let err = TraceFile::from_bytes(&bytes[..len]).expect_err("truncation detected");
        prop_assert!(
            err.contains("too short") || err.contains("checksum"),
            "unexpected error for len {len}: {err}"
        );
    }

    /// Resealed deep corruption — a mutation hidden behind a valid
    /// checksum — may parse (some bytes are free-form) or fail with a
    /// named error, but must never panic or hang on an allocation.
    /// This drives the structural validators directly.
    #[test]
    fn resealed_corruption_never_panics(
        pos_seed in 0u64..u64::MAX,
        patch in any::<u8>(),
    ) {
        let mut bytes = sample_file().to_bytes();
        // Skip magic+version (10 bytes) to reach the deep validators,
        // and the checksum tail which reseal overwrites anyway.
        let lo = 10;
        let hi = bytes.len() - 8;
        let pos = lo + (pos_seed % (hi - lo) as u64) as usize;
        bytes[pos] = patch;
        reseal(&mut bytes);
        // The property is completion without panic; both outcomes are
        // legal, and errors must carry a message.
        if let Err(e) = TraceFile::from_bytes(&bytes) {
            prop_assert!(!e.is_empty());
        }
    }

    /// Pure garbage of any length is rejected without panicking.
    #[test]
    fn random_garbage_is_rejected(bytes in proptest::collection::vec(any::<u8>(), 0usize..256)) {
        // A random buffer passing FNV-1a + magic is beyond astronomically
        // unlikely; assert rejection outright.
        prop_assert!(TraceFile::from_bytes(&bytes).is_err());
    }

    /// Resealed garbage (valid checksum, random content) still never
    /// panics — it must fall out through magic/version/structure checks.
    #[test]
    fn resealed_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 18usize..256)) {
        let mut bytes = bytes.clone();
        reseal(&mut bytes);
        if let Err(e) = TraceFile::from_bytes(&bytes) {
            prop_assert!(!e.is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any valid stream comes back equal through both encoded paths:
    /// recorded into a `Trace` and decoded, and assembled into a trace
    /// file, serialized, parsed and walked. Re-serializing the parse
    /// reproduces the bytes.
    #[test]
    fn random_streams_round_trip_through_both_paths(
        draws in proptest::collection::vec(
            (0u8..20, any::<u64>(), 0u32..64, any::<u64>(), any::<u64>()),
            0usize..48,
        ),
    ) {
        let stream: Vec<Stamped> = draws
            .iter()
            .enumerate()
            .map(|(i, &(op, c, shift, a, b))| {
                // Stamps of every magnitude up to i64::MAX, in any order.
                let cycle = (c >> 1) >> shift;
                Stamped {
                    seq: i as u64,
                    cycle,
                    event: event_from(1024, op, cycle, a, b),
                }
            })
            .collect();

        let mut trace = Trace::with_capacity(stream.len());
        for ev in &stream {
            trace.record_at(ev.cycle, ev.event);
        }
        prop_assert_eq!(trace.to_vec(), stream.clone());

        let nodes = 1024;
        let f = TraceFile::from_capture(
            nodes,
            Topology::Crossbar,
            CostModel::cm5(),
            Vec::new(),
            stream.clone(),
            vec![0; nodes],
            &CycleLedger::new(nodes),
            NodeStats::default(),
        )
        .expect("gap-free stream");
        let bytes = f.to_bytes();
        let back = TraceFile::from_bytes(&bytes).expect("a valid stream parses");
        prop_assert_eq!(back.events().collect::<Vec<_>>(), stream);
        prop_assert_eq!(back.to_bytes(), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The pricing identity on streams nobody wrote by hand: on a
    /// 16-node machine, under random capture and query cost models
    /// (link bandwidth 0, 1 or past 2^63, any price up to `u64::MAX`)
    /// and on every topology, differential re-pricing equals the full
    /// event walk field for field.
    #[test]
    fn random_streams_reprice_like_the_full_walk(
        draws in proptest::collection::vec(
            (0u8..40, any::<u64>(), (0u32..96, 0u32..96), any::<u64>(), any::<u64>()),
            0usize..96,
        ),
        cost_seed in any::<u64>(),
    ) {
        const NODES: u16 = 16;
        // Half the draws are priced events (charges, work, transfers),
        // so a node's charges often precede its own send in a segment.
        // Two independent shifts spread an event's two magnitudes (work
        // cycles and hits, say) from a few bits to the full word, a
        // third of them full words, so sums of two overflow often.
        let stream: Vec<Stamped> = draws
            .iter()
            .enumerate()
            .map(|(i, &(op, c, (sa, sb), a, b))| {
                let op = if op < 20 { op } else { 15 + op % 4 };
                let (sa, sb) = (sa.saturating_sub(32), sb.saturating_sub(32));
                let cycle = (c >> 1) >> sa;
                Stamped {
                    seq: i as u64,
                    cycle,
                    event: event_from(NODES, op, cycle, a >> sa, b >> sb),
                }
            })
            .collect();
        let mut rng = lcm_sim::Pcg32::new(cost_seed, 0);
        let nodes = usize::from(NODES);
        let f = TraceFile::from_capture(
            nodes,
            Topology::Crossbar,
            random_cost(&mut rng),
            Vec::new(),
            stream,
            vec![0; nodes],
            &CycleLedger::new(nodes),
            NodeStats::default(),
        )
        .expect("gap-free stream");
        for _ in 0..4 {
            let cost = random_cost(&mut rng);
            for topology in [Topology::FatTree { arity: 4 }, Topology::Crossbar, Topology::Flat] {
                let (diff, full) = (reprice(&f, &cost, topology), replay(&f, &cost, topology));
                if let Err(e) = compare_replayed(&diff, &full) {
                    prop_assert!(false, "{topology} under {cost:?}: {e}");
                }
            }
        }
    }
}

/// A random cost model: each price tiny (so one unit of an overflowed
/// count does not saturate), large, random or `u64::MAX`, and the link
/// bandwidth 0 (no fabric), 1, 2^63 or `u64::MAX`.
fn random_cost(rng: &mut lcm_sim::Pcg32) -> CostModel {
    let mut fields = [0u64; COST_FIELDS];
    for f in &mut fields {
        *f = match rng.below(4) {
            0 => rng.below(4),
            1 => rng.below(1 << 20),
            2 => u64::MAX,
            _ => rng.next_u64(),
        };
    }
    fields[15] = [0, 1, 1 << 63, u64::MAX][rng.below(4) as usize];
    cost_from_fields(&fields)
}
