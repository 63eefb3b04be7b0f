//! The `.lcmtrace` capture file: a versioned, compact binary encoding of
//! one captured charge stream plus everything replay needs to re-price
//! it.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! magic      8 bytes  "LCMTRACE"
//! version    u16 LE   bumped on any incompatible layout change
//! header     nodes, topology (tag byte + fat-tree arity), the full
//!            18-field CostModel in declaration order, and a list of
//!            (key, value) metadata strings
//! fingerprint u64 LE  FNV-1a over the serialized header — one value
//!            identifying the capture's machine config + cost model
//! strings    interned string table (message-kind labels, span and
//!            phase labels); events reference strings by table index
//! events     count, then per event: opcode byte, zigzag-varint delta
//!            of the cycle stamp from the previous event, payload
//! phase index one entry per PhaseMark, in stream order: (label, event
//!            index, cycle) — a seek table for consumers that want one
//!            phase; the event log keeps it, and the reader checks the
//!            file's copy against the marks
//! footer     final per-node clocks, the per-node × per-category cycle
//!            ledger, summed NodeStats, event count (cross-check)
//! checksum   u64 LE   FNV-1a over every preceding byte of the file
//! ```
//!
//! Versioning policy: the opcode table, the [`lcm_sim::Knob`] and
//! [`lcm_sim::CycleCat`] dense indices, and the [`NodeStats::FIELDS`]
//! array order are wire format — extend them at the end, never renumber.
//! Any change that would misread an old file bumps `VERSION`; the reader
//! rejects files whose version it does not know.
//!
//! The event section and the phase seek table are [`lcm_sim::codec`]'s
//! [`EventLog`], the log a [`lcm_sim::Trace`] records into: a capture
//! becomes a file by adopting that log ([`TraceFile::from_trace`]), and a
//! loaded file keeps the section as is.
//! Varints, strings, the cost model and the topology go through
//! [`crate::codec`], which the `lcm-serve` wire protocol shares.

use crate::codec::{put_cost_model, put_str, put_topology, put_varint, Cursor};
use crate::index::DiffIndex;
use lcm_sim::{
    fnv1a, CostModel, CycleCat, CycleLedger, EventLog, Events, NodeId, NodeStats, PhaseEntry,
    Stamped, Topology, Trace,
};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// File magic: the first eight bytes of every `.lcmtrace`.
pub const MAGIC: &[u8; 8] = b"LCMTRACE";
/// Current format version.
///
/// Version history:
/// * 1 — initial format (11 cycle categories, 28 stats fields);
/// * 2 — recovery support widened the unprefixed footer: three cycle
///   categories (`checkpoint`, `rollback`, `crash_detect`) and three
///   stats fields (`checkpoints`, `checkpoint_bytes`, `crashes`) were
///   appended, so a version-1 reader would misparse the ledger.
/// * 3 — directory backends: two stats fields (`dir_overflows`,
///   `spurious_invals`) appended to the unprefixed footer, and the
///   header's node bound raised with [`lcm_sim::MAX_NODES`] from 64
///   to 1024.
pub const VERSION: u16 = 3;

/// Resolves a string read from a trace file to a `&'static str`, so the
/// deserialized [`lcm_sim::Event`]s are the same type the machine records.
///
/// Labels the simulator is known to emit (message kinds, the runtime's
/// phase names, protocol span names) resolve to the program's own static
/// strings; anything else is leaked once and cached process-wide, so a
/// replay loop over many files cannot leak without bound.
fn intern(s: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        // lcm_tempest::MsgKind::label values.
        "GetShared",
        "GetExclusive",
        "Upgrade",
        "Invalidate",
        "Ack",
        "Writeback",
        "Flush",
        "CleanFill",
        "StaleRefresh",
        "Nack",
        "Retry",
        // Runtime phase labels and protocol span names.
        "init",
        "apply",
        "read_fault",
        "write_fault",
        "reconcile",
        "mark",
        "flush",
    ];
    if let Some(k) = KNOWN.iter().find(|k| **k == s) {
        return k;
    }
    static LEAKED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut leaked = LEAKED.lock().expect("intern cache poisoned");
    if let Some(k) = leaked.iter().find(|k| **k == s) {
        return k;
    }
    let s: &'static str = Box::leak(s.to_string().into_boxed_str());
    leaked.push(s);
    s
}

/// An in-memory `.lcmtrace`: the captured charge stream with its machine
/// configuration, plus the execution-driven outcome (clocks, ledger,
/// summed statistics) replay validates against.
///
/// The event stream stays in its file encoding, an [`EventLog`]: walks
/// decode it through [`TraceFile::events`], so a loaded trace costs its
/// file size, not a decoded copy. The log also holds the phase seek
/// table ([`TraceFile::phases`]).
///
/// The file owns its differential-pricing [`DiffIndex`], built at most
/// once, on first use ([`TraceFile::index`]). The index summarizes the
/// stream and the capture-time `cost.msg_header_bytes`; the stream
/// cannot change, and the header size must not be mutated after the
/// index is built, or [`crate::reprice`] prices the old trace.
#[derive(Clone, Debug)]
pub struct TraceFile {
    /// Number of simulated nodes.
    pub nodes: usize,
    /// Network topology of the capture.
    pub topology: Topology,
    /// Cost model the capture ran under.
    pub cost: CostModel,
    /// Free-form (key, value) pairs: benchmark name, scale, system, …
    pub metadata: Vec<(String, String)>,
    /// Final per-node clocks of the execution-driven run.
    pub clocks: Vec<u64>,
    /// Per-node, per-category cycle attribution of the run.
    pub ledger: CycleLedger,
    /// Summed protocol counters of the run.
    pub totals: NodeStats,
    log: EventLog,
    index: OnceLock<DiffIndex>,
}

impl TraceFile {
    /// Assembles a trace file from a finished capture, adopting the
    /// trace's encoded log — events, label table and phase seek table —
    /// as is: the stream is neither decoded nor encoded again.
    ///
    /// Fails when the trace dropped events: its bounded buffer
    /// overflowed, and a replay of an incomplete stream would silently
    /// underprice the run.
    #[allow(clippy::too_many_arguments)]
    pub fn from_trace(
        nodes: usize,
        topology: Topology,
        cost: CostModel,
        metadata: Vec<(String, String)>,
        trace: Trace,
        clocks: Vec<u64>,
        ledger: CycleLedger,
        totals: NodeStats,
    ) -> Result<TraceFile, String> {
        if clocks.len() != nodes {
            return Err(format!(
                "capture has {} clocks for {nodes} nodes",
                clocks.len()
            ));
        }
        if trace.dropped() > 0 {
            return Err(format!(
                "capture dropped {} events: the capture buffer overflowed, so \
                 the stream cannot account for every charged cycle — recapture \
                 with a larger buffer",
                trace.dropped()
            ));
        }
        Ok(TraceFile {
            nodes,
            topology,
            cost,
            metadata,
            clocks,
            ledger,
            totals,
            log: trace.into_log(),
            index: OnceLock::new(),
        })
    }

    /// An adapter for callers that hold a decoded stream: records
    /// `events` into a [`Trace`] and adopts it ([`TraceFile::from_trace`]).
    /// A sequence gap means the stream lost events, and fails as a
    /// dropped capture does.
    ///
    /// Only the host benchmark still calls this; delete it when that
    /// benchmark next changes and captures through
    /// [`TraceFile::from_trace`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_capture(
        nodes: usize,
        topology: Topology,
        cost: CostModel,
        metadata: Vec<(String, String)>,
        events: Vec<Stamped>,
        clocks: Vec<u64>,
        ledger: &CycleLedger,
        totals: NodeStats,
    ) -> Result<TraceFile, String> {
        let mut trace = Trace::with_capacity(events.len());
        for (i, ev) in events.into_iter().enumerate() {
            if ev.seq != i as u64 {
                return Err(format!(
                    "capture stream has a sequence gap at event {i} (seq {}): \
                     the capture buffer overflowed and dropped events, so the \
                     stream cannot account for every charged cycle — recapture \
                     with a larger buffer",
                    ev.seq
                ));
            }
            trace.record_at(ev.cycle, ev.event);
        }
        let ledger = ledger.clone();
        TraceFile::from_trace(
            nodes, topology, cost, metadata, trace, clocks, ledger, totals,
        )
    }

    /// The event stream, decoded as it is walked, in record order; each
    /// event's `seq` is its position.
    pub fn events(&self) -> Events<'_> {
        self.log.iter()
    }

    /// Number of events in the stream.
    pub fn event_count(&self) -> usize {
        self.log.len()
    }

    /// The phase seek table: one entry per [`lcm_sim::Event::PhaseMark`],
    /// in stream order.
    pub fn phases(&self) -> &[PhaseEntry] {
        self.log.phases()
    }

    /// How many events carry opcode `code` ([`lcm_sim::codec::op`]),
    /// counted without a walk.
    pub fn count_of(&self, code: u8) -> u64 {
        self.log.count(code)
    }

    /// The differential-pricing index of this trace, built by the first
    /// call (one pass over the stream) and shared by every later one.
    pub fn index(&self) -> &DiffIndex {
        self.index.get_or_init(|| DiffIndex::build(self))
    }

    /// The index if some earlier call to [`TraceFile::index`] built it.
    pub fn index_if_built(&self) -> Option<&DiffIndex> {
        self.index.get()
    }

    /// Looks up a metadata value by key.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.metadata
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The serialized header section (without magic/version): what the
    /// fingerprint covers.
    fn header_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, self.nodes as u64);
        put_topology(&mut out, self.topology);
        put_cost_model(&mut out, &self.cost);
        put_varint(&mut out, self.metadata.len() as u64);
        for (k, v) in &self.metadata {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
        out
    }

    /// The capture's machine-configuration fingerprint: FNV-1a over the
    /// serialized header (nodes, topology, cost model, metadata). Two
    /// captures with equal fingerprints ran under identical pricing.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.header_bytes())
    }

    /// Serializes the file to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024 + self.log.bytes().len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        let header = self.header_bytes();
        out.extend_from_slice(&header);
        out.extend_from_slice(&fnv1a(&header).to_le_bytes());

        // The label table and the event section, verbatim.
        let labels = self.log.labels();
        put_varint(&mut out, labels.len() as u64);
        for s in labels {
            put_str(&mut out, s);
        }
        put_varint(&mut out, self.log.len() as u64);
        out.extend_from_slice(self.log.bytes());

        // Phase seek table.
        put_varint(&mut out, self.phases().len() as u64);
        for p in self.phases() {
            put_varint(&mut out, p.label);
            put_varint(&mut out, p.event);
            put_varint(&mut out, p.cycle);
        }

        // Footer: the execution-driven outcome.
        for &c in &self.clocks {
            put_varint(&mut out, c);
        }
        for n in 0..self.nodes {
            for cat in CycleCat::all() {
                put_varint(&mut out, self.ledger.get(NodeId(n as u16), cat));
            }
        }
        for v in self.totals.as_array() {
            put_varint(&mut out, v);
        }
        put_varint(&mut out, self.log.len() as u64);
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses a serialized `.lcmtrace`, verifying magic, version and
    /// checksum.
    pub fn from_bytes(buf: &[u8]) -> Result<TraceFile, String> {
        if buf.len() < MAGIC.len() + 2 + 8 {
            return Err("not a .lcmtrace: file too short".to_string());
        }
        let (body, tail) = buf.split_at(buf.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        let computed = fnv1a(body);
        if stored != computed {
            return Err(format!(
                "checksum mismatch: file says {stored:#018x}, contents hash to {computed:#018x}"
            ));
        }
        let mut c = Cursor::new(body);
        if c.take(MAGIC.len())? != MAGIC {
            return Err("not a .lcmtrace: bad magic".to_string());
        }
        let version = c.u16_le()?;
        if version != VERSION {
            return Err(format!(
                "unsupported .lcmtrace version {version} (this build reads version {VERSION})"
            ));
        }
        let nodes = c.varint()? as usize;
        if nodes == 0 || nodes > lcm_sim::MAX_NODES {
            return Err(format!("implausible node count {nodes}"));
        }
        let topology = c.topology()?;
        let cost = c.cost_model()?;
        // Each metadata pair is two strings of at least one byte each.
        let n_meta = c.element_count(2, "metadata")?;
        let mut metadata = Vec::with_capacity(n_meta);
        for _ in 0..n_meta {
            let k = c.string()?;
            let v = c.string()?;
            metadata.push((k, v));
        }
        let _fingerprint = c.u64_le()?;

        let n_strings = c.element_count(1, "string-table")?;
        let mut strings: Vec<&'static str> = Vec::with_capacity(n_strings);
        for _ in 0..n_strings {
            strings.push(intern(&c.string()?));
        }

        // One structural pass over the events, which also records the
        // phase seek table the file's copy must match.
        let n_events = c.element_count(2, "event")?;
        let (log, end) = EventLog::decode(body, c.offset(), n_events, strings, nodes)
            .map_err(|e| e.to_string())?;
        c.take(end - c.offset())?;

        let marks = log.phases();
        let n_phases = c.element_count(3, "phase-index")?;
        for i in 0..n_phases {
            let label = c.varint()?;
            let (event_index, cycle) = (c.varint()?, c.varint()?);
            let name = usize::try_from(label)
                .ok()
                .and_then(|l| log.labels().get(l))
                .ok_or_else(|| {
                    format!(
                        "string index {label} out of range ({} interned)",
                        log.labels().len()
                    )
                })?;
            if event_index >= n_events as u64 {
                return Err(format!(
                    "phase index entry {i} points at event {event_index}, past the \
                     stream's {n_events} events"
                ));
            }
            let entry = PhaseEntry {
                event: event_index,
                cycle,
                label,
            };
            if marks.get(i) != Some(&entry) {
                return Err(format!(
                    "phase index entry {i} ({name:?} at event {event_index}, cycle \
                     {cycle}) does not match the stream's phase marks"
                ));
            }
        }
        if n_phases != marks.len() {
            return Err(format!(
                "phase index lists {n_phases} of the stream's {} phase marks",
                marks.len()
            ));
        }

        let mut clocks = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            clocks.push(c.varint()?);
        }
        let mut ledger = CycleLedger::new(nodes);
        for n in 0..nodes {
            for cat in CycleCat::all() {
                ledger.charge(NodeId(n as u16), cat, c.varint()?);
            }
        }
        let mut stats = [0u64; NodeStats::FIELDS];
        for v in &mut stats {
            *v = c.varint()?;
        }
        let totals = NodeStats::from_array(stats);
        let recorded = c.varint()?;
        if recorded != n_events as u64 {
            return Err(format!(
                "footer says {recorded} events but the stream holds {n_events}"
            ));
        }
        if c.remaining() != 0 {
            return Err(format!("{} trailing bytes after the footer", c.remaining()));
        }
        Ok(TraceFile {
            nodes,
            topology,
            cost,
            metadata,
            clocks,
            ledger,
            totals,
            log,
            index: OnceLock::new(),
        })
    }

    /// Writes the file to `path`, naming the path on failure.
    pub fn write_to(&self, path: &Path) -> Result<(), String> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("failed to create {}: {e}", parent.display()))?;
        }
        std::fs::write(path, self.to_bytes())
            .map_err(|e| format!("failed to write {}: {e}", path.display()))
    }

    /// Reads and parses a `.lcmtrace` from `path`, naming the path on
    /// failure.
    pub fn read_from(path: &Path) -> Result<TraceFile, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("failed to read {}: {e}", path.display()))?;
        TraceFile::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// A cheap shared handle to a decoded trace: clone it freely, the event
/// stream is not copied.
pub type TraceHandle = Arc<TraceFile>;

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_sim::{BlockId, Event, Knob};

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
                cycle: 4,
                event: Event::Xfer {
                    from: NodeId(1),
                    to: NodeId(0),
                    bytes: 48,
                },
            },
            Stamped {
                seq: 3,
                cycle: 9,
                event: Event::MsgSend {
                    from: NodeId(1),
                    to: NodeId(0),
                    kind: "GetShared",
                    bytes: 48,
                },
            },
            Stamped {
                seq: 4,
                cycle: 20,
                event: Event::PhaseMark { label: "apply" },
            },
            Stamped {
                seq: 5,
                cycle: 25,
                event: Event::Barrier { at: 25 },
            },
            Stamped {
                seq: 6,
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
            vec![("benchmark".into(), "unit".into())],
            events,
            vec![25, 25, 26],
            &ledger,
            NodeStats::default(),
        )
        .expect("sample capture is gap-free")
    }

    #[test]
    fn round_trips_byte_identically() {
        let f = sample_file();
        let bytes = f.to_bytes();
        let g = TraceFile::from_bytes(&bytes).expect("parses");
        assert!(f.events().eq(g.events()));
        assert_eq!(f.clocks, g.clocks);
        assert_eq!(f.nodes, g.nodes);
        assert_eq!(f.topology, g.topology);
        assert_eq!(f.cost, g.cost);
        assert_eq!(f.metadata, g.metadata);
        assert_eq!(f.phases(), g.phases());
        assert_eq!(f.totals, g.totals);
        for n in 0..f.nodes {
            for cat in CycleCat::all() {
                assert_eq!(
                    f.ledger.get(NodeId(n as u16), cat),
                    g.ledger.get(NodeId(n as u16), cat)
                );
            }
        }
        // Re-serializing the parse reproduces the same bytes.
        assert_eq!(bytes, g.to_bytes());
    }

    #[test]
    fn phase_index_points_at_the_marks() {
        let f = sample_file();
        assert_eq!(f.phases().len(), 1);
        let mark = f.phases()[0];
        assert_eq!((mark.event, mark.cycle), (4, 20));
        let ev = f.events().nth(mark.event as usize).expect("in the stream");
        assert_eq!(ev.event, Event::PhaseMark { label: "apply" });
    }

    /// The adapter and the adopting constructor build the same file,
    /// byte for byte, from the same stream.
    #[test]
    fn adapter_and_adoption_serialize_identically() {
        let f = sample_file();
        let mut trace = Trace::with_capacity(f.event_count());
        for ev in f.events() {
            trace.record_at(ev.cycle, ev.event);
        }
        let (clocks, ledger) = (f.clocks.clone(), f.ledger.clone());
        let (meta, totals) = (f.metadata.clone(), f.totals.clone());
        let g = TraceFile::from_trace(
            f.nodes, f.topology, f.cost, meta, trace, clocks, ledger, totals,
        )
        .expect("a complete trace");
        assert_eq!(g.to_bytes(), f.to_bytes());
    }

    #[test]
    fn overflowed_traces_are_rejected() {
        let f = sample_file();
        let mut trace = Trace::with_capacity(1);
        for ev in f.events() {
            trace.record_at(ev.cycle, ev.event);
        }
        let (clocks, ledger) = (f.clocks.clone(), f.ledger.clone());
        let totals = f.totals.clone();
        let err = TraceFile::from_trace(
            f.nodes,
            f.topology,
            f.cost,
            Vec::new(),
            trace,
            clocks,
            ledger,
            totals,
        )
        .expect_err("dropped events");
        assert!(
            err.contains("capture dropped 6 events"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn fingerprint_tracks_the_machine_configuration() {
        let a = sample_file();
        let mut b = sample_file();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.cost.remote_miss += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn corruption_is_detected() {
        let f = sample_file();
        let mut bytes = f.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = TraceFile::from_bytes(&bytes).expect_err("corrupt file rejected");
        assert!(err.contains("checksum"), "unexpected error: {err}");
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let f = sample_file();
        let mut bad_magic = f.to_bytes();
        bad_magic[0] = b'X';
        // Fix the checksum so the magic check itself is exercised.
        let n = bad_magic.len();
        let sum = fnv1a(&bad_magic[..n - 8]);
        bad_magic[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(TraceFile::from_bytes(&bad_magic)
            .expect_err("bad magic")
            .contains("magic"));

        let mut bad_version = f.to_bytes();
        bad_version[8] = 0xEE;
        bad_version[9] = 0xEE;
        let n = bad_version.len();
        let sum = fnv1a(&bad_version[..n - 8]);
        bad_version[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(TraceFile::from_bytes(&bad_version)
            .expect_err("bad version")
            .contains("version"));
    }

    #[test]
    fn dropped_captures_are_rejected() {
        let f = sample_file();
        // Simulate a ring-buffer overflow: the first surviving event has
        // a non-zero sequence number.
        let mut events: Vec<Stamped> = f.events().collect();
        events[0].seq = 5;
        let err = TraceFile::from_capture(
            f.nodes,
            f.topology,
            f.cost,
            f.metadata.clone(),
            events,
            f.clocks.clone(),
            &f.ledger,
            f.totals,
        )
        .expect_err("gapped stream rejected");
        assert!(err.contains("sequence gap"), "unexpected error: {err}");
    }

    #[test]
    fn intern_resolves_known_labels_to_the_same_pointer() {
        let a = intern("GetShared");
        let b = intern("GetShared");
        assert!(std::ptr::eq(a, b));
        let c = intern("some-novel-label");
        let d = intern("some-novel-label");
        assert!(std::ptr::eq(c, d), "leak cache deduplicates");
    }
}
