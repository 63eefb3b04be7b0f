//! The event codec: the `.lcmtrace` event encoding, which is also the
//! in-memory form of every recorded event stream.
//!
//! An [`EventLog`] holds events exactly as a `.lcmtrace` file's event
//! section lays them out: per event an opcode byte ([`op`]), the
//! zigzag-varint delta of the cycle stamp from the previous event, then
//! the payload as LEB128 varints and single bytes. String fields
//! (message kinds, span and phase labels) are indices into the log's
//! label table, numbered in first-use order. The log also keeps the
//! file's phase seek table: one [`PhaseEntry`] per [`Event::PhaseMark`].
//! The bounded [`crate::Trace`] records into a log, and `lcm-replay`'s
//! trace file adopts that log as is, so a captured stream costs its
//! encoded size — about seven bytes an event — rather than a 48-byte
//! [`Stamped`] per event, from the machine to the `.lcmtrace` file.
//!
//! Every walk decodes through the [`Events`] iterator. Its hot loop
//! reads one-byte varints on a fast path, checks every range with
//! `get`, and builds no `String` except on the error path. The same
//! decoder validates untrusted bytes ([`EventLog::decode`]), so a log
//! that passed validation always decodes.
//!
//! The opcode table and the [`Knob`] and [`CycleCat`] dense indices are
//! wire format: extend them at the end, never renumber.

use crate::cost::Knob;
use crate::machine::NodeId;
use crate::mem::BlockId;
use crate::profile::CycleCat;
use crate::trace::{Event, Stamped};

/// Event opcodes: the first byte of every encoded event.
pub mod op {
    /// [`crate::Event::ReadMiss`].
    pub const READ_MISS: u8 = 0;
    /// [`crate::Event::WriteMiss`].
    pub const WRITE_MISS: u8 = 1;
    /// [`crate::Event::Upgrade`].
    pub const UPGRADE: u8 = 2;
    /// [`crate::Event::Mark`].
    pub const MARK: u8 = 3;
    /// [`crate::Event::CleanCopy`].
    pub const CLEAN_COPY: u8 = 4;
    /// [`crate::Event::Flush`].
    pub const FLUSH: u8 = 5;
    /// [`crate::Event::Reconcile`].
    pub const RECONCILE: u8 = 6;
    /// [`crate::Event::Invalidate`].
    pub const INVALIDATE: u8 = 7;
    /// [`crate::Event::WwConflict`].
    pub const WW_CONFLICT: u8 = 8;
    /// [`crate::Event::RwConflict`].
    pub const RW_CONFLICT: u8 = 9;
    /// [`crate::Event::Barrier`].
    pub const BARRIER: u8 = 10;
    /// [`crate::Event::MsgSend`].
    pub const MSG_SEND: u8 = 11;
    /// [`crate::Event::MsgRecv`].
    pub const MSG_RECV: u8 = 12;
    /// [`crate::Event::SpanBegin`].
    pub const SPAN_BEGIN: u8 = 13;
    /// [`crate::Event::SpanEnd`].
    pub const SPAN_END: u8 = 14;
    /// [`crate::Event::Charge`].
    pub const CHARGE: u8 = 15;
    /// [`crate::Event::ChargeRaw`].
    pub const CHARGE_RAW: u8 = 16;
    /// [`crate::Event::Work`].
    pub const WORK: u8 = 17;
    /// [`crate::Event::Xfer`].
    pub const XFER: u8 = 18;
    /// [`crate::Event::PhaseMark`].
    pub const PHASE_MARK: u8 = 19;
    /// Number of opcodes.
    pub const COUNT: usize = 20;
}

/// Node ids a [`NodeId`] can hold: the bound a log of unknown machine
/// size decodes under.
const NODE_IDS: usize = 1 << 16;

/// Appends `v` as an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, v: u64) {
    let mut e = Scratch::new();
    e.varint(v);
    out.extend_from_slice(e.bytes());
}

/// Reads the LEB128 varint at `*pos` and advances past it. Inlined
/// whole: a one-byte varint, the common field, costs one bounds check
/// and one compare, and a cycle delta's few bytes stay in the loop.
#[inline(always)]
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*pos) else {
            return Err(DecodeError::Truncated { offset: *pos });
        };
        *pos += 1;
        if shift >= 64 {
            return Err(DecodeError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Why encoded events failed to decode. Displays as the named error the
/// `.lcmtrace` reader reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended inside a field.
    Truncated {
        /// Where the missing byte should have been.
        offset: usize,
    },
    /// A varint ran past 64 bits.
    VarintOverflow,
    /// An opcode outside [`op`].
    UnknownOpcode {
        /// The opcode byte.
        op: u8,
        /// Position of the event in the stream.
        event: u64,
    },
    /// A node id at or beyond the machine's node count.
    NodeId {
        /// The id read.
        id: u64,
        /// The node count.
        nodes: usize,
    },
    /// A label index beyond the label table.
    StringIndex {
        /// The index read.
        index: u64,
        /// The table's length.
        labels: usize,
    },
    /// A cycle-category index beyond [`CycleCat::all`].
    Category(u8),
    /// A knob index beyond [`Knob::all`].
    Knob(u8),
    /// A 32-bit field whose varint does not fit.
    ExceedsU32 {
        /// The field, as the error names it.
        field: &'static str,
        /// The value read.
        value: u64,
    },
    /// A cycle stamp left `0..=i64::MAX`, the range a delta can reach.
    CycleOverflow {
        /// Position of the event in the stream.
        event: u64,
    },
    /// An [`Event::Xfer`] from a node to itself: senders short-circuit
    /// self-sends, so none crosses the network.
    SelfTransfer {
        /// Position of the event in the stream.
        event: u64,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DecodeError::Truncated { offset } => {
                write!(f, "truncated input: wanted 1 bytes at offset {offset}")
            }
            DecodeError::VarintOverflow => write!(f, "varint overflows u64"),
            DecodeError::UnknownOpcode { op, event } => {
                write!(f, "unknown event opcode {op} at event {event}")
            }
            DecodeError::NodeId { id, nodes } => {
                write!(f, "node id {id} out of range ({nodes} nodes)")
            }
            DecodeError::StringIndex { index, labels } => {
                write!(f, "string index {index} out of range ({labels} interned)")
            }
            DecodeError::Category(i) => write!(f, "unknown cycle category index {i}"),
            DecodeError::Knob(i) => write!(f, "unknown knob index {i}"),
            DecodeError::ExceedsU32 { field, value } => {
                write!(f, "{field} {value} exceeds u32")
            }
            DecodeError::CycleOverflow { event } => {
                write!(f, "cycle stamp overflows at event {event}")
            }
            DecodeError::SelfTransfer { event } => write!(f, "self-transfer at event {event}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A decoding position in an encoded event section.
///
/// Field reads never branch out of the event: a failed read records the
/// first error and yields a placeholder, and the caller checks `err`
/// once the event is read. That keeps the valid path to one
/// well-predicted check per field.
#[derive(Clone, Debug)]
struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    labels: &'a [&'static str],
    nodes: usize,
    seq: u64,
    cycle: u64,
    /// The index of the last label read.
    label: u64,
    err: Option<DecodeError>,
}

const CATEGORIES: [CycleCat; CycleCat::COUNT] = CycleCat::all();
const KNOBS: [Knob; Knob::COUNT] = Knob::all();

impl<'a> Decoder<'a> {
    fn new(buf: &'a [u8], pos: usize, labels: &'a [&'static str], nodes: usize) -> Decoder<'a> {
        Decoder {
            buf,
            pos,
            labels,
            nodes,
            seq: 0,
            cycle: 0,
            label: 0,
            err: None,
        }
    }

    #[cold]
    fn fail(&mut self, e: DecodeError) {
        self.err.get_or_insert(e);
    }

    #[inline(always)]
    fn byte(&mut self) -> u8 {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                b
            }
            None => {
                self.fail(DecodeError::Truncated { offset: self.pos });
                0
            }
        }
    }

    #[inline(always)]
    fn varint(&mut self) -> u64 {
        match get_varint(self.buf, &mut self.pos) {
            Ok(v) => v,
            Err(e) => {
                self.fail(e);
                0
            }
        }
    }

    #[inline(always)]
    fn node(&mut self) -> NodeId {
        let id = self.varint();
        if id < self.nodes as u64 {
            NodeId(id as u16)
        } else {
            let nodes = self.nodes;
            self.fail(DecodeError::NodeId { id, nodes });
            NodeId(0)
        }
    }

    #[inline(always)]
    fn block(&mut self) -> BlockId {
        BlockId(self.varint())
    }

    #[inline(always)]
    fn label(&mut self) -> &'static str {
        let index = self.varint();
        self.label = index;
        if index < self.labels.len() as u64 {
            self.labels[index as usize]
        } else {
            let labels = self.labels.len();
            self.fail(DecodeError::StringIndex { index, labels });
            ""
        }
    }

    #[inline(always)]
    fn cat(&mut self) -> CycleCat {
        let i = self.byte();
        match CATEGORIES.get(usize::from(i)) {
            Some(&cat) => cat,
            None => {
                self.fail(DecodeError::Category(i));
                CycleCat::Compute
            }
        }
    }

    #[inline(always)]
    fn knob(&mut self) -> Knob {
        let i = self.byte();
        match KNOBS.get(usize::from(i)) {
            Some(&knob) => knob,
            None => {
                self.fail(DecodeError::Knob(i));
                Knob::CacheHit
            }
        }
    }

    #[inline(always)]
    fn u32(&mut self, field: &'static str) -> u32 {
        let value = self.varint();
        if value <= u64::from(u32::MAX) {
            value as u32
        } else {
            self.fail(DecodeError::ExceedsU32 { field, value });
            0
        }
    }

    /// Decodes the next event. A failure is recorded in `err` and yields
    /// a placeholder; the position is then meaningless and decoding
    /// stops there.
    #[inline(always)]
    fn next_event(&mut self) -> Stamped {
        let seq = self.seq;
        let code = self.byte();
        let delta = unzigzag(self.varint());
        // The stamp stays within 0..=i64::MAX, so the casts are exact.
        let cycle = match (self.cycle as i64).checked_add(delta) {
            Some(c) if c >= 0 => c as u64,
            _ => {
                self.fail(DecodeError::CycleOverflow { event: seq });
                0
            }
        };
        let event = match code {
            op::READ_MISS => Event::ReadMiss {
                node: self.node(),
                block: self.block(),
                remote: self.byte() != 0,
            },
            op::WRITE_MISS => Event::WriteMiss {
                node: self.node(),
                block: self.block(),
                remote: self.byte() != 0,
            },
            op::UPGRADE => Event::Upgrade {
                node: self.node(),
                block: self.block(),
            },
            op::MARK => Event::Mark {
                node: self.node(),
                block: self.block(),
            },
            op::CLEAN_COPY => Event::CleanCopy {
                node: self.node(),
                block: self.block(),
            },
            op::FLUSH => Event::Flush {
                node: self.node(),
                block: self.block(),
            },
            op::RECONCILE => Event::Reconcile {
                block: self.block(),
                versions: self.u32("reconcile versions"),
            },
            op::INVALIDATE => Event::Invalidate {
                node: self.node(),
                block: self.block(),
            },
            op::WW_CONFLICT => Event::WwConflict {
                block: self.block(),
                word: self.byte(),
            },
            op::RW_CONFLICT => Event::RwConflict {
                block: self.block(),
            },
            op::BARRIER => Event::Barrier { at: cycle },
            op::MSG_SEND => Event::MsgSend {
                from: self.node(),
                to: self.node(),
                kind: self.label(),
                bytes: self.varint(),
            },
            op::MSG_RECV => Event::MsgRecv {
                node: self.node(),
                from: self.node(),
                kind: self.label(),
                bytes: self.varint(),
            },
            op::SPAN_BEGIN => Event::SpanBegin {
                node: self.node(),
                what: self.label(),
                block: self.block(),
            },
            op::SPAN_END => Event::SpanEnd {
                node: self.node(),
                what: self.label(),
                block: self.block(),
            },
            op::CHARGE => Event::Charge {
                node: self.node(),
                cat: self.cat(),
                knob: self.knob(),
                units: self.u32("charge units"),
            },
            op::CHARGE_RAW => Event::ChargeRaw {
                node: self.node(),
                cat: self.cat(),
                cycles: self.varint(),
            },
            op::WORK => Event::Work {
                node: self.node(),
                cycles: self.varint(),
                hits: self.varint(),
            },
            op::XFER => Event::Xfer {
                from: self.node(),
                to: self.node(),
                bytes: self.varint(),
            },
            op::PHASE_MARK => Event::PhaseMark {
                label: self.label(),
            },
            op => {
                self.fail(DecodeError::UnknownOpcode { op, event: seq });
                Event::Barrier { at: cycle }
            }
        };
        self.seq += 1;
        self.cycle = cycle;
        Stamped { seq, cycle, event }
    }
}

/// The decoding iterator over an [`EventLog`]: yields every event in
/// record order, with `seq` equal to its position. Cloning it is cheap
/// and restarts nothing: the clone walks on from the same position.
#[derive(Clone, Debug)]
pub struct Events<'a> {
    dec: Decoder<'a>,
    left: usize,
}

impl Iterator for Events<'_> {
    type Item = Stamped;

    #[inline(always)]
    fn next(&mut self) -> Option<Stamped> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let ev = self.dec.next_event();
        if let Some(e) = self.dec.err {
            corrupt(e);
        }
        Some(ev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Events<'_> {}

impl std::iter::FusedIterator for Events<'_> {}

/// A log's bytes come from its own encoder or from
/// [`EventLog::decode`], so they always decode; failing here is a bug.
#[cold]
#[inline(never)]
fn corrupt(e: DecodeError) -> ! {
    panic!("an event log failed to decode after validation: {e}")
}

/// One event's encoding, built on the stack and appended to the log in
/// one copy: a third faster than pushing each byte onto the log. The
/// one varint encoder.
struct Scratch {
    buf: [u8; Scratch::MAX],
    len: usize,
}

impl Scratch {
    /// The longest encoding: an opcode, a ten-byte cycle delta and a
    /// `MsgSend`'s two node ids, label index and byte count.
    const MAX: usize = 1 + 10 + 3 + 3 + 10 + 10;

    #[inline(always)]
    fn new() -> Scratch {
        Scratch {
            buf: [0; Scratch::MAX],
            len: 0,
        }
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    #[inline(always)]
    fn byte(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }

    #[inline(always)]
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }

    #[inline(always)]
    fn varints(&mut self, values: &[u64]) {
        for &v in values {
            self.varint(v);
        }
    }
}

/// One entry of a log's phase seek table: where an
/// [`Event::PhaseMark`] sits in the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseEntry {
    /// Position of the mark in the stream.
    pub event: u64,
    /// The mark's cycle stamp.
    pub cycle: u64,
    /// The mark's label, an index into [`EventLog::labels`].
    pub label: u64,
}

/// An encoded event stream: the `.lcmtrace` event section, its label
/// table, its phase seek table, and per-opcode counts (module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventLog {
    bytes: Vec<u8>,
    labels: Vec<&'static str>,
    phases: Vec<PhaseEntry>,
    len: usize,
    last_cycle: u64,
    counts: [u64; op::COUNT],
}

impl EventLog {
    /// An empty log with room for about `events` events: eight bytes
    /// each, a little over the usual size. Pages the log never writes
    /// are never resident.
    pub fn with_capacity(events: usize) -> EventLog {
        EventLog {
            bytes: Vec::with_capacity(events.saturating_mul(8)),
            ..EventLog::default()
        }
    }

    /// Number of events in the log.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the log holds no event.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The encoded event section.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The label table that string fields index into, in first-use
    /// order.
    pub fn labels(&self) -> &[&'static str] {
        &self.labels
    }

    /// The phase seek table: one entry per [`Event::PhaseMark`], in
    /// stream order.
    pub fn phases(&self) -> &[PhaseEntry] {
        &self.phases
    }

    /// How many events carry opcode `code` (see [`op`]).
    pub fn count(&self, code: u8) -> u64 {
        self.counts[usize::from(code)]
    }

    /// Decodes the events, oldest first.
    pub fn iter(&self) -> Events<'_> {
        Events {
            dec: Decoder::new(&self.bytes, 0, &self.labels, NODE_IDS),
            left: self.len,
        }
    }

    /// Drops every event and label, keeping the byte buffer's capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.labels.clear();
        self.phases.clear();
        self.len = 0;
        self.last_cycle = 0;
        self.counts = [0; op::COUNT];
    }

    /// Appends `event` stamped with `cycle`.
    ///
    /// Stamps are at most `i64::MAX`, a [`Event::Barrier`]'s `at` must
    /// equal its stamp (the encoding stores that value once), and an
    /// [`Event::Xfer`] joins two distinct nodes.
    #[inline]
    pub fn push(&mut self, cycle: u64, event: Event) {
        debug_assert!(cycle <= i64::MAX as u64, "cycle stamp {cycle} exceeds i64");
        let mut e = Scratch::new();
        e.byte(0); // the opcode, set below
        e.varint(zigzag(cycle.wrapping_sub(self.last_cycle) as i64));
        let code = match event {
            Event::ReadMiss {
                node,
                block,
                remote,
            } => {
                e.varints(&[u64::from(node.0), block.0]);
                e.byte(u8::from(remote));
                op::READ_MISS
            }
            Event::WriteMiss {
                node,
                block,
                remote,
            } => {
                e.varints(&[u64::from(node.0), block.0]);
                e.byte(u8::from(remote));
                op::WRITE_MISS
            }
            Event::Upgrade { node, block } => {
                e.varints(&[u64::from(node.0), block.0]);
                op::UPGRADE
            }
            Event::Mark { node, block } => {
                e.varints(&[u64::from(node.0), block.0]);
                op::MARK
            }
            Event::CleanCopy { node, block } => {
                e.varints(&[u64::from(node.0), block.0]);
                op::CLEAN_COPY
            }
            Event::Flush { node, block } => {
                e.varints(&[u64::from(node.0), block.0]);
                op::FLUSH
            }
            Event::Reconcile { block, versions } => {
                e.varints(&[block.0, u64::from(versions)]);
                op::RECONCILE
            }
            Event::Invalidate { node, block } => {
                e.varints(&[u64::from(node.0), block.0]);
                op::INVALIDATE
            }
            Event::WwConflict { block, word } => {
                e.varint(block.0);
                e.byte(word);
                op::WW_CONFLICT
            }
            Event::RwConflict { block } => {
                e.varint(block.0);
                op::RW_CONFLICT
            }
            Event::Barrier { at } => {
                debug_assert_eq!(at, cycle, "a barrier's `at` is its stamp");
                op::BARRIER
            }
            Event::MsgSend {
                from,
                to,
                kind,
                bytes,
            } => {
                let kind = self.label(kind);
                e.varints(&[u64::from(from.0), u64::from(to.0), kind, bytes]);
                op::MSG_SEND
            }
            Event::MsgRecv {
                node,
                from,
                kind,
                bytes,
            } => {
                let kind = self.label(kind);
                e.varints(&[u64::from(node.0), u64::from(from.0), kind, bytes]);
                op::MSG_RECV
            }
            Event::SpanBegin { node, what, block } => {
                let what = self.label(what);
                e.varints(&[u64::from(node.0), what, block.0]);
                op::SPAN_BEGIN
            }
            Event::SpanEnd { node, what, block } => {
                let what = self.label(what);
                e.varints(&[u64::from(node.0), what, block.0]);
                op::SPAN_END
            }
            Event::Charge {
                node,
                cat,
                knob,
                units,
            } => {
                e.varint(u64::from(node.0));
                e.byte(cat.index() as u8);
                e.byte(knob.index() as u8);
                e.varint(u64::from(units));
                op::CHARGE
            }
            Event::ChargeRaw { node, cat, cycles } => {
                e.varint(u64::from(node.0));
                e.byte(cat.index() as u8);
                e.varint(cycles);
                op::CHARGE_RAW
            }
            Event::Work { node, cycles, hits } => {
                e.varints(&[u64::from(node.0), cycles, hits]);
                op::WORK
            }
            Event::Xfer { from, to, bytes } => {
                debug_assert_ne!(from, to, "self-sends never cross the network");
                e.varints(&[u64::from(from.0), u64::from(to.0), bytes]);
                op::XFER
            }
            Event::PhaseMark { label } => {
                let label = self.label(label);
                e.varint(label);
                let event = self.len as u64;
                self.phases.push(PhaseEntry {
                    event,
                    cycle,
                    label,
                });
                op::PHASE_MARK
            }
        };
        e.buf[0] = code;
        self.counts[usize::from(code)] += 1;
        self.bytes.extend_from_slice(e.bytes());
        self.last_cycle = cycle;
        self.len += 1;
    }

    /// The table index of `label`, adding it on first use. Labels are
    /// few and almost always the same static strings, so a pointer scan
    /// finds them; equal text at another address shares the index.
    fn label(&mut self, label: &'static str) -> u64 {
        let found = (self.labels.iter())
            .position(|k| std::ptr::eq(*k, label))
            .or_else(|| self.labels.iter().position(|k| *k == label));
        let i = found.unwrap_or_else(|| {
            self.labels.push(label);
            self.labels.len() - 1
        });
        i as u64
    }

    /// Validates `n` encoded events starting at `buf[start]` — opcodes,
    /// node ids below `nodes`, label indices into `labels`, categories,
    /// knobs, 32-bit fields, cycle stamps, and transfers between two
    /// distinct nodes — and records the phase seek table as [`push`]
    /// does. Returns the log, holding one copy of the section, and the
    /// offset just past it. Error offsets count from the start of `buf`.
    ///
    /// [`push`]: EventLog::push
    pub fn decode(
        buf: &[u8],
        start: usize,
        n: usize,
        labels: Vec<&'static str>,
        nodes: usize,
    ) -> Result<(EventLog, usize), DecodeError> {
        let mut dec = Decoder::new(buf, start, &labels, nodes.min(NODE_IDS));
        let mut counts = [0u64; op::COUNT];
        let mut phases = Vec::new();
        for _ in 0..n {
            let code = buf.get(dec.pos).copied().unwrap_or_default();
            let ev = dec.next_event();
            if let Some(e) = dec.err {
                return Err(e);
            }
            counts[usize::from(code)] += 1;
            match ev.event {
                Event::Xfer { from, to, .. } if from == to => {
                    return Err(DecodeError::SelfTransfer { event: ev.seq });
                }
                Event::PhaseMark { .. } => phases.push(PhaseEntry {
                    event: ev.seq,
                    cycle: ev.cycle,
                    label: dec.label,
                }),
                _ => {}
            }
        }
        let (end, last_cycle) = (dec.pos, dec.cycle);
        let log = EventLog {
            bytes: buf[start..end].to_vec(),
            labels,
            phases,
            len: n,
            last_cycle,
            counts,
        };
        Ok((log, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX / 2, i64::MIN / 2] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varints_round_trip() {
        let mut values = vec![0u64, 1, 127, 128, 300, u64::MAX];
        values.extend((0..64).map(|b| 1u64 << b));
        values.extend((1..64).map(|b| (1u64 << b) - 1));
        for v in values {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let n = buf.len();
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, n);
        }
        let mut pos = 0;
        assert_eq!(
            get_varint(&[0x80], &mut pos),
            Err(DecodeError::Truncated { offset: 1 })
        );
        let mut pos = 0;
        assert_eq!(
            get_varint(&[0xff; 11], &mut pos),
            Err(DecodeError::VarintOverflow)
        );
    }

    #[test]
    fn log_decodes_what_it_encoded_with_positional_seqs() {
        let stream = [
            (7, Event::PhaseMark { label: "init" }),
            (
                3,
                Event::MsgSend {
                    from: NodeId(1),
                    to: NodeId(2),
                    kind: "GetShared",
                    bytes: 48,
                },
            ),
            (9, Event::Barrier { at: 9 }),
            (
                400,
                Event::Charge {
                    node: NodeId(0),
                    cat: CycleCat::MsgOverhead,
                    knob: Knob::MsgSend,
                    units: u32::MAX,
                },
            ),
        ];
        let mut log = EventLog::default();
        for (cycle, event) in stream {
            log.push(cycle, event);
        }
        let back: Vec<Stamped> = log.iter().collect();
        assert_eq!(back.len(), stream.len());
        for (i, (ev, (cycle, event))) in back.iter().zip(stream).enumerate() {
            assert_eq!((ev.seq, ev.cycle, ev.event), (i as u64, cycle, event));
        }
        assert_eq!(log.labels(), ["init", "GetShared"]);
        let init = PhaseEntry {
            event: 0,
            cycle: 7,
            label: 0,
        };
        assert_eq!(log.phases(), [init]);
        assert_eq!(log.count(op::BARRIER), 1);
        assert_eq!(log.count(op::XFER), 0);
        assert_eq!(log.iter().len(), 4, "exact size");
    }

    #[test]
    fn equal_labels_at_different_addresses_share_an_index() {
        let leaked: &'static str = Box::leak(String::from("GetShared").into_boxed_str());
        let mut log = EventLog::default();
        log.push(0, Event::PhaseMark { label: "GetShared" });
        log.push(0, Event::PhaseMark { label: leaked });
        assert_eq!(log.labels().len(), 1);
    }

    #[test]
    fn decode_validates_and_copies_the_section() {
        let mut log = EventLog::default();
        log.push(
            5,
            Event::Xfer {
                from: NodeId(0),
                to: NodeId(3),
                bytes: 16,
            },
        );
        log.push(6, Event::PhaseMark { label: "apply" });
        let mut buf = vec![0xAA];
        buf.extend_from_slice(log.bytes());
        let (back, end) = EventLog::decode(&buf, 1, 2, vec!["apply"], 4).expect("valid");
        assert_eq!(end, buf.len());
        assert_eq!(back, log, "bytes, labels, phase table and counts");
        assert_eq!(back.phases()[0].event, 1);
        let err = EventLog::decode(&buf, 1, 2, vec!["apply"], 3).expect_err("node 3");
        assert_eq!(err.to_string(), "node id 3 out of range (3 nodes)");
        let err = EventLog::decode(&buf, 1, 2, Vec::new(), 4).expect_err("no labels");
        assert_eq!(err.to_string(), "string index 0 out of range (0 interned)");
    }
}
