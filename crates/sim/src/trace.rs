//! Structured, cycle-stamped protocol event trace.
//!
//! When enabled, the machine records a bounded stream of [`Stamped`]
//! protocol events: each carries a monotonic sequence number and the
//! cycle at which it occurred (the acting node's clock at record time).
//! Traces drive the profile exporter (`lcm-bench`), the coherence
//! sanitizer's violation reports, and tests that assert on exact event
//! sequences; the experiment harness leaves tracing off, which makes
//! recording a no-op.
//!
//! The buffer is bounded and keeps the opening of the run: on overflow
//! the new event is discarded and counted in [`Trace::dropped`], so
//! [`Trace::recorded`] exceeds the stored count and a consumer can tell
//! an incomplete stream from a quiet one. Events are stored encoded, in
//! the `.lcmtrace` event form ([`crate::codec`]), and read back through
//! the [`Events`] decoding iterator.

use crate::codec::{EventLog, Events};
use crate::cost::Knob;
use crate::machine::NodeId;
use crate::mem::BlockId;
use crate::profile::CycleCat;

/// One protocol event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A load missed on `node` for `block`; `remote` says the fill crossed
    /// the network.
    ReadMiss {
        /// The faulting node.
        node: NodeId,
        /// The block accessed.
        block: BlockId,
        /// True when the fill crossed the network.
        remote: bool,
    },
    /// A store missed on `node` for `block`.
    WriteMiss {
        /// The faulting node.
        node: NodeId,
        /// The block accessed.
        block: BlockId,
        /// True when the fill crossed the network.
        remote: bool,
    },
    /// A store hit a ReadOnly copy and upgraded it.
    Upgrade {
        /// The upgrading node.
        node: NodeId,
        /// The block upgraded.
        block: BlockId,
    },
    /// A `mark_modification` directive created a private copy.
    Mark {
        /// The marking node.
        node: NodeId,
        /// The block marked.
        block: BlockId,
    },
    /// A clean copy of `block` was created (`home` side or cache side).
    CleanCopy {
        /// The node the copy was created on.
        node: NodeId,
        /// The block copied.
        block: BlockId,
    },
    /// `node` flushed its modified copy of `block` home.
    Flush {
        /// The flushing node.
        node: NodeId,
        /// The block flushed.
        block: BlockId,
    },
    /// The home reconciled `versions` outstanding versions of `block`.
    Reconcile {
        /// The block reconciled.
        block: BlockId,
        /// How many versions merged.
        versions: u32,
    },
    /// An invalidation was processed at `node` for `block`.
    Invalidate {
        /// The node losing its copy.
        node: NodeId,
        /// The block invalidated.
        block: BlockId,
    },
    /// A write-write conflict on `block`, word `word`.
    WwConflict {
        /// The block involved.
        block: BlockId,
        /// The conflicting word index.
        word: u8,
    },
    /// A read-write conflict on `block`.
    RwConflict {
        /// The block involved.
        block: BlockId,
    },
    /// A global barrier completed at time `at`.
    Barrier {
        /// Post-barrier simulated time. Always the record's cycle stamp:
        /// the encoded form stores the value once.
        at: u64,
    },
    /// `from` sent a protocol message to `to` (recorded when the network
    /// delivers it; dropped attempts are not sends).
    MsgSend {
        /// The sending node.
        from: NodeId,
        /// The destination node.
        to: NodeId,
        /// Message kind label (see `lcm_tempest::MsgKind::label`).
        kind: &'static str,
        /// Bytes on the wire (header, plus the block payload if any).
        bytes: u64,
    },
    /// `node` handled a protocol message from `from`.
    MsgRecv {
        /// The handling node.
        node: NodeId,
        /// The original sender.
        from: NodeId,
        /// Message kind label.
        kind: &'static str,
        /// Bytes on the wire.
        bytes: u64,
    },
    /// A span opened on `node` (e.g. a fault handler started); paired
    /// with the next [`Event::SpanEnd`] carrying the same `node`/`what`/
    /// `block`, the cycle stamps delimit the operation's duration.
    SpanBegin {
        /// The node doing the work.
        node: NodeId,
        /// What the span covers (`"read_fault"`, `"reconcile"`, …).
        what: &'static str,
        /// The block involved.
        block: BlockId,
    },
    /// A span closed on `node` (see [`Event::SpanBegin`]).
    SpanEnd {
        /// The node doing the work.
        node: NodeId,
        /// What the span covers.
        what: &'static str,
        /// The block involved.
        block: BlockId,
    },
    /// Capture mode only: `node` was charged `units` × a [`Knob`] price
    /// under `cat`. Symbolic, so replay can re-price it under any cost
    /// model. Never recorded outside capture mode.
    Charge {
        /// The charged node.
        node: NodeId,
        /// Ledger category the cycles were attributed to.
        cat: CycleCat,
        /// Which cost-model price was charged.
        knob: Knob,
        /// How many units of the price (e.g. 2 for a three-hop
        /// double-round-trip, `2^k` for the k-th backoff doubling).
        units: u32,
    },
    /// Capture mode only: `node` was charged `cycles` raw cycles under
    /// `cat` — a quantity independent of the cost model (injected delays
    /// and stalls, externally computed charges). Replays verbatim.
    ChargeRaw {
        /// The charged node.
        node: NodeId,
        /// Ledger category the cycles were attributed to.
        cat: CycleCat,
        /// Raw cycles charged.
        cycles: u64,
    },
    /// Capture mode only: coalesced application work on `node` since its
    /// last synchronization point — raw compute cycles plus a count of
    /// cache hits (each worth the model's `cache_hit` price). Folding the
    /// per-access stream into one record per node per interval keeps
    /// captures compact.
    Work {
        /// The computing node.
        node: NodeId,
        /// Raw compute cycles (model-independent).
        cycles: u64,
        /// Cache hits bundled in (priced at `cache_hit` on replay).
        hits: u64,
    },
    /// Capture mode only: a delivered message crossed the network
    /// `from -> to`, entering at the sender's clock. Replay feeds these
    /// through a contention fabric (if the replay model has finite
    /// bandwidth) to rebuild link backlogs and queueing charges.
    Xfer {
        /// The sending node.
        from: NodeId,
        /// The receiving node.
        to: NodeId,
        /// Bytes on the wire (capture-time header + payload).
        bytes: u64,
    },
    /// Capture mode only: a phase boundary was stamped (see
    /// [`crate::Machine::mark_phase`]), letting replay rebuild per-phase
    /// snapshots and the trace file index phases for seekability.
    PhaseMark {
        /// The phase label.
        label: &'static str,
    },
}

impl Event {
    /// Stable label of the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::ReadMiss { .. } => "read_miss",
            Event::WriteMiss { .. } => "write_miss",
            Event::Upgrade { .. } => "upgrade",
            Event::Mark { .. } => "mark",
            Event::CleanCopy { .. } => "clean_copy",
            Event::Flush { .. } => "flush",
            Event::Reconcile { .. } => "reconcile",
            Event::Invalidate { .. } => "invalidate",
            Event::WwConflict { .. } => "ww_conflict",
            Event::RwConflict { .. } => "rw_conflict",
            Event::Barrier { .. } => "barrier",
            Event::MsgSend { .. } => "msg_send",
            Event::MsgRecv { .. } => "msg_recv",
            Event::SpanBegin { .. } => "span_begin",
            Event::SpanEnd { .. } => "span_end",
            Event::Charge { .. } => "charge",
            Event::ChargeRaw { .. } => "charge_raw",
            Event::Work { .. } => "work",
            Event::Xfer { .. } => "xfer",
            Event::PhaseMark { .. } => "phase_mark",
        }
    }

    /// The node the event is attributed to (the acting side), if any.
    /// Home-side events with no single actor ([`Event::Reconcile`],
    /// conflicts, [`Event::Barrier`]) return `None`.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            Event::ReadMiss { node, .. }
            | Event::WriteMiss { node, .. }
            | Event::Upgrade { node, .. }
            | Event::Mark { node, .. }
            | Event::CleanCopy { node, .. }
            | Event::Flush { node, .. }
            | Event::Invalidate { node, .. }
            | Event::MsgRecv { node, .. }
            | Event::SpanBegin { node, .. }
            | Event::SpanEnd { node, .. } => Some(*node),
            Event::MsgSend { from, .. } => Some(*from),
            Event::Charge { node, .. }
            | Event::ChargeRaw { node, .. }
            | Event::Work { node, .. } => Some(*node),
            Event::Xfer { from, .. } => Some(*from),
            Event::Reconcile { .. }
            | Event::WwConflict { .. }
            | Event::RwConflict { .. }
            | Event::Barrier { .. }
            | Event::PhaseMark { .. } => None,
        }
    }

    /// The block the event concerns, if any.
    pub fn block(&self) -> Option<BlockId> {
        match self {
            Event::ReadMiss { block, .. }
            | Event::WriteMiss { block, .. }
            | Event::Upgrade { block, .. }
            | Event::Mark { block, .. }
            | Event::CleanCopy { block, .. }
            | Event::Flush { block, .. }
            | Event::Reconcile { block, .. }
            | Event::Invalidate { block, .. }
            | Event::WwConflict { block, .. }
            | Event::RwConflict { block, .. }
            | Event::SpanBegin { block, .. }
            | Event::SpanEnd { block, .. } => Some(*block),
            Event::Barrier { .. }
            | Event::MsgSend { .. }
            | Event::MsgRecv { .. }
            | Event::Charge { .. }
            | Event::ChargeRaw { .. }
            | Event::Work { .. }
            | Event::Xfer { .. }
            | Event::PhaseMark { .. } => None,
        }
    }

    /// Bytes on the wire for message events, `None` otherwise.
    pub fn bytes(&self) -> Option<u64> {
        match self {
            Event::MsgSend { bytes, .. } | Event::MsgRecv { bytes, .. } => Some(*bytes),
            _ => None,
        }
    }

    /// The `(sender, receiver)` endpoints for events that cross the
    /// network ([`Event::MsgSend`], [`Event::MsgRecv`], [`Event::Xfer`]),
    /// `None` otherwise. Always oriented sender → receiver, so a recv
    /// pairs with its send by equal endpoints.
    pub fn endpoints(&self) -> Option<(NodeId, NodeId)> {
        match self {
            Event::MsgSend { from, to, .. } | Event::Xfer { from, to, .. } => Some((*from, *to)),
            Event::MsgRecv { node, from, .. } => Some((*from, *node)),
            _ => None,
        }
    }

    /// The protocol message kind label for [`Event::MsgSend`] and
    /// [`Event::MsgRecv`], `None` otherwise.
    pub fn msg_kind(&self) -> Option<&'static str> {
        match self {
            Event::MsgSend { kind, .. } | Event::MsgRecv { kind, .. } => Some(*kind),
            _ => None,
        }
    }
}

/// A recorded event with its stamp: its sequence number and the cycle
/// (acting node's clock) at record time. A trace keeps the opening of
/// the run, so a recorded event's `seq` is its position; a stream whose
/// numbers skip has lost events.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Stamped {
    /// Position in the recorded stream (0-based).
    pub seq: u64,
    /// Acting node's clock when recorded (machine time for global events).
    pub cycle: u64,
    /// The event itself.
    pub event: Event,
}

/// A bounded in-memory event trace, recorded straight into an encoded
/// [`EventLog`] (see [`crate::codec`]).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    enabled: bool,
    capacity: usize,
    log: EventLog,
    dropped: u64,
}

impl Trace {
    /// A disabled trace; recording is a no-op.
    pub fn disabled() -> Trace {
        Trace::default()
    }

    /// An enabled trace retaining at most `capacity` events. Further events
    /// are counted in [`Trace::dropped`] but not stored.
    pub fn with_capacity(capacity: usize) -> Trace {
        Trace {
            enabled: true,
            capacity,
            ..Trace::default()
        }
    }

    /// True when events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records `event` stamped with `cycle` if enabled; on overflow the
    /// trace discards `event` and counts it in [`Trace::dropped`].
    #[inline]
    pub fn record_at(&mut self, cycle: u64, event: Event) {
        if !self.enabled {
            return;
        }
        if self.log.len() < self.capacity {
            self.log.push(cycle, event);
        } else {
            self.dropped += 1;
        }
    }

    /// Records `event` with a zero cycle stamp. Standalone-trace
    /// convenience; the machine stamps real clocks via
    /// [`crate::Machine::record`].
    #[inline]
    pub fn record(&mut self, event: Event) {
        self.record_at(0, event);
    }

    /// The recorded events, oldest first. Drops happen only once the
    /// buffer is full, so the stored events are a prefix of the stream
    /// and each one's `seq` is its position.
    pub fn events(&self) -> Events<'_> {
        self.log.iter()
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True when no event is stored.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// The recorded events decoded into a vector, oldest first.
    pub fn to_vec(&self) -> Vec<Stamped> {
        self.events().collect()
    }

    /// Number of record attempts so far (stored plus dropped).
    pub fn recorded(&self) -> u64 {
        self.log.len() as u64 + self.dropped
    }

    /// Number of events discarded after the capacity filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discards all recorded events and the drop count (capacity and
    /// enablement unchanged).
    pub fn clear(&mut self) {
        self.log.clear();
        self.dropped = 0;
    }

    /// The recorded log, ending the trace: the encoded events as a
    /// `.lcmtrace` file holds them, with their label and phase seek
    /// tables.
    pub fn into_log(self) -> EventLog {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(Event::Barrier { at: 0 });
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.recorded(), 0);
    }

    #[test]
    fn capacity_is_respected() {
        let mut t = Trace::with_capacity(2);
        for i in 0..5 {
            t.record_at(i, Event::Barrier { at: i });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.to_vec()[0].event, Event::Barrier { at: 0 });
    }

    #[test]
    fn keep_first_overflow_discards_newest() {
        // with_capacity keeps the opening of the run: record beyond
        // capacity and the stored prefix never changes.
        let mut t = Trace::with_capacity(3);
        for i in 0..10 {
            t.record_at(i, Event::Barrier { at: i });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        let stored: Vec<u64> = t
            .events()
            .map(|e| match e.event {
                Event::Barrier { at } => at,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(stored, vec![0, 1, 2]);
    }

    #[test]
    fn sequence_numbers_expose_drops_as_gaps() {
        let mut t = Trace::with_capacity(2);
        for i in 0..4 {
            t.record_at(i * 10, Event::Barrier { at: i * 10 });
        }
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1], "keep-first stores the opening seqs");
        assert_eq!(t.recorded(), 4);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.to_vec()[1].cycle, 10, "cycle stamps travel with events");
    }

    #[test]
    fn to_vec_preserves_order() {
        let mut t = Trace::with_capacity(3);
        for i in 0..5 {
            t.record_at(i, Event::Barrier { at: i });
        }
        let v = t.to_vec();
        let ats: Vec<u64> = v
            .iter()
            .map(|e| match e.event {
                Event::Barrier { at } => at,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ats, vec![0, 1, 2]);
    }

    #[test]
    fn record_at_preserves_record_order_not_cycle_order() {
        // Stamps are the acting node's clock and nodes progress
        // independently, so cycle stamps are not monotonic; the trace
        // must keep record order and never sort.
        let cycles = [10u64, 5, 20, 1];
        let mut t = Trace::with_capacity(8);
        for (i, &c) in cycles.iter().enumerate() {
            t.record_at(
                c,
                Event::RwConflict {
                    block: BlockId(i as u64),
                },
            );
        }
        let got: Vec<(u64, u64)> = t.events().map(|e| (e.seq, e.cycle)).collect();
        assert_eq!(got, vec![(0, 10), (1, 5), (2, 20), (3, 1)]);
    }

    #[test]
    fn clear_resets() {
        let mut t = Trace::with_capacity(2);
        t.record(Event::Barrier { at: 0 });
        t.clear();
        assert!(t.is_empty());
        assert!(t.is_enabled());
        assert_eq!(t.recorded(), 0);
    }

    #[test]
    fn event_accessors_expose_node_block_bytes() {
        use crate::machine::NodeId;
        let send = Event::MsgSend {
            from: NodeId(1),
            to: NodeId(2),
            kind: "GetShared",
            bytes: 16,
        };
        assert_eq!(send.node(), Some(NodeId(1)));
        assert_eq!(send.block(), None);
        assert_eq!(send.bytes(), Some(16));
        assert_eq!(send.kind(), "msg_send");

        let span = Event::SpanBegin {
            node: NodeId(3),
            what: "read_fault",
            block: BlockId(9),
        };
        assert_eq!(span.node(), Some(NodeId(3)));
        assert_eq!(span.block(), Some(BlockId(9)));
        assert_eq!(span.bytes(), None);

        assert_eq!(Event::Barrier { at: 5 }.node(), None);
        assert_eq!(
            Event::Reconcile {
                block: BlockId(1),
                versions: 2
            }
            .block(),
            Some(BlockId(1))
        );
    }

    #[test]
    fn endpoints_orient_sender_to_receiver() {
        let send = Event::MsgSend {
            from: NodeId(3),
            to: NodeId(5),
            kind: "GetShared",
            bytes: 64,
        };
        let recv = Event::MsgRecv {
            node: NodeId(5),
            from: NodeId(3),
            kind: "GetShared",
            bytes: 64,
        };
        let xfer = Event::Xfer {
            from: NodeId(3),
            to: NodeId(5),
            bytes: 64,
        };
        assert_eq!(send.endpoints(), Some((NodeId(3), NodeId(5))));
        assert_eq!(
            recv.endpoints(),
            send.endpoints(),
            "recv pairs by endpoints"
        );
        assert_eq!(xfer.endpoints(), send.endpoints());
        assert_eq!(Event::Barrier { at: 1 }.endpoints(), None);
        assert_eq!(send.msg_kind(), Some("GetShared"));
        assert_eq!(recv.msg_kind(), Some("GetShared"));
        assert_eq!(xfer.msg_kind(), None, "transfers carry no protocol kind");
    }
}
