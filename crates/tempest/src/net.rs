//! Protocol message delivery and accounting.
//!
//! The simulation dispatches protocol handlers synchronously (one host
//! thread, logical clocks), so the network is a *cost and counting* layer
//! rather than a queue: sending a message charges sender- and receiver-side
//! overheads and updates the per-node message statistics; a blocking
//! request/reply additionally charges the requester the full remote-miss
//! round-trip latency. See `DESIGN.md` for the fidelity argument.
//!
//! Under an active [`lcm_sim::FaultPlan`] the layer becomes an unreliable
//! delivery substrate with a reliable-transport discipline on top, the
//! way Blizzard-E's messaging runtime must behave on real hardware:
//!
//! * a **dropped** attempt never reaches the receiver; the sender waits a
//!   [`lcm_sim::CostModel::retry_timeout`] (doubling per consecutive
//!   loss, capped) and retransmits, up to `max_retries` times, after
//!   which the sender judges the receiver dead: it pays a `crash_detect`
//!   timeout, the receiver's `crashes` counter ticks, and (fail-stop
//!   crash-restart) the message is delivered to the restarted node as a
//!   [`MsgKind::Retry`];
//! * a **duplicated** delivery is detected by the receiver's transport
//!   (sequence numbers), charged, counted in `msgs_duplicated`, and
//!   answered with a [`MsgKind::Nack`];
//! * a **delayed** delivery charges the receiver the extra cycles.
//!
//! Every injected fault changes cycle charges and statistics only — the
//! data a protocol transaction moves is exactly what a reliable network
//! would have moved, so program results are bit-identical under any
//! fault schedule (asserted by the fault property tests).
//!
//! Conservation: `msgs_sent`/`msgs_recv` count *delivered* messages only
//! (dropped attempts live in `msgs_dropped`, duplicate copies in
//! `msgs_duplicated`), so `sum(msgs_sent) == sum(msgs_recv)` over all
//! nodes and [`Network::total`] equals the per-kind sum, faults or not.
//!
//! Under a finite [`lcm_sim::CostModel::link_bandwidth_bytes_per_cycle`]
//! every *delivered* message (requests, replies, one-way sends, nacks,
//! and [`Network::count_only`] hops inside lump-charged transactions)
//! additionally serializes onto the [`lcm_sim::topology`] fabric via
//! [`Machine::network_transfer`], charging queueing and serialization to
//! the receiver. Dropped attempts die before serialization and never
//! touch links. With the default unlimited bandwidth none of this runs
//! and delivery charges are byte-identical to the flat model above.

use lcm_sim::fault::BACKOFF_DOUBLING_CAP;
use lcm_sim::mem::BLOCK_BYTES;
use lcm_sim::{CostModel, CycleCat, Event, FaultOutcome, Knob, Machine, NodeId};

/// Protocol message kinds, for per-kind counting and traces.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Request a read-only copy.
    GetShared,
    /// Request a writable copy.
    GetExclusive,
    /// Request ownership upgrade of a ReadOnly copy.
    Upgrade,
    /// Invalidate a cached copy.
    Invalidate,
    /// Acknowledge an invalidation or recall.
    Ack,
    /// Write a dirty block back to home (Stache replacement/recall).
    Writeback,
    /// Flush a modified LCM copy home for reconciliation.
    Flush,
    /// A fill served from a clean copy.
    CleanFill,
    /// Stale-data refresh request.
    StaleRefresh,
    /// Transport-level rejection of a duplicate delivery (fault injection).
    Nack,
    /// A successful retransmission of a timed-out message (fault
    /// injection). Counted under this kind instead of the original's so
    /// retransmitted traffic is separable in reports.
    Retry,
}

const KINDS: usize = 11;

impl MsgKind {
    /// The kind's position in [`MsgKind::all`] (its declaration order).
    fn index(self) -> usize {
        self as usize
    }

    /// The kind's stable display label.
    pub fn label(self) -> &'static str {
        match self {
            MsgKind::GetShared => "GetShared",
            MsgKind::GetExclusive => "GetExclusive",
            MsgKind::Upgrade => "Upgrade",
            MsgKind::Invalidate => "Invalidate",
            MsgKind::Ack => "Ack",
            MsgKind::Writeback => "Writeback",
            MsgKind::Flush => "Flush",
            MsgKind::CleanFill => "CleanFill",
            MsgKind::StaleRefresh => "StaleRefresh",
            MsgKind::Nack => "Nack",
            MsgKind::Retry => "Retry",
        }
    }

    /// All message kinds, in index order.
    pub fn all() -> [MsgKind; KINDS] {
        [
            MsgKind::GetShared,
            MsgKind::GetExclusive,
            MsgKind::Upgrade,
            MsgKind::Invalidate,
            MsgKind::Ack,
            MsgKind::Writeback,
            MsgKind::Flush,
            MsgKind::CleanFill,
            MsgKind::StaleRefresh,
            MsgKind::Nack,
            MsgKind::Retry,
        ]
    }

    /// The ledger category a requester's blocking round-trip on this kind
    /// stalls under. Read-shaped fills are read stalls, exclusive requests
    /// are write stalls, upgrades their own bucket; one-way bookkeeping
    /// kinds fall back to message overhead.
    pub fn stall_cat(self) -> CycleCat {
        match self {
            MsgKind::GetShared | MsgKind::CleanFill | MsgKind::StaleRefresh => {
                CycleCat::ReadStallRemote
            }
            MsgKind::GetExclusive => CycleCat::WriteStallRemote,
            MsgKind::Upgrade => CycleCat::UpgradeStall,
            _ => CycleCat::MsgOverhead,
        }
    }
}

/// Bytes a delivered message puts on the wire: the cost model's header
/// plus the 32-byte block payload when one rides along.
fn wire_bytes(cost: &CostModel, with_block: bool) -> u64 {
    cost.msg_header_bytes + if with_block { BLOCK_BYTES as u64 } else { 0 }
}

/// The message delivery and accounting layer.
#[derive(Clone, Debug, Default)]
pub struct Network {
    by_kind: [u64; KINDS],
    bytes_by_kind: [u64; KINDS],
    total: u64,
    dropped: u64,
    duplicated: u64,
}

impl Network {
    /// A quiescent network.
    pub fn new() -> Network {
        Network::default()
    }

    /// Accounts a one-way, non-blocking message (flush, invalidation,
    /// ack): sender pays `msg_send`, receiver pays `msg_recv`. If
    /// `with_block` the message carries a whole block of data.
    ///
    /// Messages a node sends to itself (home == requester) are free and
    /// uncounted — Tempest protocols short-circuit local operations.
    ///
    /// If fault injection exhausts the retransmission budget, the sender
    /// judges the receiver dead: it pays a `crash_detect` timeout, the
    /// receiver's `crashes` counter ticks, and the message is then
    /// delivered, as a [`MsgKind::Retry`], to the receiver's restarted
    /// incarnation — fail-stop crash-restart semantics.
    pub fn send(
        &mut self,
        m: &mut Machine,
        from: NodeId,
        to: NodeId,
        kind: MsgKind,
        with_block: bool,
    ) {
        if from == to {
            return;
        }
        let mut attempt: u32 = 0;
        loop {
            let outcome = m.faults_mut().next_outcome();
            if outcome == FaultOutcome::Drop {
                attempt += 1;
                self.lost_attempt(m, from, attempt);
                if Network::may_retry(m, from, attempt) {
                    continue;
                }
                break;
            }
            // Delivered. The first attempt counts under its own kind; a
            // retransmission counts under Retry.
            let delivered = if attempt == 0 { kind } else { MsgKind::Retry };
            self.deliver_one_way(m, from, to, delivered, with_block);
            match outcome {
                FaultOutcome::Duplicate => self.duplicate_delivery(m, from, to),
                FaultOutcome::Delay(k) => m.advance_as(to, k, CycleCat::RetryBackoff),
                _ => {}
            }
            return;
        }
        Network::declare_dead(m, from, to);
        self.deliver_one_way(m, from, to, MsgKind::Retry, with_block);
    }

    /// The accounting of one delivered one-way message: both ends pay
    /// their flat per-message overhead, then the shared delivery record.
    fn deliver_one_way(
        &mut self,
        m: &mut Machine,
        from: NodeId,
        to: NodeId,
        delivered: MsgKind,
        with_block: bool,
    ) {
        m.charge(from, CycleCat::MsgOverhead, Knob::MsgSend, 1);
        m.charge(to, CycleCat::MsgOverhead, Knob::MsgRecv, 1);
        self.account(m, from, to, delivered, with_block);
    }

    /// The record every delivered message leaves, whatever its cycle
    /// charges (which the caller makes first): its wire bytes serialize
    /// onto the `from -> to` fabric path (a no-op on the default
    /// unlimited network), both ends' message statistics and the
    /// per-kind counts grow, and a `MsgSend`/`MsgRecv` event pair is
    /// recorded.
    fn account(
        &mut self,
        m: &mut Machine,
        from: NodeId,
        to: NodeId,
        kind: MsgKind,
        with_block: bool,
    ) {
        let bytes = wire_bytes(m.cost(), with_block);
        m.network_transfer(from, to, bytes);
        let s = m.stats_mut(from);
        s.msgs_sent += 1;
        s.bytes_sent += bytes;
        if with_block {
            s.blocks_sent += 1;
        }
        let r = m.stats_mut(to);
        r.msgs_recv += 1;
        r.bytes_recv += bytes;
        self.by_kind[kind.index()] += 1;
        self.bytes_by_kind[kind.index()] += bytes;
        self.total += 1;
        let kind = kind.label();
        m.record(Event::MsgSend {
            from,
            to,
            kind,
            bytes,
        });
        m.record(Event::MsgRecv {
            node: to,
            from,
            kind,
            bytes,
        });
    }

    /// Escalates an exhausted retransmission budget into a node-death
    /// verdict: `observer` pays the detection timeout that converts
    /// suspicion into a verdict (the backoff waits themselves are already
    /// on its clock under `retry_backoff`), and the unreachable node's
    /// crash counter ticks.
    fn declare_dead(m: &mut Machine, observer: NodeId, dead: NodeId) {
        m.charge(observer, CycleCat::CrashDetect, Knob::RetryTimeout, 1);
        m.stats_mut(dead).crashes += 1;
    }

    /// The accounting of one delivered request leg: the requester's send
    /// lands in its miss-stall bucket, the home pays handler overhead.
    fn deliver_request(
        &mut self,
        m: &mut Machine,
        from: NodeId,
        to: NodeId,
        transaction: MsgKind,
        stall: CycleCat,
    ) {
        m.charge(from, stall, Knob::MsgSend, 1);
        m.charge(to, CycleCat::MsgOverhead, Knob::MsgRecv, 1);
        self.account(m, from, to, transaction, false);
    }

    /// The accounting of one delivered reply leg: the requester's wait is
    /// the round-trip latency minus the request-side send already charged.
    fn deliver_reply(
        &mut self,
        m: &mut Machine,
        from: NodeId,
        to: NodeId,
        transaction: MsgKind,
        stall: CycleCat,
        data_reply: bool,
    ) {
        m.charge(from, stall, Knob::RemoteMissLessSend, 1);
        self.account(m, to, from, transaction, data_reply);
    }

    /// Accounts a blocking request/reply pair: the requester pays the full
    /// `remote_miss` round-trip latency, the home pays its handler
    /// overhead, and both directions are counted. If `data_reply` the
    /// reply carries a block.
    ///
    /// Local round-trips (`from == to`) are free and uncounted.
    ///
    /// Either leg can fail independently: a lost *request* retries from
    /// the requester; a lost *reply* means the home already did its work
    /// — the requester times out and reissues the (idempotent)
    /// transaction, which the protocols must tolerate as a duplicate.
    /// Exhausting the retransmission budget escalates exactly as in
    /// [`Network::send`], after which the transaction completes (both
    /// legs as [`MsgKind::Retry`]) against the home's restarted
    /// incarnation.
    pub fn request_reply(
        &mut self,
        m: &mut Machine,
        from: NodeId,
        to: NodeId,
        kind: MsgKind,
        data_reply: bool,
    ) {
        if from == to {
            return;
        }
        // The requester's whole healthy wait — request send through reply
        // receipt — is one miss stall of the transaction's flavor.
        let stall = kind.stall_cat();
        let mut attempt: u32 = 0;
        loop {
            let transaction = if attempt == 0 { kind } else { MsgKind::Retry };
            // Request leg.
            let req = m.faults_mut().next_outcome();
            if req == FaultOutcome::Drop {
                attempt += 1;
                self.lost_attempt(m, from, attempt);
                if Network::may_retry(m, from, attempt) {
                    continue;
                }
                break;
            }
            // The request arrived and the home handles it.
            self.deliver_request(m, from, to, transaction, stall);
            match req {
                FaultOutcome::Duplicate => self.duplicate_delivery(m, from, to),
                FaultOutcome::Delay(k) => m.advance_as(to, k, CycleCat::RetryBackoff),
                _ => {}
            }
            // Reply leg.
            let rep = m.faults_mut().next_outcome();
            if rep == FaultOutcome::Drop {
                // The home replied but the reply vanished: the home's send
                // is wasted, the requester times out and reissues.
                attempt += 1;
                m.charge(to, CycleCat::RetryBackoff, Knob::MsgSend, 1);
                m.stats_mut(to).msgs_dropped += 1;
                self.dropped += 1;
                m.charge(
                    from,
                    CycleCat::RetryBackoff,
                    Knob::RetryTimeout,
                    backoff_units(attempt),
                );
                m.stats_mut(from).timeouts += 1;
                if Network::may_retry(m, from, attempt) {
                    continue;
                }
                break;
            }
            // Reply delivered: the requester's wait is the round-trip
            // latency (minus the request-side send already charged).
            self.deliver_reply(m, from, to, transaction, stall, data_reply);
            match rep {
                FaultOutcome::Duplicate => self.duplicate_delivery(m, to, from),
                FaultOutcome::Delay(k) => m.advance_as(from, k, CycleCat::RetryBackoff),
                _ => {}
            }
            return;
        }
        Network::declare_dead(m, from, to);
        self.deliver_request(m, from, to, MsgKind::Retry, stall);
        self.deliver_reply(m, from, to, MsgKind::Retry, stall, data_reply);
    }

    /// A lost attempt: the sender's send cycles are wasted and it sits
    /// out the (exponentially backed-off) retransmission timeout.
    fn lost_attempt(&mut self, m: &mut Machine, sender: NodeId, attempt: u32) {
        m.charge(sender, CycleCat::RetryBackoff, Knob::MsgSend, 1);
        m.charge(
            sender,
            CycleCat::RetryBackoff,
            Knob::RetryTimeout,
            backoff_units(attempt),
        );
        let s = m.stats_mut(sender);
        s.msgs_dropped += 1;
        s.timeouts += 1;
        self.dropped += 1;
    }

    /// Whether `from` may retransmit after losing `attempt` attempts:
    /// false once `attempt` exceeds the configured retry budget,
    /// otherwise true, counting the upcoming retransmission.
    fn may_retry(m: &mut Machine, from: NodeId, attempt: u32) -> bool {
        if attempt > m.faults().config().max_retries {
            return false;
        }
        m.stats_mut(from).retries += 1;
        true
    }

    /// A duplicate copy of a just-delivered message arrives at
    /// `receiver`: its transport detects the repeated sequence number,
    /// burns handler cycles, and nacks it back to `sender`. The duplicate
    /// itself is counted in `msgs_duplicated` (not `msgs_recv`); the nack
    /// is a real, counted message.
    fn duplicate_delivery(&mut self, m: &mut Machine, sender: NodeId, receiver: NodeId) {
        // Fault-recovery work end to end: the duplicate's handling and the
        // nack round both land in the retry/backoff bucket. The duplicate
        // copy carries no accepted bytes; the nack is a real header-only
        // message and occupies links like one.
        m.charge(receiver, CycleCat::RetryBackoff, Knob::MsgRecv, 1);
        m.stats_mut(receiver).msgs_duplicated += 1;
        self.duplicated += 1;
        m.charge(receiver, CycleCat::RetryBackoff, Knob::MsgSend, 1);
        m.charge(sender, CycleCat::RetryBackoff, Knob::MsgRecv, 1);
        self.account(m, receiver, sender, MsgKind::Nack, false);
    }

    /// Counts a message (and its statistics) *without* charging the
    /// flat per-message cycle costs.
    ///
    /// Protocol transactions with non-trivial latency structure (e.g. a
    /// three-hop recall) charge cycles explicitly and use this to keep the
    /// message accounting exact. These interior hops ride inside an
    /// end-to-end retried transaction, so they are modeled as reliable
    /// and never consult the fault plan. They do cross real links,
    /// though: under a finite-bandwidth fabric each hop still
    /// serializes onto its route and queues behind in-flight traffic
    /// (the transaction's lump latency covers only the *uncontended*
    /// wire time). Self-sends are uncounted, as in [`Network::send`].
    pub fn count_only(
        &mut self,
        m: &mut Machine,
        from: NodeId,
        to: NodeId,
        kind: MsgKind,
        with_block: bool,
    ) {
        if from != to {
            self.account(m, from, to, kind, with_block);
        }
    }

    /// Total messages delivered (dropped attempts and duplicate copies
    /// excluded; always equals the sum over [`MsgKind::all`] counts).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Messages delivered of one kind.
    pub fn count(&self, kind: MsgKind) -> u64 {
        self.by_kind[kind.index()]
    }

    /// Wire bytes delivered under one kind.
    pub fn bytes_of(&self, kind: MsgKind) -> u64 {
        self.bytes_by_kind[kind.index()]
    }

    /// Total wire bytes delivered (always equals the sum over all nodes'
    /// `bytes_sent`, and over their `bytes_recv`).
    pub fn total_bytes(&self) -> u64 {
        self.bytes_by_kind.iter().sum()
    }

    /// Per-kind delivered counts, in [`MsgKind::all`] order.
    pub fn per_kind(&self) -> impl Iterator<Item = (MsgKind, u64)> + '_ {
        MsgKind::all()
            .into_iter()
            .map(|k| (k, self.by_kind[k.index()]))
    }

    /// Message attempts lost to fault injection.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Duplicate deliveries detected (and nacked) under fault injection.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Resets all counters.
    pub fn clear(&mut self) {
        *self = Network::default();
    }
}

/// The retransmission wait before attempt `attempt + 1`: the base timeout
/// doubled per consecutive loss, saturating after
/// [`BACKOFF_DOUBLING_CAP`] doublings.
///
/// Saturating: a sweep-configured `retry_timeout` near `u64::MAX`
/// pins at `u64::MAX` instead of silently wrapping (a plain `<<`
/// wrapped here and produced *shorter* waits for *larger* timeouts).
#[cfg(test)]
fn backoff(retry_timeout: u64, attempt: u32) -> u64 {
    retry_timeout.saturating_mul(backoff_units(attempt))
}

/// The doubling multiplier of the `attempt`-th retransmission wait
/// (`2^min(attempt-1, cap)`). Charged symbolically as `units` of the
/// [`Knob::RetryTimeout`] price so captured backoffs re-price correctly
/// under a replay model's own timeout.
fn backoff_units(attempt: u32) -> u64 {
    1u64 << (attempt - 1).min(BACKOFF_DOUBLING_CAP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_sim::{CostModel, FaultConfig, MachineConfig};

    fn machine() -> Machine {
        Machine::new(MachineConfig::new(4).with_cost(CostModel::cm5()))
    }

    fn faulty_machine(faults: FaultConfig) -> Machine {
        Machine::new(
            MachineConfig::new(4)
                .with_cost(CostModel::cm5())
                .with_faults(faults),
        )
    }

    /// sum(msgs_sent) == sum(msgs_recv) and total == per-kind sum.
    fn assert_conserved(m: &Machine, net: &Network) {
        let totals = m.total_stats();
        assert_eq!(
            totals.msgs_sent, totals.msgs_recv,
            "every delivered message has both ends"
        );
        let per_kind: u64 = MsgKind::all().iter().map(|k| net.count(*k)).sum();
        assert_eq!(net.total(), per_kind, "total equals the per-kind sum");
        assert_eq!(
            net.total(),
            totals.msgs_sent,
            "network and node accounting agree"
        );
        assert_eq!(
            totals.bytes_sent, totals.bytes_recv,
            "every delivered byte has both ends"
        );
        assert_eq!(
            net.total_bytes(),
            totals.bytes_sent,
            "network and node byte accounting agree"
        );
        m.verify_ledger()
            .expect("cycle ledger conserves the clocks");
    }

    #[test]
    fn send_charges_both_sides() {
        let mut m = machine();
        let mut net = Network::new();
        net.send(&mut m, NodeId(0), NodeId(1), MsgKind::Flush, true);
        let c = CostModel::cm5();
        assert_eq!(m.clock(NodeId(0)), c.msg_send);
        assert_eq!(m.clock(NodeId(1)), c.msg_recv);
        assert_eq!(m.stats(NodeId(0)).msgs_sent, 1);
        assert_eq!(m.stats(NodeId(0)).blocks_sent, 1);
        assert_eq!(m.stats(NodeId(1)).msgs_recv, 1);
        assert_eq!(net.count(MsgKind::Flush), 1);
        assert_eq!(net.total(), 1);
        assert_conserved(&m, &net);
    }

    #[test]
    fn self_send_is_free() {
        let mut m = machine();
        let mut net = Network::new();
        net.send(&mut m, NodeId(2), NodeId(2), MsgKind::Ack, false);
        net.request_reply(&mut m, NodeId(2), NodeId(2), MsgKind::GetShared, true);
        assert_eq!(m.time(), 0);
        assert_eq!(net.total(), 0);
    }

    #[test]
    fn request_reply_charges_round_trip() {
        let mut m = machine();
        let mut net = Network::new();
        net.request_reply(&mut m, NodeId(0), NodeId(3), MsgKind::GetShared, true);
        let c = CostModel::cm5();
        assert_eq!(m.clock(NodeId(0)), c.remote_miss);
        assert_eq!(m.clock(NodeId(3)), c.msg_recv);
        assert_eq!(m.stats(NodeId(0)).msgs_sent, 1);
        assert_eq!(m.stats(NodeId(0)).msgs_recv, 1);
        assert_eq!(m.stats(NodeId(3)).blocks_sent, 1);
        assert_eq!(net.count(MsgKind::GetShared), 2);
        assert_conserved(&m, &net);
    }

    #[test]
    fn bytes_track_headers_and_block_payloads() {
        let mut m = machine();
        let mut net = Network::new();
        let c = CostModel::cm5();
        // Header-only one-way message.
        net.send(&mut m, NodeId(0), NodeId(1), MsgKind::Ack, false);
        assert_eq!(m.stats(NodeId(0)).bytes_sent, c.msg_header_bytes);
        assert_eq!(m.stats(NodeId(1)).bytes_recv, c.msg_header_bytes);
        // Block-carrying flush adds the 32-byte payload.
        net.send(&mut m, NodeId(0), NodeId(1), MsgKind::Flush, true);
        assert_eq!(
            m.stats(NodeId(0)).bytes_sent,
            2 * c.msg_header_bytes + BLOCK_BYTES as u64
        );
        assert_eq!(
            net.bytes_of(MsgKind::Flush),
            c.msg_header_bytes + BLOCK_BYTES as u64
        );
        // Request/reply: header request, header+block reply.
        net.request_reply(&mut m, NodeId(2), NodeId(3), MsgKind::GetShared, true);
        assert_eq!(
            net.bytes_of(MsgKind::GetShared),
            2 * c.msg_header_bytes + BLOCK_BYTES as u64
        );
        assert_conserved(&m, &net);
    }

    #[test]
    fn request_reply_stalls_land_in_the_requesters_miss_bucket() {
        use lcm_sim::CycleCat;
        let mut m = machine();
        let mut net = Network::new();
        let c = CostModel::cm5();
        net.request_reply(&mut m, NodeId(0), NodeId(3), MsgKind::GetShared, true);
        assert_eq!(
            m.ledger().get(NodeId(0), CycleCat::ReadStallRemote),
            c.remote_miss,
            "the whole round trip is one read stall"
        );
        assert_eq!(
            m.ledger().get(NodeId(3), CycleCat::MsgOverhead),
            c.msg_recv,
            "the home's handler work is overhead"
        );
        net.request_reply(&mut m, NodeId(1), NodeId(2), MsgKind::Upgrade, false);
        assert_eq!(
            m.ledger().get(NodeId(1), CycleCat::UpgradeStall),
            c.remote_miss
        );
        m.verify_ledger().unwrap();
    }

    #[test]
    fn traced_sends_record_paired_events() {
        let mut m = Machine::new(
            MachineConfig::new(4)
                .with_cost(CostModel::cm5())
                .with_trace(64),
        );
        let mut net = Network::new();
        net.send(&mut m, NodeId(0), NodeId(1), MsgKind::Flush, true);
        net.request_reply(&mut m, NodeId(2), NodeId(3), MsgKind::GetShared, true);
        let count = |kind| {
            m.trace()
                .events()
                .filter(|e| e.event.kind() == kind)
                .count() as u64
        };
        let (sends, recvs) = (count("msg_send"), count("msg_recv"));
        assert_eq!(sends, 3, "one-way + request + reply");
        assert_eq!(recvs, 3);
        assert_eq!(sends, m.total_stats().msgs_sent);
        assert_eq!(recvs, m.total_stats().msgs_recv);
    }

    #[test]
    fn kind_index_is_the_position_in_all() {
        for (i, kind) in MsgKind::all().into_iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
    }

    #[test]
    fn kinds_count_independently() {
        let mut m = machine();
        let mut net = Network::new();
        net.send(&mut m, NodeId(0), NodeId(1), MsgKind::Invalidate, false);
        net.send(&mut m, NodeId(1), NodeId(0), MsgKind::Ack, false);
        assert_eq!(net.count(MsgKind::Invalidate), 1);
        assert_eq!(net.count(MsgKind::Ack), 1);
        assert_eq!(net.count(MsgKind::Writeback), 0);
        for kind in MsgKind::all() {
            let _ = net.count(kind); // no panic, every kind indexable
        }
    }

    #[test]
    fn count_only_counts_without_cycles() {
        let mut m = machine();
        let mut net = Network::new();
        net.count_only(&mut m, NodeId(0), NodeId(1), MsgKind::Writeback, true);
        assert_eq!(m.time(), 0, "no cycles charged");
        assert_eq!(m.stats(NodeId(0)).msgs_sent, 1);
        assert_eq!(m.stats(NodeId(0)).blocks_sent, 1);
        assert_eq!(m.stats(NodeId(1)).msgs_recv, 1);
        assert_eq!(net.count(MsgKind::Writeback), 1);
        // Self-sends stay uncounted.
        net.count_only(&mut m, NodeId(2), NodeId(2), MsgKind::Ack, false);
        assert_eq!(net.total(), 1);
    }

    #[test]
    fn clear_resets_counts() {
        let mut m = machine();
        let mut net = Network::new();
        net.send(&mut m, NodeId(0), NodeId(1), MsgKind::Ack, false);
        net.clear();
        assert_eq!(net.total(), 0);
        assert_eq!(net.count(MsgKind::Ack), 0);
    }

    #[test]
    fn per_kind_matches_count() {
        let mut m = machine();
        let mut net = Network::new();
        net.send(&mut m, NodeId(0), NodeId(1), MsgKind::Flush, true);
        net.request_reply(&mut m, NodeId(0), NodeId(2), MsgKind::GetShared, true);
        for (kind, n) in net.per_kind() {
            assert_eq!(n, net.count(kind));
        }
        assert_eq!(net.per_kind().map(|(_, n)| n).sum::<u64>(), net.total());
    }

    #[test]
    fn inactive_plan_charges_exactly_like_the_reliable_network() {
        let mut plain = machine();
        let mut planned = faulty_machine(FaultConfig::default());
        let mut net_a = Network::new();
        let mut net_b = Network::new();
        for (from, to) in [(0u16, 1u16), (1, 2), (2, 0)] {
            net_a.send(&mut plain, NodeId(from), NodeId(to), MsgKind::Flush, true);
            net_b.send(&mut planned, NodeId(from), NodeId(to), MsgKind::Flush, true);
            net_a.request_reply(
                &mut plain,
                NodeId(to),
                NodeId(from),
                MsgKind::GetShared,
                true,
            );
            net_b.request_reply(
                &mut planned,
                NodeId(to),
                NodeId(from),
                MsgKind::GetShared,
                true,
            );
        }
        for n in plain.node_ids() {
            assert_eq!(plain.clock(n), planned.clock(n));
            assert_eq!(plain.stats(n), planned.stats(n));
        }
        assert_eq!(net_a.total(), net_b.total());
        assert_eq!(net_b.dropped(), 0);
    }

    #[test]
    fn dropped_send_times_out_retries_and_succeeds() {
        // drop_rate 0.5: with this seed some attempts drop and some
        // deliver; run enough sends that both paths certainly occur.
        let mut m = faulty_machine(FaultConfig::drops(0.5, 42));
        let mut net = Network::new();
        for i in 0..50u16 {
            net.send(
                &mut m,
                NodeId(i % 4),
                NodeId((i + 1) % 4),
                MsgKind::Flush,
                false,
            );
        }
        let totals = m.total_stats();
        assert_eq!(totals.msgs_sent, 50, "every send eventually delivered");
        assert!(totals.msgs_dropped > 0, "some attempts dropped");
        assert_eq!(
            totals.retries, totals.msgs_dropped,
            "each drop retried (budget never hit)"
        );
        assert_eq!(totals.timeouts, totals.msgs_dropped);
        assert_eq!(net.dropped(), totals.msgs_dropped);
        assert!(
            net.count(MsgKind::Retry) > 0,
            "retransmissions counted under Retry"
        );
        assert_eq!(net.count(MsgKind::Retry) + net.count(MsgKind::Flush), 50);
        assert_conserved(&m, &net);
    }

    #[test]
    fn drops_cost_timeout_cycles() {
        let drop_once = FaultConfig {
            drop_rate: 0.5,
            seed: 3,
            ..FaultConfig::default()
        };
        let mut m = faulty_machine(drop_once);
        let mut net = Network::new();
        let reliable_cost = CostModel::cm5().msg_send;
        for i in 0..40u16 {
            net.send(&mut m, NodeId(0), NodeId(1 + i % 3), MsgKind::Flush, false);
        }
        let c = CostModel::cm5();
        let dropped = m.stats(NodeId(0)).msgs_dropped;
        assert!(dropped > 0);
        // Sender paid at least: one send per delivery + send+timeout per drop.
        let floor = 40 * reliable_cost + dropped * (c.msg_send + c.retry_timeout);
        assert!(
            m.clock(NodeId(0)) >= floor,
            "clock {} under floor {floor}",
            m.clock(NodeId(0))
        );
    }

    #[test]
    fn infallible_send_escalates_to_a_death_verdict_and_delivers() {
        use lcm_sim::CycleCat;
        let always_drop = FaultConfig {
            drop_rate: 1.0,
            max_retries: 2,
            ..FaultConfig::default()
        };
        let mut m = faulty_machine(always_drop);
        let mut net = Network::new();
        net.send(&mut m, NodeId(0), NodeId(1), MsgKind::Flush, false);
        // The receiver was judged dead on retry exhaustion...
        assert_eq!(m.stats(NodeId(1)).crashes, 1);
        let crashes: Vec<u64> = m.node_ids().map(|n| m.stats(n).crashes).collect();
        assert_eq!(crashes, vec![0, 1, 0, 0]);
        // ...the sender paid a detection timeout...
        assert_eq!(
            m.ledger().get(NodeId(0), CycleCat::CrashDetect),
            CostModel::cm5().retry_timeout
        );
        // ...and the message still reached the restarted node.
        assert_eq!(m.stats(NodeId(1)).msgs_recv, 1);
        assert_eq!(net.count(MsgKind::Retry), 1);
        assert_conserved(&m, &net);

        // The blocking shape recovers the same way: verdict plus a
        // completed round trip against the restarted home.
        net.request_reply(&mut m, NodeId(2), NodeId(3), MsgKind::GetShared, true);
        assert_eq!(m.total_stats().crashes, 2);
        assert_eq!(m.stats(NodeId(3)).crashes, 1);
        assert_eq!(m.stats(NodeId(2)).msgs_recv, 1, "reply delivered");
        assert_eq!(m.stats(NodeId(3)).blocks_sent, 1);
        assert_conserved(&m, &net);
    }

    /// Pins both escalation shapes cycle for cycle: with every attempt
    /// dropped and `max_retries: 2`, the sender loses three attempts
    /// (backoff 1 + 2 + 4 timeouts), pays one `crash_detect` timeout, the
    /// receiver's crash counter ticks, and the message (both legs of a
    /// request/reply) is delivered as `Retry`.
    #[test]
    fn exhausted_budget_escalation_is_pinned_per_node() {
        use lcm_sim::CycleCat;
        let always_drop = FaultConfig {
            drop_rate: 1.0,
            max_retries: 2,
            ..FaultConfig::default()
        };
        let mut m = faulty_machine(always_drop);
        let mut net = Network::new();
        net.send(&mut m, NodeId(0), NodeId(1), MsgKind::Flush, false);
        net.request_reply(&mut m, NodeId(2), NodeId(3), MsgKind::GetShared, true);

        let c = CostModel::cm5();
        let (send, recv, rt) = (c.msg_send, c.msg_recv, c.retry_timeout);
        // Three lost attempts: each wastes a send and backs off 1, 2, 4
        // timeouts.
        let lost = 3 * send + 7 * rt;
        // (clock, crash_detect, retry_backoff, msg_overhead, retries,
        //  timeouts, crashes, msgs_sent, msgs_recv) per node.
        let expected = [
            (lost + rt + send, rt, lost, send, 2, 3, 0, 1, 0),
            (recv, 0, 0, recv, 0, 0, 1, 0, 1),
            // The requester's two delivered legs are one read stall.
            (lost + rt + c.remote_miss, rt, lost, 0, 2, 3, 0, 1, 1),
            (recv, 0, 0, recv, 0, 0, 1, 1, 1),
        ];
        for (i, want) in expected.into_iter().enumerate() {
            let n = NodeId(i as u16);
            let s = m.stats(n);
            let got = (
                m.clock(n),
                m.ledger().get(n, CycleCat::CrashDetect),
                m.ledger().get(n, CycleCat::RetryBackoff),
                m.ledger().get(n, CycleCat::MsgOverhead),
                s.retries,
                s.timeouts,
                s.crashes,
                s.msgs_sent,
                s.msgs_recv,
            );
            assert_eq!(got, want, "node {i}");
        }
        assert_eq!(
            m.ledger().get(NodeId(2), CycleCat::ReadStallRemote),
            c.remote_miss
        );
        assert_eq!(net.count(MsgKind::Retry), 3, "one-way + request + reply");
        assert_eq!(net.total(), 3);
        assert_eq!(net.dropped(), 6);
        assert_conserved(&m, &net);
    }

    #[test]
    fn backoff_grows_exponentially_then_saturates() {
        assert_eq!(backoff(100, 1), 100);
        assert_eq!(backoff(100, 2), 200);
        assert_eq!(backoff(100, 3), 400);
        assert_eq!(backoff(100, 7), 100 << 6);
        assert_eq!(backoff(100, 50), 100 << 6, "cap holds far out");
    }

    #[test]
    fn backoff_saturates_instead_of_wrapping_at_extreme_timeouts() {
        // Regression: `retry_timeout << capped` wrapped for large
        // sweep-configured timeouts, making the wait *shorter* the
        // larger the timeout. The doubled wait must never be smaller
        // than the base timeout.
        assert_eq!(backoff(u64::MAX, 7), u64::MAX);
        assert_eq!(backoff(u64::MAX / 2, 3), u64::MAX, "4x overflows, pins");
        assert_eq!(backoff(1 << 57, 7), 1 << 63, "largest exact doubling");
        assert_eq!(backoff(1 << 58, 7), u64::MAX, "one bit past it saturates");
        for attempt in 1..=10 {
            assert!(
                backoff(u64::MAX - 1, attempt) >= u64::MAX - 1,
                "attempt {attempt}: backoff shrank below the base timeout"
            );
        }
    }

    #[test]
    fn finite_bandwidth_charges_net_contention_and_conserves() {
        use lcm_sim::CycleCat;
        let mut cost = CostModel::cm5();
        cost.link_bandwidth_bytes_per_cycle = 2;
        let mut m = Machine::new(MachineConfig::new(4).with_cost(cost));
        let mut net = Network::new();
        for i in 0..20u16 {
            net.send(
                &mut m,
                NodeId(i % 4),
                NodeId((i + 1) % 4),
                MsgKind::Flush,
                true,
            );
            net.request_reply(
                &mut m,
                NodeId((i + 2) % 4),
                NodeId(i % 4),
                MsgKind::GetShared,
                true,
            );
        }
        assert!(
            m.ledger().cat_total(CycleCat::NetContention) > 0,
            "serialization and queueing cycles attributed"
        );
        assert!(!m.link_utilization().is_empty());
        assert_conserved(&m, &net);
        // A machine with unlimited bandwidth runs the same traffic
        // strictly faster.
        let mut free = machine();
        let mut net2 = Network::new();
        for i in 0..20u16 {
            net2.send(
                &mut free,
                NodeId(i % 4),
                NodeId((i + 1) % 4),
                MsgKind::Flush,
                true,
            );
            net2.request_reply(
                &mut free,
                NodeId((i + 2) % 4),
                NodeId(i % 4),
                MsgKind::GetShared,
                true,
            );
        }
        assert!(m.time() > free.time(), "contention can only slow a run");
        assert_eq!(net.total(), net2.total(), "traffic itself is unchanged");
    }

    #[test]
    fn contention_composes_with_fault_injection() {
        use lcm_sim::CycleCat;
        let mut cost = CostModel::cm5();
        cost.link_bandwidth_bytes_per_cycle = 2;
        let faults = FaultConfig {
            drop_rate: 0.2,
            dup_rate: 0.1,
            seed: 23,
            ..FaultConfig::default()
        };
        let mut m = Machine::new(MachineConfig::new(4).with_cost(cost).with_faults(faults));
        let mut net = Network::new();
        for i in 0..40u16 {
            net.send(
                &mut m,
                NodeId(i % 4),
                NodeId((i + 1) % 4),
                MsgKind::Flush,
                i % 2 == 0,
            );
            net.request_reply(
                &mut m,
                NodeId((i + 3) % 4),
                NodeId(i % 4),
                MsgKind::GetShared,
                true,
            );
        }
        assert!(m.total_stats().msgs_dropped > 0, "faults fired");
        assert!(m.ledger().cat_total(CycleCat::NetContention) > 0);
        assert_conserved(&m, &net);
    }

    #[test]
    fn duplicates_are_nacked_and_conserved() {
        let dup_heavy = FaultConfig {
            dup_rate: 0.5,
            seed: 9,
            ..FaultConfig::default()
        };
        let mut m = faulty_machine(dup_heavy);
        let mut net = Network::new();
        for i in 0..40u16 {
            net.send(
                &mut m,
                NodeId(i % 4),
                NodeId((i + 1) % 4),
                MsgKind::Flush,
                false,
            );
        }
        let totals = m.total_stats();
        assert_eq!(totals.msgs_dropped, 0);
        assert!(totals.msgs_duplicated > 0, "some deliveries duplicated");
        assert_eq!(net.duplicated(), totals.msgs_duplicated);
        assert_eq!(
            net.count(MsgKind::Nack),
            totals.msgs_duplicated,
            "each duplicate nacked"
        );
        assert_conserved(&m, &net);
    }

    #[test]
    fn delays_charge_the_receiver_only() {
        let delay_all = FaultConfig {
            delay_rate: 1.0,
            max_delay: 100,
            ..FaultConfig::default()
        };
        let mut m = faulty_machine(delay_all);
        let mut net = Network::new();
        net.send(&mut m, NodeId(0), NodeId(1), MsgKind::Flush, false);
        let c = CostModel::cm5();
        assert_eq!(m.clock(NodeId(0)), c.msg_send, "sender unaffected by delay");
        let recv = m.clock(NodeId(1));
        assert!(
            recv > c.msg_recv && recv <= c.msg_recv + 100,
            "receiver delayed 1..=100 cycles, got {recv}"
        );
        assert_conserved(&m, &net);
    }

    #[test]
    fn request_reply_survives_lost_replies() {
        // Heavy loss: both request and reply legs drop often, exercising
        // the reply-lost path where the home's work is already done.
        let lossy = FaultConfig {
            drop_rate: 0.4,
            seed: 17,
            ..FaultConfig::default()
        };
        let mut m = faulty_machine(lossy);
        let mut net = Network::new();
        for i in 0..30u16 {
            net.request_reply(
                &mut m,
                NodeId(i % 4),
                NodeId((i + 1) % 4),
                MsgKind::GetShared,
                true,
            );
        }
        let totals = m.total_stats();
        assert!(totals.msgs_dropped > 0);
        assert!(totals.retries > 0);
        assert_conserved(&m, &net);
        // Every transaction eventually completed with both directions
        // counted (plus retransmissions under Retry).
        assert_eq!(
            net.count(MsgKind::GetShared) + net.count(MsgKind::Retry),
            totals.msgs_sent
        );
    }

    #[test]
    fn identical_seeds_reproduce_identical_clocks_and_counters() {
        let cfg = FaultConfig {
            drop_rate: 0.2,
            dup_rate: 0.1,
            delay_rate: 0.1,
            seed: 77,
            ..FaultConfig::default()
        };
        let run = || {
            let mut m = faulty_machine(cfg);
            let mut net = Network::new();
            for i in 0..60u16 {
                net.send(
                    &mut m,
                    NodeId(i % 4),
                    NodeId((i + 1) % 4),
                    MsgKind::Flush,
                    i % 2 == 0,
                );
                net.request_reply(
                    &mut m,
                    NodeId((i + 2) % 4),
                    NodeId(i % 4),
                    MsgKind::GetShared,
                    true,
                );
            }
            (
                m.time(),
                m.total_stats(),
                net.total(),
                net.dropped(),
                net.duplicated(),
            )
        };
        assert_eq!(run(), run());
    }
}
