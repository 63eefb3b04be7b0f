//! Trace-driven replay: re-pricing a captured charge stream under an
//! arbitrary cost model and topology without re-executing the program.
//!
//! The capture stream is a complete account of every clock mutation the
//! execution-driven machine performed, in execution order, with
//! cost-model-derived charges kept *symbolic* (knob × units). One
//! private fold walks the stream and owns the six pricing rules:
//!
//! * [`Event::Work`] — coalesced compute plus cache hits; re-priced as
//!   `cycles + hits × cache_hit`.
//! * [`Event::Charge`] — symbolic; re-priced as `knob.eval(cost) × units`
//!   under its recorded category.
//! * [`Event::ChargeRaw`] — model-independent cycles (fault delays,
//!   retry backoff); replayed verbatim.
//! * [`Event::Xfer`] — one delivered message crossing the wire; replay
//!   re-enters it into its own contention fabric at the sender's clock
//!   and charges the queueing + serialization delay to the receiver,
//!   and recomputes wire bytes under the new header size.
//! * [`Event::Barrier`] — structural: all clocks jump to
//!   `max + barrier_cost(nodes)`, the jump charged as barrier wait.
//! * [`Event::PhaseMark`] — recorded as a phase boundary at the
//!   replayed time.
//!
//! [`replay`] is the fold with no observer. [`crate::analyze`] is the
//! same fold with an observer (a *tap*) that cuts the stream into
//! barrier epochs, so the critical path prices a run with this code,
//! not a copy of it. The differential index ([`crate::reprice`])
//! aggregates the stream symbolically and re-prices through the same
//! `Pricer` steps.
//!
//! What replay *cannot* reconstruct: protocol control flow. A cost model
//! never changes which faults, invalidations or retries happen — those
//! are fixed by the capture — so replay explores pricing, not policy.

use crate::format::TraceFile;
use lcm_sim::codec::op;
use lcm_sim::{
    CostModel, CycleCat, CycleLedger, Event, Fabric, LinkUtil, NodeId, NodeStats, Stamped, Topology,
};

/// The outcome of re-pricing one captured run.
#[derive(Clone, Debug)]
pub struct Replayed {
    /// Execution time under the replay cost model (max node clock).
    pub time: u64,
    /// Per-node clocks at the end of the replayed run.
    pub clocks: Vec<u64>,
    /// Per-node, per-category cycle attribution of the replayed run.
    pub ledger: CycleLedger,
    /// Number of global barriers in the stream.
    pub barriers: u64,
    /// Summed statistics: the capture's protocol counters with the
    /// byte counters recomputed for the replay header size.
    pub totals: NodeStats,
    /// Per-link utilization of the replay fabric (empty when the replay
    /// cost model has unlimited bandwidth).
    pub links: Vec<LinkUtil>,
    /// Phase boundaries: label and replayed time at each
    /// [`Event::PhaseMark`].
    pub phases: Vec<(&'static str, u64)>,
}

/// The replayed machine state every pricing path advances: the run so
/// far plus the contention fabric. The event fold below and the
/// differential index ([`crate::reprice`]) both price through it, so a
/// charge, a transfer, a barrier jump and a phase stamp are each
/// written once.
pub(crate) struct Pricer {
    /// The run so far. `totals.bytes_sent` accumulates wire bytes;
    /// `time`, `links` and `bytes_recv` are set by [`Pricer::finish`].
    pub(crate) run: Replayed,
    fabric: Option<Fabric>,
    barrier_cost: u64,
}

impl Pricer {
    pub(crate) fn new(file: &TraceFile, cost: &CostModel, topology: Topology) -> Pricer {
        let nodes = file.nodes;
        let mut totals = file.totals.clone();
        totals.bytes_sent = 0;
        Pricer {
            run: Replayed {
                time: 0,
                clocks: vec![0; nodes],
                ledger: CycleLedger::new(nodes),
                barriers: 0,
                totals,
                links: Vec::new(),
                phases: Vec::with_capacity(file.phases().len()),
            },
            fabric: (cost.link_bandwidth_bytes_per_cycle > 0)
                .then(|| Fabric::new(topology, nodes, cost)),
            barrier_cost: cost.barrier_cost(nodes),
        }
    }

    /// Whether transfers enter a contention fabric.
    pub(crate) fn has_fabric(&self) -> bool {
        self.fabric.is_some()
    }

    /// Advances `node`'s clock by `cycles`, attributed to `cat`.
    /// Every sum in pricing saturates: a query may set any price up to
    /// `u64::MAX`, and a saturating sum of non-negative terms is the
    /// same in any order, so all pricing paths still agree.
    #[inline]
    pub(crate) fn charge(&mut self, node: NodeId, cat: CycleCat, cycles: u64) {
        let clock = &mut self.run.clocks[node.index()];
        *clock = clock.saturating_add(cycles);
        self.run.ledger.charge(node, cat, cycles);
    }

    /// Sends `wire` bytes `from -> to` at the sender's clock `now`: the
    /// fabric's queueing plus serialization delay is charged to the
    /// receiver as contention and returned.
    #[inline]
    pub(crate) fn xfer(&mut self, from: NodeId, to: NodeId, wire: u64, now: u64) -> u64 {
        self.run.totals.bytes_sent = self.run.totals.bytes_sent.saturating_add(wire);
        let Some(fabric) = &mut self.fabric else {
            return 0;
        };
        let (queue, ser) = fabric.transfer(from, to, wire, now);
        let extra = queue.saturating_add(ser);
        if extra > 0 {
            self.charge(to, CycleCat::NetContention, extra);
        }
        extra
    }

    /// The slowest clock.
    fn max_clock(&self) -> u64 {
        self.run.clocks.iter().copied().max().unwrap_or(0)
    }

    /// A global barrier: every clock jumps to `max + barrier_cost`, each
    /// node's jump charged as barrier wait.
    pub(crate) fn barrier(&mut self) {
        let after = self.max_clock().saturating_add(self.barrier_cost);
        let run = &mut self.run;
        for (i, c) in run.clocks.iter_mut().enumerate() {
            run.ledger
                .charge(NodeId(i as u16), CycleCat::BarrierWait, after - *c);
            *c = after;
        }
        run.barriers += 1;
    }

    /// A phase boundary, stamped with the slowest clock.
    pub(crate) fn phase(&mut self, label: &'static str) {
        let t = self.max_clock();
        self.run.phases.push((label, t));
    }

    /// The replayed run.
    pub(crate) fn finish(mut self) -> Replayed {
        self.run.time = self.max_clock();
        self.run.totals.bytes_recv = self.run.totals.bytes_sent;
        self.run.links = self.fabric.map(|f| f.utilization()).unwrap_or_default();
        self.run
    }
}

/// An observer of the pricing fold (see [`fold`]).
pub(crate) trait Tap {
    /// `node`'s clock just advanced by a nonzero `cycles` under `cat`.
    fn charge(&mut self, _node: NodeId, _cat: CycleCat, _cycles: u64) {}
    /// A barrier is about to jump every clock to `max(clocks) + cost`.
    fn barrier(&mut self, _clocks: &[u64], _cost: u64) {}
    /// Any event that is neither a charge nor a barrier (phase marks
    /// included, after their stamp is recorded).
    fn other(&mut self, _ev: &Stamped) {}
}

/// The no-op tap: plain replay.
impl Tap for () {}

/// The one event fold: prices `file`'s stream under `cost` and
/// `topology`, telling `tap` about every step. The six pricing rules
/// live here and nowhere else (module docs).
pub(crate) fn fold(
    file: &TraceFile,
    cost: &CostModel,
    topology: Topology,
    tap: &mut impl Tap,
) -> Replayed {
    let mut p = Pricer::new(file, cost, topology);
    for ev in file.events() {
        let (node, cat, cycles) = match ev.event {
            Event::Work { node, cycles, hits } => (
                node,
                CycleCat::Compute,
                cycles.saturating_add(hits.saturating_mul(cost.cache_hit)),
            ),
            Event::Charge {
                node,
                cat,
                knob,
                units,
            } => (node, cat, knob.eval(cost).saturating_mul(u64::from(units))),
            Event::ChargeRaw { node, cat, cycles } => (node, cat, cycles),
            Event::Xfer { from, to, bytes } => {
                // The captured size includes the capture-time header;
                // swap it for the replay model's header.
                let wire = bytes
                    .saturating_sub(file.cost.msg_header_bytes)
                    .saturating_add(cost.msg_header_bytes);
                let extra = p.xfer(from, to, wire, p.run.clocks[from.index()]);
                if extra > 0 {
                    tap.charge(to, CycleCat::NetContention, extra);
                }
                continue;
            }
            Event::Barrier { .. } => {
                tap.barrier(&p.run.clocks, p.barrier_cost);
                p.barrier();
                continue;
            }
            Event::PhaseMark { label } => {
                p.phase(label);
                tap.other(&ev);
                continue;
            }
            // Observability records: they shape statistics, not clocks.
            _ => {
                tap.other(&ev);
                continue;
            }
        };
        p.charge(node, cat, cycles);
        if cycles > 0 {
            tap.charge(node, cat, cycles);
        }
    }
    p.finish()
}

/// Replays `file`'s event stream under `cost` and `topology`, returning
/// the re-priced clocks, ledger and statistics.
///
/// Replaying under the file's own cost model and topology reproduces the
/// execution-driven run exactly (see [`validate`]); any other model
/// yields the run's cost under that model, at a fraction of the price of
/// re-executing it. [`crate::reprice`] returns the same answer from the
/// file's differential index without walking every event.
pub fn replay(file: &TraceFile, cost: &CostModel, topology: Topology) -> Replayed {
    fold(file, cost, topology, &mut ())
}

/// Replays `file` under its *own* cost model and topology and checks the
/// result against the execution-driven outcome stored in the footer.
///
/// A passing validation proves the capture is a complete account of the
/// run: every per-node clock, every cycle-ledger cell and the wire byte
/// counters are reproduced exactly from events alone, the ledger
/// conserves cycles (each node's category sum equals its clock), and the
/// stream's message records agree with the protocol counters. Any
/// mismatch names the first divergent quantity.
pub fn validate(file: &TraceFile) -> Result<Replayed, String> {
    let r = replay(file, &file.cost, file.topology);
    first_divergence(
        ("replay", &r.clocks, &r.ledger),
        ("execution", &file.clocks, &file.ledger),
    )?;
    for (n, &clock) in r.clocks.iter().enumerate() {
        let node = NodeId(n as u16);
        let sum = CycleCat::all()
            .iter()
            .fold(0u64, |a, &c| a.saturating_add(r.ledger.get(node, c)));
        if sum != clock {
            return Err(format!(
                "node {n} ledger does not conserve cycles: categories sum to \
                 {sum} but the clock reads {clock}"
            ));
        }
    }
    if r.totals.bytes_sent != file.totals.bytes_sent
        || r.totals.bytes_recv != file.totals.bytes_recv
    {
        return Err(format!(
            "wire bytes diverge: replay sent/recv {}/{}, execution {}/{}",
            r.totals.bytes_sent,
            r.totals.bytes_recv,
            file.totals.bytes_sent,
            file.totals.bytes_recv
        ));
    }
    // Completeness audit: the stream must hold one record per counted
    // message and one barrier record per executed barrier.
    let (sends, recvs) = (file.count_of(op::MSG_SEND), file.count_of(op::MSG_RECV));
    if sends != file.totals.msgs_sent || recvs != file.totals.msgs_recv {
        return Err(format!(
            "message records diverge from counters: stream has {sends} sends / \
             {recvs} recvs, counters say {} / {}",
            file.totals.msgs_sent, file.totals.msgs_recv
        ));
    }
    if file.nodes as u64 * r.barriers != file.totals.barriers {
        return Err(format!(
            "barrier records diverge from counters: stream has {} barriers \
             across {} nodes, counters say {}",
            r.barriers, file.nodes, file.totals.barriers
        ));
    }
    Ok(r)
}

/// A run's name, per-node clocks and cycle ledger, for
/// [`first_divergence`].
type Run<'a> = (&'a str, &'a [u64], &'a CycleLedger);

/// Names the first node clock, then the first ledger cell, where two
/// runs disagree.
fn first_divergence(
    (na, clocks_a, ledger_a): Run,
    (nb, clocks_b, ledger_b): Run,
) -> Result<(), String> {
    for (n, (x, y)) in clocks_a.iter().zip(clocks_b).enumerate() {
        if x != y {
            return Err(format!("node {n} clock diverges: {na} {x}, {nb} {y}"));
        }
    }
    for n in 0..clocks_a.len() {
        let node = NodeId(n as u16);
        for cat in CycleCat::all() {
            let (x, y) = (ledger_a.get(node, cat), ledger_b.get(node, cat));
            if x != y {
                return Err(format!(
                    "node {n} {} cycles diverge: {na} {x}, {nb} {y}",
                    cat.label()
                ));
            }
        }
    }
    Ok(())
}

/// Field-by-field comparison of a differential re-pricing
/// ([`crate::reprice`]) with the full event walk ([`replay`]), naming
/// the first divergence: the byte-identity contract of the index.
pub fn compare_replayed(diff: &Replayed, full: &Replayed) -> Result<(), String> {
    if diff.time != full.time {
        return Err(format!(
            "time diverges: differential {}, full {}",
            diff.time, full.time
        ));
    }
    first_divergence(
        ("differential", &diff.clocks, &diff.ledger),
        ("full", &full.clocks, &full.ledger),
    )?;
    if diff.barriers != full.barriers {
        return Err(format!(
            "barrier count diverges: differential {}, full {}",
            diff.barriers, full.barriers
        ));
    }
    if diff.totals != full.totals {
        return Err(format!(
            "stats diverge: differential sent/recv {}/{}, full {}/{}",
            diff.totals.bytes_sent,
            diff.totals.bytes_recv,
            full.totals.bytes_sent,
            full.totals.bytes_recv
        ));
    }
    if diff.phases != full.phases {
        return Err(format!(
            "phases diverge: differential {:?}, full {:?}",
            diff.phases, full.phases
        ));
    }
    if diff.links != full.links {
        return Err("link utilization diverges".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_sim::{Knob, NodeId, Stamped};

    /// A hand-built two-node capture with one symbolic charge, one raw
    /// charge, coalesced work, a transfer and a barrier — priced by hand
    /// under cm5 so the footer matches an execution-driven run.
    fn tiny_capture() -> TraceFile {
        let cost = CostModel::cm5();
        let nodes = 2;
        let mut clocks = vec![0u64; nodes];
        let mut ledger = CycleLedger::new(nodes);
        let mut events: Vec<Stamped> = Vec::new();
        let mut seq = 0u64;
        let mut push = |events: &mut Vec<Stamped>, cycle: u64, event: Event| {
            events.push(Stamped { seq, cycle, event });
            seq += 1;
        };

        // Node 0: 40 cycles of compute plus 3 hits.
        let work = 40 + 3 * cost.cache_hit;
        clocks[0] += work;
        ledger.charge(NodeId(0), CycleCat::Compute, work);
        push(
            &mut events,
            clocks[0],
            Event::Work {
                node: NodeId(0),
                cycles: 40,
                hits: 3,
            },
        );
        // Node 1: a remote read miss, symbolically.
        let miss = cost.remote_miss * 2;
        clocks[1] += miss;
        ledger.charge(NodeId(1), CycleCat::ReadStallRemote, miss);
        push(
            &mut events,
            clocks[1],
            Event::Charge {
                node: NodeId(1),
                cat: CycleCat::ReadStallRemote,
                knob: Knob::RemoteMiss,
                units: 2,
            },
        );
        // Node 1: a raw fault delay.
        clocks[1] += 500;
        ledger.charge(NodeId(1), CycleCat::RetryBackoff, 500);
        push(
            &mut events,
            clocks[1],
            Event::ChargeRaw {
                node: NodeId(1),
                cat: CycleCat::RetryBackoff,
                cycles: 500,
            },
        );
        // One message 1 -> 0 (unlimited bandwidth at capture time).
        let bytes = cost.msg_header_bytes + 32;
        push(
            &mut events,
            clocks[1],
            Event::Xfer {
                from: NodeId(1),
                to: NodeId(0),
                bytes,
            },
        );
        push(
            &mut events,
            clocks[1],
            Event::MsgSend {
                from: NodeId(1),
                to: NodeId(0),
                kind: "GetShared",
                bytes,
            },
        );
        push(
            &mut events,
            clocks[1],
            Event::MsgRecv {
                node: NodeId(0),
                from: NodeId(1),
                kind: "GetShared",
                bytes,
            },
        );
        // Barrier.
        let after = clocks.iter().copied().max().unwrap() + cost.barrier_cost(nodes);
        for (i, c) in clocks.iter_mut().enumerate() {
            ledger.charge(NodeId(i as u16), CycleCat::BarrierWait, after - *c);
            *c = after;
        }
        push(&mut events, after, Event::Barrier { at: after });

        let totals = NodeStats {
            msgs_sent: 1,
            msgs_recv: 1,
            bytes_sent: bytes,
            bytes_recv: bytes,
            barriers: nodes as u64,
            ..Default::default()
        };
        TraceFile::from_capture(
            nodes,
            Topology::default(),
            cost,
            Vec::new(),
            events,
            clocks,
            &ledger,
            totals,
        )
        .expect("gap-free")
    }

    #[test]
    fn validates_a_hand_priced_capture() {
        let file = tiny_capture();
        let r = validate(&file).expect("replay reproduces the capture");
        assert_eq!(r.time, *file.clocks.iter().max().unwrap());
        assert_eq!(r.barriers, 1);
    }

    #[test]
    fn repricing_scales_the_symbolic_charges() {
        let file = tiny_capture();
        let mut cheap = file.cost;
        cheap.remote_miss = 0;
        let r = replay(&file, &cheap, file.topology);
        assert_eq!(r.ledger.get(NodeId(1), CycleCat::ReadStallRemote), 0);
        // Raw charges replay verbatim regardless of the model.
        assert_eq!(r.ledger.get(NodeId(1), CycleCat::RetryBackoff), 500);
        let exec = validate(&file).expect("baseline");
        assert!(
            r.time < exec.time,
            "zero-cost remote misses must shorten the run"
        );
    }

    #[test]
    fn repricing_swaps_the_message_header() {
        let file = tiny_capture();
        let mut fat = file.cost;
        fat.msg_header_bytes += 100;
        let r = replay(&file, &fat, file.topology);
        assert_eq!(r.totals.bytes_sent, file.totals.bytes_sent + 100);
        assert_eq!(r.totals.bytes_recv, file.totals.bytes_recv + 100);
    }

    #[test]
    fn adding_bandwidth_at_replay_time_charges_contention() {
        let file = tiny_capture();
        let mut narrow = file.cost;
        narrow.link_bandwidth_bytes_per_cycle = 1;
        let r = replay(&file, &narrow, file.topology);
        assert!(
            r.ledger.get(NodeId(0), CycleCat::NetContention) > 0,
            "the transfer must serialize over the 1 B/cycle link"
        );
        assert!(!r.links.is_empty(), "the fabric saw the message");
    }

    #[test]
    fn validation_rejects_a_tampered_footer() {
        let mut file = tiny_capture();
        file.clocks[0] += 1;
        let err = validate(&file).expect_err("divergence detected");
        assert!(err.contains("clock diverges"), "unexpected error: {err}");
    }

    #[test]
    fn validation_audits_message_completeness() {
        let mut file = tiny_capture();
        file.totals.msgs_sent += 1;
        let err = validate(&file).expect_err("missing record detected");
        assert!(err.contains("message records"), "unexpected error: {err}");
    }
}
