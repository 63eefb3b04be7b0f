//! Critical-path analysis over captured traces: happens-before
//! construction, slack attribution and causal what-if projection.
//!
//! A captured run's happens-before DAG has three edge families:
//!
//! * **program order** — each node's cycle-stamped events form a chain;
//! * **message edges** — every [`Event::MsgRecv`] depends on the matching
//!   [`Event::MsgSend`], paired FIFO per `(from, to, kind)` channel;
//! * **barrier edges** — every [`Event::Barrier`] joins all nodes and
//!   releases them together, so the machine's only cross-node *clock*
//!   coupling is the barrier (message latency is folded into the
//!   requester's stall charges by the protocol layer, exactly as the
//!   replay engine prices it).
//!
//! That last property collapses path extraction to a barrier-epoch walk:
//! between two consecutive barriers every node accrues work
//! independently from the common release time, the slowest arrival sets
//! the next release, and the critical path is the chain of per-epoch
//! slowest nodes plus the barrier costs joining them. The walk *is* the
//! replay fold ([`crate::replay`]): [`analyze`] runs that fold with a
//! tap that cuts the stream into epochs, so the extracted path length
//! equals the replayed makespan bit-for-bit by construction, and the
//! tests check it.
//!
//! Everything off the path is **slack**: a node `n` arriving `s` cycles
//! before the epoch's slowest node can grow by `s` cycles for free, so
//! its stalls in that epoch are slack-hidden. The flat ledger counts
//! them; only the on-path fraction bounds the run.
//!
//! **What-if projection** (Coz-style causal profiling): virtually scale
//! one or more ledger categories by a percentage, re-walk the epochs
//! (slowest-arrival maxes recomputed, so the path may migrate to other
//! nodes) and report the projected makespan. The projection holds
//! recorded quantities fixed — it does not re-run the protocol or the
//! contention fabric — so it is exact for categories whose cycles are
//! independent of everything else (removing `NetContention` equals a
//! genuine zero-bandwidth replay) and approximate where a cost-model
//! change reprices composite charges non-proportionally (see the
//! `RemoteMissLessSend` knob).

use crate::engine::{fold, Tap};
use crate::format::TraceFile;
use lcm_sim::{CycleCat, Event, NodeId, Stamped};
use std::collections::{HashMap, VecDeque};

/// One barrier-to-barrier segment of the happens-before DAG.
#[derive(Clone, Debug)]
pub struct EpochSeg {
    /// Epoch number, 0-based in barrier order.
    pub index: usize,
    /// Phase label: the first [`Event::PhaseMark`] at or after this
    /// epoch's close (the runtime stamps phases just after the barrier),
    /// `"(end)"` for trailing epochs past the last mark, `"(run)"` when
    /// the capture has no marks at all.
    pub label: &'static str,
    /// Common start time: the previous barrier's release (0 for epoch 0).
    pub start: u64,
    /// The slowest node's arrival at this epoch's close.
    pub end: u64,
    /// Barrier cost added at the join (0 for a trailing tail epoch).
    pub barrier_cost: u64,
    /// True when the epoch closed at a recorded [`Event::Barrier`];
    /// false for the tail segment after the last barrier.
    pub closed_by_barrier: bool,
    /// The path-resident node: slowest arrival, lowest id on ties.
    pub critical: usize,
    /// Per-node, per-category cycles accrued inside the epoch.
    pub work: Vec<[u64; CycleCat::COUNT]>,
    /// Cycles charged while a span was open, by `(node, block, cycles)`,
    /// sorted. Best-effort: coalesced work flushed outside spans has no
    /// block to attribute to.
    pub blocks: Vec<(u16, u64, u64)>,
}

impl EpochSeg {
    /// Total cycles node `n` accrued inside this epoch.
    pub fn node_work(&self, n: usize) -> u64 {
        self.work[n].iter().fold(0, |a, &v| a.saturating_add(v))
    }

    /// Node `n`'s arrival time at the epoch's close.
    pub fn arrival(&self, n: usize) -> u64 {
        self.start.saturating_add(self.node_work(n))
    }

    /// How far node `n` finished ahead of the slowest node — the cycles
    /// by which its epoch work could grow without moving the makespan.
    pub fn slack(&self, n: usize) -> u64 {
        self.end - self.arrival(n)
    }
}

/// A matched send→recv dependency edge of the happens-before DAG.
#[derive(Clone, Debug)]
pub struct MsgEdge {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Protocol message kind label.
    pub kind: &'static str,
    /// Bytes on the wire.
    pub bytes: u64,
    /// Sequence stamp of the send record.
    pub send_seq: u64,
    /// Sequence stamp of the recv record.
    pub recv_seq: u64,
    /// Sender's clock at the send.
    pub send_cycle: u64,
    /// Receiver's clock at the handling.
    pub recv_cycle: u64,
}

impl MsgEdge {
    /// Delivery latency in cycles: receiver's handling clock minus
    /// sender's clock. Signed — the stamps are per-node logical clocks,
    /// so a fast receiver can handle a slow sender's message "early".
    pub fn latency(&self) -> i64 {
        self.recv_cycle as i64 - self.send_cycle as i64
    }
}

/// Per-phase aggregation of path residence and slack.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Phase label.
    pub label: &'static str,
    /// Number of epochs under this label.
    pub epochs: u64,
    /// Cycles this phase contributes to the critical path (slowest
    /// arrivals plus barrier costs).
    pub path_cycles: u64,
    /// Total slack across the phase's epochs and nodes.
    pub slack: u64,
}

/// The analyzed happens-before structure of one captured run.
#[derive(Clone, Debug)]
pub struct CritPath {
    /// Number of nodes in the capture.
    pub nodes: usize,
    /// Makespan of the analyzed run (max node clock after the fold).
    pub makespan: u64,
    /// Barrier epochs in order; the last may be an open tail segment.
    pub epochs: Vec<EpochSeg>,
    /// Matched send→recv edges, in recv order.
    pub edges: Vec<MsgEdge>,
    /// `MsgRecv` records with no pending matching send.
    pub unmatched_recvs: u64,
    /// `MsgSend` records never consumed by a recv.
    pub unmatched_sends: u64,
}

impl CritPath {
    /// Length of the extracted critical path: per epoch, the slowest
    /// node's work plus the joining barrier's cost. Equals
    /// [`CritPath::makespan`] bit-for-bit — the module's contract. Like
    /// every sum along the path (and like the replay clocks), it
    /// saturates at `u64::MAX`.
    pub fn path_length(&self) -> u64 {
        self.epochs.iter().fold(0, |t, e| {
            t.saturating_add(e.end - e.start)
                .saturating_add(e.barrier_cost)
        })
    }

    /// Per-category cycles *on* the critical path: the path-resident
    /// node's work in each epoch, plus every joining barrier's cost
    /// under [`CycleCat::BarrierWait`] (the critical node has zero
    /// slack, so its barrier charge is exactly the barrier cost).
    pub fn on_path_by_cat(&self) -> [u64; CycleCat::COUNT] {
        let mut out = [0u64; CycleCat::COUNT];
        for e in &self.epochs {
            for (i, v) in e.work[e.critical].iter().enumerate() {
                out[i] = out[i].saturating_add(*v);
            }
            let wait = &mut out[CycleCat::BarrierWait.index()];
            *wait = wait.saturating_add(e.barrier_cost);
        }
        out
    }

    /// Per-category cycles across *all* nodes, including the structural
    /// barrier-wait charges (each node's slack plus the barrier cost at
    /// every join). Reproduces the replay ledger's totals from the
    /// epoch decomposition alone — the conservation contract.
    pub fn total_by_cat(&self) -> [u64; CycleCat::COUNT] {
        let mut out = [0u64; CycleCat::COUNT];
        for e in &self.epochs {
            for w in &e.work {
                for (i, v) in w.iter().enumerate() {
                    out[i] = out[i].saturating_add(*v);
                }
            }
            if e.closed_by_barrier {
                let wait = &mut out[CycleCat::BarrierWait.index()];
                for n in 0..self.nodes {
                    *wait = wait
                        .saturating_add(e.slack(n))
                        .saturating_add(e.barrier_cost);
                }
            }
        }
        out
    }

    /// Total slack over all epochs and nodes.
    pub fn total_slack(&self) -> u64 {
        let slacks = self
            .epochs
            .iter()
            .flat_map(|e| (0..self.nodes).map(|n| e.slack(n)));
        slacks.fold(0, u64::saturating_add)
    }

    /// Every per-epoch, per-node slack value (the critical node's zeros
    /// included), in epoch-major order — histogram input.
    pub fn slack_values(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.epochs.len() * self.nodes);
        for e in &self.epochs {
            for n in 0..self.nodes {
                out.push(e.slack(n));
            }
        }
        out
    }

    /// Per-phase path residence and slack, in first-appearance order.
    pub fn phase_summary(&self) -> Vec<PhaseRow> {
        let mut order: Vec<&'static str> = Vec::new();
        let mut rows: HashMap<&'static str, PhaseRow> = HashMap::new();
        for e in &self.epochs {
            let row = rows.entry(e.label).or_insert_with(|| {
                order.push(e.label);
                PhaseRow {
                    label: e.label,
                    epochs: 0,
                    path_cycles: 0,
                    slack: 0,
                }
            });
            row.epochs += 1;
            row.path_cycles = row
                .path_cycles
                .saturating_add(e.end - e.start)
                .saturating_add(e.barrier_cost);
            row.slack = (0..self.nodes).fold(row.slack, |t, n| t.saturating_add(e.slack(n)));
        }
        order.into_iter().map(|l| rows.remove(l).unwrap()).collect()
    }

    /// Cycles charged inside spans on path-resident segments, aggregated
    /// by `(node, block)` and sorted by descending cycles (then key) —
    /// the blocks whose handling the run actually waited on.
    pub fn path_blocks(&self) -> Vec<(u16, u64, u64)> {
        let mut agg: HashMap<(u16, u64), u64> = HashMap::new();
        for e in &self.epochs {
            for &(node, block, cycles) in &e.blocks {
                if node as usize == e.critical {
                    *agg.entry((node, block)).or_default() += cycles;
                }
            }
        }
        let mut out: Vec<(u16, u64, u64)> = agg.into_iter().map(|((n, b), c)| (n, b, c)).collect();
        out.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        out
    }

    /// Causal what-if: scale every category in `cats` to `pct`% of its
    /// recorded cycles on every node, re-walk the epochs (the slowest
    /// arrival — and with it the path — may migrate) and return the
    /// projected makespan. Scaling [`CycleCat::BarrierWait`] also scales
    /// the structural barrier cost; structural waits (slack) are never
    /// scaled — they are re-derived by the walk itself.
    ///
    /// Exact when the scaled cycles are independent quantities (e.g.
    /// `NetContention` at 0% equals a zero-bandwidth replay); see the
    /// module docs for where it is only an approximation.
    pub fn whatif(&self, cats: &[CycleCat], pct: u64) -> u64 {
        let mut scaled = [false; CycleCat::COUNT];
        for c in cats {
            scaled[c.index()] = true;
        }
        let scale = |v: u64| v.saturating_mul(pct) / 100;
        let barrier_scaled = scaled[CycleCat::BarrierWait.index()];
        let mut t = 0u64;
        for e in &self.epochs {
            let longest = (0..self.nodes)
                .map(|n| {
                    e.work[n]
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| if scaled[i] { scale(v) } else { v })
                        .fold(0u64, |a, v| a.saturating_add(v))
                })
                .max()
                .unwrap_or(0);
            let bc = if barrier_scaled {
                scale(e.barrier_cost)
            } else {
                e.barrier_cost
            };
            t = t.saturating_add(longest).saturating_add(bc);
        }
        t
    }
}

/// Matches every [`Event::MsgRecv`] in `events` FIFO with the earliest
/// pending [`Event::MsgSend`] on the same `(from, to, kind)` channel.
/// Returns the matched edges in recv order, then the number of recvs
/// with no pending send and of sends never received.
pub fn match_messages(events: impl IntoIterator<Item = Stamped>) -> (Vec<MsgEdge>, u64, u64) {
    // Pending sends per FIFO channel: (seq, cycle, bytes) in send order.
    type Channel = (u16, u16, &'static str);
    let mut inflight: HashMap<Channel, VecDeque<(u64, u64, u64)>> = HashMap::new();
    let mut edges: Vec<MsgEdge> = Vec::new();
    let mut unmatched_recvs = 0u64;
    for ev in events {
        match ev.event {
            Event::MsgSend {
                from,
                to,
                kind,
                bytes,
            } => {
                inflight
                    .entry((from.0, to.0, kind))
                    .or_default()
                    .push_back((ev.seq, ev.cycle, bytes));
            }
            Event::MsgRecv {
                node, from, kind, ..
            } => {
                match inflight
                    .get_mut(&(from.0, node.0, kind))
                    .and_then(|q| q.pop_front())
                {
                    Some((send_seq, send_cycle, bytes)) => edges.push(MsgEdge {
                        from,
                        to: node,
                        kind,
                        bytes,
                        send_seq,
                        recv_seq: ev.seq,
                        send_cycle,
                        recv_cycle: ev.cycle,
                    }),
                    None => unmatched_recvs += 1,
                }
            }
            _ => {}
        }
    }
    let unmatched_sends = inflight.values().map(|q| q.len() as u64).sum();
    (edges, unmatched_recvs, unmatched_sends)
}

/// The fold tap that cuts a replay into barrier epochs, attributing
/// each charge to its node's epoch work and innermost open span.
struct Epochs {
    epochs: Vec<EpochSeg>,
    /// Common start of the open epoch (the last barrier's release).
    start: u64,
    work: Vec<[u64; CycleCat::COUNT]>,
    blocks: HashMap<(u16, u64), u64>,
    /// Open spans per node, innermost last.
    spans: Vec<Vec<u64>>,
    /// Epochs closed but not yet labeled: the runtime stamps the phase
    /// mark just *after* the barrier it describes.
    pending_label: Vec<usize>,
    saw_mark: bool,
}

impl Epochs {
    /// Closes the open epoch at `clocks` (each node's arrival).
    fn close(&mut self, clocks: &[u64], barrier_cost: u64, closed_by_barrier: bool) {
        let end = clocks.iter().copied().max().unwrap_or(0);
        let critical = clocks
            .iter()
            .enumerate()
            .rev()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let work = vec![[0u64; CycleCat::COUNT]; clocks.len()];
        let mut blocks: Vec<(u16, u64, u64)> =
            self.blocks.drain().map(|((n, b), c)| (n, b, c)).collect();
        blocks.sort_unstable();
        self.pending_label.push(self.epochs.len());
        self.epochs.push(EpochSeg {
            index: self.epochs.len(),
            label: "(run)",
            start: self.start,
            end,
            barrier_cost,
            closed_by_barrier,
            critical,
            work: std::mem::replace(&mut self.work, work),
            blocks,
        });
    }
}

impl Tap for Epochs {
    fn charge(&mut self, node: NodeId, cat: CycleCat, cycles: u64) {
        let w = &mut self.work[node.index()][cat.index()];
        *w = w.saturating_add(cycles);
        if let Some(&b) = self.spans[node.index()].last() {
            let c = self.blocks.entry((node.0, b)).or_default();
            *c = c.saturating_add(cycles);
        }
    }

    fn barrier(&mut self, clocks: &[u64], cost: u64) {
        self.close(clocks, cost, true);
        let end = self.epochs.last().expect("just closed").end;
        self.start = end.saturating_add(cost);
    }

    fn other(&mut self, ev: &Stamped) {
        match ev.event {
            Event::PhaseMark { label } => {
                self.saw_mark = true;
                for i in self.pending_label.drain(..) {
                    self.epochs[i].label = label;
                }
            }
            Event::SpanBegin { node, block, .. } => self.spans[node.index()].push(block.0),
            Event::SpanEnd { node, .. } => {
                self.spans[node.index()].pop();
            }
            _ => {}
        }
    }
}

/// Analyzes `file` under its own cost model and topology, so the
/// extracted path prices the execution-driven run itself: the replay
/// fold segments the stream into barrier epochs and attributes charges
/// to open spans, and [`match_messages`] pairs the message edges.
pub fn analyze(file: &TraceFile) -> CritPath {
    let nodes = file.nodes;
    let mut tap = Epochs {
        epochs: Vec::new(),
        start: 0,
        work: vec![[0u64; CycleCat::COUNT]; nodes],
        blocks: HashMap::new(),
        spans: vec![Vec::new(); nodes],
        pending_label: Vec::new(),
        saw_mark: false,
    };
    let r = fold(file, &file.cost, file.topology, &mut tap);
    // Tail segment: work after the last barrier (or a barrierless run).
    if tap.work.iter().any(|w| w.iter().any(|&v| v > 0)) || tap.epochs.is_empty() {
        tap.close(&r.clocks, 0, false);
    }
    let tail_label = if tap.saw_mark { "(end)" } else { "(run)" };
    for i in tap.pending_label.drain(..) {
        tap.epochs[i].label = tail_label;
    }
    let (edges, unmatched_recvs, unmatched_sends) = match_messages(file.events());
    CritPath {
        nodes,
        makespan: r.time,
        epochs: tap.epochs,
        edges,
        unmatched_recvs,
        unmatched_sends,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use lcm_sim::{CostModel, CycleLedger, Knob, NodeStats, Topology};

    /// A hand-built three-node, two-epoch capture: epoch 0's slowest
    /// node is 1 (a remote-miss stall inside a span), epoch 1's is 2
    /// (raw compute), with one message 1 -> 0 and a phase mark after
    /// the barrier — exercising every edge family at a size where the
    /// path is checkable by hand.
    fn two_epoch_capture() -> TraceFile {
        let cost = CostModel::cm5();
        let nodes = 3;
        let mut clocks = vec![0u64; nodes];
        let mut ledger = CycleLedger::new(nodes);
        let mut events: Vec<Stamped> = Vec::new();
        let mut seq = 0u64;
        let mut push = |events: &mut Vec<Stamped>, cycle: u64, event: Event| {
            events.push(Stamped { seq, cycle, event });
            seq += 1;
        };

        // Epoch 0. Node 0: 100 cycles compute. Node 1: span-wrapped
        // remote miss (the epoch's slowest). Node 2: idle.
        clocks[0] += 100;
        ledger.charge(NodeId(0), CycleCat::Compute, 100);
        push(
            &mut events,
            clocks[0],
            Event::Work {
                node: NodeId(0),
                cycles: 100,
                hits: 0,
            },
        );
        push(
            &mut events,
            clocks[1],
            Event::SpanBegin {
                node: NodeId(1),
                what: "read_fault",
                block: lcm_sim::BlockId(7),
            },
        );
        let miss = cost.remote_miss * 3;
        clocks[1] += miss;
        ledger.charge(NodeId(1), CycleCat::ReadStallRemote, miss);
        push(
            &mut events,
            clocks[1],
            Event::Charge {
                node: NodeId(1),
                cat: CycleCat::ReadStallRemote,
                knob: Knob::RemoteMiss,
                units: 3,
            },
        );
        push(
            &mut events,
            clocks[1],
            Event::SpanEnd {
                node: NodeId(1),
                what: "read_fault",
                block: lcm_sim::BlockId(7),
            },
        );
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
            clocks[0],
            Event::MsgRecv {
                node: NodeId(0),
                from: NodeId(1),
                kind: "GetShared",
                bytes,
            },
        );
        let after = clocks.iter().copied().max().unwrap() + cost.barrier_cost(nodes);
        for (i, c) in clocks.iter_mut().enumerate() {
            ledger.charge(NodeId(i as u16), CycleCat::BarrierWait, after - *c);
            *c = after;
        }
        push(&mut events, after, Event::Barrier { at: after });
        push(&mut events, after, Event::PhaseMark { label: "init" });

        // Epoch 1 (tail, no closing barrier). Node 2: 900 raw cycles.
        clocks[2] += 900;
        ledger.charge(NodeId(2), CycleCat::RetryBackoff, 900);
        push(
            &mut events,
            clocks[2],
            Event::ChargeRaw {
                node: NodeId(2),
                cat: CycleCat::RetryBackoff,
                cycles: 900,
            },
        );

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
    fn path_length_equals_makespan_and_replay_time() {
        let file = two_epoch_capture();
        let cp = analyze(&file);
        let r = engine::validate(&file).expect("capture validates");
        assert_eq!(cp.makespan, r.time);
        assert_eq!(cp.path_length(), cp.makespan);
    }

    #[test]
    fn epochs_pick_the_slowest_node_and_label_phases() {
        let file = two_epoch_capture();
        let cp = analyze(&file);
        assert_eq!(cp.epochs.len(), 2);
        let e0 = &cp.epochs[0];
        assert_eq!(e0.critical, 1, "the remote miss outweighs the compute");
        assert_eq!(e0.label, "init", "labeled by the mark after its barrier");
        assert!(e0.closed_by_barrier);
        assert_eq!(e0.slack(1), 0, "the critical node has no slack");
        assert!(
            e0.slack(2) > e0.slack(0),
            "the idle node has the most slack"
        );
        let e1 = &cp.epochs[1];
        assert_eq!(e1.critical, 2);
        assert_eq!(e1.label, "(end)");
        assert!(!e1.closed_by_barrier);
        assert_eq!(e1.barrier_cost, 0);
    }

    #[test]
    fn totals_reproduce_the_replay_ledger() {
        let file = two_epoch_capture();
        let cp = analyze(&file);
        let r = engine::validate(&file).expect("capture validates");
        let totals = cp.total_by_cat();
        for cat in CycleCat::all() {
            let want: u64 = (0..file.nodes)
                .map(|n| r.ledger.get(NodeId(n as u16), cat))
                .sum();
            assert_eq!(totals[cat.index()], want, "category {}", cat.label());
        }
    }

    #[test]
    fn message_edges_match_fifo_and_blocks_attribute_to_spans() {
        let file = two_epoch_capture();
        let cp = analyze(&file);
        assert_eq!(cp.edges.len(), 1);
        assert_eq!(cp.unmatched_recvs, 0);
        assert_eq!(cp.unmatched_sends, 0);
        let e = &cp.edges[0];
        assert_eq!((e.from, e.to, e.kind), (NodeId(1), NodeId(0), "GetShared"));
        assert!(e.send_seq < e.recv_seq);
        // The remote-miss charge landed inside the span on block 7.
        let blocks = cp.path_blocks();
        assert_eq!(blocks.len(), 1);
        let (node, block, cycles) = blocks[0];
        assert_eq!((node, block), (1, 7));
        assert_eq!(cycles, file.cost.remote_miss * 3);
    }

    #[test]
    fn whatif_is_monotone_and_identity_at_100pct() {
        let file = two_epoch_capture();
        let cp = analyze(&file);
        assert_eq!(cp.whatif(&[], 100), cp.makespan);
        assert_eq!(cp.whatif(&[CycleCat::Compute], 100), cp.makespan);
        let faster = cp.whatif(&[CycleCat::ReadStallRemote], 0);
        assert!(
            faster < cp.makespan,
            "removing the epoch-0 bound shortens the run"
        );
        // With node 1's stall gone, epoch 0 is bound by node 0's compute.
        assert_eq!(
            faster,
            100 + file.cost.barrier_cost(3) + 900,
            "path migrates to node 0's compute"
        );
        let slower = cp.whatif(&[CycleCat::RetryBackoff], 300);
        assert!(slower > cp.makespan);
    }

    #[test]
    fn whatif_on_barrier_wait_scales_the_structural_cost() {
        let file = two_epoch_capture();
        let cp = analyze(&file);
        let no_barrier = cp.whatif(&[CycleCat::BarrierWait], 0);
        assert_eq!(no_barrier, cp.makespan - file.cost.barrier_cost(3));
    }

    #[test]
    fn analysis_is_deterministic() {
        let file = two_epoch_capture();
        let a = analyze(&file);
        let b = analyze(&file);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
