//! Differential re-pricing: a per-trace index that lets repeated
//! what-if queries skip the full event walk. Each [`TraceFile`] owns its
//! index, built once on first use ([`TraceFile::index`]).
//!
//! A full replay folds every captured event — for a medium-scale
//! capture, millions of records — even though most of the stream is
//! *linear* in the cost model: a segment of events between two
//! synchronization points charges each node `Σ raw + Σ knob×units`,
//! and those sums do not depend on the model at all. The [`DiffIndex`]
//! precomputes them once per trace:
//!
//! * the stream is cut into **segments** at every [`Event::Barrier`] and
//!   [`Event::PhaseMark`] — the only points where replay has to
//!   materialize per-node clocks (barrier jumps and phase stamps read
//!   the clock maximum);
//! * each segment stores sparse per-`(node, category)` raw-cycle sums
//!   and per-`(node, category, knob)` unit sums — re-pricing a segment
//!   is one multiply per touched knob instead of one per event;
//! * every [`Event::Xfer`] is annotated with the *sender's* charge delta
//!   since that sender's previous transfer, so a finite-bandwidth query
//!   can reconstruct the exact sender clock the contention fabric saw
//!   without walking the non-transfer events at all.
//!
//! The transfers are the bulk of the index — millions on a medium
//! capture — so they are stored flat: one exactly-sized array of
//! 24-byte records in stream order, each segment holding only its end
//! offset into it. A record's symbolic delta (a few `(knob, units)`
//! pairs) is not a per-transfer allocation but a count into one `syms`
//! arena, which the fabric walk consumes front to back alongside the
//! transfers.
//!
//! [`reprice`] evaluates the index under an arbitrary cost model and
//! topology and returns a [`Replayed`] that is byte-identical to
//! [`crate::replay`] on the same inputs — clocks, every ledger cell,
//! wire bytes, barrier count, phases and link utilization. It advances
//! the same `Pricer` state as the event fold (charges, transfers,
//! barrier jumps, phase stamps), and every aggregation the index
//! performs is a re-association of additions and shared
//! multiplications the fold performs term by term; tests assert the
//! identity on every grid point rather than trusting the argument.
//!
//! The index also records which knobs the trace actually exercises,
//! which lets the serve cache answer a query that differs from a cached
//! neighbor only in knobs this trace never charges — see
//! [`DiffIndex::field_sensitive`].

use crate::engine::{Pricer, Replayed};
use crate::format::TraceFile;
use lcm_sim::codec::op;
use lcm_sim::{CostModel, CycleCat, Event, Knob, NodeId, Topology};

/// How a segment ends: the event that forced clocks to materialize.
#[derive(Clone, Debug)]
enum SegEnd {
    /// A global barrier: clocks jump to `max + barrier_cost`.
    Barrier,
    /// A phase mark: the label is stamped with the clock maximum.
    Phase(&'static str),
    /// End of stream (no materializing event).
    Stream,
}

/// One transfer, with the sender-side charge delta accumulated since
/// the same sender's previous transfer (or the segment start). 24 bytes,
/// no heap: the symbolic part of the delta lives in the index's `syms`
/// arena.
#[derive(Clone, Debug)]
struct SegXfer {
    from: u16,
    to: u16,
    /// How many `(knob, units)` entries of the `syms` arena belong to
    /// this transfer: the next ones after its predecessor's.
    syms: u32,
    /// Captured wire bytes minus the capture-time header: the
    /// model-independent part of the re-headered size.
    adj_bytes: u64,
    /// Raw (model-independent) cycles the sender accrued since its
    /// previous transfer in this segment.
    d_raw: u64,
}

const _: () = assert!(std::mem::size_of::<SegXfer>() == 24);

/// One barrier/phase-delimited slice of the stream, fully aggregated.
#[derive(Clone, Debug)]
struct Segment {
    /// Sparse `(node, category, cycles)` raw-charge sums.
    raw: Vec<(u16, u8, u64)>,
    /// Sparse `(node, category, knob, units)` symbolic-charge sums.
    sym: Vec<(u16, u8, u8, u64)>,
    /// End offset of this segment's transfers in [`DiffIndex`]'s
    /// `xfers` (they start where the previous segment's end).
    xfer_end: usize,
    end: SegEnd,
}

/// The precomputed differential-replay index of one trace (see the
/// module docs).
#[derive(Clone, Debug)]
pub struct DiffIndex {
    segments: Vec<Segment>,
    /// Every transfer in stream order, exactly sized.
    xfers: Vec<SegXfer>,
    /// The transfers' symbolic sender deltas, `(knob index, units)`, in
    /// transfer order: transfer `i` owns the `xfers[i].syms` entries
    /// after those of transfers `0..i`.
    syms: Vec<(u8, u64)>,
    /// `Σ adj_bytes` over the whole stream (closed-form byte counters
    /// for unlimited-bandwidth queries).
    sum_adj_bytes: u64,
    /// Total symbolic units per knob across the whole trace: which
    /// prices this capture is sensitive to.
    knob_units: [u64; Knob::COUNT],
    barriers: u64,
}

/// Scratch accumulators reused across segments while building the
/// index, so construction is O(stream) regardless of segment count.
struct Builder {
    /// Dense `node × category` raw sums + touched list.
    raw_acc: Vec<u64>,
    raw_touched: Vec<u32>,
    /// Dense `node × category × knob` unit sums + touched list.
    sym_acc: Vec<u64>,
    sym_touched: Vec<u32>,
    /// Per-sender pending deltas since that sender's last transfer.
    pend_raw: Vec<u64>,
    pend_sym: Vec<u64>,
    pend_dirty: Vec<u16>,
    xfers: Vec<SegXfer>,
    syms: Vec<(u8, u64)>,
}

impl Builder {
    fn new(nodes: usize, xfers: usize) -> Builder {
        Builder {
            raw_acc: vec![0; nodes * CycleCat::COUNT],
            raw_touched: Vec::new(),
            sym_acc: vec![0; nodes * CycleCat::COUNT * Knob::COUNT],
            sym_touched: Vec::new(),
            pend_raw: vec![0; nodes],
            pend_sym: vec![0; nodes * Knob::COUNT],
            pend_dirty: Vec::new(),
            xfers: Vec::with_capacity(xfers),
            syms: Vec::new(),
        }
    }

    fn add_raw(&mut self, node: u16, cat: CycleCat, cycles: u64) {
        if cycles == 0 {
            return;
        }
        let i = node as usize * CycleCat::COUNT + cat.index();
        if self.raw_acc[i] == 0 {
            self.raw_touched.push(i as u32);
        }
        self.raw_acc[i] = self.raw_acc[i].saturating_add(cycles);
        if self.pend_raw[node as usize] == 0 && self.pend_sym_clean(node) {
            self.pend_dirty.push(node);
        }
        let pend = &mut self.pend_raw[node as usize];
        *pend = pend.saturating_add(cycles);
    }

    fn add_sym(&mut self, node: u16, cat: CycleCat, knob: Knob, units: u64) {
        if units == 0 {
            return;
        }
        let i = (node as usize * CycleCat::COUNT + cat.index()) * Knob::COUNT + knob.index();
        if self.sym_acc[i] == 0 {
            self.sym_touched.push(i as u32);
        }
        self.sym_acc[i] = self.sym_acc[i].saturating_add(units);
        if self.pend_raw[node as usize] == 0 && self.pend_sym_clean(node) {
            self.pend_dirty.push(node);
        }
        let pend = &mut self.pend_sym[node as usize * Knob::COUNT + knob.index()];
        *pend = pend.saturating_add(units);
    }

    fn pend_sym_clean(&self, node: u16) -> bool {
        let base = node as usize * Knob::COUNT;
        self.pend_sym[base..base + Knob::COUNT]
            .iter()
            .all(|&u| u == 0)
    }

    /// Drains the sender's pending delta into a transfer annotation,
    /// its symbolic part onto the `syms` arena.
    fn push_xfer(&mut self, from: u16, to: u16, adj_bytes: u64) {
        let d_raw = std::mem::take(&mut self.pend_raw[from as usize]);
        let base = from as usize * Knob::COUNT;
        let before = self.syms.len();
        for k in 0..Knob::COUNT {
            let u = std::mem::take(&mut self.pend_sym[base + k]);
            if u > 0 {
                self.syms.push((k as u8, u));
            }
        }
        self.pend_dirty.retain(|&n| n != from);
        self.xfers.push(SegXfer {
            from,
            to,
            syms: (self.syms.len() - before) as u32,
            adj_bytes,
            d_raw,
        });
    }

    /// Closes the current segment, returning it and resetting every
    /// accumulator (only touched cells are cleared).
    fn finish_segment(&mut self, end: SegEnd) -> Segment {
        self.raw_touched.sort_unstable();
        let mut raw = Vec::with_capacity(self.raw_touched.len());
        for &i in &self.raw_touched {
            let v = std::mem::take(&mut self.raw_acc[i as usize]);
            if v > 0 {
                let node = (i as usize / CycleCat::COUNT) as u16;
                let cat = (i as usize % CycleCat::COUNT) as u8;
                raw.push((node, cat, v));
            }
        }
        self.raw_touched.clear();
        self.sym_touched.sort_unstable();
        let mut sym = Vec::with_capacity(self.sym_touched.len());
        for &i in &self.sym_touched {
            let v = std::mem::take(&mut self.sym_acc[i as usize]);
            if v > 0 {
                let nc = i as usize / Knob::COUNT;
                let node = (nc / CycleCat::COUNT) as u16;
                let cat = (nc % CycleCat::COUNT) as u8;
                let knob = (i as usize % Knob::COUNT) as u8;
                sym.push((node, cat, knob, v));
            }
        }
        self.sym_touched.clear();
        for n in std::mem::take(&mut self.pend_dirty) {
            self.pend_raw[n as usize] = 0;
            let base = n as usize * Knob::COUNT;
            self.pend_sym[base..base + Knob::COUNT].fill(0);
        }
        debug_assert!(self.pend_raw.iter().all(|&v| v == 0));
        Segment {
            raw,
            sym,
            xfer_end: self.xfers.len(),
            end,
        }
    }
}

impl DiffIndex {
    /// Builds the index from a trace. One decoding pass over the stream;
    /// the transfer count that sizes the flat array comes from the
    /// file's per-opcode counts.
    pub fn build(file: &TraceFile) -> DiffIndex {
        let xfers = file.count_of(op::XFER) as usize;
        let mut b = Builder::new(file.nodes, xfers);
        let mut segments = Vec::with_capacity(file.phases().len() + 1);
        let mut knob_units = [0u64; Knob::COUNT];
        let mut sum_adj_bytes = 0u64;
        let mut barriers = 0u64;
        for ev in file.events() {
            match ev.event {
                Event::Work { node, cycles, hits } => {
                    b.add_raw(node.0, CycleCat::Compute, cycles);
                    if hits > 0 {
                        b.add_sym(node.0, CycleCat::Compute, Knob::CacheHit, hits);
                        let k = &mut knob_units[Knob::CacheHit.index()];
                        *k = k.saturating_add(hits);
                    }
                }
                Event::Charge {
                    node,
                    cat,
                    knob,
                    units,
                } => {
                    b.add_sym(node.0, cat, knob, u64::from(units));
                    let k = &mut knob_units[knob.index()];
                    *k = k.saturating_add(u64::from(units));
                }
                Event::ChargeRaw { node, cat, cycles } => {
                    b.add_raw(node.0, cat, cycles);
                }
                Event::Xfer { from, to, bytes } => {
                    let adj = bytes.saturating_sub(file.cost.msg_header_bytes);
                    b.push_xfer(from.0, to.0, adj);
                    sum_adj_bytes = sum_adj_bytes.saturating_add(adj);
                }
                Event::Barrier { .. } => {
                    segments.push(b.finish_segment(SegEnd::Barrier));
                    barriers += 1;
                }
                Event::PhaseMark { label } => {
                    segments.push(b.finish_segment(SegEnd::Phase(label)));
                }
                // Observability records shape statistics, not clocks.
                _ => {}
            }
        }
        segments.push(b.finish_segment(SegEnd::Stream));
        debug_assert_eq!(b.xfers.len(), xfers);
        b.syms.shrink_to_fit();
        DiffIndex {
            segments,
            xfers: b.xfers,
            syms: b.syms,
            sum_adj_bytes,
            knob_units,
            barriers,
        }
    }

    /// Whether changing cost-model field `field` (in `.lcmtrace` wire
    /// order — [`crate::codec::cost_fields`]) can change
    /// *any* replay output for this trace, given the query's link
    /// bandwidth. A field is insensitive when the trace charges zero
    /// units on every knob that reads it and the structural consumers
    /// (barriers, transfers, the contention fabric) are absent, which
    /// is what lets the serve cache answer such a query from a
    /// neighboring entry without replaying anything.
    pub fn field_sensitive(&self, field: usize, bandwidth: u64) -> bool {
        let knobs: &[Knob] = match field {
            0 => &[Knob::CacheHit],
            1 => &[Knob::LocalFill],
            2 => &[Knob::LocalRefill],
            3 => &[Knob::RemoteMiss, Knob::RemoteMissLessSend],
            4 => &[Knob::MsgSend, Knob::RemoteMissLessSend],
            5 => &[Knob::MsgRecv],
            6 => &[Knob::BlockFlush],
            7 => &[Knob::CleanCopyCreate],
            8 => &[Knob::ReconcilePerVersion],
            // barrier_base / barrier_per_level move every barrier jump.
            9 | 10 => return self.barriers > 0,
            11 => &[Knob::Invalidate],
            12 => &[Knob::Upgrade],
            13 => &[Knob::RetryTimeout],
            // msg_header_bytes re-headers every wire byte counter (and,
            // under finite bandwidth, every serialization delay).
            14 => return !self.xfers.is_empty(),
            // link_bandwidth toggles/rescales the contention fabric.
            15 => return !self.xfers.is_empty(),
            // NI occupancy and the backlog window only matter while a
            // fabric exists and messages cross it.
            16 | 17 => return bandwidth > 0 && !self.xfers.is_empty(),
            _ => return true, // unknown field: assume sensitive
        };
        knobs.iter().any(|k| self.knob_units[k.index()] > 0)
    }

    /// Whether the topology can change any replay output under the
    /// given link bandwidth (it only shapes the contention fabric).
    pub fn topology_sensitive(&self, bandwidth: u64) -> bool {
        bandwidth > 0 && !self.xfers.is_empty()
    }
}

/// Re-prices `file` under `cost`/`topology` from its index alone —
/// byte-identical to [`crate::replay`] on the same inputs (module docs),
/// without walking non-transfer events. The first call on a file builds
/// its index.
pub fn reprice(file: &TraceFile, cost: &CostModel, topology: Topology) -> Replayed {
    let idx = file.index();
    let mut eval = [0u64; Knob::COUNT];
    for k in Knob::all() {
        eval[k.index()] = k.eval(cost);
    }
    let mut p = Pricer::new(file, cost, topology);
    // Per-segment scratch for the fabric walk: the sender's evaluated
    // in-segment charge prefix. During the walk a clock holds the
    // segment start plus the contention received so far, so the
    // sender's clock at a transfer is `clock + a_run`. Only nodes in
    // `touched` are dirty, so resetting between segments is
    // O(touched), not O(nodes).
    let mut a_run = vec![0u64; file.nodes];
    let mut touched: Vec<usize> = Vec::new();
    // Cursors into the flat transfer array and the syms arena, both
    // consumed in stream order.
    let (mut xi, mut si) = (0, 0);

    for seg in &idx.segments {
        if p.has_fabric() {
            for x in &idx.xfers[xi..seg.xfer_end] {
                let from = x.from as usize;
                let mut a = a_run[from].saturating_add(x.d_raw);
                let syms = &idx.syms[si..si + x.syms as usize];
                si += syms.len();
                for &(k, units) in syms {
                    a = a.saturating_add(eval[k as usize].saturating_mul(units));
                }
                if a_run[from] == 0 && a > 0 {
                    touched.push(from);
                }
                a_run[from] = a;
                let now = p.run.clocks[from].saturating_add(a);
                let wire = x.adj_bytes.saturating_add(cost.msg_header_bytes);
                p.xfer(NodeId(x.from), NodeId(x.to), wire, now);
            }
            for n in touched.drain(..) {
                a_run[n] = 0;
            }
        }
        xi = seg.xfer_end;
        // Fold the segment's aggregated charges.
        for &(node, cat, cycles) in &seg.raw {
            p.charge(NodeId(node), CycleCat::all()[cat as usize], cycles);
        }
        for &(node, cat, knob, units) in &seg.sym {
            let cycles = eval[knob as usize].saturating_mul(units);
            p.charge(NodeId(node), CycleCat::all()[cat as usize], cycles);
        }
        match seg.end {
            SegEnd::Barrier => p.barrier(),
            SegEnd::Phase(label) => p.phase(label),
            SegEnd::Stream => {}
        }
    }

    // With no fabric the walk was skipped: wire bytes in closed form.
    if !p.has_fabric() {
        p.run.totals.bytes_sent = (idx.xfers.len() as u64)
            .saturating_mul(cost.msg_header_bytes)
            .saturating_add(idx.sum_adj_bytes);
    }
    p.finish()
}
