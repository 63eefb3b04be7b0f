//! The simulated machine: nodes, logical clocks, and statistics.
//!
//! The reproduction is an *execution-driven* simulation: application code
//! really runs (inside one host thread) and every memory access is routed
//! through a protocol, which charges cycles to per-node logical clocks via
//! this module. A node's clock advances as it computes and as its misses
//! and messages are serviced; a [`Machine::barrier`] synchronizes all
//! clocks to the maximum, exactly how the phase-structured C\*\* programs
//! behave on the paper's CM-5.
//!
//! Clock accounting is *logical*: handler work for a message is charged to
//! the home node when the message is (synchronously) processed, without
//! modeling queueing or contention. This is sufficient for the paper's
//! results, which are dominated by miss counts and round-trip latencies.

use crate::cost::{CostModel, Knob};
use crate::fault::{FaultConfig, FaultPlan};
use crate::mem::BlockId;
use crate::profile::{CycleCat, CycleLedger, PhaseSnapshot};
use crate::stats::NodeStats;
use crate::topology::{Fabric, LinkUtil, Topology};
use crate::trace::{Event, Trace};
use std::fmt;

/// Maximum machine size. Directory sharer sets throughout the protocol
/// stack are fixed-capacity multi-word bitmasks (`lcm_stache::SharerSet`)
/// sized for this many nodes; a larger machine would silently alias
/// sharers, so construction rejects it outright.
pub const MAX_NODES: usize = 1024;

/// Directory sharer-set representation backend.
///
/// Selects what the simulated *hardware* (or protocol software) stores
/// per directory entry, and therefore how precisely invalidations can be
/// targeted. The simulator always tracks exact membership as its oracle;
/// the backend governs the invalidation target set:
///
/// * [`DirBackend::FullMap`] — one presence bit per node: always
///   precise, but entry storage grows linearly with machine size.
/// * [`DirBackend::LimitedPtr`] — `ptrs` node pointers; an entry whose
///   sharer count exceeds `ptrs` *overflows to broadcast* (DASH's
///   `Dir_i B` scheme): invalidations go to every node until the entry
///   is rebuilt from scratch.
/// * [`DirBackend::CoarseVec`] — a `bits`-bit vector, each bit covering
///   `ceil(nodes / bits)` consecutive nodes; invalidations go to every
///   node of every group containing a sharer.
///
/// The defaults (`ptrs: 64`, `bits: 64`) re-spend exactly the storage
/// budget of the original single-`u64` full map, which makes all three
/// backends bit-identical on machines of ≤ 64 nodes (a 64-node set can
/// neither overflow 64 pointers nor be coarsened by 64 bits) while
/// genuinely over-invalidating at kilonode scale.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum DirBackend {
    /// Full bit-vector: one presence bit per node, always precise.
    FullMap,
    /// `ptrs` exact node pointers, overflowing to broadcast beyond.
    LimitedPtr {
        /// Pointer capacity before the entry falls back to broadcast.
        ptrs: u16,
    },
    /// A `bits`-bit coarse vector over groups of consecutive nodes.
    CoarseVec {
        /// Vector width; each bit covers `ceil(nodes / bits)` nodes.
        bits: u16,
    },
}

impl DirBackend {
    /// The three backends under their default parameters, in
    /// presentation order.
    pub fn all() -> [DirBackend; 3] {
        [
            DirBackend::FullMap,
            DirBackend::LimitedPtr { ptrs: 64 },
            DirBackend::CoarseVec { bits: 64 },
        ]
    }

    /// Short stable label ("full-map", "limited-ptr", "coarse-vec").
    pub fn label(self) -> &'static str {
        match self {
            DirBackend::FullMap => "full-map",
            DirBackend::LimitedPtr { .. } => "limited-ptr",
            DirBackend::CoarseVec { .. } => "coarse-vec",
        }
    }
}

impl Default for DirBackend {
    /// Full-map: the always-precise representation.
    fn default() -> DirBackend {
        DirBackend::FullMap
    }
}

impl fmt::Display for DirBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Identifier of a processing node (`0..nodes`).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node {}", self.0)
    }
}

/// The direction of a memory access: which hit and miss counters it
/// bumps and which stall bucket its fill lands in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Static configuration of a simulated machine.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of processing nodes. The paper's machine has 32.
    pub nodes: usize,
    /// Cycle costs for protocol events.
    pub cost: CostModel,
    /// Event-trace capacity; 0 disables tracing.
    pub trace_capacity: usize,
    /// Network fault injection; the default is a reliable network.
    pub faults: FaultConfig,
    /// Network topology for the link-contention model. Only consulted
    /// when the cost model sets a finite link bandwidth; the default is
    /// the CM-5's 4-ary fat tree.
    pub topology: Topology,
    /// Capture mode: record a *complete*, re-priceable charge stream
    /// (symbolic [`crate::trace::Event::Charge`] records, coalesced
    /// [`crate::trace::Event::Work`] records, network
    /// [`crate::trace::Event::Xfer`] crossings) into the trace, from
    /// which the `lcm-replay` crate can rebuild clocks and ledgers under
    /// any cost model. Off by default — ordinary runs record only the
    /// protocol-level events they always did.
    pub capture: bool,
    /// Directory sharer-set representation (see [`DirBackend`]). The
    /// default full-map backend reproduces the original precise
    /// invalidation behavior at any size.
    pub directory: DirBackend,
}

impl MachineConfig {
    /// A machine of `nodes` processors with the default (CM-5-shaped)
    /// cost model and tracing disabled.
    ///
    /// # Panics
    /// Panics if `nodes == 0` or `nodes > `[`MAX_NODES`] (directory
    /// sharer sets are fixed-capacity bitmasks; an oversized machine
    /// would silently alias sharers).
    pub fn new(nodes: usize) -> MachineConfig {
        assert!(nodes > 0, "a machine needs at least one node");
        assert!(
            nodes <= MAX_NODES,
            "a machine of {nodes} nodes exceeds the {MAX_NODES}-node limit \
             (directory sharer sets are fixed-capacity {MAX_NODES}-bit masks)"
        );
        MachineConfig {
            nodes,
            cost: CostModel::default(),
            trace_capacity: 0,
            faults: FaultConfig::default(),
            topology: Topology::default(),
            capture: false,
            directory: DirBackend::default(),
        }
    }

    /// Replaces the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> MachineConfig {
        self.cost = cost;
        self
    }

    /// Enables tracing with the given capacity.
    pub fn with_trace(mut self, capacity: usize) -> MachineConfig {
        self.trace_capacity = capacity;
        self
    }

    /// Enables deterministic network fault injection.
    pub fn with_faults(mut self, faults: FaultConfig) -> MachineConfig {
        self.faults = faults;
        self
    }

    /// Enables capture mode with a trace of `capacity` events: the run
    /// records a complete, re-priceable charge stream for the replay
    /// engine. The capacity must be generous — a capture that drops
    /// events is useless, and the replay writer refuses it.
    pub fn with_capture(mut self, capacity: usize) -> MachineConfig {
        self.trace_capacity = capacity;
        self.capture = true;
        self
    }

    /// Replaces the directory sharer-set backend.
    pub fn with_directory(mut self, directory: DirBackend) -> MachineConfig {
        self.directory = directory;
        self
    }
}

impl Default for MachineConfig {
    /// The paper's 32-node configuration.
    fn default() -> MachineConfig {
        MachineConfig::new(32)
    }
}

/// The simulated machine: per-node logical clocks, statistics, and the
/// event trace. Protocols and runtimes hold one `Machine` and charge all
/// costs through it.
#[derive(Clone, Debug)]
pub struct Machine {
    cost: CostModel,
    clocks: Vec<u64>,
    stats: Vec<NodeStats>,
    trace: Trace,
    ledger: CycleLedger,
    phases: Vec<PhaseSnapshot>,
    barriers: u64,
    faults: FaultPlan,
    /// Link-contention state; `None` under unlimited bandwidth (the
    /// default), in which case delivery charges are byte-identical to
    /// the flat per-message model.
    fabric: Option<Fabric>,
    /// Capture mode: record the complete charge stream (see
    /// [`MachineConfig::with_capture`]).
    capture: bool,
    /// Directory sharer-set backend the protocols above should build
    /// their directories with (see [`DirBackend`]).
    dir_backend: DirBackend,
    /// Per-node `(compute cycles, cache hits)` accumulated but not yet
    /// written to the trace as a [`Event::Work`] record. Clocks and
    /// ledger are bumped immediately; only the *record* is deferred, so
    /// the per-access stream coalesces into one event per node per
    /// synchronization interval. Empty unless capturing.
    pending: Vec<(u64, u64)>,
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(config: MachineConfig) -> Machine {
        let trace = if config.trace_capacity > 0 {
            Trace::with_capacity(config.trace_capacity)
        } else {
            Trace::disabled()
        };
        let fabric = if config.cost.link_bandwidth_bytes_per_cycle > 0 {
            Some(Fabric::new(config.topology, config.nodes, &config.cost))
        } else {
            None
        };
        Machine {
            cost: config.cost,
            clocks: vec![0; config.nodes],
            stats: vec![NodeStats::default(); config.nodes],
            trace,
            ledger: CycleLedger::new(config.nodes),
            phases: Vec::new(),
            barriers: 0,
            faults: FaultPlan::new(config.faults),
            fabric,
            capture: config.capture,
            dir_backend: config.directory,
            pending: vec![(0, 0); config.nodes],
        }
    }

    /// The directory backend configured for this machine. Protocols that
    /// maintain a sharer directory (Stache, and LCM through its embedded
    /// Stache) construct their representation from this.
    #[inline]
    pub fn dir_backend(&self) -> DirBackend {
        self.dir_backend
    }

    /// Number of nodes.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.clocks.len()
    }

    /// Iterates over all node ids in ascending order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes() as u16).map(NodeId)
    }

    /// The cost model in force.
    #[inline]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The logical clock of `node`, in cycles.
    #[inline]
    pub fn clock(&self, node: NodeId) -> u64 {
        self.clocks[node.index()]
    }

    /// The one primitive clock mutation: advances `node`'s clock by
    /// `cycles` and attributes them to `cat` in the ledger, recording
    /// nothing. Every public charging path funnels through here (or the
    /// barrier path), which is what makes the ledger conservation
    /// invariant hold by construction.
    #[inline]
    fn bump(&mut self, node: NodeId, cycles: u64, cat: CycleCat) {
        self.clocks[node.index()] += cycles;
        self.ledger.charge(node, cat, cycles);
    }

    /// Advances `node`'s clock by `cycles`, attributed to local compute.
    #[inline]
    pub fn advance(&mut self, node: NodeId, cycles: u64) {
        self.bump(node, cycles, CycleCat::Compute);
        if self.capture {
            self.pending[node.index()].0 += cycles;
        }
    }

    /// Advances `node`'s clock by `cycles`, attributing them to `cat` in
    /// the cycle ledger. The cycles are taken as a *raw*, model-
    /// independent quantity: under capture they record as a
    /// [`Event::ChargeRaw`] that replays verbatim. Charges derived from a
    /// cost-model price should go through [`Machine::charge`] instead so
    /// replay can re-price them.
    #[inline]
    pub fn advance_as(&mut self, node: NodeId, cycles: u64, cat: CycleCat) {
        self.bump(node, cycles, cat);
        if self.capture && cycles > 0 {
            self.trace.record_at(
                self.clocks[node.index()],
                Event::ChargeRaw { node, cat, cycles },
            );
        }
    }

    /// Charges `node` with `units` × the price of `knob` under the
    /// machine's cost model, attributed to `cat`; returns the cycles
    /// charged. Under capture the charge records *symbolically* (knob +
    /// units, not cycles), which is what lets the replay engine re-price
    /// a captured run under an arbitrary cost model.
    #[inline]
    pub fn charge(&mut self, node: NodeId, cat: CycleCat, knob: Knob, units: u64) -> u64 {
        let cycles = knob.eval(&self.cost).saturating_mul(units);
        self.bump(node, cycles, cat);
        if self.capture {
            debug_assert!(u32::try_from(units).is_ok(), "charge units overflow u32");
            self.trace.record_at(
                self.clocks[node.index()],
                Event::Charge {
                    node,
                    cat,
                    knob,
                    units: units as u32,
                },
            );
        }
        cycles
    }

    /// Charges `node` one cache hit (the model's `cache_hit` price, under
    /// compute) and counts it as a read or write hit. Under capture, hits
    /// coalesce into the node's pending [`Event::Work`] record instead of
    /// recording individually.
    #[inline]
    pub fn hit(&mut self, node: NodeId, access: Access) {
        self.bump(node, self.cost.cache_hit, CycleCat::Compute);
        if self.capture {
            self.pending[node.index()].1 += 1;
        }
        let s = &mut self.stats[node.index()];
        match access {
            Access::Read => s.read_hits += 1,
            Access::Write => s.write_hits += 1,
        }
    }

    /// Counts one miss of `node` on `block` under the access's local or
    /// remote miss counter and records its `ReadMiss`/`WriteMiss` event.
    /// The fill's cycles are the caller's to charge.
    pub fn miss(&mut self, node: NodeId, block: BlockId, access: Access, remote: bool) {
        let s = &mut self.stats[node.index()];
        match (access, remote) {
            (Access::Read, false) => s.read_miss_local += 1,
            (Access::Read, true) => s.read_miss_remote += 1,
            (Access::Write, false) => s.write_miss_local += 1,
            (Access::Write, true) => s.write_miss_remote += 1,
        }
        self.record(match access {
            Access::Read => Event::ReadMiss {
                node,
                block,
                remote,
            },
            Access::Write => Event::WriteMiss {
                node,
                block,
                remote,
            },
        });
    }

    /// True while the machine is recording a re-priceable capture stream.
    #[inline]
    pub fn capture_enabled(&self) -> bool {
        self.capture
    }

    /// Writes `node`'s pending compute/hit accumulator to the trace as a
    /// [`Event::Work`] record. Called before any record whose replay
    /// reads `node`'s clock mid-stream.
    fn flush_pending(&mut self, node: NodeId) {
        let (cycles, hits) = std::mem::take(&mut self.pending[node.index()]);
        if cycles > 0 || hits > 0 {
            self.trace.record_at(
                self.clocks[node.index()],
                Event::Work { node, cycles, hits },
            );
        }
    }

    /// Flushes every node's pending [`Event::Work`] accumulator (before
    /// barriers, phase marks, and at the end of a capture).
    fn flush_all_pending(&mut self) {
        for i in 0..self.pending.len() {
            self.flush_pending(NodeId(i as u16));
        }
    }

    /// Finalizes a capture: flushes all pending coalesced work records so
    /// the trace is a complete account of every charged cycle. Call once
    /// after the program finishes, before reading the trace. No-op
    /// outside capture mode.
    pub fn finish_capture(&mut self) {
        if self.capture {
            self.flush_all_pending();
        }
    }

    /// Advances every node's clock by `cycles` (e.g. broadcast handler work).
    pub fn advance_all(&mut self, cycles: u64) {
        for i in 0..self.clocks.len() {
            self.advance_as(NodeId(i as u16), cycles, CycleCat::Compute);
        }
    }

    /// Executes a global barrier: all clocks jump to the maximum plus the
    /// model's barrier cost. Returns the post-barrier time.
    ///
    /// Under an active fault plan with stall settings, each node may be
    /// scheduled to stall: it leaves the barrier `stall_cycles` late
    /// (recovering by the next synchronization point). Stalls change
    /// clocks and statistics only, never data.
    pub fn barrier(&mut self) -> u64 {
        let max = self.time();
        let after = max + self.cost.barrier_cost(self.nodes());
        if self.capture {
            // Replay recomputes each node's barrier wait from its clock
            // at the Barrier record, so every pending work record must
            // land first.
            self.flush_all_pending();
        }
        for (i, c) in self.clocks.iter_mut().enumerate() {
            // The jump to the common release time is this node's barrier
            // wait: idle cycles spent on slower peers plus the barrier's
            // own cost.
            self.ledger
                .charge(NodeId(i as u16), CycleCat::BarrierWait, after - *c);
            *c = after;
        }
        for s in &mut self.stats {
            s.barriers += 1;
        }
        self.barriers += 1;
        // Recorded before any post-barrier fault stalls so a replaying
        // consumer sees the synchronization point first; the stamp is the
        // explicit release time either way.
        self.trace.record_at(after, Event::Barrier { at: after });
        if self.faults.is_active() {
            for i in 0..self.clocks.len() {
                if let Some(stall) = self.faults.barrier_stall() {
                    let node = NodeId(i as u16);
                    self.advance_as(node, stall, CycleCat::RetryBackoff);
                    self.stats[i].stall_cycles += stall;
                }
            }
        }
        after
    }

    /// Current simulated time: the maximum node clock.
    ///
    /// For phase-structured programs that end with a barrier this is the
    /// program's execution time, the metric of the paper's Figures 2–3.
    pub fn time(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }

    /// Number of global barriers executed.
    pub fn barriers(&self) -> u64 {
        self.barriers
    }

    /// Statistics of `node`.
    #[inline]
    pub fn stats(&self, node: NodeId) -> &NodeStats {
        &self.stats[node.index()]
    }

    /// Mutable statistics of `node` (protocols update these directly).
    #[inline]
    pub fn stats_mut(&mut self, node: NodeId) -> &mut NodeStats {
        &mut self.stats[node.index()]
    }

    /// Sum of all nodes' statistics.
    pub fn total_stats(&self) -> NodeStats {
        let mut total = NodeStats::default();
        for s in &self.stats {
            total.add(s);
        }
        total
    }

    /// Routes one delivered `bytes`-sized message `from -> to` through
    /// the contention fabric, charging the queueing and serialization
    /// delay to the *receiving* node under
    /// [`CycleCat::NetContention`]. The message enters the network at
    /// the sender's current clock. A no-op (zero state touched, zero
    /// cycles charged) while the cost model's link bandwidth is
    /// unlimited — the default — so the flat-cost network is
    /// reproduced byte for byte.
    ///
    /// Delivery layers call this once per message that actually crosses
    /// the wire; lost attempts die before serialization and never
    /// reserve links.
    pub fn network_transfer(&mut self, from: NodeId, to: NodeId, bytes: u64) {
        if self.capture {
            // Replay reads the sender's clock at this record to re-enter
            // the message into its own fabric — even when this capture
            // ran without one (bandwidth can be *added* at replay time).
            self.flush_pending(from);
            self.trace
                .record_at(self.clocks[from.index()], Event::Xfer { from, to, bytes });
        }
        let Some(fabric) = &mut self.fabric else {
            return;
        };
        let now = self.clocks[from.index()];
        let (queue, ser) = fabric.transfer(from, to, bytes, now);
        let extra = queue + ser;
        if extra > 0 {
            // Deliberately unrecorded (`bump`, not `advance_as`): replay
            // re-derives the contention charge from the Xfer record, so
            // recording it too would double-charge the receiver.
            self.bump(to, extra, CycleCat::NetContention);
        }
    }

    /// True when the link-contention model is active (finite bandwidth).
    pub fn contention_enabled(&self) -> bool {
        self.fabric.is_some()
    }

    /// Per-link utilization of the contention fabric: links that saw
    /// traffic only, in table order. Empty while contention is disabled.
    pub fn link_utilization(&self) -> Vec<LinkUtil> {
        self.fabric
            .as_ref()
            .map_or_else(Vec::new, Fabric::utilization)
    }

    /// The fault plan in force (inactive by default).
    #[inline]
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Mutable access to the fault plan (the delivery layer draws message
    /// outcomes through this).
    #[inline]
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Moves the event trace out, leaving a disabled one: the hand-off
    /// of a finished run's stream without copying it.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// Records an event into the trace, stamped with the acting node's
    /// clock — or the machine time for global events (no-op when tracing
    /// is disabled).
    #[inline]
    pub fn record(&mut self, event: Event) {
        if !self.trace.is_enabled() {
            return;
        }
        let cycle = match event.node() {
            Some(n) => self.clocks[n.index()],
            None => self.time(),
        };
        self.trace.record_at(cycle, event);
    }

    /// The cycle ledger: per-node, per-category attribution of every
    /// charged cycle.
    pub fn ledger(&self) -> &CycleLedger {
        &self.ledger
    }

    /// Checks the ledger conservation invariant: for every node, the sum
    /// over categories equals the node's clock. Errors with a description
    /// of the first violating node.
    pub fn verify_ledger(&self) -> Result<(), String> {
        self.ledger.check_against(&self.clocks).map_err(|(n, sum, clock)| {
            format!("cycle ledger violates conservation on {n}: categories sum to {sum} but the clock reads {clock}")
        })
    }

    /// Stamps a phase boundary: snapshots cumulative time, statistics and
    /// ledger totals under `label`. Runtimes call this after each parallel
    /// step's closing barrier; consumers difference consecutive snapshots
    /// for per-phase metrics.
    pub fn mark_phase(&mut self, label: &'static str) {
        if self.capture {
            // The mark is a seek point in the capture file: all coalesced
            // work must be on record before it.
            self.flush_all_pending();
            self.trace
                .record_at(self.time(), Event::PhaseMark { label });
        }
        self.phases.push(PhaseSnapshot {
            label,
            at: self.time(),
            totals: self.total_stats(),
            cycles: self.ledger.totals(),
        });
    }

    /// Phase-boundary snapshots recorded so far, oldest first.
    pub fn phases(&self) -> &[PhaseSnapshot] {
        &self.phases
    }

    /// Resets clocks, statistics, barrier count, ledger, phase marks and
    /// trace to zero, keeping the configuration. Used between warm-up and
    /// measured phases.
    pub fn reset_measurements(&mut self) {
        for c in &mut self.clocks {
            *c = 0;
        }
        for s in &mut self.stats {
            *s = NodeStats::default();
        }
        self.barriers = 0;
        self.ledger.clear();
        self.phases.clear();
        self.trace.clear();
        for p in &mut self.pending {
            *p = (0, 0);
        }
        if let Some(fabric) = &mut self.fabric {
            fabric.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_machine_is_quiescent() {
        let m = Machine::new(MachineConfig::new(4));
        assert_eq!(m.nodes(), 4);
        assert_eq!(m.time(), 0);
        assert_eq!(m.total_stats().accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        MachineConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "exceeds the 1024-node limit")]
    fn oversized_machines_are_rejected_not_aliased() {
        // Regression: sharer sets are fixed-capacity masks; an oversized
        // machine used to construct fine and silently alias the first
        // out-of-range node onto the mask arithmetic downstream.
        MachineConfig::new(MAX_NODES + 1);
    }

    #[test]
    fn the_full_1024_node_machine_still_constructs() {
        let m = Machine::new(MachineConfig::new(MAX_NODES));
        assert_eq!(m.nodes(), 1024);
    }

    #[test]
    fn dir_backend_defaults_to_full_map_and_is_configurable() {
        let m = Machine::new(MachineConfig::new(4));
        assert_eq!(m.dir_backend(), DirBackend::FullMap);
        let m =
            Machine::new(MachineConfig::new(4).with_directory(DirBackend::LimitedPtr { ptrs: 4 }));
        assert_eq!(m.dir_backend(), DirBackend::LimitedPtr { ptrs: 4 });
        let labels: Vec<&str> = DirBackend::all().iter().map(|b| b.label()).collect();
        assert_eq!(labels, vec!["full-map", "limited-ptr", "coarse-vec"]);
        assert_eq!(DirBackend::CoarseVec { bits: 64 }.to_string(), "coarse-vec");
    }

    #[test]
    fn network_transfer_is_a_noop_under_unlimited_bandwidth() {
        let mut m = Machine::new(MachineConfig::new(4));
        assert!(!m.contention_enabled());
        m.network_transfer(NodeId(0), NodeId(1), 48);
        assert_eq!(m.time(), 0, "no cycles charged");
        assert!(m.link_utilization().is_empty());
        m.verify_ledger().unwrap();
    }

    #[test]
    fn network_transfer_charges_the_receiver_under_net_contention() {
        let mut cost = CostModel::cm5();
        cost.link_bandwidth_bytes_per_cycle = 4;
        cost.ni_occupancy = 10;
        let mut m = Machine::new(MachineConfig::new(4).with_cost(cost));
        assert!(m.contention_enabled());
        m.network_transfer(NodeId(0), NodeId(1), 48);
        let charged = m.clock(NodeId(1));
        assert!(charged > 0, "serialization lands on the receiver");
        assert_eq!(m.ledger().get(NodeId(1), CycleCat::NetContention), charged);
        assert_eq!(m.clock(NodeId(0)), 0, "sender clock untouched");
        assert!(!m.link_utilization().is_empty());
        m.verify_ledger().expect("contention cycles are ledgered");
        m.reset_measurements();
        assert!(m.link_utilization().is_empty(), "reset clears the fabric");
    }

    #[test]
    fn advance_and_time() {
        let mut m = Machine::new(MachineConfig::new(3));
        m.advance(NodeId(0), 10);
        m.advance(NodeId(2), 25);
        assert_eq!(m.clock(NodeId(0)), 10);
        assert_eq!(m.clock(NodeId(1)), 0);
        assert_eq!(m.time(), 25);
        m.advance_all(5);
        assert_eq!(m.clock(NodeId(1)), 5);
        assert_eq!(m.time(), 30);
    }

    #[test]
    fn barrier_synchronizes_to_max_plus_cost() {
        let cfg = MachineConfig::new(4).with_cost(CostModel::unit());
        let mut m = Machine::new(cfg);
        m.advance(NodeId(1), 100);
        let t = m.barrier();
        assert_eq!(t, 101); // unit barrier cost
        for n in m.node_ids() {
            assert_eq!(m.clock(n), 101);
            assert_eq!(m.stats(n).barriers, 1);
        }
        assert_eq!(m.barriers(), 1);
    }

    #[test]
    fn total_stats_sums_nodes() {
        let mut m = Machine::new(MachineConfig::new(2));
        m.stats_mut(NodeId(0)).read_hits = 3;
        m.stats_mut(NodeId(1)).read_hits = 4;
        assert_eq!(m.total_stats().read_hits, 7);
    }

    #[test]
    fn reset_measurements_clears_everything() {
        let cfg = MachineConfig::new(2).with_trace(16);
        let mut m = Machine::new(cfg);
        m.advance(NodeId(0), 5);
        m.stats_mut(NodeId(0)).read_hits = 1;
        m.barrier();
        m.reset_measurements();
        assert_eq!(m.time(), 0);
        assert_eq!(m.total_stats().read_hits, 0);
        assert_eq!(m.barriers(), 0);
        assert!(m.trace().is_empty());
    }

    #[test]
    fn trace_enabled_by_config() {
        let mut m = Machine::new(MachineConfig::new(1).with_trace(8));
        assert!(m.trace().is_enabled());
        m.barrier();
        assert_eq!(m.trace().events().len(), 1);
    }

    #[test]
    fn barrier_syncs_arbitrarily_skewed_clocks_to_max() {
        let cfg = MachineConfig::new(5).with_cost(CostModel::free());
        let mut m = Machine::new(cfg);
        // Heavily skewed clocks: one idle node, one far ahead.
        m.advance(NodeId(0), 1);
        m.advance(NodeId(2), 1_000_000);
        m.advance(NodeId(4), 37);
        let t = m.barrier();
        assert_eq!(
            t, 1_000_000,
            "free model: barrier lands exactly on the max clock"
        );
        for n in m.node_ids() {
            assert_eq!(m.clock(n), t, "{n} synchronized");
        }
        // A second barrier from an already-synchronized state is a no-op
        // under the free model.
        assert_eq!(m.barrier(), t);
    }

    #[test]
    fn barrier_stalls_charge_cycles_deterministically() {
        use crate::fault::FaultConfig;
        let faults = FaultConfig {
            stall_rate: 0.5,
            stall_cycles: 777,
            ..FaultConfig::default()
        };
        let run = || {
            let cfg = MachineConfig::new(8)
                .with_cost(CostModel::unit())
                .with_faults(faults);
            let mut m = Machine::new(cfg);
            for _ in 0..10 {
                m.barrier();
            }
            (m.time(), m.total_stats().stall_cycles)
        };
        let (t1, s1) = run();
        let (t2, s2) = run();
        assert_eq!((t1, s1), (t2, s2), "identical seeds, identical stalls");
        assert!(s1 > 0, "some node stalled across 10 barriers at rate 0.5");
        assert_eq!(s1 % 777, 0);
    }

    #[test]
    fn inactive_faults_leave_barrier_untouched() {
        let mut plain = Machine::new(MachineConfig::new(4).with_cost(CostModel::unit()));
        let mut with_plan = Machine::new(
            MachineConfig::new(4)
                .with_cost(CostModel::unit())
                .with_faults(crate::fault::FaultConfig::default()),
        );
        for _ in 0..5 {
            assert_eq!(plain.barrier(), with_plan.barrier());
        }
        assert_eq!(with_plan.total_stats().stall_cycles, 0);
        assert_eq!(with_plan.faults().decisions(), 0);
    }

    #[test]
    fn ledger_conserves_cycles_across_advances_and_barriers() {
        use crate::profile::CycleCat;
        let mut m = Machine::new(MachineConfig::new(4));
        m.advance(NodeId(0), 123);
        m.advance_as(NodeId(1), 500, CycleCat::ReadStallRemote);
        m.advance_all(7);
        m.barrier();
        m.advance_as(NodeId(3), 42, CycleCat::FlushReconcile);
        m.barrier();
        m.verify_ledger().expect("ledger conserves every cycle");
        assert_eq!(m.ledger().get(NodeId(1), CycleCat::ReadStallRemote), 500);
        assert!(m.ledger().cat_total(CycleCat::BarrierWait) > 0);
        for n in m.node_ids() {
            assert_eq!(m.ledger().node_total(n), m.clock(n));
        }
    }

    #[test]
    fn ledger_attributes_fault_stalls_to_retry_backoff() {
        use crate::fault::FaultConfig;
        use crate::profile::CycleCat;
        let faults = FaultConfig {
            stall_rate: 1.0,
            stall_cycles: 99,
            ..FaultConfig::default()
        };
        let mut m = Machine::new(MachineConfig::new(4).with_faults(faults));
        for _ in 0..3 {
            m.barrier();
        }
        m.verify_ledger().expect("stalls are ledgered too");
        assert_eq!(
            m.ledger().cat_total(CycleCat::RetryBackoff),
            m.total_stats().stall_cycles
        );
    }

    #[test]
    fn events_are_stamped_with_the_acting_nodes_clock() {
        use crate::mem::BlockId;
        let mut m = Machine::new(MachineConfig::new(2).with_trace(8));
        m.advance(NodeId(1), 77);
        m.record(Event::Mark {
            node: NodeId(1),
            block: BlockId(3),
        });
        m.record(Event::Reconcile {
            block: BlockId(3),
            versions: 1,
        });
        let ev = m.trace().to_vec();
        assert_eq!(ev[0].cycle, 77, "stamped with node 1's clock");
        assert_eq!(ev[0].seq, 0);
        assert_eq!(ev[1].cycle, 77, "global events use machine time");
        assert_eq!(ev[1].seq, 1);
    }

    #[test]
    fn mark_phase_snapshots_cumulative_state() {
        let mut m = Machine::new(MachineConfig::new(2).with_cost(CostModel::unit()));
        m.advance(NodeId(0), 10);
        m.barrier();
        m.mark_phase("init");
        m.advance(NodeId(1), 5);
        m.barrier();
        m.mark_phase("apply");
        let ph = m.phases();
        assert_eq!(ph.len(), 2);
        assert_eq!(ph[0].label, "init");
        assert_eq!(ph[0].at, 11);
        assert_eq!(ph[1].at, 17);
        assert!(ph[1].totals.barriers > ph[0].totals.barriers);
        m.reset_measurements();
        assert!(m.phases().is_empty());
        m.verify_ledger()
            .expect("reset ledger matches reset clocks");
    }

    #[test]
    fn capture_off_records_no_pricing_events() {
        use crate::profile::CycleCat;
        let mut m = Machine::new(MachineConfig::new(2).with_trace(64));
        assert!(!m.capture_enabled());
        m.advance(NodeId(0), 10);
        m.hit(NodeId(0), Access::Read);
        m.charge(NodeId(1), CycleCat::ReadStallRemote, Knob::RemoteMiss, 1);
        m.advance_as(NodeId(1), 5, CycleCat::RetryBackoff);
        m.network_transfer(NodeId(0), NodeId(1), 48);
        m.mark_phase("p");
        m.finish_capture();
        let b = m.barrier();
        let ev = m.trace().to_vec();
        assert_eq!(ev.len(), 1, "only the barrier is recorded: {ev:?}");
        assert_eq!(ev[0].event, Event::Barrier { at: b });
    }

    #[test]
    fn capture_records_a_complete_repriceable_stream() {
        use crate::profile::CycleCat;
        let cost = CostModel::cm5();
        let mut m = Machine::new(MachineConfig::new(2).with_capture(64));
        assert!(m.capture_enabled());
        m.advance(NodeId(0), 10);
        m.hit(NodeId(0), Access::Read);
        m.hit(NodeId(0), Access::Write);
        let s = m.stats(NodeId(0));
        assert_eq!((s.read_hits, s.write_hits), (1, 1), "hits count by access");
        let charged = m.charge(NodeId(1), CycleCat::ReadStallRemote, Knob::RemoteMiss, 2);
        assert_eq!(charged, 2 * cost.remote_miss);
        m.advance_as(NodeId(1), 5, CycleCat::RetryBackoff);
        m.barrier();
        m.finish_capture();
        let kinds: Vec<&str> = m.trace().events().map(|e| e.event.kind()).collect();
        assert_eq!(kinds, vec!["charge", "charge_raw", "work", "barrier"]);
        let ev = m.trace().to_vec();
        assert_eq!(
            ev[0].event,
            Event::Charge {
                node: NodeId(1),
                cat: CycleCat::ReadStallRemote,
                knob: Knob::RemoteMiss,
                units: 2
            }
        );
        assert_eq!(
            ev[2].event,
            Event::Work {
                node: NodeId(0),
                cycles: 10,
                hits: 2
            },
            "compute and hits coalesce into one record, flushed at the barrier"
        );
        m.verify_ledger().unwrap();
    }

    #[test]
    fn capture_flushes_pending_work_before_xfer_records() {
        let mut cost = CostModel::cm5();
        cost.link_bandwidth_bytes_per_cycle = 4;
        let mut m = Machine::new(MachineConfig::new(2).with_capture(64).with_cost(cost));
        m.advance(NodeId(0), 7);
        m.network_transfer(NodeId(0), NodeId(1), 48);
        let ev = m.trace().to_vec();
        assert_eq!(
            ev[0].event,
            Event::Work {
                node: NodeId(0),
                cycles: 7,
                hits: 0
            },
            "sender's pending work lands before the crossing"
        );
        assert_eq!(
            ev[1].event,
            Event::Xfer {
                from: NodeId(0),
                to: NodeId(1),
                bytes: 48
            }
        );
        assert_eq!(ev[1].cycle, 7, "xfer stamped with the sender's clock");
        // The receiver's contention charge is derived state: it must NOT
        // appear as a charge record (replay recomputes it from the Xfer).
        assert!(ev[2..].iter().all(|e| e.event.kind() != "charge_raw"));
        m.verify_ledger().unwrap();
    }

    #[test]
    fn capture_records_xfers_even_without_a_fabric() {
        let mut m = Machine::new(MachineConfig::new(2).with_capture(16));
        m.network_transfer(NodeId(0), NodeId(1), 48);
        assert_eq!(
            m.time(),
            0,
            "no contention charged under unlimited bandwidth"
        );
        assert_eq!(
            m.trace().to_vec()[0].event,
            Event::Xfer {
                from: NodeId(0),
                to: NodeId(1),
                bytes: 48
            },
            "replay can still introduce bandwidth later"
        );
    }

    #[test]
    fn capture_marks_phases_and_resets_clear_pending() {
        let mut m = Machine::new(MachineConfig::new(2).with_capture(64));
        m.advance(NodeId(1), 3);
        m.mark_phase("init");
        let ev = m.trace().to_vec();
        assert_eq!(
            ev[0].event,
            Event::Work {
                node: NodeId(1),
                cycles: 3,
                hits: 0
            }
        );
        assert_eq!(ev[1].event, Event::PhaseMark { label: "init" });
        m.advance(NodeId(0), 9);
        m.reset_measurements();
        m.finish_capture();
        assert!(
            m.trace().is_empty(),
            "reset drops pending work along with the trace"
        );
    }

    #[test]
    fn node_ids_iterates_in_order() {
        let m = Machine::new(MachineConfig::new(3));
        let ids: Vec<_> = m.node_ids().collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }
}
