//! The parameterized cost model.
//!
//! Every protocol event in the simulation charges cycles to the node(s)
//! involved, according to a [`CostModel`]. The default constants are shaped
//! after the paper's platform — Blizzard-E on a 32-node Thinking Machines
//! CM-5, where a fine-grain access fault plus a remote round-trip costs on
//! the order of hundreds of processor cycles, while a hit is a plain cached
//! load. Absolute values are knobs, not measurements: the reproduction
//! targets the *shape* of the paper's results, and every experiment can be
//! re-run under a different model.

/// Cycle costs charged for memory-system events.
///
/// ```
/// use lcm_sim::CostModel;
/// let mut cm = CostModel::cm5();
/// cm.remote_miss = 10_000; // explore a slower network
/// assert!(cm.remote_miss > cm.local_fill);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// A load or store that hits a valid, sufficiently-permissioned block.
    pub cache_hit: u64,
    /// A *fault-serviced* fill from node-local storage (the Stache in
    /// local memory, or a home-local clean copy). Dominated by the
    /// fine-grain access-fault trap, which on Blizzard-E costs hundreds of
    /// cycles even when no network round-trip is needed.
    pub local_fill: u64,
    /// Reinitializing a cached block from a node-local clean copy *inside
    /// an already-running handler* (the LCM-mcc flush path): a 32-byte
    /// copy, no trap, no messages.
    pub local_refill: u64,
    /// A full remote round-trip: fault, request message, home handler,
    /// data reply (block transfer included).
    pub remote_miss: u64,
    /// Sender-side overhead of one protocol message.
    pub msg_send: u64,
    /// Receiver-side handler overhead of one protocol message.
    pub msg_recv: u64,
    /// Sending one modified block home at `flush_copies` time (on top of
    /// `msg_send`; covers assembling the block + dirty mask).
    pub block_flush: u64,
    /// Creating a clean copy of a block (home- or cache-side).
    pub clean_copy_create: u64,
    /// Home-side work to reconcile one arriving version of a block.
    pub reconcile_per_version: u64,
    /// Fixed cost of a global barrier.
    pub barrier_base: u64,
    /// Additional barrier cost per `log2(P)` combining-tree level.
    pub barrier_per_level: u64,
    /// Processing one invalidation request at a sharer.
    pub invalidate: u64,
    /// Upgrading a ReadOnly copy to Writable (ownership round-trip, no data).
    pub upgrade: u64,
    /// Base retransmission timeout: how long a sender waits before deciding
    /// a message was lost. Doubles per consecutive retry (exponential
    /// backoff, capped). Only charged under fault injection.
    pub retry_timeout: u64,
    /// Wire-format header bytes per protocol message (source, destination,
    /// kind, block address). Block-carrying messages add the 32-byte block
    /// payload on top. Feeds the `bytes_sent`/`bytes_recv` traffic
    /// counters, not the clocks.
    pub msg_header_bytes: u64,
    /// Bytes per cycle a leaf network link moves; fat-tree links at
    /// level `l` are `2^(l-1)`× wider (see [`crate::topology`]).
    /// **0 means unlimited bandwidth**: no contention fabric is built
    /// and message delivery charges only the flat per-message costs
    /// above — byte-identical to the pre-contention model. This is the
    /// default in every built-in model.
    pub link_bandwidth_bytes_per_cycle: u64,
    /// Fixed handling cycles a node's network interface spends per
    /// message it injects or drains (LogP-style occupancy), on top of
    /// moving the bytes at width-1 link rate: an NI is a contention
    /// point even when the fabric path is idle. Dormant while
    /// `link_bandwidth_bytes_per_cycle == 0`.
    pub ni_occupancy: u64,
    /// Upper bound (in cycles) on the serialization backlog any single
    /// message can observe at one link when computing queueing delay.
    /// Backlog drains as message timestamps advance, but a hotspot can
    /// accumulate faster than it drains; the window bounds the
    /// worst-case wait charged per hop. Dormant while
    /// `link_bandwidth_bytes_per_cycle == 0`.
    pub contention_window: u64,
}

impl CostModel {
    /// Constants shaped after Blizzard-E on the CM-5 (see module docs).
    ///
    /// Blizzard-E services fine-grain access faults with ECC traps and
    /// software handlers, so even a *local* fill costs on the order of a
    /// thousand 33 MHz cycles and a remote round-trip several thousand —
    /// misses dominate everything, which is what the paper's results are
    /// made of.
    pub fn cm5() -> CostModel {
        CostModel {
            cache_hit: 1,
            local_fill: 1000,
            local_refill: 100,
            remote_miss: 3000,
            msg_send: 200,
            msg_recv: 200,
            block_flush: 100,
            clean_copy_create: 100,
            reconcile_per_version: 100,
            barrier_base: 800,
            barrier_per_level: 100,
            invalidate: 200,
            upgrade: 2000,
            // A timeout must comfortably exceed the remote round-trip it
            // guards, or healthy messages would be retransmitted.
            retry_timeout: 6000,
            // A CM-5 active-message-style envelope: src/dst/kind/address.
            msg_header_bytes: 16,
            // Unlimited by default: today's flat per-message charges,
            // byte for byte. Sweeps enable contention by setting a
            // finite bandwidth; the NI occupancy and window below then
            // take effect (and are shaped for a ~25-cycle injection
            // overhead and a backlog horizon of two retry timeouts).
            link_bandwidth_bytes_per_cycle: 0,
            ni_occupancy: 25,
            contention_window: 12_000,
        }
    }

    /// A cost model that charges one cycle for everything.
    ///
    /// Useful in tests that want to count *events* rather than weigh them.
    pub fn unit() -> CostModel {
        CostModel {
            cache_hit: 1,
            local_fill: 1,
            local_refill: 1,
            remote_miss: 1,
            msg_send: 1,
            msg_recv: 1,
            block_flush: 1,
            clean_copy_create: 1,
            reconcile_per_version: 1,
            barrier_base: 1,
            barrier_per_level: 0,
            invalidate: 1,
            upgrade: 1,
            retry_timeout: 1,
            msg_header_bytes: 1,
            link_bandwidth_bytes_per_cycle: 0,
            ni_occupancy: 0,
            contention_window: 0,
        }
    }

    /// A cost model that charges zero for everything; execution time then
    /// reflects only explicitly-charged compute cycles.
    pub fn free() -> CostModel {
        CostModel {
            cache_hit: 0,
            local_fill: 0,
            local_refill: 0,
            remote_miss: 0,
            msg_send: 0,
            msg_recv: 0,
            block_flush: 0,
            clean_copy_create: 0,
            reconcile_per_version: 0,
            barrier_base: 0,
            barrier_per_level: 0,
            invalidate: 0,
            upgrade: 0,
            retry_timeout: 0,
            msg_header_bytes: 0,
            link_bandwidth_bytes_per_cycle: 0,
            ni_occupancy: 0,
            contention_window: 0,
        }
    }

    /// `self` with the remote-miss latency replaced and `upgrade` scaled
    /// to ⅔ of it (floored at 1) — the one latency → cost-model mapping
    /// every sweep (sensitivity, explore, serve) shares, so the sections
    /// can never silently diverge.
    ///
    /// The ⅔ ratio mirrors cm5, where an ownership round-trip without a
    /// data reply costs about two-thirds of a full remote miss.
    pub fn with_remote_latency(mut self, latency: u64) -> CostModel {
        self.remote_miss = latency;
        self.upgrade = (latency * 2 / 3).max(1);
        self
    }

    /// `self` with the leaf link bandwidth replaced (0 = unlimited, the
    /// dormant default) — the bandwidth → cost-model mapping shared by
    /// the contention, explore and serve sweeps.
    pub fn with_link_bandwidth(mut self, bandwidth: u64) -> CostModel {
        self.link_bandwidth_bytes_per_cycle = bandwidth;
        self
    }

    /// The cm5 model at one (bandwidth, latency) grid point: the single
    /// mapping behind every design-space grid in the repository.
    pub fn cm5_grid(bandwidth: u64, latency: u64) -> CostModel {
        CostModel::cm5()
            .with_remote_latency(latency)
            .with_link_bandwidth(bandwidth)
    }

    /// Total barrier cost for a machine of `nodes` processors: the base
    /// plus one per-level charge for each of the combining tree's
    /// `ceil(log2(nodes))` levels. A tree over 3 leaves needs 2 levels,
    /// same as one over 4 — non-power-of-two machines round *up*.
    pub fn barrier_cost(&self, nodes: usize) -> u64 {
        let levels = usize::BITS - (nodes.max(1) - 1).leading_zeros(); // ceil(log2)
        self.barrier_per_level
            .saturating_mul(u64::from(levels))
            .saturating_add(self.barrier_base)
    }
}

impl Default for CostModel {
    /// The default model is [`CostModel::cm5`].
    fn default() -> CostModel {
        CostModel::cm5()
    }
}

/// Symbolic reference to a [`CostModel`] price: the *formula* a charge
/// used, rather than the cycles it came to under the capture-time model.
///
/// Charges recorded as `(knob, units)` pairs stay re-priceable: the
/// trace-replay engine evaluates the same knob against an arbitrary cost
/// model and recovers the cycles that execution *would have* charged.
/// Each variant maps onto one model field — except
/// [`Knob::RemoteMissLessSend`], which captures the reply leg of a
/// request/reply round-trip (`remote_miss - msg_send`, saturating), a
/// composite the delivery layer charges as one quantity.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Knob {
    /// [`CostModel::cache_hit`].
    CacheHit,
    /// [`CostModel::local_fill`].
    LocalFill,
    /// [`CostModel::local_refill`].
    LocalRefill,
    /// [`CostModel::remote_miss`].
    RemoteMiss,
    /// [`CostModel::msg_send`].
    MsgSend,
    /// [`CostModel::msg_recv`].
    MsgRecv,
    /// [`CostModel::block_flush`].
    BlockFlush,
    /// [`CostModel::clean_copy_create`].
    CleanCopyCreate,
    /// [`CostModel::reconcile_per_version`].
    ReconcilePerVersion,
    /// [`CostModel::invalidate`].
    Invalidate,
    /// [`CostModel::upgrade`].
    Upgrade,
    /// [`CostModel::retry_timeout`] (backoff doubling is expressed in the
    /// charge's `units`, so the knob itself stays linear).
    RetryTimeout,
    /// `remote_miss - msg_send`, saturating: the requester's stall for
    /// the reply leg of a round-trip whose request overhead was already
    /// charged separately.
    RemoteMissLessSend,
}

impl Knob {
    /// Number of knobs.
    pub const COUNT: usize = 13;

    /// All knobs, in [`Knob::index`] order.
    pub const fn all() -> [Knob; Knob::COUNT] {
        [
            Knob::CacheHit,
            Knob::LocalFill,
            Knob::LocalRefill,
            Knob::RemoteMiss,
            Knob::MsgSend,
            Knob::MsgRecv,
            Knob::BlockFlush,
            Knob::CleanCopyCreate,
            Knob::ReconcilePerVersion,
            Knob::Invalidate,
            Knob::Upgrade,
            Knob::RetryTimeout,
            Knob::RemoteMissLessSend,
        ]
    }

    /// Dense, stable index (`0..COUNT`) — part of the `.lcmtrace` wire
    /// format, so existing variants must never be renumbered.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Knob::CacheHit => 0,
            Knob::LocalFill => 1,
            Knob::LocalRefill => 2,
            Knob::RemoteMiss => 3,
            Knob::MsgSend => 4,
            Knob::MsgRecv => 5,
            Knob::BlockFlush => 6,
            Knob::CleanCopyCreate => 7,
            Knob::ReconcilePerVersion => 8,
            Knob::Invalidate => 9,
            Knob::Upgrade => 10,
            Knob::RetryTimeout => 11,
            Knob::RemoteMissLessSend => 12,
        }
    }

    /// The knob with [`Knob::index`] `idx`, if in range.
    pub fn from_index(idx: usize) -> Option<Knob> {
        Knob::all().get(idx).copied()
    }

    /// Short stable label.
    pub fn label(self) -> &'static str {
        match self {
            Knob::CacheHit => "cache_hit",
            Knob::LocalFill => "local_fill",
            Knob::LocalRefill => "local_refill",
            Knob::RemoteMiss => "remote_miss",
            Knob::MsgSend => "msg_send",
            Knob::MsgRecv => "msg_recv",
            Knob::BlockFlush => "block_flush",
            Knob::CleanCopyCreate => "clean_copy_create",
            Knob::ReconcilePerVersion => "reconcile_per_version",
            Knob::Invalidate => "invalidate",
            Knob::Upgrade => "upgrade",
            Knob::RetryTimeout => "retry_timeout",
            Knob::RemoteMissLessSend => "remote_miss_less_send",
        }
    }

    /// Cycles one unit of this knob costs under `c`.
    #[inline]
    pub fn eval(self, c: &CostModel) -> u64 {
        match self {
            Knob::CacheHit => c.cache_hit,
            Knob::LocalFill => c.local_fill,
            Knob::LocalRefill => c.local_refill,
            Knob::RemoteMiss => c.remote_miss,
            Knob::MsgSend => c.msg_send,
            Knob::MsgRecv => c.msg_recv,
            Knob::BlockFlush => c.block_flush,
            Knob::CleanCopyCreate => c.clean_copy_create,
            Knob::ReconcilePerVersion => c.reconcile_per_version,
            Knob::Invalidate => c.invalidate,
            Knob::Upgrade => c.upgrade,
            Knob::RetryTimeout => c.retry_timeout,
            Knob::RemoteMissLessSend => c.remote_miss.saturating_sub(c.msg_send),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_cm5() {
        assert_eq!(CostModel::default(), CostModel::cm5());
    }

    #[test]
    fn cm5_orderings_hold() {
        let c = CostModel::cm5();
        assert!(c.cache_hit < c.local_refill);
        assert!(c.local_refill < c.local_fill);
        assert!(c.local_fill < c.remote_miss);
        assert!(c.upgrade < c.remote_miss);
        assert!(
            c.retry_timeout > c.remote_miss,
            "timeouts outlast healthy round-trips"
        );
    }

    #[test]
    fn barrier_cost_grows_logarithmically() {
        let c = CostModel::cm5();
        let b1 = c.barrier_cost(1);
        let b2 = c.barrier_cost(2);
        let b32 = c.barrier_cost(32);
        assert_eq!(b1, c.barrier_base);
        assert_eq!(b2, c.barrier_base + c.barrier_per_level);
        assert_eq!(b32, c.barrier_base + 5 * c.barrier_per_level);
        // Non-power-of-two machines round the combining tree *up*: a
        // tree over 3 leaves needs 2 levels (floor(log2) undercounted
        // this as 1), over 5 leaves 3, and crossing a power of two adds
        // exactly one level.
        assert_eq!(c.barrier_cost(3), c.barrier_base + 2 * c.barrier_per_level);
        assert_eq!(c.barrier_cost(4), c.barrier_cost(3), "3 and 4 leaves tie");
        assert_eq!(c.barrier_cost(5), c.barrier_base + 3 * c.barrier_per_level);
        assert_eq!(
            c.barrier_cost(17),
            c.barrier_base + 5 * c.barrier_per_level,
            "17 leaves need the same 5-level tree as 32"
        );
        assert_eq!(
            c.barrier_cost(33),
            c.barrier_base + 6 * c.barrier_per_level,
            "one leaf past 32 adds a level"
        );
    }

    #[test]
    fn unit_and_free_models() {
        assert_eq!(CostModel::unit().remote_miss, 1);
        assert_eq!(CostModel::free().barrier_cost(32), 0);
    }

    #[test]
    fn knob_indices_are_dense_and_eval_matches_fields() {
        let c = CostModel::cm5();
        for (i, k) in Knob::all().iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(Knob::from_index(i), Some(*k));
        }
        assert_eq!(Knob::from_index(Knob::COUNT), None);
        let labels: std::collections::HashSet<_> = Knob::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), Knob::COUNT, "labels are unique");
        assert_eq!(Knob::RemoteMiss.eval(&c), c.remote_miss);
        assert_eq!(
            Knob::RemoteMissLessSend.eval(&c),
            c.remote_miss - c.msg_send
        );
        // Saturation: a model where the send overhead exceeds the
        // round-trip must not wrap.
        let mut odd = CostModel::free();
        odd.msg_send = 10;
        assert_eq!(Knob::RemoteMissLessSend.eval(&odd), 0);
    }

    #[test]
    fn grid_mapping_is_pinned() {
        let c = CostModel::cm5_grid(16, 12_000);
        assert_eq!(c.remote_miss, 12_000);
        assert_eq!(c.upgrade, 8_000);
        assert_eq!(c.link_bandwidth_bytes_per_cycle, 16);
        // Everything else stays cm5.
        let mut cm5 = CostModel::cm5();
        cm5.remote_miss = c.remote_miss;
        cm5.upgrade = c.upgrade;
        cm5.link_bandwidth_bytes_per_cycle = c.link_bandwidth_bytes_per_cycle;
        assert_eq!(c, cm5);
        // The upgrade ratio floors at 1 so a zero-latency grid point
        // cannot produce a free ownership round-trip.
        assert_eq!(CostModel::cm5().with_remote_latency(0).upgrade, 1);
        assert_eq!(CostModel::cm5().with_remote_latency(1).upgrade, 1);
    }

    #[test]
    fn contention_is_off_in_every_builtin_model() {
        for c in [CostModel::cm5(), CostModel::unit(), CostModel::free()] {
            assert_eq!(
                c.link_bandwidth_bytes_per_cycle, 0,
                "built-in models must reproduce the flat-cost network"
            );
        }
    }
}
