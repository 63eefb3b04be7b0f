//! Cycle attribution: the [`CycleLedger`] and per-phase snapshots.
//!
//! The paper's argument rests on *where cycles go* — miss stalls, message
//! round-trips, clean-copy creation, reconciliation — so the machine
//! attributes every cycle it charges to a [`CycleCat`] category. The
//! ledger is conservation-checked: for every node, the category sums must
//! equal the node's clock (see [`CycleLedger::check_against`]); the
//! sanitizer asserts this at harvest time.
//!
//! Attribution is *by construction*: every clock mutation routes through
//! [`crate::Machine::advance_as`] (or the barrier path, which attributes
//! the synchronization jump itself), so the invariant cannot drift as
//! protocols evolve.

use crate::machine::NodeId;
use crate::stats::NodeStats;

/// Category a simulated cycle is attributed to.
///
/// Categories partition a node's clock: at any instant, each node's cycles
/// split exactly across these buckets.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CycleCat {
    /// Application compute, invocation overhead, and cache hits — cycles
    /// the memory system did not add.
    Compute,
    /// Load-miss stall serviced from node-local storage (fault trap, no
    /// network).
    ReadStallLocal,
    /// Load-miss stall including a remote round-trip.
    ReadStallRemote,
    /// Store-miss stall serviced from node-local storage.
    WriteStallLocal,
    /// Store-miss stall including a remote round-trip.
    WriteStallRemote,
    /// Ownership-upgrade stall (ReadOnly → Writable).
    UpgradeStall,
    /// Message send/receive handler overhead not part of a requester's
    /// miss stall (home-side handlers, invalidations, one-way sends).
    MsgOverhead,
    /// Waiting at a global barrier for slower nodes (the synchronization
    /// jump plus the barrier's own cost).
    BarrierWait,
    /// LCM bookkeeping: clean-copy creation, block flushes,
    /// reconciliation, local refills, stale refreshes.
    FlushReconcile,
    /// Retransmission timeouts, exponential backoff, wasted sends and
    /// injected stalls from the fault layer. Zero on a reliable network.
    RetryBackoff,
    /// Serialization onto and queueing behind finite network links
    /// (fat-tree fabric hops plus NI occupancy; see
    /// [`crate::topology`]). Zero while the cost model's link bandwidth
    /// is unlimited — the default.
    NetContention,
    /// Capturing recovery state at a phase boundary: flushing dirty data
    /// home and persisting the checkpoint image. Zero unless a crash
    /// schedule is active.
    Checkpoint,
    /// Re-executing work a crashed node lost since its last checkpoint,
    /// plus restoring its protocol state from that checkpoint. Zero
    /// unless a crash schedule is active.
    Rollback,
    /// Surviving nodes detecting a peer's fail-stop crash (timeout
    /// expiry and membership agreement). Zero unless a crash schedule is
    /// active.
    CrashDetect,
}

impl CycleCat {
    /// Number of categories.
    pub const COUNT: usize = 14;

    /// All categories, in display order.
    pub const fn all() -> [CycleCat; CycleCat::COUNT] {
        [
            CycleCat::Compute,
            CycleCat::ReadStallLocal,
            CycleCat::ReadStallRemote,
            CycleCat::WriteStallLocal,
            CycleCat::WriteStallRemote,
            CycleCat::UpgradeStall,
            CycleCat::MsgOverhead,
            CycleCat::BarrierWait,
            CycleCat::FlushReconcile,
            CycleCat::RetryBackoff,
            CycleCat::NetContention,
            CycleCat::Checkpoint,
            CycleCat::Rollback,
            CycleCat::CrashDetect,
        ]
    }

    /// Dense index of the category (`0..COUNT`).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            CycleCat::Compute => 0,
            CycleCat::ReadStallLocal => 1,
            CycleCat::ReadStallRemote => 2,
            CycleCat::WriteStallLocal => 3,
            CycleCat::WriteStallRemote => 4,
            CycleCat::UpgradeStall => 5,
            CycleCat::MsgOverhead => 6,
            CycleCat::BarrierWait => 7,
            CycleCat::FlushReconcile => 8,
            CycleCat::RetryBackoff => 9,
            CycleCat::NetContention => 10,
            CycleCat::Checkpoint => 11,
            CycleCat::Rollback => 12,
            CycleCat::CrashDetect => 13,
        }
    }

    /// Short stable label (used in the profile CSV and report).
    pub fn label(self) -> &'static str {
        match self {
            CycleCat::Compute => "compute",
            CycleCat::ReadStallLocal => "read_stall_local",
            CycleCat::ReadStallRemote => "read_stall_remote",
            CycleCat::WriteStallLocal => "write_stall_local",
            CycleCat::WriteStallRemote => "write_stall_remote",
            CycleCat::UpgradeStall => "upgrade_stall",
            CycleCat::MsgOverhead => "msg_overhead",
            CycleCat::BarrierWait => "barrier_wait",
            CycleCat::FlushReconcile => "flush_reconcile",
            CycleCat::RetryBackoff => "retry_backoff",
            CycleCat::NetContention => "net_contention",
            CycleCat::Checkpoint => "checkpoint",
            CycleCat::Rollback => "rollback",
            CycleCat::CrashDetect => "crash_detect",
        }
    }
}

impl std::fmt::Display for CycleCat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-node, per-category cycle totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleLedger {
    cells: Vec<[u64; CycleCat::COUNT]>,
}

impl CycleLedger {
    /// A zeroed ledger for `nodes` processors.
    pub fn new(nodes: usize) -> CycleLedger {
        CycleLedger {
            cells: vec![[0; CycleCat::COUNT]; nodes],
        }
    }

    /// Number of nodes tracked.
    pub fn nodes(&self) -> usize {
        self.cells.len()
    }

    /// Attributes `cycles` on `node` to `cat`.
    #[inline]
    pub fn charge(&mut self, node: NodeId, cat: CycleCat, cycles: u64) {
        let cell = &mut self.cells[node.index()][cat.index()];
        *cell = cell.saturating_add(cycles);
    }

    /// Cycles attributed to `cat` on `node`.
    #[inline]
    pub fn get(&self, node: NodeId, cat: CycleCat) -> u64 {
        self.cells[node.index()][cat.index()]
    }

    /// Sum of all categories on `node` — must equal the node's clock.
    pub fn node_total(&self, node: NodeId) -> u64 {
        self.cells[node.index()].iter().sum()
    }

    /// Cycles attributed to `cat` summed over all nodes.
    pub fn cat_total(&self, cat: CycleCat) -> u64 {
        self.cells.iter().map(|c| c[cat.index()]).sum()
    }

    /// Per-category totals summed over all nodes, in [`CycleCat::all`] order.
    pub fn totals(&self) -> [u64; CycleCat::COUNT] {
        let mut t = [0; CycleCat::COUNT];
        for c in &self.cells {
            for (acc, v) in t.iter_mut().zip(c) {
                *acc += v;
            }
        }
        t
    }

    /// Zeroes every cell, keeping the node count.
    pub fn clear(&mut self) {
        for c in &mut self.cells {
            *c = [0; CycleCat::COUNT];
        }
    }

    /// Conservation check: every node's category sum must equal its clock.
    /// Returns the first violating `(node, ledger_sum, clock)` if any.
    pub fn check_against(&self, clocks: &[u64]) -> Result<(), (NodeId, u64, u64)> {
        assert_eq!(self.cells.len(), clocks.len(), "ledger/machine node count");
        for (i, &clock) in clocks.iter().enumerate() {
            let node = NodeId(i as u16);
            let sum = self.node_total(node);
            if sum != clock {
                return Err((node, sum, clock));
            }
        }
        Ok(())
    }
}

/// A cumulative snapshot taken at a phase boundary (a barrier epoch /
/// parallel step). Consumers difference consecutive snapshots to get
/// per-phase metrics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// What ended at this boundary (e.g. `"init"`, `"apply"`).
    pub label: &'static str,
    /// Simulated time (max node clock) at the boundary.
    pub at: u64,
    /// Cumulative all-node statistics at the boundary.
    pub totals: NodeStats,
    /// Cumulative per-category cycle totals (all nodes) at the boundary,
    /// in [`CycleCat::all`] order.
    pub cycles: [u64; CycleCat::COUNT],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_indices_are_dense_and_stable() {
        for (i, cat) in CycleCat::all().iter().enumerate() {
            assert_eq!(cat.index(), i);
        }
        let labels: std::collections::HashSet<_> =
            CycleCat::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), CycleCat::COUNT, "labels are unique");
    }

    #[test]
    fn charge_and_totals() {
        let mut l = CycleLedger::new(2);
        l.charge(NodeId(0), CycleCat::Compute, 10);
        l.charge(NodeId(0), CycleCat::ReadStallRemote, 5);
        l.charge(NodeId(1), CycleCat::ReadStallRemote, 7);
        assert_eq!(l.get(NodeId(0), CycleCat::Compute), 10);
        assert_eq!(l.node_total(NodeId(0)), 15);
        assert_eq!(l.cat_total(CycleCat::ReadStallRemote), 12);
        assert_eq!(l.totals()[CycleCat::Compute.index()], 10);
        l.clear();
        assert_eq!(l.node_total(NodeId(0)), 0);
    }

    #[test]
    fn conservation_check_catches_mismatch() {
        let mut l = CycleLedger::new(2);
        l.charge(NodeId(0), CycleCat::Compute, 10);
        assert!(l.check_against(&[10, 0]).is_ok());
        assert_eq!(l.check_against(&[10, 3]), Err((NodeId(1), 0, 3)));
    }
}
