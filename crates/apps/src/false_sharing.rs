//! **False sharing** (paper §7.4): several processors updating distinct
//! words of the same cache block.
//!
//! Under an invalidation protocol the block's ownership migrates on every
//! update — pure coherence overhead, since no data is actually shared.
//! Under LCM each processor gets a private copy of the block and the
//! word-granularity reconciliation merges the disjoint updates, so the
//! per-round cost is a flush instead of a ping-pong.

use crate::common::Workload;
use lcm_cstar::{Partition, Runtime};
use lcm_rsm::MemoryProtocol;
use lcm_tempest::Placement;

/// The false-sharing microbenchmark: `writers` processors, each updating
/// its own counter. When `padded` the counters sit in separate blocks
/// (the classic hand-fix); otherwise they pack into the same block(s).
#[derive(Copy, Clone, Debug)]
pub struct FalseSharing {
    /// Number of writers (= counters; 8 packed counters fit one block).
    pub writers: usize,
    /// Update rounds.
    pub rounds: usize,
    /// Pad each counter to its own block.
    pub padded: bool,
}

impl FalseSharing {
    /// One block shared by 8 writers, many rounds.
    pub fn default_size() -> FalseSharing {
        FalseSharing {
            writers: 8,
            rounds: 200,
            padded: false,
        }
    }

    /// A scaled-down configuration for tests.
    pub fn small() -> FalseSharing {
        FalseSharing {
            writers: 4,
            rounds: 20,
            padded: false,
        }
    }

    /// The same workload with padded (conflict-free) counters.
    pub fn padded(mut self) -> FalseSharing {
        self.padded = true;
        self
    }

    fn stride(&self) -> usize {
        if self.padded {
            8
        } else {
            1
        }
    }
}

impl Workload for FalseSharing {
    /// The final counter values (each must equal `rounds`).
    type Output = Vec<i32>;

    fn run<P: MemoryProtocol>(&self, rt: &mut Runtime<P>) -> Vec<i32> {
        let stride = self.stride();
        // One counter per node; all homed in one place so homing cannot
        // mask the sharing effect.
        let counters = rt.new_aggregate1::<i32>(
            self.writers * stride,
            Placement::OnNode(lcm_sim::NodeId(0)),
            "ctrs",
        );
        rt.init1(counters, |_| 0);
        let work = rt.new_aggregate1::<i32>(self.writers, Placement::Blocked, "work");
        for _ in 0..self.rounds {
            rt.apply1(work, Partition::Static, |inv, i| {
                let slot = counters.at(i * stride);
                let v = inv.get(slot);
                inv.set(slot, v + 1);
            });
        }
        (0..self.writers)
            .map(|i| rt.peek1(counters, i * stride))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{execute, execute_all, SystemKind};
    use lcm_cstar::RuntimeConfig;

    #[test]
    fn counters_are_correct_on_all_systems() {
        let w = FalseSharing::small();
        let results = execute_all(w.writers, RuntimeConfig::default(), &w);
        assert_eq!(results.len(), 3);
        // execute_all already asserted the outputs match; check the value.
        let (out, _) = execute(SystemKind::LcmMcc, w.writers, RuntimeConfig::default(), &w);
        assert_eq!(out, vec![w.rounds as i32; w.writers]);
    }

    #[test]
    fn lcm_relieves_the_ping_pong() {
        let w = FalseSharing::default_size();
        let cfg = RuntimeConfig::default();
        let mcc = execute(SystemKind::LcmMcc, w.writers, cfg, &w).1;
        let stache = execute(SystemKind::Stache, w.writers, cfg, &w).1;
        assert!(
            stache.time as f64 > 1.3 * mcc.time as f64,
            "false sharing should hammer Stache: {} vs {}",
            stache.time,
            mcc.time
        );
        assert!(
            stache.misses() > mcc.misses(),
            "ownership migration shows up as misses: {} vs {}",
            stache.misses(),
            mcc.misses()
        );
    }

    #[test]
    fn padding_fixes_stache_but_lcm_needs_no_padding() {
        let w = FalseSharing::default_size();
        let cfg = RuntimeConfig::default();
        let packed = execute(SystemKind::Stache, w.writers, cfg, &w).1;
        let padded = execute(SystemKind::Stache, w.writers, cfg, &w.padded()).1;
        let lcm_packed = execute(SystemKind::LcmMcc, w.writers, cfg, &w).1;
        assert!(
            packed.time as f64 > 1.5 * padded.time as f64,
            "padding should fix Stache: packed {} vs padded {}",
            packed.time,
            padded.time
        );
        assert!(
            lcm_packed.time < packed.time,
            "LCM recovers most of the padding win without the rewrite: {} vs {}",
            lcm_packed.time,
            packed.time
        );
    }

    #[test]
    fn no_conflicts_despite_shared_blocks() {
        // Distinct words of one block are not a C** conflict; LCM's
        // word-granularity merge must not count them as one.
        let w = FalseSharing::small();
        let (_, r) = execute(SystemKind::LcmMcc, w.writers, RuntimeConfig::default(), &w);
        assert_eq!(r.totals.ww_conflicts, 0);
    }
}
