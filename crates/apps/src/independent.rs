//! **Independent updates** (§5.1 ablation): the compiler's flush elision.
//!
//! When analysis proves that no two invocations of a parallel call touch
//! the same location, the compiler need not flush modified copies between
//! invocations on a processor — a new invocation cannot observe its
//! predecessors' writes because it never looks at them. This kernel (a
//! pure per-element map) is exactly that case: eliding the flush lets a
//! processor's private copy of a block absorb all eight of its elements'
//! writes before a single flush at reconcile time.

use crate::common::{RunResult, SystemKind, Workload};
use lcm_core::{Lcm, LcmVariant};
use lcm_cstar::{FlushPolicy, Partition, Runtime, RuntimeConfig, Strategy};
use lcm_rsm::MemoryProtocol;
use lcm_sim::MachineConfig;
use lcm_tempest::Placement;

/// A pure map: `a[i] = f(a[i])` repeated for several sweeps.
#[derive(Copy, Clone, Debug)]
pub struct IndependentMap {
    /// Elements.
    pub len: usize,
    /// Sweeps over the array.
    pub sweeps: usize,
}

impl IndependentMap {
    /// A representative configuration.
    pub fn default_size() -> IndependentMap {
        IndependentMap {
            len: 1 << 14,
            sweeps: 4,
        }
    }

    /// A scaled-down configuration for tests.
    pub fn small() -> IndependentMap {
        IndependentMap {
            len: 256,
            sweeps: 2,
        }
    }
}

impl Workload for IndependentMap {
    /// Checksum of the final array.
    type Output = u64;

    fn run<P: MemoryProtocol>(&self, rt: &mut Runtime<P>) -> u64 {
        let a = rt.new_aggregate1::<i32>(self.len, Placement::Blocked, "a");
        rt.init1(a, |i| i as i32);
        for _ in 0..self.sweeps {
            rt.apply1(a, Partition::Static, |inv, i| {
                let v = inv.get(a.at(i));
                inv.set(a.at(i), v.wrapping_mul(3).wrapping_add(1));
            });
        }
        let mut checksum = 0u64;
        for i in 0..self.len {
            checksum = checksum
                .wrapping_mul(31)
                .wrapping_add(rt.peek1(a, i) as u32 as u64);
        }
        checksum
    }
}

/// Runs the map under LCM-mcc with the given flush policy.
pub fn run_with_flush(policy: FlushPolicy, nodes: usize, w: &IndependentMap) -> (u64, RunResult) {
    let cfg = RuntimeConfig {
        flush: policy,
        ..RuntimeConfig::default()
    };
    let mem = Lcm::new(MachineConfig::new(nodes), LcmVariant::Mcc);
    let mut rt = Runtime::with_config(mem, Strategy::LcmDirectives, cfg);
    let out = w.run(&mut rt);
    (out, RunResult::harvest(SystemKind::LcmMcc, rt.mem()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::execute_all;

    #[test]
    fn all_systems_agree() {
        execute_all(4, RuntimeConfig::default(), &IndependentMap::small());
    }

    #[test]
    fn flush_elision_preserves_the_result() {
        let w = IndependentMap::small();
        let (per_inv, _) = run_with_flush(FlushPolicy::PerInvocation, 4, &w);
        let (at_rec, _) = run_with_flush(FlushPolicy::AtReconcile, 4, &w);
        assert_eq!(per_inv, at_rec);
    }

    #[test]
    fn flush_elision_cuts_flushes_and_time() {
        let w = IndependentMap::default_size();
        let (_, per_inv) = run_with_flush(FlushPolicy::PerInvocation, 8, &w);
        let (_, at_rec) = run_with_flush(FlushPolicy::AtReconcile, 8, &w);
        // Eight elements per block: one flush per block instead of eight.
        assert!(
            per_inv.totals.flushes > 4 * at_rec.totals.flushes,
            "flushes {} vs {}",
            per_inv.totals.flushes,
            at_rec.totals.flushes
        );
        assert!(
            per_inv.time > at_rec.time,
            "eliding the flush should be faster: {} vs {}",
            per_inv.time,
            at_rec.time
        );
    }
}
