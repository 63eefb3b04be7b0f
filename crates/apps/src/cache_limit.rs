//! **Limited-cache ablation** (paper §6.3 discussion).
//!
//! Stache's Stencil-stat win depends on each processor's chunk staying
//! resident forever — true when local memory acts as an effectively
//! unbounded cache. The paper remarks that "on a machine with a limited
//! cache … the first version's performance is likely to be more typical".
//! This experiment runs the statically-partitioned stencil on Stache with
//! a bounded per-node cache and shows the advantage eroding until LCM-mcc
//! (which re-fetches each block once per iteration regardless) wins.

use crate::common::{RunResult, SystemKind};
use crate::stencil::Stencil;
use crate::Workload;
use lcm_cstar::{Runtime, RuntimeConfig, Strategy};
use lcm_sim::MachineConfig;
use lcm_stache::Stache;

/// Runs the stencil on Stache + explicit copying with an optional
/// per-node cache capacity (in blocks). `None` is the paper's unbounded
/// configuration.
pub fn stencil_on_limited_stache(
    capacity_blocks: Option<usize>,
    nodes: usize,
    w: &Stencil,
) -> RunResult {
    let mc = MachineConfig::new(nodes);
    let mem = match capacity_blocks {
        Some(cap) => Stache::with_capacity(mc, cap),
        None => Stache::new(mc),
    };
    let mut rt = Runtime::with_config(mem, Strategy::ExplicitCopy, RuntimeConfig::default());
    w.run(&mut rt);
    RunResult::harvest(SystemKind::Stache, rt.mem())
}

/// Blocks per node chunk for a stencil (one buffer).
pub fn chunk_blocks(w: &Stencil, nodes: usize) -> usize {
    (w.rows / nodes) * w.cols / lcm_sim::mem::WORDS_PER_BLOCK
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::execute;
    use lcm_cstar::Partition;

    #[test]
    fn smaller_caches_mean_more_evictions_and_time() {
        let w = Stencil {
            rows: 64,
            cols: 64,
            iters: 4,
            partition: Partition::Static,
        };
        let nodes = 4;
        let chunk = chunk_blocks(&w, nodes);
        let unbounded = stencil_on_limited_stache(None, nodes, &w);
        let roomy = stencil_on_limited_stache(Some(4 * chunk), nodes, &w);
        let tight = stencil_on_limited_stache(Some(chunk / 2), nodes, &w);
        assert_eq!(unbounded.totals.evictions, 0);
        // Both buffers + read neighbors exceed 4*chunk? Roomy should be
        // close to unbounded; tight should thrash.
        assert!(tight.totals.evictions > roomy.totals.evictions);
        assert!(tight.time > unbounded.time);
        assert!(tight.misses() > 2 * unbounded.misses());
    }

    #[test]
    fn limited_cache_erases_the_stache_stat_advantage() {
        // The paper's remark: with a limited cache, Stencil-stat under
        // Stache stops beating LCM.
        let w = Stencil {
            rows: 128,
            cols: 128,
            iters: 5,
            partition: Partition::Static,
        };
        let nodes = 8;
        let chunk = chunk_blocks(&w, nodes);
        let stache_unbounded = stencil_on_limited_stache(None, nodes, &w);
        let stache_tight = stencil_on_limited_stache(Some(chunk / 4), nodes, &w);
        let lcm = execute(
            SystemKind::LcmMcc,
            MachineConfig::new(nodes),
            RuntimeConfig::default(),
            &w,
        )
        .1;
        let advantage_unbounded = lcm.time as f64 / stache_unbounded.time as f64;
        let advantage_tight = lcm.time as f64 / stache_tight.time as f64;
        assert!(
            advantage_unbounded > 2.0,
            "unbounded Stache keeps its §6.3 win: {advantage_unbounded:.2}x"
        );
        assert!(
            advantage_tight < 1.3,
            "a thrashing cache erodes it to near-parity — the paper's \
             'more typical' performance: {advantage_tight:.2}x"
        );
        assert!(advantage_tight < advantage_unbounded / 2.0);
    }

    #[test]
    fn results_are_identical_regardless_of_capacity() {
        let w = Stencil {
            rows: 32,
            cols: 32,
            iters: 3,
            partition: Partition::Static,
        };
        let mut outs = Vec::new();
        for cap in [None, Some(64), Some(8)] {
            let mc = MachineConfig::new(4);
            let mem = match cap {
                Some(c) => Stache::with_capacity(mc, c),
                None => Stache::new(mc),
            };
            let mut rt = Runtime::new(mem, Strategy::ExplicitCopy);
            outs.push(w.run(&mut rt));
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2], "eviction must never change values");
    }
}
