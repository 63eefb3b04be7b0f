//! **Threshold** (paper §6.3): a stencil that modifies few mesh elements.
//!
//! Each point reads its neighbors and updates itself only when the value
//! would change by more than a threshold. The mesh is initially zero
//! except for a few fixed sources, so only cells near a source change in
//! the early iterations (the paper reports a 2.1% modified ratio).
//! Without LCM, the whole mesh must still be carried into the new version
//! each iteration — the program itself copies the values it does not
//! update. With LCM only the modified values are copied, which is why the
//! paper measures LCM 97%/74% faster than Stache here.

use crate::common::Workload;
use lcm_cstar::{Partition, Runtime};
use lcm_rsm::MemoryProtocol;
use lcm_tempest::Placement;

/// The Threshold benchmark.
#[derive(Copy, Clone, Debug)]
pub struct Threshold {
    /// Mesh side (paper: 512).
    pub size: usize,
    /// Iterations (paper: 50).
    pub iters: usize,
    /// Update threshold: a cell changes only when `|avg - v|` exceeds it.
    pub threshold: f32,
    /// Number of fixed hot sources scattered on the mesh.
    pub sources: usize,
}

impl Threshold {
    /// The paper's configuration.
    pub fn paper() -> Threshold {
        Threshold {
            size: 512,
            iters: 50,
            threshold: 1.0,
            sources: 6,
        }
    }

    /// A scaled-down configuration for tests.
    pub fn small() -> Threshold {
        Threshold {
            size: 48,
            iters: 6,
            threshold: 1.0,
            sources: 3,
        }
    }

    /// Deterministic source positions, spread over the mesh.
    fn source_cells(&self) -> Vec<(usize, usize)> {
        let mut cells = Vec::with_capacity(self.sources);
        for k in 0..self.sources {
            let r = (k * 7919 + 13) % self.size;
            let c = (k * 104729 + 41) % self.size;
            cells.push((r, c));
        }
        cells
    }
}

impl Workload for Threshold {
    /// (checksum of the final mesh, total cell updates performed).
    type Output = (u64, u64);

    fn run<P: MemoryProtocol>(&self, rt: &mut Runtime<P>) -> (u64, u64) {
        let n = self.size;
        let m = rt.new_aggregate2::<f32>(n, n, Placement::Blocked, "mesh");
        let sources = self.source_cells();
        rt.init2(m, |r, c| {
            if sources.contains(&(r, c)) {
                100.0
            } else {
                0.0
            }
        });

        let mut updates = 0u64;
        let thresh = self.threshold;
        for _ in 0..self.iters {
            rt.apply2(m, Partition::Static, |inv, r, c| {
                let v = inv.get(m.at(r, c));
                if sources.contains(&(r, c)) {
                    // Fixed sources never change.
                    inv.copy_through(m.at(r, c), v);
                    return;
                }
                let mut sum = 0.0;
                let mut cnt = 0.0;
                if r > 0 {
                    sum += inv.get(m.at(r - 1, c));
                    cnt += 1.0;
                }
                if r + 1 < n {
                    sum += inv.get(m.at(r + 1, c));
                    cnt += 1.0;
                }
                if c > 0 {
                    sum += inv.get(m.at(r, c - 1));
                    cnt += 1.0;
                }
                if c + 1 < n {
                    sum += inv.get(m.at(r, c + 1));
                    cnt += 1.0;
                }
                let avg = sum / cnt;
                if (avg - v).abs() > thresh {
                    inv.set(m.at(r, c), avg);
                    updates += 1;
                } else {
                    // The explicit-copying compilation writes the old
                    // value through; LCM leaves the location untouched.
                    inv.copy_through(m.at(r, c), v);
                }
            });
        }

        let mut checksum = 0u64;
        for r in 0..n {
            for c in 0..n {
                checksum = checksum
                    .wrapping_mul(31)
                    .wrapping_add(rt.peek2(m, r, c).to_bits() as u64);
            }
        }
        (checksum, updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{execute, execute_all, SystemKind};
    use lcm_cstar::RuntimeConfig;

    #[test]
    fn all_systems_agree() {
        execute_all(4, RuntimeConfig::default(), &Threshold::small());
    }

    #[test]
    fn update_ratio_is_small() {
        let w = Threshold::small();
        let ((_, updates), _) = execute(SystemKind::LcmMcc, 4, RuntimeConfig::default(), &w);
        let total = (w.size * w.size * w.iters) as u64;
        assert!(updates > 0, "some cells must update");
        assert!(
            updates * 5 < total,
            "most cells should stay unmodified: {updates} of {total}"
        );
    }

    #[test]
    fn lcm_beats_stache_decisively() {
        // Table 1 / Figure 3: LCM copies far fewer locations. This needs
        // a mesh large enough that the sparse update front (not protocol
        // fixed costs) dominates, as in the paper's 512x512 runs.
        let cfg = RuntimeConfig::default();
        let w = Threshold {
            size: 128,
            iters: 6,
            threshold: 1.0,
            sources: 4,
        };
        let mcc = execute(SystemKind::LcmMcc, 8, cfg, &w).1;
        let scc = execute(SystemKind::LcmScc, 8, cfg, &w).1;
        let stache = execute(SystemKind::Stache, 8, cfg, &w).1;
        assert!(
            stache.time > mcc.time,
            "Stache {} vs LCM-mcc {}",
            stache.time,
            mcc.time
        );
        assert!(
            stache.time > scc.time,
            "Stache {} vs LCM-scc {}",
            stache.time,
            scc.time
        );
        assert!(stache.misses() > mcc.misses());
    }

    #[test]
    fn runs_are_deterministic() {
        let w = Threshold::small();
        let once = execute(SystemKind::LcmMcc, 4, RuntimeConfig::default(), &w);
        let twice = execute(SystemKind::LcmMcc, 4, RuntimeConfig::default(), &w);
        assert_eq!(once.0, twice.0, "identical outputs");
        assert_eq!(once.1.time, twice.1.time, "identical timing");
        assert_eq!(once.1.totals, twice.1.totals, "identical counters");
    }
}
