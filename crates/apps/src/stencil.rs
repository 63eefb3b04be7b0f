//! **Stencil** (paper §6.1, §6.3): a regular four-point stencil over a
//! fixed mesh.
//!
//! The paper measures 50 iterations on a 1024×1024 mesh of
//! single-precision floats, in two schedules: *Stencil-stat* partitions
//! the mesh across processors once ([`lcm_cstar::Partition::Static`]) —
//! the repeatable schedule that lets Stache keep each chunk's interior
//! resident and communicate only boundary rows — and *Stencil-dyn*
//! repartitions at the start of every iteration
//! ([`lcm_cstar::Partition::Dynamic`]), destroying that locality.

use crate::common::Workload;
use lcm_cstar::{Partition, Runtime};
use lcm_rsm::MemoryProtocol;
use lcm_tempest::Placement;

/// The Stencil benchmark.
#[derive(Copy, Clone, Debug)]
pub struct Stencil {
    /// Mesh rows (paper: 1024).
    pub rows: usize,
    /// Mesh columns (paper: 1024).
    pub cols: usize,
    /// Relaxation iterations (paper: 50).
    pub iters: usize,
    /// Schedule: static (paper's Stencil-stat) or dynamic (Stencil-dyn).
    pub partition: Partition,
}

impl Stencil {
    /// The paper's configuration at the given schedule.
    pub fn paper(partition: Partition) -> Stencil {
        Stencil {
            rows: 1024,
            cols: 1024,
            iters: 50,
            partition,
        }
    }

    /// A scaled-down configuration for tests and quick runs.
    pub fn small(partition: Partition) -> Stencil {
        Stencil {
            rows: 64,
            cols: 64,
            iters: 5,
            partition,
        }
    }
}

impl Workload for Stencil {
    /// A checksum of the final mesh (bitwise sum of float bits, exact).
    type Output = u64;

    fn run<P: MemoryProtocol>(&self, rt: &mut Runtime<P>) -> u64 {
        let m = rt.new_aggregate2::<f32>(self.rows, self.cols, Placement::Blocked, "mesh");
        // A hot top edge relaxing into a cold interior.
        rt.init2(m, |r, _c| if r == 0 { 100.0 } else { 0.0 });

        let (rows, cols) = (self.rows, self.cols);
        for _ in 0..self.iters {
            rt.apply2(m, self.partition, |inv, r, c| {
                if r > 0 && r + 1 < rows && c > 0 && c + 1 < cols {
                    let sum = inv.get(m.at(r - 1, c))
                        + inv.get(m.at(r + 1, c))
                        + inv.get(m.at(r, c - 1))
                        + inv.get(m.at(r, c + 1));
                    inv.set(m.at(r, c), sum * 0.25);
                } else {
                    // Boundary: carried into the new state by the
                    // explicit-copying compilation; untouched under LCM.
                    let v = inv.get(m.at(r, c));
                    inv.copy_through(m.at(r, c), v);
                }
            });
        }

        let mut checksum = 0u64;
        for r in 0..rows {
            for c in 0..cols {
                checksum = checksum
                    .wrapping_mul(31)
                    .wrapping_add(rt.peek2(m, r, c).to_bits() as u64);
            }
        }
        checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{execute, execute_all, SystemKind};
    use lcm_cstar::RuntimeConfig;
    use lcm_sim::MachineConfig;

    #[test]
    fn all_systems_agree_static() {
        let results = execute_all(
            4,
            RuntimeConfig::default(),
            &Stencil::small(Partition::Static),
        );
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn all_systems_agree_dynamic() {
        execute_all(
            4,
            RuntimeConfig::default(),
            &Stencil::small(Partition::Dynamic),
        );
    }

    #[test]
    fn heat_diffuses_downward() {
        // Inline copy of the stencil so the mesh handle stays in scope.
        let mem = lcm_core::Lcm::new(lcm_sim::MachineConfig::new(4), lcm_core::LcmVariant::Mcc);
        let mut rt = Runtime::new(mem, lcm_cstar::Strategy::LcmDirectives);
        let m = rt.new_aggregate2::<f32>(16, 16, Placement::Blocked, "mesh");
        rt.init2(m, |r, _| if r == 0 { 100.0 } else { 0.0 });
        for _ in 0..20 {
            rt.apply2(m, Partition::Static, |inv, r, c| {
                if r > 0 && r < 15 && c > 0 && c < 15 {
                    let s = inv.get(m.at(r - 1, c))
                        + inv.get(m.at(r + 1, c))
                        + inv.get(m.at(r, c - 1))
                        + inv.get(m.at(r, c + 1));
                    inv.set(m.at(r, c), s * 0.25);
                }
            });
        }
        let near = rt.peek2(m, 1, 8);
        let far = rt.peek2(m, 8, 8);
        assert!(
            near > far,
            "heat should diffuse from the hot edge: {near} vs {far}"
        );
        assert!(near > 0.0);
    }

    #[test]
    fn stache_static_beats_stache_dynamic() {
        let cfg = RuntimeConfig::default();
        let stat = execute(
            SystemKind::Stache,
            MachineConfig::new(8),
            cfg,
            &Stencil::small(Partition::Static),
        )
        .1;
        let dyn_ = execute(
            SystemKind::Stache,
            MachineConfig::new(8),
            cfg,
            &Stencil::small(Partition::Dynamic),
        )
        .1;
        assert!(
            dyn_.misses() > stat.misses() * 2,
            "dynamic scheduling should wreck Stache locality: {} vs {}",
            dyn_.misses(),
            stat.misses()
        );
        assert!(dyn_.time > stat.time);
    }

    #[test]
    fn mcc_has_far_fewer_misses_than_scc() {
        let cfg = RuntimeConfig::default();
        let w = Stencil::small(Partition::Static);
        let scc = execute(SystemKind::LcmScc, MachineConfig::new(8), cfg, &w).1;
        let mcc = execute(SystemKind::LcmMcc, MachineConfig::new(8), cfg, &w).1;
        assert!(
            scc.misses() > mcc.misses() * 3,
            "scc refetches after every flush: {} vs {}",
            scc.misses(),
            mcc.misses()
        );
        assert!(
            scc.time > mcc.time,
            "scc should be slower: {} vs {}",
            scc.time,
            mcc.time
        );
    }
}
