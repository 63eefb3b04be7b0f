//! **Jacobi solver with a convergence reduction**: the two C\*\* features
//! working together.
//!
//! A Laplace relaxation (as in §4.2's stencil) whose termination test is
//! a reduction assignment (§4.2's `%+=`): each invocation contributes its
//! cell's squared residual to a global accumulator, and the sequential
//! phase between parallel calls checks it against a tolerance. This is
//! the classic shape of a C\*\* numerical program — parallel phases
//! alternating with scalar control — and exercises keep-one and reduction
//! reconciliation in the same parallel call.

use crate::common::Workload;
use lcm_cstar::{Partition, Runtime};
use lcm_rsm::{MemoryProtocol, ReduceOp};
use lcm_tempest::Placement;

/// The Jacobi-until-converged workload.
#[derive(Copy, Clone, Debug)]
pub struct Jacobi {
    /// Mesh side.
    pub size: usize,
    /// Stop when the summed squared residual drops below this.
    pub tolerance: f64,
    /// Safety cap on iterations.
    pub max_iters: usize,
}

impl Jacobi {
    /// A representative configuration.
    pub fn default_size() -> Jacobi {
        Jacobi {
            size: 48,
            tolerance: 5.0,
            max_iters: 600,
        }
    }

    /// A scaled-down configuration for tests.
    pub fn small() -> Jacobi {
        Jacobi {
            size: 16,
            tolerance: 5.0,
            max_iters: 100,
        }
    }
}

impl Workload for Jacobi {
    /// (iterations to convergence, final residual, mesh checksum).
    type Output = (usize, u64, u64);

    fn run<P: MemoryProtocol>(&self, rt: &mut Runtime<P>) -> (usize, u64, u64) {
        let n = self.size;
        let m = rt.new_aggregate2::<f32>(n, n, Placement::Blocked, "mesh");
        // Hot left edge, cold right edge, zero initial guess inside: the
        // solver must propagate the boundary profile across the interior.
        rt.init2(m, |r, c| {
            if r == 0 || r + 1 == n || c == 0 || c + 1 == n {
                100.0 * (1.0 - c as f32 / (n - 1) as f32)
            } else {
                0.0
            }
        });
        let residual = rt.new_reduction_f64(ReduceOp::SumF64, 0.0, "residual");

        let mut iters = 0;
        let mut last_residual = f64::INFINITY;
        while iters < self.max_iters {
            rt.set_reduction(residual, 0.0);
            rt.apply2(m, Partition::Static, |inv, r, c| {
                if r > 0 && r + 1 < n && c > 0 && c + 1 < n {
                    let v = inv.get(m.at(r, c));
                    let avg = 0.25
                        * (inv.get(m.at(r - 1, c))
                            + inv.get(m.at(r + 1, c))
                            + inv.get(m.at(r, c - 1))
                            + inv.get(m.at(r, c + 1)));
                    inv.set(m.at(r, c), avg);
                    let d = (avg - v) as f64;
                    inv.reduce_f64(residual, d * d);
                } else {
                    let v = inv.get(m.at(r, c));
                    inv.copy_through(m.at(r, c), v);
                }
            });
            iters += 1;
            // Sequential phase: the scalar convergence check.
            last_residual = rt.peek_reduction(residual);
            if last_residual < self.tolerance {
                break;
            }
        }

        let mut checksum = 0u64;
        for r in 0..n {
            for c in 0..n {
                checksum = checksum
                    .wrapping_mul(31)
                    .wrapping_add(rt.peek2(m, r, c).to_bits() as u64);
            }
        }
        (iters, last_residual.to_bits(), checksum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{execute, execute_all, SystemKind};
    use lcm_cstar::RuntimeConfig;
    use lcm_sim::MachineConfig;

    #[test]
    fn all_systems_converge_identically() {
        let results = execute_all(4, RuntimeConfig::default(), &Jacobi::small());
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn solver_actually_converges() {
        let w = Jacobi::small();
        let ((iters, residual_bits, _), _, _) = execute(
            SystemKind::LcmMcc,
            MachineConfig::new(4),
            RuntimeConfig::default(),
            &w,
        );
        assert!(
            iters < w.max_iters,
            "should converge before the cap, took {iters}"
        );
        assert!(iters > 3, "a real relaxation takes several sweeps");
        assert!(f64::from_bits(residual_bits) < w.tolerance);
    }

    #[test]
    fn tighter_tolerance_takes_more_iterations() {
        let loose = Jacobi {
            tolerance: 50.0,
            ..Jacobi::small()
        };
        let tight = Jacobi {
            tolerance: 0.5,
            ..Jacobi::small()
        };
        let ((i_loose, ..), _, _) = execute(
            SystemKind::LcmMcc,
            MachineConfig::new(4),
            RuntimeConfig::default(),
            &loose,
        );
        let ((i_tight, ..), _, _) = execute(
            SystemKind::LcmMcc,
            MachineConfig::new(4),
            RuntimeConfig::default(),
            &tight,
        );
        assert!(i_tight > i_loose, "{i_tight} vs {i_loose}");
    }

    #[test]
    fn solution_approaches_the_linear_profile() {
        // Laplace on a square with these boundary conditions has the
        // linear interpolant as its exact solution; after convergence the
        // mesh center must sit near the boundary profile's midpoint.
        let w = Jacobi {
            size: 12,
            tolerance: 0.01,
            max_iters: 2000,
        };
        let mem = lcm_core::Lcm::new(lcm_sim::MachineConfig::new(4), lcm_core::LcmVariant::Scc);
        let mut rt = Runtime::new(mem, lcm_cstar::Strategy::LcmDirectives);
        let n = w.size;
        let m = rt.new_aggregate2::<f32>(n, n, Placement::Blocked, "mesh");
        rt.init2(m, |r, c| {
            if r == 0 || r + 1 == n || c == 0 || c + 1 == n {
                100.0 * (1.0 - c as f32 / (n - 1) as f32)
            } else {
                0.0
            }
        });
        for _ in 0..500 {
            rt.apply2(m, Partition::Static, |inv, r, c| {
                if r > 0 && r + 1 < n && c > 0 && c + 1 < n {
                    let avg = 0.25
                        * (inv.get(m.at(r - 1, c))
                            + inv.get(m.at(r + 1, c))
                            + inv.get(m.at(r, c - 1))
                            + inv.get(m.at(r, c + 1)));
                    inv.set(m.at(r, c), avg);
                }
            });
        }
        let center = rt.peek2(m, n / 2, n / 2);
        let expect = 100.0 * (1.0 - (n / 2) as f32 / (n - 1) as f32);
        assert!(
            (center - expect).abs() < 1.0,
            "center {center} vs linear profile {expect}"
        );
    }
}
