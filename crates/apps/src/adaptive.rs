//! **Adaptive** (paper §6.2, §6.3): a stencil over a time-varying
//! adaptive mesh.
//!
//! The program computes electric potentials in a box: a mesh is imposed
//! over the box, each point averages its four neighbors, and where the
//! gradient is steep a cell subdivides into four child cells, captured by
//! dynamically-grown quad-trees (to a maximum depth of 4). Because the
//! mesh changes dynamically, a compiler cannot determine which parts will
//! be modified: without LCM the generated code conservatively copies the
//! entire quad-tree structure between iterations, while LCM's fine-grain
//! copy-on-write copies only what is actually modified.
//!
//! The paper measures 100 iterations on an initial 64×64 mesh. Our
//! quad-tree children relax toward their parent cell's potential, which
//! preserves the memory behavior that drives the result (pointer-chased,
//! sparsely-updated, dynamically-allocated structure) without reproducing
//! the original solver's exact physics — see `DESIGN.md`.

use crate::common::Workload;
use lcm_cstar::{Agg1, Agg2, Invocation, Partition, Runtime};
use lcm_rsm::MemoryProtocol;
use lcm_tempest::Placement;

/// The Adaptive benchmark.
#[derive(Copy, Clone, Debug)]
pub struct Adaptive {
    /// Base mesh side (paper: 64).
    pub size: usize,
    /// Iterations (paper: 100).
    pub iters: usize,
    /// Maximum quad-tree depth below the base mesh (paper: 4).
    pub max_depth: usize,
    /// Gradient threshold that triggers subdivision.
    pub subdivide_above: f32,
    /// Schedule (the paper measures static and dynamic versions).
    pub partition: Partition,
}

impl Adaptive {
    /// The paper's configuration at the given schedule.
    pub fn paper(partition: Partition) -> Adaptive {
        Adaptive {
            size: 64,
            iters: 100,
            max_depth: 4,
            subdivide_above: 2.0,
            partition,
        }
    }

    /// A scaled-down configuration for tests.
    pub fn small(partition: Partition) -> Adaptive {
        Adaptive {
            size: 16,
            iters: 8,
            max_depth: 2,
            subdivide_above: 2.0,
            partition,
        }
    }

    fn pool_capacity(&self) -> usize {
        // Enough quad nodes for heavy refinement without unbounded growth.
        (self.size * self.size).max(64)
    }
}

/// Handles to the mesh's aggregates (all in simulated global memory).
#[derive(Copy, Clone)]
struct Mesh {
    /// Base potentials.
    base: Agg2<f32>,
    /// Pool index of each base cell's subtree root (0 = unrefined).
    root: Agg2<u32>,
    /// Four child potentials per pool node.
    vals: Agg1<f32>,
    /// Four child subtree indices per pool node (0 = leaf).
    kids: Agg1<u32>,
}

/// Copies one quad subtree into the new version (explicit-copying
/// strategy only): every reachable child value and link is carried over.
fn copy_subtree<P: MemoryProtocol>(inv: &mut Invocation<'_, P>, mesh: &Mesh, node: u32) {
    for q in 0..4 {
        let slot = node as usize * 4 + q;
        let v = inv.get(mesh.vals.at(slot));
        inv.set(mesh.vals.at(slot), v);
        let kid = inv.get(mesh.kids.at(slot));
        inv.set(mesh.kids.at(slot), kid);
        if kid != 0 {
            copy_subtree(inv, mesh, kid);
        }
    }
}

/// Relaxes one quad node's children toward `parent`, subdividing further
/// where the local gradient stays steep. Returns nothing; allocation is
/// threaded through `next_free`.
#[allow(clippy::too_many_arguments)] // the recursion threads the whole walk state
fn relax_subtree<P: MemoryProtocol>(
    inv: &mut Invocation<'_, P>,
    mesh: &Mesh,
    node: u32,
    parent: f32,
    depth: usize,
    cfg: &Adaptive,
    next_free: &mut usize,
    pool_cap: usize,
) {
    for q in 0..4 {
        let slot = node as usize * 4 + q;
        let cv = inv.get(mesh.vals.at(slot));
        let relaxed = 0.5 * (cv + parent);
        inv.set(mesh.vals.at(slot), relaxed);
        let kid = inv.get(mesh.kids.at(slot));
        if kid != 0 {
            relax_subtree(inv, mesh, kid, relaxed, depth + 1, cfg, next_free, pool_cap);
        } else if depth < cfg.max_depth
            && (cv - parent).abs() > cfg.subdivide_above
            && *next_free < pool_cap
        {
            let idx = *next_free as u32;
            *next_free += 1;
            inv.set(mesh.kids.at(slot), idx);
            for cq in 0..4 {
                inv.set(mesh.vals.at(idx as usize * 4 + cq), relaxed);
            }
        }
    }
}

impl Workload for Adaptive {
    /// (checksum of base + pool values, number of quad nodes allocated).
    type Output = (u64, usize);

    fn run<P: MemoryProtocol>(&self, rt: &mut Runtime<P>) -> (u64, usize) {
        let n = self.size;
        let cap = self.pool_capacity();
        let mesh = Mesh {
            base: rt.new_aggregate2::<f32>(n, n, Placement::Blocked, "base"),
            root: rt.new_aggregate2::<u32>(n, n, Placement::Blocked, "root"),
            vals: rt.new_aggregate1::<f32>(cap * 4, Placement::Blocked, "pool.vals"),
            kids: rt.new_aggregate1::<u32>(cap * 4, Placement::Blocked, "pool.kids"),
        };
        // A hot edge against a cold box, like the stencil.
        rt.init2(mesh.base, |r, _| if r == 0 { 100.0 } else { 0.0 });
        rt.init2(mesh.root, |_, _| 0u32);
        rt.init1(mesh.vals, |_| 0.0f32);
        rt.init1(mesh.kids, |_| 0u32);

        let mut next_free = 1usize; // index 0 is the null subtree
        let copying = rt.strategy() == lcm_cstar::Strategy::ExplicitCopy;
        for _ in 0..self.iters {
            if copying {
                // Conservative whole-mesh copy: a compiler that cannot
                // tell which parts of the dynamic mesh will change must
                // carry all of it into the new version (paper §6.2). Each
                // processor copies its own cells' quad-trees by walking
                // them, as the hand-written double-buffered code does.
                rt.apply2(mesh.root, self.partition, |inv, r, c| {
                    let root = inv.get(mesh.root.at(r, c));
                    inv.set(mesh.root.at(r, c), root);
                    if root != 0 {
                        copy_subtree(inv, &mesh, root);
                    }
                });
            }
            let cfg = *self;
            rt.apply2(mesh.base, self.partition, |inv, r, c| {
                let v = inv.get(mesh.base.at(r, c));
                if r > 0 && r + 1 < n && c > 0 && c + 1 < n {
                    let avg = 0.25
                        * (inv.get(mesh.base.at(r - 1, c))
                            + inv.get(mesh.base.at(r + 1, c))
                            + inv.get(mesh.base.at(r, c - 1))
                            + inv.get(mesh.base.at(r, c + 1)));
                    inv.set(mesh.base.at(r, c), avg);
                    let root = inv.get(mesh.root.at(r, c));
                    if root != 0 {
                        relax_subtree(inv, &mesh, root, avg, 1, &cfg, &mut next_free, cap);
                    } else if (avg - v).abs() > cfg.subdivide_above && next_free < cap {
                        // Steep gradient: subdivide this cell.
                        let idx = next_free as u32;
                        next_free += 1;
                        inv.set(mesh.root.at(r, c), idx);
                        for q in 0..4 {
                            inv.set(mesh.vals.at(idx as usize * 4 + q), avg);
                        }
                    }
                } else {
                    inv.copy_through(mesh.base.at(r, c), v);
                }
            });
        }

        let mut checksum = 0u64;
        for r in 0..n {
            for c in 0..n {
                checksum = checksum
                    .wrapping_mul(31)
                    .wrapping_add(rt.peek2(mesh.base, r, c).to_bits() as u64);
                checksum = checksum
                    .wrapping_mul(31)
                    .wrapping_add(rt.peek2(mesh.root, r, c) as u64);
            }
        }
        for i in 0..next_free * 4 {
            checksum = checksum
                .wrapping_mul(31)
                .wrapping_add(rt.peek1(mesh.vals, i).to_bits() as u64);
            checksum = checksum
                .wrapping_mul(31)
                .wrapping_add(rt.peek1(mesh.kids, i) as u64);
        }
        (checksum, next_free - 1)
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
            &Adaptive::small(Partition::Static),
        );
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn all_systems_agree_dynamic() {
        execute_all(
            4,
            RuntimeConfig::default(),
            &Adaptive::small(Partition::Dynamic),
        );
    }

    #[test]
    fn mesh_actually_refines() {
        let ((_, allocated), _, _) = execute(
            SystemKind::LcmMcc,
            MachineConfig::new(4),
            RuntimeConfig::default(),
            &Adaptive::small(Partition::Static),
        );
        assert!(allocated > 0, "the hot edge should trigger subdivisions");
    }

    #[test]
    fn deeper_refinement_with_more_iterations() {
        let w1 = Adaptive {
            iters: 2,
            ..Adaptive::small(Partition::Static)
        };
        let w2 = Adaptive {
            iters: 12,
            ..Adaptive::small(Partition::Static)
        };
        let ((_, a1), _, _) = execute(
            SystemKind::LcmMcc,
            MachineConfig::new(4),
            RuntimeConfig::default(),
            &w1,
        );
        let ((_, a2), _, _) = execute(
            SystemKind::LcmMcc,
            MachineConfig::new(4),
            RuntimeConfig::default(),
            &w2,
        );
        assert!(a2 >= a1, "refinement should not shrink: {a1} -> {a2}");
    }

    #[test]
    fn lcm_dyn_beats_stache_dyn() {
        // The paper's headline: with dynamic scheduling, Adaptive under
        // LCM-mcc is almost 2x faster than under Stache, because Stache
        // must copy the whole dynamic structure every iteration.
        let cfg = RuntimeConfig::default();
        let w = Adaptive::small(Partition::Dynamic);
        let mcc = execute(SystemKind::LcmMcc, MachineConfig::new(4), cfg, &w).1;
        let stache = execute(SystemKind::Stache, MachineConfig::new(4), cfg, &w).1;
        assert!(
            stache.time > mcc.time,
            "Stache {} should be slower than LCM-mcc {}",
            stache.time,
            mcc.time
        );
    }
}
