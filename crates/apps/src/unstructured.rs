//! **Unstructured** (paper §6.3): relaxation over an unstructured mesh.
//!
//! A random graph (paper: 256 nodes, 1024 edges, 512 iterations) is built
//! and statically partitioned; each iteration every graph node relaxes
//! toward the average of its neighbors' previous values. The irregular
//! structure gives the program little locality: many edges cross
//! processors, causing communication under Stache as well as LCM, but
//! LCM avoids the ownership ping-pong on blocks whose eight node-values
//! straddle a partition boundary and is 19–28% faster in the paper.

use crate::common::Workload;
use lcm_cstar::{Partition, Runtime};
use lcm_rsm::MemoryProtocol;
use lcm_sim::Pcg32;
use lcm_tempest::Placement;

/// The Unstructured benchmark.
#[derive(Copy, Clone, Debug)]
pub struct Unstructured {
    /// Graph nodes (paper: 256).
    pub nodes: usize,
    /// Undirected edges (paper: 1024).
    pub edges: usize,
    /// Relaxation iterations (paper: 512).
    pub iters: usize,
    /// Graph-generation seed.
    pub seed: u64,
}

impl Unstructured {
    /// The paper's configuration.
    pub fn paper() -> Unstructured {
        Unstructured {
            nodes: 256,
            edges: 1024,
            iters: 512,
            seed: 42,
        }
    }

    /// A scaled-down configuration for tests.
    pub fn small() -> Unstructured {
        Unstructured {
            nodes: 64,
            edges: 192,
            iters: 10,
            seed: 42,
        }
    }

    /// Builds the CSR adjacency of a deterministic random multigraph.
    fn build_graph(&self) -> (Vec<u32>, Vec<u32>) {
        let mut rng = Pcg32::new(self.seed, 7);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); self.nodes];
        for _ in 0..self.edges {
            let a = rng.below(self.nodes as u64) as usize;
            let mut b = rng.below(self.nodes as u64) as usize;
            if a == b {
                b = (b + 1) % self.nodes;
            }
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        }
        let mut offsets = Vec::with_capacity(self.nodes + 1);
        let mut neighbors = Vec::new();
        offsets.push(0u32);
        for list in &adj {
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len() as u32);
        }
        (offsets, neighbors)
    }
}

impl Workload for Unstructured {
    /// Checksum of the final node values.
    type Output = u64;

    fn run<P: MemoryProtocol>(&self, rt: &mut Runtime<P>) -> u64 {
        let (offsets, neighbors) = self.build_graph();
        // Graph nodes were allocated in construction order, which an
        // unstructured mesh's partitioner does not control: the memory
        // layout of node values is uncorrelated with the computation
        // partition. Model that with a deterministic permutation — this
        // is what gives the benchmark its "little locality" and its
        // cross-processor value blocks.
        let mut slot_of: Vec<u32> = (0..self.nodes as u32).collect();
        Pcg32::new(self.seed, 11).shuffle(&mut slot_of);
        // The graph structure lives in shared memory too: index loads are
        // real protocol accesses, as in the paper's pointer-based mesh.
        let offs = rt.new_aggregate1::<u32>(offsets.len(), Placement::Blocked, "offsets");
        let neigh =
            rt.new_aggregate1::<u32>(neighbors.len().max(1), Placement::Blocked, "neighbors");
        let vals = rt.new_aggregate1::<f32>(self.nodes, Placement::Blocked, "values");
        rt.init1(offs, |i| offsets[i]);
        rt.init1(neigh, |i| neighbors.get(i).copied().unwrap_or(0));
        let init_slot = slot_of.clone();
        rt.init1(vals, move |slot| {
            let g = init_slot.iter().position(|&s| s as usize == slot).unwrap();
            (g % 17) as f32
        });

        let work = rt.new_aggregate1::<u32>(self.nodes, Placement::Blocked, "work");
        for _ in 0..self.iters {
            rt.apply1(work, Partition::Static, |inv, g| {
                let me = slot_of[g] as usize;
                let v = inv.get(vals.at(me));
                let start = inv.get(offs.at(g)) as usize;
                let end = inv.get(offs.at(g + 1)) as usize;
                if start == end {
                    // Isolated node: all nodes are updated every iteration,
                    // so the copying strategy needs no separate copy phase.
                    inv.set(vals.at(me), v);
                    return;
                }
                let mut sum = 0.0;
                for e in start..end {
                    let j = inv.get(neigh.at(e)) as usize;
                    sum += inv.get(vals.at(slot_of[j] as usize));
                }
                let avg = sum / (end - start) as f32;
                inv.set(vals.at(me), 0.5 * v + 0.5 * avg);
            });
        }

        let mut checksum = 0u64;
        for &slot in slot_of.iter() {
            checksum = checksum
                .wrapping_mul(31)
                .wrapping_add(rt.peek1(vals, slot as usize).to_bits() as u64);
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
    fn all_systems_agree() {
        execute_all(4, RuntimeConfig::default(), &Unstructured::small());
    }

    #[test]
    fn graph_is_deterministic_and_symmetric() {
        let w = Unstructured::small();
        let (o1, n1) = w.build_graph();
        let (o2, n2) = w.build_graph();
        assert_eq!((&o1, &n1), (&o2, &n2));
        // Degree sum = 2 * edges.
        assert_eq!(n1.len(), 2 * w.edges);
        assert_eq!(*o1.last().unwrap() as usize, n1.len());
    }

    #[test]
    fn values_relax_toward_neighborhood_average() {
        let w = Unstructured {
            iters: 200,
            ..Unstructured::small()
        };
        let (checksum_long, _, _) = execute(
            SystemKind::LcmMcc,
            MachineConfig::new(4),
            RuntimeConfig::default(),
            &w,
        );
        // After long relaxation the values converge: the run is stable and
        // deterministic (same checksum when repeated).
        let (checksum_again, _, _) = execute(
            SystemKind::LcmMcc,
            MachineConfig::new(4),
            RuntimeConfig::default(),
            &w,
        );
        assert_eq!(checksum_long, checksum_again);
    }

    #[test]
    fn lcm_is_faster_on_irregular_sharing() {
        // Paper: LCM beats Stache by 19–28% on Unstructured because of
        // cross-processor blocks in the value array.
        // Needs the paper's graph size: with fewer nodes per processor the
        // per-phase fixed costs dominate and the systems converge.
        let cfg = RuntimeConfig::default();
        let w = Unstructured {
            nodes: 256,
            edges: 1024,
            iters: 20,
            seed: 42,
        };
        let mcc = execute(SystemKind::LcmMcc, MachineConfig::new(16), cfg, &w).1;
        let stache = execute(SystemKind::Stache, MachineConfig::new(16), cfg, &w).1;
        assert!(
            stache.time > mcc.time,
            "Stache {} vs LCM-mcc {}",
            stache.time,
            mcc.time
        );
    }
}
