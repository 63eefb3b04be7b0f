//! The backend-equivalence contract of the pluggable directory
//! representations (DESIGN.md §4i).
//!
//! Three layers of pinning, from unit to full machine:
//!
//! 1. **Model equivalence** — `SharerSet` (the simulator's exact
//!    membership oracle) against a `BTreeSet<u16>` reference model
//!    under random operation sequences, and `Directory::inval_targets`
//!    against the representation semantics: targets are always a
//!    superset of the true sharers, full-map is exact, limited-pointer
//!    broadcasts once overflowed, coarse-vector covers group footprints.
//! 2. **Full-run bit-identity** — at ≤64 nodes the default backend
//!    parameters re-spend the old one-`u64` budget, so limited-pointer
//!    and coarse-vector runs must be *bit-identical* to the full-map
//!    oracle: same digest, same clocks, same ledger. Checked on the
//!    Fig-3 benchmarks at 16/32/64 nodes across all three systems.
//! 3. **Kilonode determinism and conservation** — past the old wall the
//!    backends legitimately diverge from full-map, but each must stay
//!    deterministic across worker counts (jobs 1 vs 8 at 256 and 1024
//!    nodes) and conservation-clean (per-node ledger sums equal the
//!    node clocks; the harvest sanitizer inside every run enforces the
//!    coherence invariants).

use std::collections::BTreeSet;

use lcm::apps::experiments::Benchmark;
use lcm::apps::scale_sweep::{run_scale_point, sweep_scale};
use lcm::apps::SystemKind;
use lcm::sim::mem::BlockId;
use lcm::sim::profile::CycleCat;
use lcm::sim::{DirBackend, NodeId};
use lcm::stache::{DirState, Directory, SharerSet, MAX_NODES};
use proptest::prelude::*;

/// One mutation of a sharer set, drawn by proptest.
#[derive(Clone, Debug)]
enum Op {
    Add(u16),
    Remove(u16),
    UnionSingle(u16),
    DifferenceSingle(u16),
}

fn op_strategy(nodes: u16) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..nodes).prop_map(Op::Add),
        (0..nodes).prop_map(Op::Remove),
        (0..nodes).prop_map(Op::UnionSingle),
        (0..nodes).prop_map(Op::DifferenceSingle),
    ]
}

fn apply(set: &mut SharerSet, model: &mut BTreeSet<u16>, op: &Op) {
    match *op {
        Op::Add(n) => {
            set.add(NodeId(n));
            model.insert(n);
        }
        Op::Remove(n) => {
            set.remove(NodeId(n));
            model.remove(&n);
        }
        Op::UnionSingle(n) => {
            *set = set.union(SharerSet::single(NodeId(n)));
            model.insert(n);
        }
        Op::DifferenceSingle(n) => {
            *set = set.difference(SharerSet::single(NodeId(n)));
            model.remove(&n);
        }
    }
}

proptest! {
    /// `SharerSet` agrees with a `BTreeSet<u16>` model after any
    /// operation sequence, across the whole multi-word range — count,
    /// membership, emptiness, and ascending iteration order.
    #[test]
    fn sharer_set_matches_btreeset_model(
        ops in proptest::collection::vec(op_strategy(MAX_NODES as u16), 1..200),
    ) {
        let mut set = SharerSet::empty();
        let mut model = BTreeSet::new();
        for op in &ops {
            apply(&mut set, &mut model, op);
            prop_assert_eq!(set.count() as usize, model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
        }
        let via_iter: Vec<u16> = set.iter().map(|n| n.0).collect();
        let via_model: Vec<u16> = model.iter().copied().collect();
        prop_assert_eq!(via_iter, via_model);
        for n in 0..MAX_NODES as u16 {
            prop_assert_eq!(set.contains(NodeId(n)), model.contains(&n));
        }
    }

    /// The representation contract of `Directory::inval_targets`, with
    /// deliberately tiny capacities so overflow is easy to hit:
    ///
    /// * every backend's targets ⊇ the true sharers (no lost copy);
    /// * full-map is exact;
    /// * limited-pointer either is exact (within capacity, never
    ///   overflowed) or broadcasts to the whole machine;
    /// * coarse-vector covers exactly the sharers' group footprint.
    #[test]
    fn inval_targets_respect_backend_semantics(
        nodes in 2usize..128,
        ptrs in 1u16..8,
        bits in 1u16..8,
        raw in proptest::collection::vec(0u16..128, 0..32),
    ) {
        let members: BTreeSet<u16> = raw.iter().copied().filter(|&n| (n as usize) < nodes).collect();
        let mut sharers = SharerSet::empty();
        for &n in &members {
            sharers.add(NodeId(n));
        }
        let backends = [
            DirBackend::FullMap,
            DirBackend::LimitedPtr { ptrs },
            DirBackend::CoarseVec { bits },
        ];
        let block = BlockId(7);
        for backend in backends {
            let mut dir = Directory::with_backend(backend, nodes);
            if sharers.is_empty() {
                continue;
            }
            let overflowed = dir.set(block, DirState::Shared(sharers));
            let targets = dir.inval_targets(block);
            // Never a lost copy: targets cover the true sharers.
            prop_assert!(sharers.difference(targets).is_empty(), "{backend:?} lost a sharer");
            match backend {
                DirBackend::FullMap => {
                    prop_assert_eq!(targets, sharers);
                    prop_assert!(!overflowed);
                }
                DirBackend::LimitedPtr { ptrs } => {
                    if sharers.count() <= u32::from(ptrs) {
                        prop_assert_eq!(targets, sharers);
                        prop_assert!(!overflowed);
                    } else {
                        prop_assert!(overflowed);
                        prop_assert!(dir.is_overflowed(block));
                        prop_assert_eq!(targets, SharerSet::all_below(nodes));
                    }
                }
                DirBackend::CoarseVec { bits } => {
                    let group = nodes.div_ceil(usize::from(bits));
                    let mut expect = SharerSet::empty();
                    for s in sharers.iter() {
                        let base = (usize::from(s.0) / group) * group;
                        for n in base..(base + group).min(nodes) {
                            expect.add(NodeId(n as u16));
                        }
                    }
                    prop_assert_eq!(targets, expect);
                    prop_assert!(!overflowed);
                }
            }
            // Rebuilding the entry from Idle clears overflow stickiness.
            dir.set(block, DirState::Idle);
            prop_assert!(!dir.is_overflowed(block));
        }
    }
}

/// The Fig-3 benchmarks as run by the scale sweep. `scale_benchmarks`
/// covers the paper's Figure-3 set (Adaptive-dyn, Threshold,
/// Unstructured) plus both Stencil partitions.
fn fig3_like() -> [Benchmark; 3] {
    [
        Benchmark::AdaptiveDyn,
        Benchmark::Threshold,
        Benchmark::Unstructured,
    ]
}

/// Below the old 64-node wall the three backends are *bit-identical*:
/// the defaults (64 pointers, 64 group bits) re-spend the old one-word
/// budget, so no entry can overflow and every group is a single node.
/// Full-map is the oracle; the other two must match digest, clocks,
/// and ledger exactly.
#[test]
fn backends_are_bit_identical_to_full_map_oracle_up_to_64_nodes() {
    for b in fig3_like() {
        for nodes in [16, 32, 64] {
            for system in SystemKind::all() {
                let oracle = run_scale_point(b, nodes, DirBackend::FullMap, system);
                for backend in [
                    DirBackend::LimitedPtr { ptrs: 64 },
                    DirBackend::CoarseVec { bits: 64 },
                ] {
                    let run = run_scale_point(b, nodes, backend, system);
                    let ctx = format!(
                        "{}/{}/{} at {nodes} nodes",
                        b.label(),
                        system.label(),
                        backend.label()
                    );
                    assert_eq!(oracle.digest(), run.digest(), "{ctx}: digest diverged");
                    assert_eq!(oracle.clocks, run.clocks, "{ctx}: clocks diverged");
                    assert_eq!(oracle.ledger, run.ledger, "{ctx}: ledger diverged");
                    assert_eq!(
                        run.totals.dir_overflows, 0,
                        "{ctx}: overflowed below the wall"
                    );
                    assert_eq!(
                        run.totals.spurious_invals, 0,
                        "{ctx}: spurious below the wall"
                    );
                }
            }
        }
    }
}

/// Past the wall the backends diverge from full-map, but every grid
/// point must stay byte-deterministic across worker counts.
#[test]
fn kilonode_sweep_is_deterministic_across_worker_counts() {
    for nodes in [256usize, 1024] {
        let serial = sweep_scale(&[nodes], 1).expect("healthy grid");
        let pooled = sweep_scale(&[nodes], 8).expect("healthy grid");
        assert_eq!(serial.len(), pooled.len());
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.benchmark, b.benchmark);
            assert_eq!(a.system, b.system);
            assert_eq!(a.backend, b.backend);
            assert_eq!(
                a.result.digest(),
                b.result.digest(),
                "{}/{}/{} at {nodes} nodes: jobs=1 vs jobs=8 diverged",
                a.benchmark.label(),
                a.result.system.label(),
                a.backend.label(),
            );
        }
    }
}

/// A 1024-node machine completes on all three memory systems with
/// cycle conservation intact: each node's ledger categories sum to its
/// clock, under the backend that actually broadcasts (limited-pointer)
/// so the spurious-invalidation charges are part of the balance.
#[test]
fn kilonode_runs_conserve_cycles_on_all_systems() {
    for system in SystemKind::all() {
        let r = run_scale_point(
            Benchmark::Unstructured,
            1024,
            DirBackend::LimitedPtr { ptrs: 64 },
            system,
        );
        assert_eq!(r.clocks.len(), 1024);
        for (n, &clock) in r.clocks.iter().enumerate() {
            let charged: u64 = CycleCat::all()
                .iter()
                .map(|&cat| r.ledger.get(NodeId(n as u16), cat))
                .sum();
            assert_eq!(
                charged,
                clock,
                "{}: node {n} ledger does not balance its clock",
                r.system.label()
            );
        }
    }
}

/// The acceptance-criteria story in one assertion: at 1024 nodes the
/// limited-pointer backend has overflowed and paid for it (visible in
/// the ledger's message-overhead column), while the same program under
/// LCM-mcc keeps its marked blocks out of the directory and overflows
/// far less.
#[test]
fn overflow_costs_are_visible_in_the_ledger_past_the_wall() {
    let full = run_scale_point(
        Benchmark::Unstructured,
        256,
        DirBackend::FullMap,
        SystemKind::Stache,
    );
    let limited = run_scale_point(
        Benchmark::Unstructured,
        256,
        DirBackend::LimitedPtr { ptrs: 64 },
        SystemKind::Stache,
    );
    assert!(limited.totals.dir_overflows > 0, "no overflow at 256 nodes");
    assert!(
        limited.totals.spurious_invals > 0,
        "no spurious invals at 256 nodes"
    );
    assert_eq!(full.totals.dir_overflows, 0);
    assert_eq!(full.totals.spurious_invals, 0);
    let overhead = |r: &lcm::apps::RunResult| -> u64 {
        (0..256)
            .map(|n| r.ledger.get(NodeId(n), CycleCat::MsgOverhead))
            .sum()
    };
    assert!(
        overhead(&limited) > overhead(&full),
        "broadcast invalidations did not show up as message overhead"
    );
    let mcc = run_scale_point(
        Benchmark::Unstructured,
        256,
        DirBackend::LimitedPtr { ptrs: 64 },
        SystemKind::LcmMcc,
    );
    assert!(
        mcc.totals.dir_overflows < limited.totals.dir_overflows,
        "LCM-mcc should keep marked blocks out of the directory"
    );
}
