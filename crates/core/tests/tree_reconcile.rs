//! Semantics tests for the tree-reconciliation gather rewrite.
//!
//! `Lcm::tree_combine_reductions` used to bucket contributions in a
//! per-call `BTreeMap<BlockId, Vec<(NodeId, PrivCopy)>>`; it now gathers
//! `(block, node, copy)` triples into a reusable stable-sorted scratch
//! buffer. The observable contract is unchanged: blocks combine in
//! ascending block order, each block's contributions in node order, and
//! the merged state is identical to direct (non-tree) reconciliation.
//! These tests pin that contract for empty, single-writer, multi-writer
//! and interleaved-block shapes.

use lcm_core::{Lcm, LcmVariant};
use lcm_rsm::{MemoryProtocol, MergePolicy, ReduceOp};
use lcm_sim::mem::Addr;
use lcm_sim::{MachineConfig, NodeId};
use lcm_tempest::Placement;

const NODES: usize = 8;
const BLOCK: u64 = 32;

/// An LCM-mcc system with one page registered as an i32-sum reduction
/// region, tree reconciliation on or off.
fn reduction_system(tree: bool) -> (Lcm, Addr) {
    let mut m = Lcm::new(MachineConfig::new(NODES), LcmVariant::Mcc);
    m.set_tree_reconcile(tree);
    let a = m.tempest_mut().alloc(4096, Placement::Interleaved, "acc");
    m.register_cow_region(a, 4096, MergePolicy::Reduce(ReduceOp::SumI32));
    (m, a)
}

/// Runs `contribute` inside a phase on both a tree-reconciling and a
/// direct system, reconciles, and returns both for comparison.
fn run_both(contribute: impl Fn(&mut Lcm, Addr)) -> (Lcm, Lcm, Addr) {
    let (mut tree, a) = reduction_system(true);
    let (mut direct, a2) = reduction_system(false);
    assert_eq!(a, a2, "identical allocation layout");
    for m in [&mut tree, &mut direct] {
        m.begin_parallel_phase();
        contribute(m, a);
        m.reconcile_copies();
    }
    (tree, direct, a)
}

fn read_i32(m: &mut Lcm, addr: Addr) -> i32 {
    m.read_word(NodeId(0), addr) as i32
}

#[test]
fn empty_writer_set_is_a_no_op() {
    let (mut tree, mut direct, a) = run_both(|_, _| {});
    assert_eq!(read_i32(&mut tree, a), read_i32(&mut direct, a));
    for m in [&tree, &direct] {
        m.sanity_check().expect("phase state fully drained");
        assert_eq!(m.live_cow_entries(), 0);
        let home = m.tempest().home_of(a.block());
        assert_eq!(
            m.tempest().machine.stats(home).versions_reconciled,
            0,
            "nothing contributed, nothing merged"
        );
    }
}

#[test]
fn single_writer_matches_direct_reconciliation() {
    let (mut tree, mut direct, a) = run_both(|m, a| {
        m.reduce(NodeId(3), a, ReduceOp::SumI32, 41_i32 as u32 as u64);
    });
    let t = read_i32(&mut tree, a);
    let d = read_i32(&mut direct, a);
    assert_eq!(t, d, "one contribution: tree is just a direct flush");
    assert_eq!(t, 41);
    for m in [&tree, &direct] {
        m.sanity_check().expect("invariants hold");
        m.tempest()
            .machine
            .verify_ledger()
            .expect("cycles conserve");
        let home = m.tempest().home_of(a.block());
        assert_eq!(m.tempest().machine.stats(home).versions_reconciled, 1);
    }
}

#[test]
fn multi_writer_same_block_combines_all_contributions() {
    let (mut tree, mut direct, a) = run_both(|m, a| {
        for n in 0..NODES {
            m.reduce(NodeId(n as u16), a, ReduceOp::SumI32, (n as u32 + 1) as u64);
        }
    });
    let expected: i32 = (1..=NODES as i32).sum();
    let t = read_i32(&mut tree, a);
    assert_eq!(t, read_i32(&mut direct, a), "tree == direct merged value");
    assert_eq!(t, expected);
    // The tree ships the home a single pre-merged version (plus whatever
    // internal combines land on it as a contributor: log2(n) when it is
    // the tree root); direct reconciliation makes the home merge one
    // version per contributor. Total versions merged machine-wide is the
    // same either way: n-1 internal + 1 at the home vs n at the home.
    let home = tree.tempest().home_of(a.block());
    assert_eq!(
        direct.tempest().machine.stats(home).versions_reconciled,
        NODES as u64
    );
    assert!(
        tree.tempest().machine.stats(home).versions_reconciled
            < direct.tempest().machine.stats(home).versions_reconciled,
        "the tree relieves the home bottleneck"
    );
    for m in [&tree, &direct] {
        let total: u64 = m
            .tempest()
            .machine
            .node_ids()
            .map(|n| m.tempest().machine.stats(n).versions_reconciled)
            .sum();
        assert_eq!(total, NODES as u64);
        m.sanity_check().expect("invariants hold");
        m.tempest()
            .machine
            .verify_ledger()
            .expect("cycles conserve");
    }
}

#[test]
fn interleaved_blocks_merge_in_block_then_node_order() {
    // Contributions land on three blocks in deliberately scrambled
    // (node, block) order; the gather must still merge each block's
    // versions in node order, ascending by block — the BTreeMap
    // iteration the scratch sort reproduces.
    let offsets = [2 * BLOCK, 0, 5 * BLOCK];
    let (mut tree, mut direct, a) = run_both(|m, a| {
        for n in (0..NODES).rev() {
            for (i, &off) in offsets.iter().enumerate() {
                let v = (n as u32 * 10 + i as u32 + 1) as u64;
                m.reduce(NodeId(n as u16), a.offset(off), ReduceOp::SumI32, v);
            }
        }
    });
    for (i, &off) in offsets.iter().enumerate() {
        let expected: i32 = (0..NODES as i32).map(|n| n * 10 + i as i32 + 1).sum();
        let t = read_i32(&mut tree, a.offset(off));
        assert_eq!(
            t,
            read_i32(&mut direct, a.offset(off)),
            "block at +{off}: tree == direct"
        );
        assert_eq!(t, expected, "block at +{off}");
    }
    for m in [&tree, &direct] {
        m.sanity_check().expect("invariants hold");
        m.tempest()
            .machine
            .verify_ledger()
            .expect("cycles conserve");
        assert_eq!(m.live_cow_entries(), 0, "every entry reconciled away");
    }
}

#[test]
fn keep_one_blocks_are_left_for_the_normal_drain() {
    // A keep-one region interleaved with a reduction region: the gather
    // must skip keep-one private copies (their arrival order is
    // semantically visible) and both end up with identical global state.
    let (mut tree_m, ka) = reduction_system(true);
    let (mut direct_m, _) = reduction_system(false);
    let setup = |m: &mut Lcm| {
        let k = m.tempest_mut().alloc(4096, Placement::Interleaved, "keep");
        m.register_cow_region(k, 4096, MergePolicy::KeepOne);
        k
    };
    let kt = setup(&mut tree_m);
    let kd = setup(&mut direct_m);
    assert_eq!(kt, kd);
    for m in [&mut tree_m, &mut direct_m] {
        m.begin_parallel_phase();
        m.mark_modification(NodeId(2), kt);
        m.write_f32(NodeId(2), kt, 7.5);
        m.reduce(NodeId(1), ka, ReduceOp::SumI32, 5);
        m.reduce(NodeId(4), ka, ReduceOp::SumI32, 6);
        m.reconcile_copies();
    }
    for m in [&mut tree_m, &mut direct_m] {
        assert_eq!(m.read_f32(NodeId(0), kt), 7.5, "keep-one write survives");
        assert_eq!(m.read_word(NodeId(0), ka) as i32, 11, "reduction merged");
    }
    for m in [&tree_m, &direct_m] {
        m.sanity_check().expect("invariants hold");
    }
}

#[test]
fn repeated_phases_reuse_the_scratch_identically() {
    // Back-to-back phases through the same protocol instance: the scratch
    // buffer must come back empty each time and never leak state across
    // reconciles.
    let (mut m, a) = reduction_system(true);
    let mut expected = 0_i32;
    for round in 1..=4_i32 {
        m.begin_parallel_phase();
        for n in 0..NODES as i32 {
            m.reduce(
                NodeId(n as u16),
                a,
                ReduceOp::SumI32,
                (round * 100 + n) as u64,
            );
        }
        m.reconcile_copies();
        expected += (0..NODES as i32).map(|n| round * 100 + n).sum::<i32>();
        assert_eq!(m.read_word(NodeId(0), a) as i32, expected, "round {round}");
        m.sanity_check().expect("clean between phases");
    }
}

/// Runs one phase of `f32` reductions under `op` on every combination of
/// clean-copy variant and reconcile shape, and returns, per combination,
/// the bits of the first four words of the region afterwards. Word `w`
/// starts at `initial[w]`; node `n` contributes `contribution(n, w)` to
/// word `w` where that is `Some`.
fn f32_reduction_bits(
    op: ReduceOp,
    initial: [f32; 4],
    contribution: impl Fn(usize, usize) -> Option<f32>,
) -> Vec<(LcmVariant, bool, [u32; 4])> {
    let mut out = Vec::new();
    for variant in [LcmVariant::Scc, LcmVariant::Mcc] {
        for tree in [false, true] {
            let mut m = Lcm::new(MachineConfig::new(NODES), variant);
            m.set_tree_reconcile(tree);
            let a = m.tempest_mut().alloc(4096, Placement::Interleaved, "acc");
            m.register_cow_region(a, 4096, MergePolicy::Reduce(op));
            for (w, v) in initial.iter().enumerate() {
                m.write_f32(NodeId(0), a.offset(4 * w as u64), *v);
            }
            m.begin_parallel_phase();
            for n in 0..NODES {
                for w in 0..4 {
                    if let Some(v) = contribution(n, w) {
                        m.reduce_f32(NodeId(n as u16), a.offset(4 * w as u64), op, v);
                    }
                }
            }
            m.reconcile_copies();
            m.sanity_check().expect("invariants hold");
            let bits = std::array::from_fn(|w| m.read_word(NodeId(0), a.offset(4 * w as u64)));
            out.push((variant, tree, bits));
        }
    }
    out
}

#[test]
fn negative_zero_sum_contributions_pin_their_result_bits() {
    // Word 0: every node adds -0.0 to a -0.0 location. Word 1: the same
    // contributions onto +0.0. Word 2: one node adds -0.0 to 1.5. Word 3:
    // untouched; its -0.0 must survive the masked home install.
    let runs = f32_reduction_bits(ReduceOp::SumF32, [-0.0, 0.0, 1.5, -0.0], |n, w| match w {
        0 | 1 => Some(-0.0),
        2 if n == 3 => Some(-0.0),
        _ => None,
    });
    for (variant, tree, bits) in runs {
        assert_eq!(
            bits,
            [0x0000_0000, 0x0000_0000, 1.5f32.to_bits(), 0x8000_0000],
            "{variant:?} tree={tree}"
        );
    }
}

#[test]
fn nan_min_contributions_pin_their_result_bits() {
    // Word 0: node 0 contributes NaN, the others 1.5, 2.5, ... around
    // the initial 2.0. Word 1: NaN is the only contribution.
    // Word 2: a NaN location meets finite contributions. Word 3: untouched.
    let runs = f32_reduction_bits(ReduceOp::MinF32, [2.0, 2.0, f32::NAN, 7.0], |n, w| {
        match (w, n) {
            (0, 0) | (1, 5) => Some(f32::NAN),
            (0, _) => Some(n as f32 + 0.5),
            (2, _) => Some(4.0 + n as f32),
            _ => None,
        }
    });
    for (variant, tree, bits) in runs {
        assert_eq!(
            bits,
            [
                1.5f32.to_bits(),
                2.0f32.to_bits(),
                4.0f32.to_bits(),
                7.0f32.to_bits()
            ],
            "{variant:?} tree={tree}"
        );
    }
}
