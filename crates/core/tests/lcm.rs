//! Behavioral tests for the LCM protocol: C\*\* semantics, the scc/mcc
//! variants, reconciliation policies, conflict detection, and phase
//! hygiene.

use lcm_core::{Lcm, LcmVariant};
use lcm_rsm::{KeepOrder, MemoryProtocol, MergePolicy, ReduceOp};
use lcm_sim::mem::{Addr, BlockId, BLOCK_BYTES};
use lcm_sim::trace::Event;
use lcm_sim::{MachineConfig, NodeId};
use lcm_tempest::Placement;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);

/// A 4-node LCM system with one page of copy-on-write f32 data.
fn system(variant: LcmVariant) -> (Lcm, Addr) {
    let mut m = Lcm::new(MachineConfig::new(4), variant);
    let a = m.tempest_mut().alloc(4096, Placement::Interleaved, "data");
    m.register_cow_region(a, 4096, MergePolicy::KeepOne);
    (m, a)
}

#[test]
fn modifications_are_private_until_reconcile() {
    let (mut m, a) = system(LcmVariant::Mcc);
    m.write_f32(N0, a, 10.0); // pre-phase initialization, ordinary coherence
    m.begin_parallel_phase();
    m.mark_modification(N1, a);
    m.write_f32(N1, a, 99.0);
    assert_eq!(m.read_f32(N1, a), 99.0, "an invocation sees its own writes");
    assert_eq!(m.read_f32(N2, a), 10.0, "others see the clean value");
    assert_eq!(m.read_f32(N0, a), 10.0);
    m.reconcile_copies();
    for n in [N0, N1, N2] {
        assert_eq!(m.read_f32(n, a), 99.0, "reconciled value is global");
    }
}

#[test]
fn flush_hides_own_modifications_between_invocations() {
    let (mut m, a) = system(LcmVariant::Mcc);
    m.write_f32(N1, a, 1.0);
    m.begin_parallel_phase();
    m.mark_modification(N1, a);
    m.write_f32(N1, a, 2.0);
    m.flush_copies(N1);
    // A new invocation on the same processor must see the original state.
    assert_eq!(m.read_f32(N1, a), 1.0);
    m.reconcile_copies();
    assert_eq!(m.read_f32(N1, a), 2.0);
}

#[test]
fn scc_pays_a_miss_after_flush_mcc_does_not() {
    for (variant, expect_miss_growth) in [(LcmVariant::Scc, true), (LcmVariant::Mcc, false)] {
        let (mut m, a) = system(variant);
        m.begin_parallel_phase();
        m.mark_modification(N1, a);
        m.write_f32(N1, a, 2.0);
        m.flush_copies(N1);
        let before = m.tempest().machine.stats(N1).misses();
        m.read_f32(N1, a);
        let after = m.tempest().machine.stats(N1).misses();
        if expect_miss_growth {
            assert_eq!(after - before, 1, "scc refetches after a flush");
        } else {
            assert_eq!(after - before, 0, "mcc refills from the local clean copy");
        }
        m.reconcile_copies();
    }
}

#[test]
fn clean_copy_accounting_differs_by_variant() {
    // scc: one clean copy at the home. mcc: one at home + one per marker.
    let (mut m, a) = system(LcmVariant::Scc);
    m.begin_parallel_phase();
    m.mark_modification(N1, a);
    m.write_f32(N1, a, 1.0);
    m.reconcile_copies();
    assert_eq!(m.tempest().machine.total_stats().clean_copies, 1);

    let (mut m, a) = system(LcmVariant::Mcc);
    m.begin_parallel_phase();
    m.mark_modification(N1, a);
    m.write_f32(N1, a, 1.0);
    m.mark_modification(N2, a.offset(4));
    m.write_f32(N2, a.offset(4), 2.0);
    m.reconcile_copies();
    // home (1) + node1 (1) + node2 (1)
    assert_eq!(m.tempest().machine.total_stats().clean_copies, 3);
}

#[test]
fn disjoint_words_from_different_nodes_both_survive() {
    let (mut m, a) = system(LcmVariant::Mcc);
    m.begin_parallel_phase();
    m.mark_modification(N1, a);
    m.write_f32(N1, a, 11.0); // word 0
    m.mark_modification(N2, a.offset(4));
    m.write_f32(N2, a.offset(4), 22.0); // word 1, same block
    m.reconcile_copies();
    assert_eq!(m.read_f32(N0, a), 11.0);
    assert_eq!(m.read_f32(N0, a.offset(4)), 22.0);
}

#[test]
fn conflicting_words_keep_exactly_one_value() {
    let (mut m, a) = system(LcmVariant::Scc);
    m.begin_parallel_phase();
    m.mark_modification(N1, a);
    m.write_f32(N1, a, 1.0);
    m.mark_modification(N2, a);
    m.write_f32(N2, a, 2.0);
    m.reconcile_copies();
    let v = m.read_f32(N0, a);
    assert!(
        v == 1.0 || v == 2.0,
        "one of the written values survives, got {v}"
    );
    assert_eq!(m.tempest().machine.total_stats().ww_conflicts, 1);
}

#[test]
fn keep_order_controls_which_value_survives() {
    for (order, expect) in [
        (KeepOrder::FirstWins, 1.0f32),
        (KeepOrder::LastWins, 2.0f32),
    ] {
        let mut m = Lcm::new(MachineConfig::new(4), LcmVariant::Scc);
        let a = m.tempest_mut().alloc(4096, Placement::Interleaved, "d");
        m.register_cow_region(a, 4096, MergePolicy::KeepOneOrdered(order));
        m.begin_parallel_phase();
        m.mark_modification(N1, a);
        m.write_f32(N1, a, 1.0);
        m.flush_copies(N1); // arrives first
        m.mark_modification(N2, a);
        m.write_f32(N2, a, 2.0);
        m.reconcile_copies(); // N2's version arrives second
        assert_eq!(m.read_f32(N0, a), expect, "order {order:?}");
    }
}

#[test]
fn reduction_combines_contributions_with_initial_value() {
    let mut m = Lcm::new(MachineConfig::new(4), LcmVariant::Mcc);
    let a = m.tempest_mut().alloc(4096, Placement::OnNode(N0), "total");
    m.register_cow_region(a, 4096, MergePolicy::Reduce(ReduceOp::SumF64));
    m.write_f64(N0, a, 100.0); // initial value, pre-phase
    m.begin_parallel_phase();
    for n in [N0, N1, N2] {
        for i in 0..5 {
            m.reduce_f64(n, a, ReduceOp::SumF64, 1.0 + i as f64);
        }
        m.flush_copies(n);
    }
    m.reconcile_copies();
    // 100 + 3 nodes × (1+2+3+4+5)
    assert_eq!(m.read_f64(N1, a), 100.0 + 3.0 * 15.0);
    assert_eq!(m.tempest().machine.total_stats().ww_conflicts, 0);
}

#[test]
fn reduction_marks_do_not_fetch_data() {
    let mut m = Lcm::new(MachineConfig::new(4), LcmVariant::Scc);
    let a = m.tempest_mut().alloc(4096, Placement::OnNode(N0), "total");
    m.register_cow_region(a, 4096, MergePolicy::Reduce(ReduceOp::SumI32));
    m.write_i32(N0, a, 7);
    let miss_before = m.tempest().machine.stats(N2).misses();
    m.begin_parallel_phase();
    m.reduce_i32(N2, a, ReduceOp::SumI32, 3); // remote node, but no fetch
    assert_eq!(m.tempest().machine.stats(N2).misses(), miss_before);
    m.reconcile_copies();
    assert_eq!(m.read_i32(N0, a), 10);
}

#[test]
fn reduce_outside_phase_is_read_modify_write() {
    let mut m = Lcm::new(MachineConfig::new(2), LcmVariant::Mcc);
    let a = m.tempest_mut().alloc(4096, Placement::OnNode(N0), "t");
    m.register_cow_region(a, 4096, MergePolicy::Reduce(ReduceOp::SumI32));
    m.write_i32(N0, a, 1);
    m.reduce_i32(N1, a, ReduceOp::SumI32, 2); // no phase open
    assert_eq!(m.read_i32(N0, a), 3);
}

#[test]
#[should_panic(expected = "plain store to a reduction region")]
fn plain_store_to_reduction_region_rejected_in_phase() {
    let mut m = Lcm::new(MachineConfig::new(2), LcmVariant::Mcc);
    let a = m.tempest_mut().alloc(4096, Placement::OnNode(N0), "t");
    m.register_cow_region(a, 4096, MergePolicy::Reduce(ReduceOp::SumI32));
    m.begin_parallel_phase();
    m.write_i32(N1, a, 5);
}

#[test]
fn unmarked_write_is_caught_by_the_memory_system() {
    // §5: "LCM and the C** compiler cooperate to detect the need for
    // shared data and to copy it" — a store without a preceding
    // mark_modification still gets a private copy at the reference.
    let (mut m, a) = system(LcmVariant::Mcc);
    m.write_f32(N0, a, 5.0);
    m.begin_parallel_phase();
    m.write_f32(N1, a, 6.0); // no explicit mark
    assert_eq!(m.read_f32(N2, a), 5.0, "copy-on-write still isolates");
    m.reconcile_copies();
    assert_eq!(m.read_f32(N2, a), 6.0);
    assert_eq!(
        m.tempest().machine.stats(N1).marks,
        1,
        "the implicit mark is counted"
    );
}

#[test]
fn read_only_blocks_stay_cached_across_phases() {
    // Threshold's key behavior: blocks that are only read during a phase
    // are not invalidated at reconcile, so the next phase hits.
    let (mut m, a) = system(LcmVariant::Mcc);
    m.write_f32(N0, a, 3.0);
    m.begin_parallel_phase();
    assert_eq!(m.read_f32(N1, a), 3.0); // N1 fetches a clean copy
    m.reconcile_copies();
    let misses_before = m.tempest().machine.stats(N1).misses();
    m.begin_parallel_phase();
    assert_eq!(m.read_f32(N1, a), 3.0);
    m.reconcile_copies();
    assert_eq!(
        m.tempest().machine.stats(N1).misses(),
        misses_before,
        "second-phase read hits"
    );
}

#[test]
fn modified_blocks_are_invalidated_everywhere_at_reconcile() {
    let (mut m, a) = system(LcmVariant::Mcc);
    m.write_f32(N0, a, 1.0);
    m.begin_parallel_phase();
    assert_eq!(m.read_f32(N2, a), 1.0); // N2 holds a clean copy
    m.write_f32(N1, a, 2.0);
    m.reconcile_copies();
    let misses_before = m.tempest().machine.stats(N2).misses();
    assert_eq!(m.read_f32(N2, a), 2.0);
    assert_eq!(
        m.tempest().machine.stats(N2).misses(),
        misses_before + 1,
        "N2's copy of a modified block was invalidated"
    );
}

#[test]
fn write_write_conflicts_are_reported_when_detecting() {
    let mut m = Lcm::new(MachineConfig::new(4), LcmVariant::Scc);
    let a = m.tempest_mut().alloc(4096, Placement::Interleaved, "d");
    m.register_detecting_region(a, 4096, MergePolicy::KeepOne);
    m.begin_parallel_phase();
    m.write_f32(N1, a, 1.0);
    m.write_f32(N2, a, 2.0);
    m.reconcile_copies();
    let conflicts = m.take_conflicts();
    assert_eq!(conflicts.len(), 1);
    assert_eq!(conflicts[0].word, Some(0));
    assert!(m.take_conflicts().is_empty(), "take drains");
}

#[test]
fn read_write_conflicts_distinguish_actual_from_potential() {
    let mut m = Lcm::new(MachineConfig::new(4), LcmVariant::Scc);
    let a = m.tempest_mut().alloc(4096, Placement::Interleaved, "d");
    m.register_detecting_region(a, 4096, MergePolicy::KeepOne);
    // N2 holds a copy from before the phase (potential reader).
    m.write_f32(N0, a, 1.0);
    assert_eq!(m.read_f32(N2, a), 1.0);
    m.begin_parallel_phase();
    assert_eq!(m.read_f32(N1, a), 1.0); // actual in-phase reader
    m.write_f32(N0, a, 2.0);
    m.reconcile_copies();
    let conflicts = m.take_conflicts();
    let actual: Vec<_> = conflicts
        .iter()
        .filter(|c| matches!(c.kind, lcm_rsm::ConflictKind::ReadWrite { actual: true }))
        .collect();
    let potential: Vec<_> = conflicts
        .iter()
        .filter(|c| matches!(c.kind, lcm_rsm::ConflictKind::ReadWrite { actual: false }))
        .collect();
    assert_eq!(actual.len(), 1, "N1 read during the phase");
    assert_eq!(actual[0].loser, N1);
    assert_eq!(potential.len(), 1, "N2 merely held a copy");
    assert_eq!(potential[0].loser, N2);
}

#[test]
fn race_free_program_reports_no_conflicts() {
    let mut m = Lcm::new(MachineConfig::new(4), LcmVariant::Mcc);
    let a = m.tempest_mut().alloc(4096, Placement::Interleaved, "d");
    m.register_detecting_region(a, 4096, MergePolicy::KeepOne);
    m.begin_parallel_phase();
    // Each node writes its own word of its own block; nobody reads.
    for i in 0..4u16 {
        let addr = a.offset(i as u64 * 32);
        m.write_f32(NodeId(i), addr, i as f32);
    }
    m.reconcile_copies();
    assert!(m.take_conflicts().is_empty());
    assert_eq!(m.tempest().machine.total_stats().conflicts(), 0);
}

#[test]
fn non_cow_data_is_coherent_during_a_phase() {
    let mut m = Lcm::new(MachineConfig::new(4), LcmVariant::Mcc);
    let cow = m.tempest_mut().alloc(4096, Placement::Interleaved, "cow");
    let plain = m.tempest_mut().alloc(4096, Placement::Interleaved, "plain");
    m.register_cow_region(cow, 4096, MergePolicy::KeepOne);
    m.begin_parallel_phase();
    m.write_f32(N1, plain, 42.0);
    assert_eq!(
        m.read_f32(N2, plain),
        42.0,
        "unregistered data stays coherent"
    );
    m.reconcile_copies();
}

#[test]
fn stale_region_via_protocol_api() {
    let mut m = Lcm::new(MachineConfig::new(2), LcmVariant::Mcc);
    let a = m.tempest_mut().alloc(4096, Placement::OnNode(N0), "field");
    m.register_stale_region(a, 4096);
    m.write_f32(N0, a, 1.0);
    assert_eq!(m.read_f32(N1, a), 1.0);
    m.write_f32(N0, a, 2.0);
    assert_eq!(m.read_f32(N1, a), 1.0, "consumer reads stale by design");
    m.refresh_stale(N1, a);
    assert_eq!(m.read_f32(N1, a), 2.0);
    assert_eq!(m.tempest().machine.stats(N1).stale_refreshes, 1);
}

#[test]
fn phase_state_is_fully_reclaimed() {
    let (mut m, a) = system(LcmVariant::Mcc);
    for round in 0..3 {
        m.begin_parallel_phase();
        m.write_f32(N1, a, round as f32);
        m.reconcile_copies();
        assert_eq!(
            m.live_cow_entries(),
            0,
            "clean copies reclaimed at reconcile"
        );
        assert!(!m.in_parallel_phase());
    }
    assert_eq!(m.read_f32(N0, a), 2.0);
}

#[test]
fn reconcile_without_phase_is_a_barrier() {
    let (mut m, _a) = system(LcmVariant::Scc);
    let barriers = m.tempest().machine.barriers();
    m.reconcile_copies();
    assert_eq!(m.tempest().machine.barriers(), barriers + 1);
}

#[test]
#[should_panic(expected = "outside a parallel phase")]
fn mark_outside_phase_panics() {
    let (mut m, a) = system(LcmVariant::Scc);
    m.mark_modification(N0, a);
}

#[test]
#[should_panic(expected = "nested parallel phases")]
fn nested_phase_panics() {
    let (mut m, _a) = system(LcmVariant::Scc);
    m.begin_parallel_phase();
    m.begin_parallel_phase();
}

#[test]
#[should_panic(expected = "non-copy-on-write region")]
fn mark_on_unregistered_region_panics() {
    let mut m = Lcm::new(MachineConfig::new(2), LcmVariant::Scc);
    let a = m.tempest_mut().alloc(4096, Placement::Interleaved, "plain");
    m.begin_parallel_phase();
    m.mark_modification(N0, a);
}

#[test]
fn identical_programs_are_deterministic() {
    let run = || {
        let (mut m, a) = system(LcmVariant::Mcc);
        m.begin_parallel_phase();
        for i in 0..64u64 {
            let n = NodeId((i % 4) as u16);
            m.write_f32(n, a.offset(i * 4), i as f32);
            m.flush_copies(n);
        }
        m.reconcile_copies();
        (
            m.tempest().machine.time(),
            m.tempest().machine.total_stats(),
        )
    };
    assert_eq!(run(), run());
}

/// Sums 1..=k from every node into one f64 location under the given
/// reconciliation topology, returning (value, home versions, home clock).
fn reduce_all_nodes(tree: bool) -> (f64, u64, u64) {
    let mut m = Lcm::new(MachineConfig::new(16), LcmVariant::Mcc);
    let a = m.tempest_mut().alloc(64, Placement::OnNode(N0), "total");
    m.register_cow_region(a, 64, MergePolicy::Reduce(ReduceOp::SumF64));
    m.set_tree_reconcile(tree);
    m.write_f64(N0, a, 5.0);
    m.begin_parallel_phase();
    for n in 0..16u16 {
        for i in 1..=4 {
            m.reduce_f64(NodeId(n), a, ReduceOp::SumF64, i as f64);
        }
    }
    m.reconcile_copies();
    let value = m.read_f64(N1, a);
    let home_stats = m.tempest().machine.stats(N0);
    (
        value,
        home_stats.versions_reconciled,
        m.tempest().machine.clock(N0),
    )
}

#[test]
fn tree_reconciliation_computes_the_same_sum() {
    let (direct, _, _) = reduce_all_nodes(false);
    let (tree, _, _) = reduce_all_nodes(true);
    assert_eq!(direct, 5.0 + 16.0 * 10.0);
    assert_eq!(tree, direct);
}

#[test]
fn tree_reconciliation_relieves_the_home_bottleneck() {
    let (_, direct_versions, _) = reduce_all_nodes(false);
    let (_, tree_versions, _) = reduce_all_nodes(true);
    // Direct: the home merges one version per contributing node.
    assert_eq!(direct_versions, 16);
    // Tree: the home merges exactly one (plus its own leaf combines).
    assert!(
        tree_versions < direct_versions,
        "home versions: tree {tree_versions} vs direct {direct_versions}"
    );
}

#[test]
fn tree_reconciliation_defaults_off() {
    let m = Lcm::new(MachineConfig::new(2), LcmVariant::Scc);
    assert!(!m.tree_reconcile());
}

#[test]
fn flushed_versions_reconcile_at_the_home_node() {
    let (mut m, a) = system(LcmVariant::Mcc);
    let home = m.tempest().home_of(a.block());
    m.begin_parallel_phase();
    m.write_f32(N1, a, 1.0);
    m.flush_copies(N1);
    assert_eq!(m.tempest().machine.stats(home).versions_reconciled, 1);
    assert_eq!(m.tempest().machine.stats(N1).flushes, 1);
    m.reconcile_copies();
}

#[test]
fn policies_are_respected_at_region_boundaries() {
    // Two page-adjacent allocations: one copy-on-write, one plain. Writes
    // straddling the boundary get the right treatment on each side.
    let mut m = Lcm::new(MachineConfig::new(4), LcmVariant::Mcc);
    let cow = m.tempest_mut().alloc(4096, Placement::Interleaved, "cow");
    let plain = m.tempest_mut().alloc(4096, Placement::Interleaved, "plain");
    m.register_cow_region(cow, 4096, MergePolicy::KeepOne);
    let last_cow = cow.offset(4096 - 4);
    let first_plain = plain;
    m.begin_parallel_phase();
    m.write_f32(N1, last_cow, 1.0);
    m.write_f32(N1, first_plain, 2.0);
    // The COW write is private; the plain write is immediately coherent.
    assert_eq!(m.read_f32(N2, last_cow), 0.0);
    assert_eq!(m.read_f32(N2, first_plain), 2.0);
    m.reconcile_copies();
    assert_eq!(m.read_f32(N2, last_cow), 1.0);
}

#[test]
fn scc_never_creates_node_local_clean_copies() {
    let mut m = Lcm::new(MachineConfig::new(4), LcmVariant::Scc);
    let a = m.tempest_mut().alloc(4096, Placement::Interleaved, "d");
    m.register_cow_region(a, 4096, MergePolicy::KeepOne);
    m.begin_parallel_phase();
    for n in 0..4u16 {
        m.write_f32(NodeId(n), a.offset(n as u64 * 4), n as f32);
        m.flush_copies(NodeId(n));
    }
    m.verify_phase_invariants().expect("scc invariants");
    m.reconcile_copies();
    // One home clean copy total, regardless of how many nodes marked.
    assert_eq!(m.tempest().machine.total_stats().clean_copies, 1);
}

#[test]
fn variant_accessor_reports_construction_choice() {
    assert_eq!(
        Lcm::new(MachineConfig::new(2), LcmVariant::Scc).variant(),
        LcmVariant::Scc
    );
    assert_eq!(
        Lcm::new(MachineConfig::new(2), LcmVariant::Mcc).variant(),
        LcmVariant::Mcc
    );
}

#[test]
fn checkpoint_is_incremental_over_reconciled_words() {
    let (mut m, a) = system(LcmVariant::Mcc);
    // Init write to a block the phase never marks: it stays under the
    // embedded Stache directory as a dirty exclusive line.
    m.write_f32(N0, a.offset(64), 1.0);
    m.begin_parallel_phase();
    m.mark_modification(N1, a);
    m.write_f32(N1, a, 2.0);
    m.write_f32(N1, a.offset(4), 3.0);
    m.reconcile_copies();

    // First boundary: two reconciled words (8 B at the home) plus the
    // one-time flush of the init write's exclusive line.
    let first = m.checkpoint();
    assert_eq!(first.words, 2);
    assert_eq!(first.dirty_blocks, 1, "init write flushed once");
    assert!(first.total_bytes() >= 8 + 32);
    m.sanity_check().expect("checkpoint preserves invariants");
    assert_eq!(m.read_f32(N2, a), 2.0, "values survive the capture");
    assert_eq!(m.read_f32(N0, a.offset(64)), 1.0);

    // A quiet boundary captures no data words and no dirty lines: only
    // the standing directory entries.
    let quiet = m.checkpoint();
    assert_eq!((quiet.words, quiet.dirty_blocks), (0, 0));
    assert!(quiet.total_bytes() < first.total_bytes());

    // Another phase re-arms exactly the newly reconciled words.
    m.begin_parallel_phase();
    m.mark_modification(N2, a);
    m.write_f32(N2, a, 9.0);
    m.reconcile_copies();
    assert_eq!(m.checkpoint().words, 1);
}

#[test]
#[should_panic(expected = "checkpoint inside a parallel phase")]
fn checkpoint_rejects_open_phases() {
    let (mut m, _a) = system(LcmVariant::Mcc);
    m.begin_parallel_phase();
    m.checkpoint();
}

/// Reconcile applies a phase's entries in ascending block order, phase
/// after phase on one system whose phase table is cleared and reused, and
/// leaves no entry behind. Each phase writes a different, scrambled set
/// of blocks, so an unsorted walk of the table would show.
#[test]
fn reconcile_order_holds_across_phase_table_reuse() {
    let bytes = 8 * 4096;
    let mut m = Lcm::new(MachineConfig::new(4).with_trace(1 << 20), LcmVariant::Mcc);
    let a = m.tempest_mut().alloc(bytes, Placement::Interleaved, "data");
    m.register_cow_region(a, bytes, MergePolicy::KeepOne);
    let blocks = bytes / BLOCK_BYTES as u64;
    let mut seen = 0;
    for phase in 0..6u64 {
        let writes = 40 + 70 * phase;
        m.begin_parallel_phase();
        for i in 0..writes {
            // 397 is odd, so the first `blocks` steps visit distinct blocks.
            let block = (i * 397 + phase * 131) % blocks;
            let node = NodeId((i % 4) as u16);
            m.write_f32(node, a.offset(block * BLOCK_BYTES as u64), i as f32);
        }
        m.reconcile_copies();
        assert_eq!(m.live_cow_entries(), 0, "phase {phase}: entries outlive it");
        let trace = m.tempest().machine.trace();
        assert_eq!(trace.dropped(), 0);
        let reconciled: Vec<BlockId> = trace
            .events()
            .skip(seen)
            .filter_map(|s| match s.event {
                Event::SpanBegin {
                    what: "reconcile",
                    block,
                    ..
                } => Some(block),
                _ => None,
            })
            .collect();
        seen = trace.len();
        assert_eq!(reconciled.len() as u64, writes, "phase {phase}");
        assert!(
            reconciled.windows(2).all(|w| w[0] < w[1]),
            "phase {phase}: reconcile visited blocks out of order: {reconciled:?}"
        );
    }
}

/// A copy-on-write touch in [`flushes_follow_each_nodes_mark_order`]:
/// a keep-one store or a reduction into the block of that index.
#[derive(Copy, Clone)]
enum Touch {
    Keep(u64),
    Red(u64),
}

/// Each node's flushes follow the order it marked its blocks in: keep-one
/// copies leave at every `flush_copies`, reduction accumulators stay
/// cached across invocations and leave at `reconcile_copies`, in the
/// order of their first mark. Two nodes mark scrambled blocks over two
/// invocations, so a drain that reordered the copies would show.
#[test]
fn flushes_follow_each_nodes_mark_order() {
    use Touch::{Keep, Red};
    let plan: [(NodeId, [&[Touch]; 2]); 2] = [
        (
            N1,
            [
                &[Keep(5), Red(6), Keep(2), Red(1), Keep(9)],
                &[Red(3), Keep(14), Red(1), Keep(0), Red(4), Keep(3)],
            ],
        ),
        (
            N2,
            [
                &[Red(2), Keep(7), Keep(1), Red(7), Keep(12)],
                &[Keep(2), Red(5), Keep(11), Red(2), Keep(6)],
            ],
        ),
    ];
    let flushes_since = |m: &Lcm, seen: usize, node: NodeId| -> Vec<BlockId> {
        m.tempest()
            .machine
            .trace()
            .events()
            .skip(seen)
            .filter_map(|s| match s.event {
                Event::SpanBegin {
                    node: n,
                    what: "flush",
                    block,
                } if n == node => Some(block),
                _ => None,
            })
            .collect()
    };
    for variant in [LcmVariant::Scc, LcmVariant::Mcc] {
        let mut m = Lcm::new(MachineConfig::new(4).with_trace(1 << 16), variant);
        let bytes = 16 * BLOCK_BYTES as u64;
        let data = m.tempest_mut().alloc(bytes, Placement::Interleaved, "data");
        m.register_cow_region(data, bytes, MergePolicy::KeepOne);
        let sums = m.tempest_mut().alloc(bytes, Placement::Interleaved, "sums");
        m.register_cow_region(sums, bytes, MergePolicy::Reduce(ReduceOp::SumI32));
        let keep_block = |i: u64| data.offset(i * BLOCK_BYTES as u64);
        let red_block = |i: u64| sums.offset(i * BLOCK_BYTES as u64);

        m.begin_parallel_phase();
        let mut reductions: Vec<Vec<BlockId>> = vec![Vec::new(); plan.len()];
        for inv in 0..2 {
            for (k, (node, invocations)) in plan.iter().enumerate() {
                let mut keeps = Vec::new();
                for &touch in invocations[inv] {
                    match touch {
                        Keep(i) => {
                            m.mark_modification(*node, keep_block(i));
                            m.write_f32(*node, keep_block(i), (10 * inv as u64 + i) as f32);
                            keeps.push(keep_block(i).block());
                        }
                        Red(i) => {
                            m.mark_modification(*node, red_block(i));
                            m.reduce_i32(*node, red_block(i), ReduceOp::SumI32, 1);
                            if !reductions[k].contains(&red_block(i).block()) {
                                reductions[k].push(red_block(i).block());
                            }
                        }
                    }
                }
                let seen = m.tempest().machine.trace().len();
                m.flush_copies(*node);
                assert_eq!(
                    flushes_since(&m, seen, *node),
                    keeps,
                    "{variant:?} {node} invocation {inv}: keep-one flushes follow mark order"
                );
            }
        }
        let seen = m.tempest().machine.trace().len();
        m.reconcile_copies();
        for (k, (node, _)) in plan.iter().enumerate() {
            assert_eq!(
                flushes_since(&m, seen, *node),
                reductions[k],
                "{variant:?} {node}: accumulators flush at reconcile in first-mark order"
            );
        }
        assert_eq!(m.tempest().machine.trace().dropped(), 0);
        assert_eq!(m.live_cow_entries(), 0);
        m.verify_phase_invariants().expect("clean after reconcile");
        assert_eq!(m.read_i32(N0, red_block(1)), 2, "N1 reduced block 1 twice");
        assert_eq!(m.read_i32(N0, red_block(2)), 2, "N2 reduced block 2 twice");
    }
}
