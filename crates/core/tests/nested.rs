//! Nested parallel phases: the C\*\* feature the paper defers, exercised
//! through the protocol API.

use lcm_core::{Lcm, LcmVariant};
use lcm_rsm::{MemoryProtocol, MergePolicy, NestedProtocol, ReduceOp};
use lcm_sim::mem::Addr;
use lcm_sim::{MachineConfig, NodeId};
use lcm_tempest::Placement;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);
const N3: NodeId = NodeId(3);

fn system() -> (Lcm, Addr) {
    let mut m = Lcm::new(MachineConfig::new(4), LcmVariant::Mcc);
    let a = m.tempest_mut().alloc(4096, Placement::Interleaved, "data");
    m.register_cow_region(a, 4096, MergePolicy::KeepOne);
    (m, a)
}

#[test]
fn inner_invocations_see_the_parent_state() {
    let (mut m, a) = system();
    m.write_f32(N0, a, 1.0);
    m.begin_parallel_phase();
    // Parent invocation (on N1) privately writes 5.0…
    m.write_f32(N1, a, 5.0);
    // …then makes a nested call; an inner invocation on N2 reads it.
    m.begin_nested_phase(N1);
    assert_eq!(
        m.read_f32(N2, a),
        5.0,
        "inner sees the parent's private state"
    );
    m.reconcile_nested();
    m.reconcile_copies();
}

#[test]
fn inner_modifications_merge_into_the_parent_not_global() {
    let (mut m, a) = system();
    m.write_f32(N0, a, 1.0);
    m.begin_parallel_phase();
    m.begin_nested_phase(N1);
    m.write_f32(N2, a.offset(4), 42.0); // inner write on another node
    assert_eq!(
        m.read_f32(N3, a.offset(4)),
        0.0,
        "private to the inner invocation"
    );
    m.reconcile_nested();
    // Now part of the parent's private state:
    assert_eq!(
        m.read_f32(N1, a.offset(4)),
        42.0,
        "parent observes the merged inner state"
    );
    // …but still invisible globally:
    assert_eq!(
        m.read_f32(N3, a.offset(4)),
        0.0,
        "global state unchanged before outer reconcile"
    );
    m.reconcile_copies();
    assert_eq!(
        m.read_f32(N3, a.offset(4)),
        42.0,
        "outer reconcile publishes everything"
    );
}

#[test]
fn inner_isolation_between_inner_invocations() {
    let (mut m, a) = system();
    m.write_f32(N0, a, 7.0);
    m.begin_parallel_phase();
    m.begin_nested_phase(N0);
    m.write_f32(N1, a, 8.0);
    m.flush_copies(N1); // flush during the nested phase
    assert_eq!(
        m.read_f32(N1, a),
        7.0,
        "a new inner invocation sees the pre-call state"
    );
    assert_eq!(m.read_f32(N2, a), 7.0);
    m.reconcile_nested();
    assert_eq!(
        m.read_f32(N0, a),
        8.0,
        "kept-one inner value lands in the parent"
    );
    m.reconcile_copies();
    assert_eq!(m.read_f32(N2, a), 8.0);
}

#[test]
fn nested_reductions_combine_into_the_parent_accumulator() {
    let mut m = Lcm::new(MachineConfig::new(4), LcmVariant::Mcc);
    let a = m.tempest_mut().alloc(64, Placement::OnNode(N0), "total");
    m.register_cow_region(a, 64, MergePolicy::Reduce(ReduceOp::SumI32));
    m.write_i32(N0, a, 100);
    m.begin_parallel_phase();
    m.reduce_i32(N1, a, ReduceOp::SumI32, 1); // outer contribution
    m.begin_nested_phase(N1);
    for n in 0..4u16 {
        m.reduce_i32(NodeId(n), a, ReduceOp::SumI32, 10); // inner contributions
    }
    m.reconcile_nested();
    m.reconcile_copies();
    assert_eq!(m.read_i32(N2, a), 100 + 1 + 40);
}

#[test]
fn nested_keep_one_conflicts_resolve_to_one_value() {
    let (mut m, a) = system();
    m.begin_parallel_phase();
    m.begin_nested_phase(N0);
    m.write_f32(N1, a, 1.0);
    m.write_f32(N2, a, 2.0);
    m.reconcile_nested();
    m.reconcile_copies();
    let v = m.read_f32(N3, a);
    assert!(
        v == 1.0 || v == 2.0,
        "exactly one inner value survives, got {v}"
    );
}

#[test]
fn nested_phase_state_is_reclaimed() {
    let (mut m, a) = system();
    m.begin_parallel_phase();
    m.begin_nested_phase(N2);
    m.write_f32(N0, a, 3.0);
    assert!(m.in_nested_phase());
    m.reconcile_nested();
    assert!(!m.in_nested_phase());
    assert!(m.in_parallel_phase(), "the outer phase stays open");
    m.reconcile_copies();
    m.verify_phase_invariants()
        .expect("clean after both reconciles");
}

#[test]
fn two_sequential_nested_calls_in_one_outer_phase() {
    let (mut m, a) = system();
    m.begin_parallel_phase();
    m.begin_nested_phase(N0);
    m.write_i32(N1, a, 1);
    m.reconcile_nested();
    m.begin_nested_phase(N0);
    let seen = m.read_i32(N2, a);
    assert_eq!(
        seen, 1,
        "second nested call sees the first's merged result via the parent"
    );
    m.write_i32(N2, a, seen + 1);
    m.reconcile_nested();
    m.reconcile_copies();
    assert_eq!(m.read_i32(N3, a), 2);
}

#[test]
#[should_panic(expected = "needs an open outer phase")]
fn nested_without_outer_panics() {
    let (mut m, _a) = system();
    m.begin_nested_phase(N0);
}

#[test]
#[should_panic(expected = "one level of nesting")]
fn double_nesting_panics() {
    let (mut m, _a) = system();
    m.begin_parallel_phase();
    m.begin_nested_phase(N0);
    m.begin_nested_phase(N1);
}

#[test]
#[should_panic(expected = "no nested phase")]
fn reconcile_nested_without_phase_panics() {
    let (mut m, _a) = system();
    m.begin_parallel_phase();
    m.reconcile_nested();
}

#[test]
fn nested_first_touches_record_miss_events_matching_their_counters() {
    use lcm_sim::Event;
    let mut m = Lcm::new(MachineConfig::new(4).with_trace(1 << 12), LcmVariant::Mcc);
    let a = m.tempest_mut().alloc(4096, Placement::Interleaved, "data");
    m.register_cow_region(a, 4096, MergePolicy::KeepOne);
    m.begin_parallel_phase();
    m.begin_nested_phase(N1);
    let before = m.tempest().machine.total_stats();
    let seen = m.tempest().machine.trace().len();
    // Interleaved: block 0 homes on N0, block 1 on N1.
    m.read_f32(N0, a); // local read fill
    m.read_f32(N2, a); // remote read fill
    m.read_f32(N2, a); // hit
    m.write_f32(N1, a.offset(32), 1.0); // local write fill
    m.write_f32(N3, a, 2.0); // remote write fill
    let after = m.tempest().machine.total_stats();
    // [read local, read remote, write local, write remote]
    let mut events = [0u64; 4];
    for s in m.tempest().machine.trace().events().skip(seen) {
        match s.event {
            Event::ReadMiss { remote, .. } => events[remote as usize] += 1,
            Event::WriteMiss { remote, .. } => events[2 + remote as usize] += 1,
            _ => {}
        }
    }
    let counters = [
        after.read_miss_local - before.read_miss_local,
        after.read_miss_remote - before.read_miss_remote,
        after.write_miss_local - before.write_miss_local,
        after.write_miss_remote - before.write_miss_remote,
    ];
    assert_eq!(counters, [1, 1, 1, 1], "one fill of each shape");
    assert_eq!(events, counters, "every counted fill records its event");
    m.reconcile_nested();
    m.reconcile_copies();
}

/// Inner flushes follow each node's nested mark order (reduction
/// accumulators wait for `reconcile_nested`, in first-mark order), and
/// `reconcile_nested` marks the parent's new private copies in ascending
/// block order. On 8 nodes with interleaved homes every block a node
/// flushes has its own home, so the `Flush` sends name the blocks.
#[test]
fn nested_flushes_follow_mark_order_and_parent_marks_ascend() {
    use lcm_sim::mem::{BlockId, BLOCK_BYTES};
    use lcm_sim::Event;
    let mut m = Lcm::new(MachineConfig::new(8).with_trace(1 << 16), LcmVariant::Mcc);
    let bytes = 8 * BLOCK_BYTES as u64;
    let data = m.tempest_mut().alloc(bytes, Placement::Interleaved, "data");
    m.register_cow_region(data, bytes, MergePolicy::KeepOne);
    let sums = m.tempest_mut().alloc(bytes, Placement::Interleaved, "sums");
    m.register_cow_region(sums, bytes, MergePolicy::Reduce(ReduceOp::SumI32));
    let keep = |i: u64| data.offset(i * BLOCK_BYTES as u64);
    let red = |i: u64| sums.offset(i * BLOCK_BYTES as u64);
    let flush_homes_since = |m: &Lcm, seen: usize, node: NodeId| -> Vec<NodeId> {
        m.tempest()
            .machine
            .trace()
            .events()
            .skip(seen)
            .filter_map(|s| match s.event {
                Event::MsgSend {
                    from,
                    to,
                    kind: "Flush",
                    ..
                } if from == node => Some(to),
                _ => None,
            })
            .collect()
    };
    let homes = |m: &Lcm, addrs: &[Addr]| -> Vec<NodeId> {
        addrs
            .iter()
            .map(|a| m.tempest().home_of(a.block()))
            .collect()
    };

    m.begin_parallel_phase();
    m.write_f32(N0, keep(3), 1.0); // the parent already owns block 3
    m.begin_nested_phase(N0);
    // Invocation 1 on N1 and N2.
    m.write_f32(N1, keep(6), 6.0);
    m.write_f32(N1, keep(3), 3.0);
    m.reduce_i32(N1, red(2), ReduceOp::SumI32, 1);
    m.write_f32(N1, keep(5), 5.0);
    let seen = m.tempest().machine.trace().len();
    m.flush_copies(N1);
    assert_eq!(
        flush_homes_since(&m, seen, N1),
        homes(&m, &[keep(6), keep(3), keep(5)])
    );
    m.write_f32(N2, keep(4), 4.0);
    m.write_f32(N2, keep(0), 0.5);
    let seen = m.tempest().machine.trace().len();
    m.flush_copies(N2);
    assert_eq!(
        flush_homes_since(&m, seen, N2),
        homes(&m, &[keep(4), keep(0)])
    );
    // Invocation 2.
    m.reduce_i32(N1, red(7), ReduceOp::SumI32, 1);
    m.write_f32(N1, keep(4), 4.5);
    m.reduce_i32(N1, red(2), ReduceOp::SumI32, 1);
    let seen = m.tempest().machine.trace().len();
    m.flush_copies(N1);
    assert_eq!(flush_homes_since(&m, seen, N1), homes(&m, &[keep(4)]));
    m.reduce_i32(N2, red(3), ReduceOp::SumI32, 1);
    m.write_f32(N2, keep(6), 6.5);
    m.write_f32(N2, keep(1), 1.5);
    let seen = m.tempest().machine.trace().len();
    m.flush_copies(N2);
    assert_eq!(
        flush_homes_since(&m, seen, N2),
        homes(&m, &[keep(6), keep(1)])
    );

    let seen = m.tempest().machine.trace().len();
    m.reconcile_nested();
    assert_eq!(
        flush_homes_since(&m, seen, N1),
        homes(&m, &[red(2), red(7)])
    );
    assert_eq!(flush_homes_since(&m, seen, N2), homes(&m, &[red(3)]));
    let parent_marks: Vec<BlockId> = m
        .tempest()
        .machine
        .trace()
        .events()
        .skip(seen)
        .filter_map(|s| match s.event {
            Event::Mark { node: N0, block } => Some(block),
            _ => None,
        })
        .collect();
    let mut expect: Vec<BlockId> = [keep(6), keep(5), keep(4), keep(0), keep(1)]
        .iter()
        .chain(&[red(2), red(7), red(3)])
        .map(|a| a.block())
        .collect();
    expect.sort_unstable();
    assert_eq!(parent_marks, expect, "parent marks ascend by block");
    assert_eq!(m.tempest().machine.trace().dropped(), 0);

    m.reconcile_copies();
    assert_eq!(m.live_cow_entries(), 0);
    assert_eq!(m.read_f32(N3, keep(3)), 3.0);
    assert_eq!(m.read_i32(N3, red(2)), 2);
}
