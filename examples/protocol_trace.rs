//! Watching the protocol work: event traces of one parallel call.
//!
//! ```text
//! cargo run --release --example protocol_trace
//! ```
//!
//! Runs a tiny stencil step under LCM-mcc with event tracing enabled and
//! prints the raw event stream of one invocation plus its per-kind
//! counts — useful for understanding (or debugging) what `mark` /
//! `flush` / `reconcile` actually do to the memory system.

use lcm::prelude::*;

fn main() {
    let config = MachineConfig::new(2).with_trace(100_000);
    let mut mem = Lcm::new(config, LcmVariant::Mcc);
    let a = mem.tempest_mut().alloc(4096, Placement::Blocked, "mesh");
    mem.register_cow_region(a, 4096, MergePolicy::KeepOne);

    // Initialize a few words, then run one tiny "parallel call" by hand.
    for w in 0..4 {
        mem.write_f32(NodeId(0), a.offset(w * 4), w as f32);
    }
    mem.tempest_mut().machine.reset_measurements(); // trace only the call

    mem.begin_parallel_phase();
    // Node 1's "invocation": read a neighbor, write its own cell.
    let left = mem.read_f32(NodeId(1), a);
    mem.mark_modification(NodeId(1), a.offset(4));
    mem.write_f32(NodeId(1), a.offset(4), left + 10.0);
    mem.flush_copies(NodeId(1));
    // Node 0's "invocation" reads clean data meanwhile.
    let still_clean = mem.read_f32(NodeId(0), a.offset(4));
    assert_eq!(
        still_clean, 1.0,
        "modifications stay private until reconcile"
    );
    mem.reconcile_copies();
    assert_eq!(mem.read_f32(NodeId(0), a.offset(4)), 10.0);

    println!("event stream of one LCM parallel call (2 nodes):\n");
    for e in mem.tempest().machine.trace().events() {
        println!("  {e:?}");
    }
    let mut kinds = std::collections::BTreeMap::new();
    for e in mem.tempest().machine.trace().events() {
        *kinds.entry(e.event.kind()).or_insert(0) += 1;
    }
    println!("\nevents by kind: {kinds:?}");
}
