//! The paper's headline workload: a dynamically-refined adaptive mesh
//! (paper §6.2), where LCM's fine-grain copy-on-write beats conservative
//! whole-structure copying.
//!
//! ```text
//! cargo run --release --example adaptive_mesh
//! ```

use lcm::apps::adaptive::Adaptive;
use lcm::prelude::*;

fn main() {
    println!("Adaptive mesh (64x64 base, quad-trees to depth 4), 16 processors\n");
    let w = Adaptive {
        size: 64,
        iters: 40,
        ..Adaptive::paper(Partition::Dynamic)
    };
    let cfg = RuntimeConfig::default();

    println!("dynamic partitioning (a load-balancing runtime's schedule):");
    let mut baseline = 0u64;
    for sys in SystemKind::all() {
        let ((_, quads), r, _) = execute(sys, MachineConfig::new(16), cfg, &w);
        if sys == SystemKind::LcmScc {
            baseline = r.time;
        }
        println!(
            "  {:8} {:>12} cycles ({:>5.2}x vs LCM-scc)  misses={:<8} quad nodes allocated={}",
            sys.label(),
            r.time,
            r.time as f64 / baseline as f64,
            r.misses(),
            quads
        );
    }

    let w = Adaptive {
        partition: Partition::Static,
        ..w
    };
    println!("\nstatic partitioning (repeatable schedule):");
    for sys in SystemKind::all() {
        let (_, r, _) = execute(sys, MachineConfig::new(16), cfg, &w);
        println!(
            "  {:8} {:>12} cycles  misses={}",
            sys.label(),
            r.time,
            r.misses()
        );
    }

    println!("\nWith dynamic behavior a compiler cannot tell which parts of the");
    println!("mesh will change, so the copying baseline carries the whole");
    println!("quad-tree structure between iterations; LCM copies only the");
    println!("blocks that are actually modified (paper §6.2).");
}
