//! A Jacobi solver driven by a C\*\* reduction: parallel phases
//! alternating with scalar convergence checks.
//!
//! ```text
//! cargo run --release --example jacobi_convergence
//! ```

use lcm::apps::jacobi::Jacobi;
use lcm::prelude::*;

fn main() {
    let w = Jacobi::default_size();
    println!(
        "solving Laplace on a {0}x{0} mesh until the summed squared residual < {1}\n",
        w.size, w.tolerance
    );
    for sys in SystemKind::all() {
        let ((iters, residual_bits, _), r, _) =
            execute(sys, MachineConfig::new(8), RuntimeConfig::default(), &w);
        println!(
            "  {:8} converged in {:>3} iterations (residual {:.3}) — {:>12} cycles, {:>7} misses",
            sys.label(),
            iters,
            f64::from_bits(residual_bits),
            r.time,
            r.misses()
        );
    }
    println!("\nEvery invocation both relaxes its cell (keep-one reconciliation)");
    println!("and contributes `%+=` its squared residual (reduction");
    println!("reconciliation) in the same parallel call. Note the Stache");
    println!("baseline paying for the shared accumulator on every invocation");
    println!("(the §7.1 ping-pong), on top of the copying traffic.");
}
