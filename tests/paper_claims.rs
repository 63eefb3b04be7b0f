//! End-to-end reproduction check: every §6.3 prose claim of the paper
//! must hold on a medium-scale run of the full benchmark suite.
//!
//! `Scale::Medium` shrinks problem sizes (256² meshes, fewer iterations,
//! 16 processors) while preserving all of the paper's orderings; the
//! paper-scale numbers are produced by
//! `cargo run -p lcm-bench --release --bin repro -- --scale paper`.

use lcm::prelude::*;

#[test]
fn all_section_6_3_claims_hold_at_medium_scale() {
    let suite = Suite::run(Scale::Medium, 1);
    let claims = suite.claims();
    assert_eq!(claims.len(), 11);
    let failing: Vec<String> = claims
        .iter()
        .filter(|c| !c.holds)
        .map(|c| {
            format!(
                "{} (paper {}, measured {})",
                c.description, c.paper, c.measured
            )
        })
        .collect();
    assert!(
        failing.is_empty(),
        "claims failing at medium scale:\n{}",
        failing.join("\n")
    );

    // Table 1 shape checks on the same runs.
    for (b, misses, clean) in suite.table1() {
        assert!(misses.iter().all(|&m| m > 0), "{b}: all systems miss");
        assert!(
            clean[0] > 0 && clean[1] > 0,
            "{b}: LCM variants make clean copies"
        );
        assert!(
            clean[1] >= clean[0],
            "{b}: mcc makes at least as many clean copies as scc"
        );
    }

    // Figure 2/3 rows exist for every benchmark × system.
    assert_eq!(suite.fig2().len(), 6);
    assert_eq!(suite.fig3().len(), 12);
    assert!(suite.fig2().iter().all(|&(_, _, t)| t > 0));
    assert!(suite.fig3().iter().all(|&(_, _, t)| t > 0));
}

#[test]
fn stencil_table1_orderings() {
    use Benchmark::*;
    use SystemKind::*;
    // The three central Table 1 relations, checked directly:
    // 1. mcc has far fewer misses than scc (prose: ~8x);
    let scc = StencilStat.run(Scale::Medium, LcmScc);
    let mcc = StencilStat.run(Scale::Medium, LcmMcc);
    assert!(scc.misses() > 3 * mcc.misses());
    // 2. dynamic scheduling wrecks the copying baseline's miss rate;
    let cp_stat = StencilStat.run(Scale::Medium, Stache);
    let cp_dyn = StencilDyn.run(Scale::Medium, Stache);
    assert!(cp_dyn.misses() > 3 * cp_stat.misses());
    // 3. mcc's clean copies exceed scc's (per-node vs home-only copies).
    assert!(mcc.clean_copies() > scc.clean_copies());
}
