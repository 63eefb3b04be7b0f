//! Golden-run regression test: the smoke-scale suite, pinned byte for
//! byte.
//!
//! `tests/golden/suite_smoke.txt` holds the Table 1 rows and the §6.3
//! prose-claim verdicts of one committed run. The whole pipeline —
//! workload execution, protocol cost charges, harvest, CSV rendering —
//! is deterministic, so any diff against the fixture is a behavior
//! change that must be reviewed (and, if intended, re-pinned by running
//! with `GOLDEN_REGEN=1`).

use lcm_apps::experiments::{Scale, Suite};
use lcm_bench::report;
use std::fmt::Write as _;
use std::path::Path;

fn render(suite: &Suite) -> String {
    let mut s = String::from("# golden smoke-scale suite: table1 rows, then claim verdicts\n");
    s.push_str(&report::table1_csv(suite));
    s.push_str("claim,verdict,measured\n");
    for c in suite.claims() {
        let _ = writeln!(
            s,
            "{},{},{}",
            c.description,
            if c.holds { "PASS" } else { "FAIL" },
            c.measured
        );
    }
    s
}

#[test]
fn smoke_suite_reproduces_the_committed_fixture() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/suite_smoke.txt");
    let rendered = render(&Suite::run(Scale::Smoke, 2));
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&fixture, &rendered).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&fixture)
        .expect("fixture missing — regenerate with GOLDEN_REGEN=1 cargo test golden");
    assert_eq!(
        expected, rendered,
        "smoke suite diverged from the golden fixture; if the change is \
         intended, re-pin with GOLDEN_REGEN=1 cargo test golden"
    );
}
