//! CSV renderers for the suite's tables and figures.
//!
//! One function per emitted file, each a pure `&Suite -> String` so the
//! `repro` binary and the determinism tests render through the same code:
//! the byte-identity contract ("a `--jobs N` run produces the same CSVs
//! as `--jobs 1`") is checked against these exact bytes.

use lcm_apps::experiments::{Benchmark, Suite};
use lcm_apps::SystemKind;
use std::fmt::Write as _;

/// `table1.csv`: per-benchmark miss and clean-copy counts.
pub fn table1_csv(suite: &Suite) -> String {
    let mut csv =
        String::from("program,misses_scc,misses_mcc,misses_copying,clean_scc,clean_mcc\n");
    for (b, misses, clean) in suite.table1() {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{}",
            b.label(),
            misses[0],
            misses[1],
            misses[2],
            clean[0],
            clean[1]
        );
    }
    csv
}

/// `fig2.csv` / `fig3.csv`: one `(program, system, cycles)` row per run.
pub fn fig_csv(rows: &[(Benchmark, SystemKind, u64)]) -> String {
    let mut csv = String::from("program,system,cycles\n");
    for (b, s, t) in rows {
        let _ = writeln!(csv, "{},{},{t}", b.label(), s.label());
    }
    csv
}

/// One benchmark×system×kind delivery-latency summary, harvested from a
/// captured trace by the critical-path analyzer's message matching.
#[derive(Clone, Debug)]
pub struct MsgLatencyRow {
    /// Benchmark label (matches `messages.csv`'s `program` column).
    pub program: String,
    /// System label.
    pub system: String,
    /// Message kind label.
    pub kind: String,
    /// p50 / p95 / p99 send→recv cycle deltas (signed: per-node logical
    /// clocks can put a recv's stamp before its send's).
    pub p50: i64,
    /// See `p50`.
    pub p95: i64,
    /// See `p50`.
    pub p99: i64,
}

/// `messages.csv`: per-kind message counts and bytes for every run, plus
/// p50/p95/p99 delivery-latency columns for the rows a captured trace
/// covers (other rows keep the fields empty). With `latency` empty — no
/// traces captured — there are no latency columns, which keeps committed
/// artifacts stable.
pub fn messages_csv(suite: &Suite, latency: &[MsgLatencyRow]) -> String {
    let mut csv = String::from("program,system,kind,count,bytes");
    if !latency.is_empty() {
        csv.push_str(",p50_latency,p95_latency,p99_latency");
    }
    csv.push('\n');
    for b in Benchmark::all() {
        for s in SystemKind::all() {
            let r = suite.result(b, s);
            for ((kind, n), (_, bytes)) in r.msg_kinds.iter().zip(&r.msg_bytes) {
                if *n > 0 {
                    let _ = write!(
                        csv,
                        "{},{},{},{n},{bytes}",
                        b.label(),
                        s.label(),
                        kind.label()
                    );
                    if !latency.is_empty() {
                        match latency.iter().find(|l| {
                            l.program == b.label()
                                && l.system == s.label()
                                && l.kind == kind.label()
                        }) {
                            Some(l) => {
                                let _ = write!(csv, ",{},{},{}", l.p50, l.p95, l.p99);
                            }
                            None => csv.push_str(",,,"),
                        }
                    }
                    csv.push('\n');
                }
            }
        }
    }
    csv
}

/// `network.csv`: delivery/retry/stall counters for every run.
pub fn network_csv(suite: &Suite) -> String {
    let mut csv = String::from(
        "program,system,msgs_delivered,blocks,retries,timeouts,dropped,duplicated,stall_cycles\n",
    );
    for b in Benchmark::all() {
        for s in SystemKind::all() {
            let r = suite.result(b, s);
            let _ = writeln!(
                csv,
                "{},{},{},{},{},{},{},{},{}",
                b.label(),
                s.label(),
                r.msgs_total(),
                r.totals.blocks_sent,
                r.totals.retries,
                r.totals.timeouts,
                r.totals.msgs_dropped,
                r.totals.msgs_duplicated,
                r.totals.stall_cycles,
            );
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_apps::experiments::Scale;

    #[test]
    fn renderers_are_pure_functions_of_the_suite() {
        let suite = Suite::run(Scale::Smoke, 1);
        assert_eq!(table1_csv(&suite), table1_csv(&suite));
        let fig2 = suite.fig2();
        assert!(fig_csv(&fig2).starts_with("program,system,cycles\n"));
        assert_eq!(fig_csv(&fig2).lines().count(), 1 + fig2.len());
        // Every (benchmark, system) pair contributes exactly one network row.
        assert_eq!(network_csv(&suite).lines().count(), 1 + 6 * 3);
        assert!(messages_csv(&suite, &[]).len() > "program,system,kind,count,bytes\n".len());
    }

    #[test]
    fn latency_columns_appear_only_when_rows_are_supplied() {
        let suite = Suite::run(Scale::Smoke, 1);
        let plain = messages_csv(&suite, &[]);
        // No traces: the five count columns only.
        assert!(plain.starts_with("program,system,kind,count,bytes\n"));
        assert!(
            plain.lines().all(|l| l.split(',').count() == 5),
            "no latency columns without rows"
        );
        // Build a latency row for whatever data line the table emits
        // first, so the test tracks the suite rather than guessing at
        // protocol traffic.
        let first = plain.lines().nth(1).expect("suite has traffic");
        let mut f = first.split(',');
        let rows = vec![MsgLatencyRow {
            program: f.next().unwrap().to_string(),
            system: f.next().unwrap().to_string(),
            kind: f.next().unwrap().to_string(),
            p50: 10,
            p95: 20,
            p99: -5,
        }];
        let with = messages_csv(&suite, &rows);
        assert!(with
            .starts_with("program,system,kind,count,bytes,p50_latency,p95_latency,p99_latency\n"));
        assert_eq!(with.lines().count(), plain.lines().count());
        assert!(with.contains(",10,20,-5"), "matched row gains values");
        assert!(
            with.lines().any(|l| l.ends_with(",,,")),
            "unmatched rows stay empty"
        );
    }
}
