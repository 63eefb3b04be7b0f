//! Rendering for the critical-path profiler: the `critpath.csv` table,
//! the text report and drill-down, Perfetto flow/path annotations, and
//! the delivery-latency rows for `messages.csv`.
//!
//! All functions are pure renderers over [`lcm_replay::CritPath`] — the
//! `repro` binary and the determinism tests go through the same bytes,
//! so `critpath.csv` stays byte-identical at any `--jobs`.

use crate::profile::{message_latencies, percentile, FlowArrow, PathSlice};
use crate::report::MsgLatencyRow;
use lcm_replay::CritPath;
use lcm_sim::CycleCat;
use std::fmt::Write as _;

/// One ranked causal what-if projection.
#[derive(Clone, Debug)]
pub struct WhatIfRow {
    /// Human-readable scaling, e.g. `net_contention x0%`.
    pub item: String,
    /// Projected makespan after the scaling.
    pub predicted: u64,
    /// Validation annotation (e.g. the genuine replay's makespan for an
    /// exactly-checkable projection); empty when unvalidated.
    pub note: String,
}

/// The categories worth reporting for a path: every category with
/// nonzero total cycles, in ledger order.
fn active_cats(cp: &CritPath) -> Vec<CycleCat> {
    let totals = cp.total_by_cat();
    CycleCat::all()
        .into_iter()
        .filter(|c| totals[c.index()] > 0)
        .collect()
}

/// The top-`n` single-category what-ifs: for every active category,
/// project removing it (`x0%`) and halving it (`x50%`), rank by
/// projected makespan ascending (biggest win first; ties by label) and
/// keep `n`. Validation notes are the caller's to add — the renderer
/// never runs a replay.
pub fn top_whatifs(cp: &CritPath, n: usize) -> Vec<WhatIfRow> {
    let mut rows: Vec<(u64, String)> = Vec::new();
    for cat in active_cats(cp) {
        for pct in [0u64, 50] {
            rows.push((cp.whatif(&[cat], pct), format!("{} x{pct}%", cat.label())));
        }
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    rows.truncate(n);
    rows.into_iter()
        .map(|(predicted, item)| WhatIfRow {
            item,
            predicted,
            note: String::new(),
        })
        .collect()
}

/// `critpath.csv`: per benchmark×system, a `summary` block (makespan,
/// slack, epoch count), a `path` block (per-category on-path vs total
/// cycles with the on-path share — `1 - share` is the slack-hidden
/// fraction), and a ranked `whatif` block. Rendered in entry order from
/// pre-computed analyses, so the bytes are independent of `--jobs`.
pub fn critpath_csv(entries: &[(String, String, CritPath, Vec<WhatIfRow>)]) -> String {
    let mut csv = String::from(
        "program,system,row,item,on_path_cycles,total_cycles,share_on_path,\
         predicted_cycles,delta_pct,note\n",
    );
    for (program, system, cp, whatifs) in entries {
        let makespan = cp.makespan;
        let _ = writeln!(
            csv,
            "{program},{system},summary,makespan,{},{makespan},1.0000,,,epochs={}",
            cp.path_length(),
            cp.epochs.len()
        );
        let _ = writeln!(
            csv,
            "{program},{system},summary,slack,0,{},0.0000,,,",
            cp.total_slack()
        );
        let on = cp.on_path_by_cat();
        let totals = cp.total_by_cat();
        for cat in active_cats(cp) {
            let (o, t) = (on[cat.index()], totals[cat.index()]);
            let _ = writeln!(
                csv,
                "{program},{system},path,{},{o},{t},{:.4},,,",
                cat.label(),
                o as f64 / t as f64
            );
        }
        for w in whatifs {
            let delta = 100.0 * (w.predicted as f64 - makespan as f64) / makespan as f64;
            let _ = writeln!(
                csv,
                "{program},{system},whatif,{},,,,{},{delta:+.2},{}",
                w.item, w.predicted, w.note
            );
        }
    }
    csv
}

/// The text slack histogram: power-of-4 buckets over every per-epoch,
/// per-node slack value, with proportional bars. Zero-slack entries
/// (one per epoch: the path-resident node) get their own first bucket.
pub fn slack_histogram(cp: &CritPath) -> String {
    let values = cp.slack_values();
    let mut buckets: Vec<(String, u64)> = vec![("0 (on path)".to_string(), 0)];
    let mut edges: Vec<u64> = Vec::new();
    let max = values.iter().copied().max().unwrap_or(0);
    let mut hi = 4u64;
    while hi / 4 <= max && edges.len() < 24 {
        buckets.push((format!("{}..{}", hi / 4, hi - 1), 0));
        edges.push(hi);
        hi = hi.saturating_mul(4);
        if hi / 4 > max {
            break;
        }
    }
    for v in &values {
        if *v == 0 {
            buckets[0].1 += 1;
        } else {
            let slot = edges
                .iter()
                .position(|&e| *v < e)
                .unwrap_or(edges.len() - 1);
            buckets[slot + 1].1 += 1;
        }
    }
    let peak = buckets.iter().map(|&(_, n)| n).max().unwrap_or(0).max(1);
    let mut out = String::new();
    for (label, n) in &buckets {
        let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
        let _ = writeln!(out, "  {label:<22} {n:>8}  {bar}");
    }
    out
}

/// The per-run text report: path summary, composition table, per-phase
/// residence, slack histogram, hottest on-path blocks and ranked
/// what-ifs.
pub fn critpath_report(cp: &CritPath, whatifs: &[WhatIfRow]) -> String {
    let mut out = String::new();
    let slack = cp.total_slack();
    let busy: u64 = cp.total_by_cat().iter().sum();
    let _ = writeln!(
        out,
        "makespan {} cycles over {} epochs; total slack {} ({:.1}% of all node-cycles \
         is hidden behind a slower node)",
        cp.makespan,
        cp.epochs.len(),
        slack,
        100.0 * slack as f64 / (busy.max(1)) as f64
    );
    out.push_str(&drilldown_table(cp));
    let phases = cp.phase_summary();
    if phases.len() > 1 {
        let _ = writeln!(out, "per-phase path residence:");
        for p in &phases {
            let _ = writeln!(
                out,
                "  {:<10} {:>4} epochs {:>14} path cycles {:>14} slack",
                p.label, p.epochs, p.path_cycles, p.slack
            );
        }
    }
    let _ = writeln!(
        out,
        "slack distribution (cycles ahead of the slowest node):"
    );
    out.push_str(&slack_histogram(cp));
    let blocks = cp.path_blocks();
    if !blocks.is_empty() {
        let _ = writeln!(out, "hottest on-path blocks:");
        for (node, block, cycles) in blocks.iter().take(5) {
            let _ = writeln!(
                out,
                "  block {block:>8} @node{node}: {cycles:>12} cycles on path"
            );
        }
    }
    if !whatifs.is_empty() {
        let _ = writeln!(out, "causal what-ifs (projected makespan):");
        for w in whatifs {
            let delta = 100.0 * (w.predicted as f64 - cp.makespan as f64) / cp.makespan as f64;
            let note = if w.note.is_empty() {
                String::new()
            } else {
                format!("  [{}]", w.note)
            };
            let _ = writeln!(
                out,
                "  {:<26} {:>14} cycles ({delta:+.2}%){note}",
                w.item, w.predicted
            );
        }
    }
    out
}

/// The compact drill-down for the `profile` section: per-category
/// on-path vs slack-hidden cycles. `share` is the fraction of the
/// category's cycles that actually bound the run.
pub fn drilldown_table(cp: &CritPath) -> String {
    let on = cp.on_path_by_cat();
    let totals = cp.total_by_cat();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<18} {:>14} {:>14} {:>14} {:>7}",
        "category", "on_path", "hidden", "total", "share"
    );
    for cat in active_cats(cp) {
        let (o, t) = (on[cat.index()], totals[cat.index()]);
        let _ = writeln!(
            out,
            "  {:<18} {:>14} {:>14} {:>14} {:>6.1}%",
            cat.label(),
            o,
            t - o,
            t,
            100.0 * o as f64 / t as f64
        );
    }
    out
}

/// Perfetto annotations for [`crate::profile::chrome_trace_json`]:
/// one [`FlowArrow`] per matched send→recv edge, and one [`PathSlice`]
/// per path-resident epoch segment plus one per barrier join.
pub fn flow_annotations(cp: &CritPath) -> (Vec<FlowArrow>, Vec<PathSlice>) {
    let flows = cp
        .edges
        .iter()
        .map(|e| FlowArrow {
            from: e.from.0,
            to: e.to.0,
            kind: e.kind,
            bytes: e.bytes,
            send_cycle: e.send_cycle,
            recv_cycle: e.recv_cycle,
        })
        .collect();
    let mut path = Vec::new();
    for e in &cp.epochs {
        if e.end > e.start {
            path.push(PathSlice {
                name: format!("{} @node{}", e.label, e.critical),
                start: e.start,
                dur: e.end - e.start,
                args: format!(
                    "\"epoch\":{},\"node\":{},\"slack_total\":{}",
                    e.index,
                    e.critical,
                    (0..cp.nodes).map(|n| e.slack(n)).sum::<u64>()
                ),
            });
        }
        if e.closed_by_barrier && e.barrier_cost > 0 {
            path.push(PathSlice {
                name: "barrier".to_string(),
                start: e.end,
                dur: e.barrier_cost,
                args: format!("\"epoch\":{}", e.index),
            });
        }
    }
    (flows, path)
}

/// `messages.csv` latency rows from an analysis' matched edges: per
/// kind, the p50/p95/p99 send→recv cycle deltas.
pub fn msg_latency_rows(program: &str, system: &str, cp: &CritPath) -> Vec<MsgLatencyRow> {
    message_latencies(&cp.edges)
        .into_iter()
        .map(|(kind, v)| MsgLatencyRow {
            program: program.to_string(),
            system: system.to_string(),
            kind: kind.to_string(),
            p50: percentile(&v, 50),
            p95: percentile(&v, 95),
            p99: percentile(&v, 99),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_replay::critpath::{EpochSeg, MsgEdge};
    use lcm_sim::NodeId;

    /// A hand-built two-epoch, two-node path: epoch 0 bound by node 1's
    /// remote stalls, epoch 1 (tail) by node 0's compute.
    fn sample() -> CritPath {
        let mut w0 = vec![[0u64; CycleCat::COUNT]; 2];
        w0[0][CycleCat::Compute.index()] = 100;
        w0[1][CycleCat::ReadStallRemote.index()] = 400;
        let mut w1 = vec![[0u64; CycleCat::COUNT]; 2];
        w1[0][CycleCat::Compute.index()] = 200;
        CritPath {
            nodes: 2,
            makespan: 650,
            epochs: vec![
                EpochSeg {
                    index: 0,
                    label: "init",
                    start: 0,
                    end: 400,
                    barrier_cost: 50,
                    closed_by_barrier: true,
                    critical: 1,
                    work: w0,
                    blocks: vec![(1, 7, 400)],
                },
                EpochSeg {
                    index: 1,
                    label: "(end)",
                    start: 450,
                    end: 650,
                    barrier_cost: 0,
                    closed_by_barrier: false,
                    critical: 0,
                    work: w1,
                    blocks: vec![],
                },
            ],
            edges: vec![MsgEdge {
                from: NodeId(1),
                to: NodeId(0),
                kind: "GetShared",
                bytes: 64,
                send_seq: 3,
                recv_seq: 4,
                send_cycle: 400,
                recv_cycle: 420,
            }],
            unmatched_recvs: 0,
            unmatched_sends: 0,
        }
    }

    #[test]
    fn csv_carries_summary_path_and_whatif_blocks() {
        let cp = sample();
        let whatifs = top_whatifs(&cp, 10);
        assert!(!whatifs.is_empty());
        assert!(
            whatifs.len() <= 10,
            "top-10 cap respected: {}",
            whatifs.len()
        );
        let csv = critpath_csv(&[(
            "Stencil-dyn".to_string(),
            "stache".to_string(),
            cp.clone(),
            whatifs,
        )]);
        assert!(
            csv.starts_with("program,system,row,item,on_path_cycles,total_cycles,share_on_path")
        );
        assert!(csv.contains("summary,makespan,650,650,1.0000,,,epochs=2"));
        // Compute: 200 on path (epoch 1) of 300 total.
        assert!(csv.contains("path,compute,200,300,0.6667"), "{csv}");
        // Remote stalls: all 400 on path.
        assert!(csv.contains("path,read_stall_remote,400,400,1.0000"));
        assert!(csv.contains(",whatif,"));
        // Rendering twice is byte-identical (determinism surrogate).
        let again = critpath_csv(&[(
            "Stencil-dyn".to_string(),
            "stache".to_string(),
            sample(),
            top_whatifs(&sample(), 10),
        )]);
        assert_eq!(csv, again);
    }

    #[test]
    fn whatifs_rank_biggest_win_first() {
        let cp = sample();
        let w = top_whatifs(&cp, 3);
        // Removing the read stalls collapses epoch 0 to node 0's 100
        // compute cycles: 100 + 50 + 200 = 350 — the biggest win.
        assert_eq!(w[0].item, "read_stall_remote x0%");
        assert_eq!(w[0].predicted, 350);
        assert!(w.windows(2).all(|p| p[0].predicted <= p[1].predicted));
    }

    #[test]
    fn report_and_drilldown_name_the_load_bearing_category() {
        let cp = sample();
        let report = critpath_report(&cp, &top_whatifs(&cp, 5));
        assert!(report.contains("makespan 650 cycles over 2 epochs"));
        assert!(report.contains("read_stall_remote"));
        assert!(report.contains("slack distribution"));
        assert!(report.contains("block        7 @node1"));
        assert!(report.contains("causal what-ifs"));
        let drill = drilldown_table(&cp);
        assert!(drill.contains("on_path"));
        assert!(drill.contains("100.0%"), "fully on-path stall: {drill}");
    }

    #[test]
    fn slack_histogram_buckets_every_sample() {
        let cp = sample();
        let hist = slack_histogram(&cp);
        // 2 epochs x 2 nodes = 4 samples; bars plus labels per bucket.
        let total: u64 = hist
            .lines()
            .map(|l| {
                l.split_whitespace()
                    .rev()
                    .find(|t| t.chars().all(|c| c.is_ascii_digit()))
                    .map(|t| t.parse::<u64>().unwrap())
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(total, 4, "all samples bucketed:\n{hist}");
        assert!(hist.contains("0 (on path)"));
    }

    #[test]
    fn flow_annotations_cover_edges_epochs_and_barriers() {
        let cp = sample();
        let (flows, path) = flow_annotations(&cp);
        assert_eq!(flows.len(), 1);
        assert_eq!((flows[0].from, flows[0].to), (1, 0));
        // Two epoch slices plus one barrier slice.
        assert_eq!(path.len(), 3);
        assert!(path.iter().any(|s| s.name == "barrier"));
        assert!(path.iter().any(|s| s.name == "init @node1"));
    }

    #[test]
    fn latency_rows_summarize_matched_edges() {
        let cp = sample();
        let rows = msg_latency_rows("Stencil-dyn", "stache", &cp);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].kind, "GetShared");
        assert_eq!((rows[0].p50, rows[0].p95, rows[0].p99), (20, 20, 20));
    }
}
