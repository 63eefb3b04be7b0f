//! Profile exporters: Chrome-trace JSON, text reports, and CSV tables.
//!
//! The cycle-attribution profiler has three consumers, all fed from the
//! same two sources — the conservation-checked
//! [`CycleLedger`](lcm_sim::CycleLedger) carried by every
//! [`RunResult`], and the cycle-stamped event stream [`lcm_apps::execute`]
//! returns when the machine traces:
//!
//! * [`chrome_trace_json`] renders the event stream in the Chrome
//!   trace-event format (load the file at `ui.perfetto.dev` or
//!   `chrome://tracing`): one process track per node, complete ("X")
//!   slices for span-style operations (fault handlers, marks, flushes,
//!   reconciles), instant ("i") events for everything else;
//! * [`profile_report`] prints the per-node cycle breakdown table, the
//!   hottest blocks by stall cycles, and the message-kind histogram;
//! * [`profile_csv`] / [`phases_csv`] emit machine-readable tables for
//!   external plotting.

use lcm_apps::RunResult;
use lcm_replay::MsgEdge;
use lcm_sim::mem::BlockId;
use lcm_sim::trace::Event;
use lcm_sim::{CostModel, CycleCat, LinkUtil, NodeId, Stamped};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// The cycle categories a run actually exercises: every category, minus
/// the late-addition ones when the run charged nothing to them
/// (`net_contention` stays zero under the default unlimited bandwidth;
/// `checkpoint`/`rollback`/`crash_detect` stay zero without an active
/// crash plan). Filtering keeps the breakdown table and `profile.csv`
/// byte-identical for runs that predate those models.
fn visible_cats(r: &RunResult) -> Vec<CycleCat> {
    let dormant_when_zero = [
        CycleCat::NetContention,
        CycleCat::Checkpoint,
        CycleCat::Rollback,
        CycleCat::CrashDetect,
    ];
    CycleCat::all()
        .into_iter()
        .filter(|&cat| !dormant_when_zero.contains(&cat) || r.ledger.totals()[cat.index()] > 0)
        .collect()
}

/// Parses field `idx` (0-based) of a comma-separated `line` as `u64`,
/// naming the offending line and field on failure instead of panicking —
/// CSV tables round-trip through string form in several places, and a
/// malformed line should produce a diagnosable error, not an `unwrap`
/// backtrace.
pub fn csv_field_u64(line: &str, idx: usize) -> Result<u64, String> {
    let field = line
        .split(',')
        .nth(idx)
        .ok_or_else(|| format!("CSV line has no field {idx}: {line:?}"))?;
    field
        .parse::<u64>()
        .map_err(|e| format!("CSV field {idx} ({field:?}) is not a u64 ({e}): {line:?}"))
}

/// A matched send→recv message dependency, rendered as a Perfetto flow
/// arrow between two thin slices on the endpoints' message rows.
#[derive(Clone, Debug)]
pub struct FlowArrow {
    /// Sending node (pid of the arrow's tail).
    pub from: u16,
    /// Receiving node (pid of the arrow's head).
    pub to: u16,
    /// Protocol message kind label.
    pub kind: &'static str,
    /// Bytes on the wire.
    pub bytes: u64,
    /// Sender's clock at the send.
    pub send_cycle: u64,
    /// Receiver's clock at the handling.
    pub recv_cycle: u64,
}

/// One slice on the synthetic critical-path track (pid `nodes + 2`):
/// a path-resident epoch segment or a barrier join.
#[derive(Clone, Debug)]
pub struct PathSlice {
    /// Slice name (e.g. `"apply @node3"` or `"barrier"`).
    pub name: String,
    /// Start cycle.
    pub start: u64,
    /// Duration in cycles.
    pub dur: u64,
    /// Pre-rendered JSON object body for the slice's `args`.
    pub args: String,
}

/// Renders a captured event stream as Chrome trace-event JSON.
///
/// `nodes` sizes the per-node track metadata. Events with no acting node
/// (barriers, reconcile summaries, conflicts) land on a synthetic
/// "machine" track with pid `nodes`. Cycle stamps map 1:1 to the
/// format's microsecond timestamps, so one displayed microsecond is one
/// simulated cycle.
///
/// Three optional extras, each absent from the output when its slice is
/// empty:
/// * `links` — the fabric's per-link utilization (harvested in
///   [`RunResult::links`] when the contention-aware network model is
///   active) on a synthetic "fabric" track with pid `nodes + 1`, one
///   instant per link at ts 0 carrying the message count, busy
///   (serialization) cycles, and queue cycles as args;
/// * `flows` — happens-before arrows from the critical-path analyzer:
///   each [`FlowArrow`] becomes a pair of 1-cycle slices on the
///   endpoints' message rows (`tid` 1) joined by an `s`/`f` flow, which
///   Perfetto draws as an arrow;
/// * `path` — [`PathSlice`]s on a dedicated "critical path" track with
///   pid `nodes + 2`, so the path-resident segments read as one
///   highlighted lane above the node tracks.
pub fn chrome_trace_json(
    events: impl IntoIterator<Item = Stamped>,
    nodes: usize,
    links: &[LinkUtil],
    flows: &[FlowArrow],
    path: &[PathSlice],
) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, ev: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&ev);
    };
    for pid in 0..=nodes {
        let name = if pid == nodes {
            "machine".to_string()
        } else {
            format!("node {pid}")
        };
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
        );
    }
    if !links.is_empty() {
        let fabric = nodes + 1;
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{fabric},\"tid\":0,\
                 \"args\":{{\"name\":\"fabric\"}}}}"
            ),
        );
        for l in links {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"pid\":{fabric},\"tid\":0,\
                     \"ts\":0,\"s\":\"p\",\"args\":{{\"msgs\":{},\"busy_cycles\":{},\
                     \"queue_cycles\":{}}}}}",
                    l.label, l.msgs, l.busy_cycles, l.queue_cycles
                ),
            );
        }
    }
    // Open spans, keyed by (node, label, block); values are begin cycles.
    // Nested spans of the same key close innermost-first.
    let mut open: HashMap<(u16, &'static str, u64), Vec<u64>> = HashMap::new();
    for e in events {
        let pid = e.event.node().map_or(nodes, |n| n.index());
        match e.event {
            Event::SpanBegin { node, what, block } => {
                open.entry((node.0, what, block.0))
                    .or_default()
                    .push(e.cycle);
            }
            Event::SpanEnd { node, what, block } => {
                let begin = open
                    .get_mut(&(node.0, what, block.0))
                    .and_then(Vec::pop)
                    .unwrap_or(e.cycle);
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"{what}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\
                         \"ts\":{begin},\"dur\":{},\"args\":{{\"block\":{}}}}}",
                        e.cycle.saturating_sub(begin),
                        block.0
                    ),
                );
            }
            ref ev => {
                let mut args = String::new();
                if let Some(b) = ev.block() {
                    let _ = write!(args, "\"block\":{}", b.0);
                }
                if let Some(bytes) = ev.bytes() {
                    if !args.is_empty() {
                        args.push(',');
                    }
                    let _ = write!(args, "\"bytes\":{bytes}");
                }
                if let Event::MsgSend { to, kind, .. } = ev {
                    let _ = write!(args, ",\"kind\":\"{kind}\",\"to\":{}", to.index());
                }
                if let Event::MsgRecv { from, kind, .. } = ev {
                    let _ = write!(args, ",\"kind\":\"{kind}\",\"from\":{}", from.index());
                }
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"{}\",\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\
                         \"ts\":{},\"s\":\"t\",\"args\":{{{args}}}}}",
                        ev.kind(),
                        e.cycle
                    ),
                );
            }
        }
    }
    // Spans left open (e.g. a truncated trace): close them at their
    // begin cycle so the slice is visible with zero duration.
    let mut leftovers: Vec<((u16, &'static str, u64), u64)> = open
        .into_iter()
        .flat_map(|(k, begins)| begins.into_iter().map(move |b| (k, b)))
        .collect();
    leftovers.sort_unstable();
    for ((node, what, block), begin) in leftovers {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"{what}\",\"ph\":\"X\",\"pid\":{node},\"tid\":0,\
                 \"ts\":{begin},\"dur\":0,\"args\":{{\"block\":{block}}}}}"
            ),
        );
    }
    for (id, f) in flows.iter().enumerate() {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":1,\
                 \"ts\":{},\"dur\":1,\"args\":{{\"bytes\":{},\"to\":{}}}}}",
                f.kind, f.from, f.send_cycle, f.bytes, f.to
            ),
        );
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"s\",\"id\":{id},\
                 \"pid\":{},\"tid\":1,\"ts\":{}}}",
                f.from, f.send_cycle
            ),
        );
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":1,\
                 \"ts\":{},\"dur\":1,\"args\":{{\"bytes\":{},\"from\":{}}}}}",
                f.kind, f.to, f.recv_cycle, f.bytes, f.from
            ),
        );
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\",\
                 \"id\":{id},\"pid\":{},\"tid\":1,\"ts\":{}}}",
                f.to, f.recv_cycle
            ),
        );
    }
    if !path.is_empty() {
        let cp = nodes + 2;
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{cp},\"tid\":0,\
                 \"args\":{{\"name\":\"critical path\"}}}}"
            ),
        );
        for s in path {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{cp},\"tid\":0,\
                     \"ts\":{},\"dur\":{},\"args\":{{{}}}}}",
                    s.name, s.start, s.dur, s.args
                ),
            );
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// The per-node cycle breakdown: one row per node, one column per
/// [`CycleCat`], plus per-node totals (which the conservation invariant
/// guarantees equal the node clocks) and a machine-wide footer.
pub fn cycle_breakdown_table(r: &RunResult) -> String {
    let cats = visible_cats(r);
    let mut out = String::new();
    let _ = write!(out, "{:<6}", "node");
    for cat in &cats {
        let _ = write!(out, " {:>18}", cat.label());
    }
    let _ = writeln!(out, " {:>16}", "total");
    for n in 0..r.ledger.nodes() {
        let node = NodeId(n as u16);
        let _ = write!(out, "{n:<6}");
        for cat in &cats {
            let _ = write!(out, " {:>18}", r.ledger.get(node, *cat));
        }
        let _ = writeln!(out, " {:>16}", r.ledger.node_total(node));
    }
    let totals = r.ledger.totals();
    let _ = write!(out, "{:<6}", "all");
    for cat in &cats {
        let _ = write!(out, " {:>18}", totals[cat.index()]);
    }
    let sum: u64 = totals.iter().sum();
    let _ = writeln!(out, " {:>16}", sum);
    out
}

/// The blocks with the most stall cycles, reconstructed from the event
/// stream: misses and upgrades weighted by the cost model's fill
/// latencies. Returns up to `n` `(block, stall_cycles)` pairs, hottest
/// first. An empty result means tracing was off (or nothing missed).
pub fn hottest_blocks(
    events: impl IntoIterator<Item = Stamped>,
    cost: &CostModel,
    n: usize,
) -> Vec<(BlockId, u64)> {
    let mut per_block: HashMap<BlockId, u64> = HashMap::new();
    for e in events {
        let (block, cycles) = match e.event {
            Event::ReadMiss { block, remote, .. } | Event::WriteMiss { block, remote, .. } => (
                block,
                if remote {
                    cost.remote_miss
                } else {
                    cost.local_fill
                },
            ),
            Event::Upgrade { block, .. } => (block, cost.upgrade),
            _ => continue,
        };
        *per_block.entry(block).or_default() += cycles;
    }
    let mut hot: Vec<(BlockId, u64)> = per_block.into_iter().collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hot.truncate(n);
    hot
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element with at least `p`% of the sample at or below it. `sorted`
/// must be non-empty.
pub fn percentile<T: Copy>(sorted: &[T], p: u64) -> T {
    let rank = (p * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Send→recv delivery latency samples per message kind, ascending-
/// sorted, kinds in label order, from matched message edges (the
/// critical path's, or [`lcm_replay::match_messages`] over a captured
/// stream). Signed: the stamps are per-node logical clocks, so a fast
/// receiver can handle a slow sender's message at an earlier clock
/// reading.
pub fn message_latencies(edges: &[MsgEdge]) -> Vec<(&'static str, Vec<i64>)> {
    let mut by_kind: BTreeMap<&'static str, Vec<i64>> = BTreeMap::new();
    for edge in edges {
        by_kind.entry(edge.kind).or_default().push(edge.latency());
    }
    by_kind
        .into_iter()
        .map(|(kind, mut v)| {
            v.sort_unstable();
            (kind, v)
        })
        .collect()
}

/// The delivered-message histogram: count and wire bytes per kind, with
/// a proportional bar. Kinds with zero traffic are omitted. When the
/// cycle-stamped event stream is available, p50/p95/p99 delivery-latency
/// columns (sends and recvs paired FIFO per channel by
/// [`lcm_replay::match_messages`]) sit before the bar; kinds whose
/// messages were not captured (e.g. a trace that filled and dropped
/// them) show `-`. With `events` empty — traces absent — there are no
/// latency columns.
pub fn message_histogram(r: &RunResult, events: impl IntoIterator<Item = Stamped>) -> String {
    let lat = message_latencies(&lcm_replay::match_messages(events).0);
    let max = r.msg_kinds.iter().map(|&(_, n)| n).max().unwrap_or(0);
    let mut out = String::new();
    for (&(kind, count), &(_, bytes)) in r.msg_kinds.iter().zip(&r.msg_bytes) {
        if count == 0 {
            continue;
        }
        let bar = "#".repeat(((count * 40).div_ceil(max.max(1))) as usize);
        if lat.is_empty() {
            let _ = writeln!(
                out,
                "{:<14} {count:>12} msgs {bytes:>14} B  {bar}",
                kind.label()
            );
        } else {
            let cols = match lat.iter().find(|&&(k, _)| k == kind.label()) {
                Some((_, v)) => format!(
                    "p50 {:>8} p95 {:>8} p99 {:>8}",
                    percentile(v, 50),
                    percentile(v, 95),
                    percentile(v, 99)
                ),
                None => format!("p50 {:>8} p95 {:>8} p99 {:>8}", "-", "-", "-"),
            };
            let _ = writeln!(
                out,
                "{:<14} {count:>12} msgs {bytes:>14} B {cols}  {bar}",
                kind.label()
            );
        }
    }
    out
}

/// The fabric links with the most occupied (serialization + queueing)
/// cycles, hottest first: up to `n` rows of
/// `label  msgs  busy  queue  occupied`. Empty when the run carried no
/// link utilization — i.e. whenever the contention-aware network model
/// was off.
pub fn hottest_links_table(r: &RunResult, n: usize) -> String {
    let mut links: Vec<&LinkUtil> = r.links.iter().collect();
    links.sort_by(|a, b| {
        (b.busy_cycles + b.queue_cycles, &a.label).cmp(&(a.busy_cycles + a.queue_cycles, &b.label))
    });
    links.truncate(n);
    let mut out = String::new();
    for l in links {
        let _ = writeln!(
            out,
            "  {:<18} {:>10} msgs {:>12} busy {:>12} queued {:>14} occupied",
            l.label,
            l.msgs,
            l.busy_cycles,
            l.queue_cycles,
            l.busy_cycles + l.queue_cycles
        );
    }
    out
}

/// The text profile report for one run: cycle breakdown, hottest blocks,
/// message histogram, hottest fabric links (when the contention model
/// ran), and the trace-completeness note.
pub fn profile_report(
    r: &RunResult,
    events: impl Iterator<Item = Stamped> + Clone,
    cost: &CostModel,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "per-node cycle breakdown ({}):", r.system.label());
    out.push_str(&cycle_breakdown_table(r));
    let hot = hottest_blocks(events.clone(), cost, 10);
    if !hot.is_empty() {
        let _ = writeln!(out, "hottest blocks by stall cycles:");
        for (block, cycles) in hot {
            let _ = writeln!(out, "  block {:>8}: {cycles:>12} cycles", block.0);
        }
    }
    let hist = message_histogram(r, events);
    if !hist.is_empty() {
        let _ = writeln!(out, "messages by kind:");
        out.push_str(&hist);
    }
    let links = hottest_links_table(r, 10);
    if !links.is_empty() {
        let _ = writeln!(out, "hottest fabric links:");
        out.push_str(&links);
    }
    let _ = writeln!(
        out,
        "trace: {} events captured, {} dropped{}",
        r.trace_events,
        r.trace_dropped,
        if r.trace_dropped > 0 {
            " (grow the capture buffer for a complete stream)"
        } else {
            ""
        }
    );
    out
}

/// The `profile.csv` table: one row per `(program, system, node,
/// category)` with its attributed cycles.
pub fn profile_csv(entries: &[(&str, &RunResult)]) -> String {
    let mut csv = String::from("program,system,node,category,cycles\n");
    for (program, r) in entries {
        let cats = visible_cats(r);
        for n in 0..r.ledger.nodes() {
            for cat in &cats {
                let _ = writeln!(
                    csv,
                    "{program},{},{n},{},{}",
                    r.system.label(),
                    cat.label(),
                    r.ledger.get(NodeId(n as u16), *cat)
                );
            }
        }
    }
    csv
}

/// The `phases.csv` table: one row per phase boundary with the cycles
/// and traffic spent *in* that phase (deltas between consecutive
/// snapshots).
pub fn phases_csv(entries: &[(&str, &RunResult)]) -> String {
    let mut csv =
        String::from("program,system,phase,label,end_cycle,phase_cycles,accesses,msgs_sent\n");
    for (program, r) in entries {
        let mut prev_at = 0u64;
        let mut prev_accesses = 0u64;
        let mut prev_msgs = 0u64;
        for (i, p) in r.phases.iter().enumerate() {
            let _ = writeln!(
                csv,
                "{program},{},{i},{},{},{},{},{}",
                r.system.label(),
                p.label,
                p.at,
                p.at - prev_at,
                p.totals.accesses() - prev_accesses,
                p.totals.msgs_sent - prev_msgs
            );
            prev_at = p.at;
            prev_accesses = p.totals.accesses();
            prev_msgs = p.totals.msgs_sent;
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_apps::stencil::Stencil;
    use lcm_apps::{execute, SystemKind};
    use lcm_cstar::{Partition, RuntimeConfig};
    use lcm_sim::{MachineConfig, Trace};

    fn traced_run(system: SystemKind) -> (RunResult, Trace) {
        let w = Stencil {
            rows: 16,
            cols: 16,
            iters: 2,
            partition: Partition::Dynamic,
        };
        let mc = MachineConfig::new(4).with_trace(1 << 20);
        let (_, r, trace) = execute(system, mc, RuntimeConfig::default(), &w);
        assert_eq!(r.trace_dropped, 0, "trace capacity must hold the run");
        (r, trace)
    }

    /// A minimal JSON syntax checker: enough to reject unbalanced or
    /// misquoted output without a JSON dependency.
    fn check_json(s: &str) {
        let mut depth: Vec<char> = Vec::new();
        let mut in_str = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => depth.push('}'),
                '[' => depth.push(']'),
                '}' | ']' => {
                    assert_eq!(depth.pop(), Some(c), "mismatched bracket in {s:.120}…")
                }
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string");
        assert!(depth.is_empty(), "unbalanced brackets");
        assert!(!s.contains(",]") && !s.contains(",}"), "trailing comma");
        assert!(!s.contains("[,") && !s.contains("{,"), "leading comma");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_node_tracks_and_spans() {
        let (_, trace) = traced_run(SystemKind::LcmMcc);
        assert!(!trace.is_empty());
        let json = chrome_trace_json(trace.events(), 4, &[], &[], &[]);
        check_json(&json);
        assert!(json.starts_with("{\"traceEvents\":["));
        for n in 0..4 {
            assert!(
                json.contains(&format!("\"name\":\"node {n}\"")),
                "track {n}"
            );
        }
        assert!(json.contains("\"ph\":\"X\""), "span slices present");
        assert!(json.contains("\"ph\":\"i\""), "instants present");
        assert!(json.contains("\"name\":\"mark\""), "LCM mark spans present");
        // Every span begin/end pair became one complete slice.
        let begins = (trace.events())
            .filter(|e| matches!(e.event, Event::SpanBegin { .. }))
            .count();
        let slices = json.matches("\"ph\":\"X\"").count();
        assert_eq!(slices, begins, "one X slice per span");
    }

    #[test]
    fn unmatched_span_begins_are_closed_not_dropped() {
        let events = vec![Stamped {
            seq: 0,
            cycle: 40,
            event: Event::SpanBegin {
                node: NodeId(1),
                what: "read_fault",
                block: BlockId(3),
            },
        }];
        let json = chrome_trace_json(events, 2, &[], &[], &[]);
        check_json(&json);
        assert!(json.contains("\"dur\":0"));
        assert!(json.contains("\"ts\":40"));
    }

    #[test]
    fn breakdown_table_rows_sum_to_node_clocks() {
        let (r, _) = traced_run(SystemKind::LcmScc);
        let table = cycle_breakdown_table(&r);
        assert!(table.contains("read_stall"), "category columns present");
        for (n, &clock) in r.clocks.iter().enumerate() {
            let node = NodeId(n as u16);
            let sum: u64 = CycleCat::all().iter().map(|&c| r.ledger.get(node, c)).sum();
            assert_eq!(sum, clock, "node {n} conservation");
            assert!(table.contains(&clock.to_string()), "node {n} total printed");
        }
    }

    #[test]
    fn hottest_blocks_weight_remote_misses_heaviest() {
        let cost = CostModel::cm5();
        let events = vec![
            Stamped {
                seq: 0,
                cycle: 0,
                event: Event::ReadMiss {
                    node: NodeId(0),
                    block: BlockId(1),
                    remote: true,
                },
            },
            Stamped {
                seq: 1,
                cycle: 10,
                event: Event::WriteMiss {
                    node: NodeId(0),
                    block: BlockId(2),
                    remote: false,
                },
            },
            Stamped {
                seq: 2,
                cycle: 20,
                event: Event::Upgrade {
                    node: NodeId(1),
                    block: BlockId(2),
                },
            },
        ];
        let hot = hottest_blocks(events, &cost, 10);
        assert_eq!(hot[0], (BlockId(1), cost.remote_miss));
        assert_eq!(hot[1], (BlockId(2), cost.local_fill + cost.upgrade));
    }

    #[test]
    fn csv_tables_cover_every_node_category_and_phase() {
        let (r, _) = traced_run(SystemKind::Stache);
        let profile = profile_csv(&[("Stencil-16", &r)]);
        let rows = profile.lines().count() - 1;
        // A crash-free unlimited-bandwidth run omits the four all-zero
        // late-addition categories (net_contention plus the three
        // recovery ones), keeping the CSV identical to earlier output.
        assert_eq!(rows, 4 * (CycleCat::COUNT - 4), "4 nodes x categories");
        assert!(!profile.contains("net_contention"));
        assert!(!profile.contains("checkpoint"));
        assert!(!profile.contains("rollback"));
        assert!(!profile.contains("crash_detect"));
        assert!(profile.starts_with("program,system,node,category,cycles\n"));

        let phases = phases_csv(&[("Stencil-16", &r)]);
        assert_eq!(phases.lines().count() - 1, r.phases.len());
        assert!(phases.contains(",apply,"));
        // Phase cycle deltas sum back to the last boundary's time.
        let total: u64 = phases
            .lines()
            .skip(1)
            .map(|l| csv_field_u64(l, 5).expect("well-formed phases.csv line"))
            .sum();
        assert_eq!(total, r.phases.last().unwrap().at);
    }

    #[test]
    fn report_mentions_breakdown_hot_blocks_and_drops() {
        let (r, trace) = traced_run(SystemKind::LcmMcc);
        let report = profile_report(&r, trace.events(), &CostModel::cm5());
        assert!(report.contains("per-node cycle breakdown"));
        assert!(report.contains("hottest blocks"));
        assert!(report.contains("messages by kind"));
        assert!(!report.contains("hottest fabric links"), "model was off");
        assert!(report.contains("0 dropped"));
    }

    fn contended_run() -> RunResult {
        let w = Stencil {
            rows: 16,
            cols: 16,
            iters: 2,
            partition: Partition::Dynamic,
        };
        let mc = MachineConfig::new(4).with_cost(CostModel::cm5().with_link_bandwidth(2));
        execute(SystemKind::Stache, mc, RuntimeConfig::default(), &w).1
    }

    #[test]
    fn contended_runs_surface_links_and_the_new_category() {
        let r = contended_run();
        assert!(!r.links.is_empty(), "finite bandwidth populates links");
        let table = cycle_breakdown_table(&r);
        assert!(table.contains("net_contention"), "column appears when hot");
        let csv = profile_csv(&[("Stencil-16", &r)]);
        // net_contention is hot; the three recovery categories stay
        // dormant (no crash plan) and remain hidden.
        assert_eq!(csv.lines().count() - 1, 4 * (CycleCat::COUNT - 3));
        assert!(csv.contains(",net_contention,"));
        let links = hottest_links_table(&r, 3);
        assert_eq!(links.lines().count(), 3, "truncated to n");
        assert!(links.contains("occupied"));
        let report = profile_report(&r, std::iter::empty(), &CostModel::cm5());
        assert!(report.contains("hottest fabric links:"));
    }

    #[test]
    fn crashing_runs_surface_the_recovery_categories() {
        let w = Stencil {
            rows: 16,
            cols: 16,
            iters: 2,
            partition: Partition::Dynamic,
        };
        let cfg = RuntimeConfig {
            crash: lcm_sim::CrashPlan::new(0.5, 0xDEAD),
            ..RuntimeConfig::default()
        };
        let (_, r, _) = execute(SystemKind::Stache, MachineConfig::new(4), cfg, &w);
        assert!(r.totals.crashes > 0, "the schedule crashed nodes");
        let table = cycle_breakdown_table(&r);
        assert!(table.contains("checkpoint"));
        assert!(table.contains("rollback"));
        assert!(table.contains("crash_detect"));
        let csv = profile_csv(&[("Stencil-16", &r)]);
        assert!(csv.contains(",checkpoint,"));
        assert!(csv.contains(",rollback,"));
        assert!(csv.contains(",crash_detect,"));
    }

    #[test]
    fn csv_field_errors_name_the_line_and_field() {
        assert_eq!(csv_field_u64("a,b,42,d", 2), Ok(42));
        let err = csv_field_u64("a,b", 5).expect_err("missing field");
        assert!(err.contains("no field 5"), "unexpected: {err}");
        assert!(err.contains("\"a,b\""), "names the line: {err}");
        let err = csv_field_u64("x,-3,z", 1).expect_err("not a u64");
        assert!(err.contains("field 1"), "unexpected: {err}");
        assert!(err.contains("\"-3\""), "names the field: {err}");
        assert!(err.contains("\"x,-3,z\""), "names the line: {err}");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<i64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[-5, 3], 50), -5);
        assert_eq!(percentile(&[-5, 3], 99), 3);
    }

    fn msg_pair(seq: u64, send_cycle: u64, recv_cycle: u64) -> [Stamped; 2] {
        [
            Stamped {
                seq,
                cycle: send_cycle,
                event: Event::MsgSend {
                    from: NodeId(0),
                    to: NodeId(1),
                    kind: "GetShared",
                    bytes: 64,
                },
            },
            Stamped {
                seq: seq + 1,
                cycle: recv_cycle,
                event: Event::MsgRecv {
                    node: NodeId(1),
                    from: NodeId(0),
                    kind: "GetShared",
                    bytes: 64,
                },
            },
        ]
    }

    #[test]
    fn message_latencies_pair_fifo_and_allow_negative_deltas() {
        let mut events = Vec::new();
        events.extend(msg_pair(0, 100, 150));
        events.extend(msg_pair(2, 200, 180)); // receiver's clock ran behind
        let lat = message_latencies(&lcm_replay::match_messages(events).0);
        assert_eq!(lat.len(), 1);
        assert_eq!(lat[0].0, "GetShared");
        assert_eq!(lat[0].1, vec![-20, 50], "sorted, signed");
    }

    #[test]
    fn histogram_gains_latency_columns_only_with_events() {
        let (r, trace) = traced_run(SystemKind::LcmMcc);
        let plain = message_histogram(&r, []);
        // Traces absent: `kind count msgs bytes B  bar`, no latency.
        assert!(!plain.is_empty());
        for line in plain.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 6, "plain histogram row: {line}");
            assert_eq!((f[2], f[4]), ("msgs", "B"), "plain histogram row: {line}");
            assert!(line.contains(" B  #"), "plain histogram row: {line}");
        }
        let with = message_histogram(&r, trace.events());
        assert_ne!(with, plain);
        assert!(with.contains("p50"), "latency columns present");
        assert!(with.contains("p99"));
        assert_eq!(with.lines().count(), plain.lines().count());
        let report = profile_report(&r, trace.events(), &CostModel::cm5());
        assert!(report.contains("p95"), "report histogram carries latency");
    }

    #[test]
    fn flow_arrows_and_path_track_extend_the_trace_json() {
        let flows = vec![FlowArrow {
            from: 0,
            to: 1,
            kind: "GetShared",
            bytes: 64,
            send_cycle: 100,
            recv_cycle: 150,
        }];
        let path = vec![PathSlice {
            name: "apply @node1".to_string(),
            start: 0,
            dur: 500,
            args: "\"epoch\":0,\"node\":1".to_string(),
        }];
        let json = chrome_trace_json([], 4, &[], &flows, &path);
        check_json(&json);
        assert!(json.contains("\"ph\":\"s\""), "flow start");
        assert!(json.contains("\"ph\":\"f\""), "flow finish");
        assert!(json.contains("\"name\":\"critical path\""));
        assert!(json.contains("apply @node1"));
        assert!(json.contains("\"tid\":1"), "message rows");
        // Without extras the export is the node and machine tracks only.
        assert_eq!(
            chrome_trace_json([], 1, &[], &[], &[]),
            "{\"traceEvents\":[\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"node 0\"}},\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"machine\"}}\
             ],\"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn link_utilization_rides_a_fabric_trace_track() {
        let r = contended_run();
        let json = chrome_trace_json([], 4, &r.links, &[], &[]);
        check_json(&json);
        assert!(json.contains("\"name\":\"fabric\""));
        assert!(json.contains("queue_cycles"));
        // With no links there is no fabric track, so existing traces
        // stay byte-identical.
        let plain = chrome_trace_json([], 4, &[], &[], &[]);
        assert!(!plain.contains("fabric") && !plain.contains("\"pid\":5"));
    }
}
