//! Workload harness: build a memory system, run a program, harvest results.
//!
//! The paper evaluates each benchmark on three memory systems. A
//! [`Workload`] is written once, generically over [`MemoryProtocol`]; a
//! [`SystemKind`] picks the protocol and matching compilation strategy
//! (explicit copying for Stache, LCM directives for LCM) and
//! [`execute`] — the one way to run a simulation — returns the measured
//! [`RunResult`].

use lcm_core::{Lcm, LcmVariant};
use lcm_cstar::{Runtime, RuntimeConfig, Strategy};
use lcm_rsm::MemoryProtocol;
use lcm_sim::{CycleLedger, MachineConfig, NodeStats, PhaseSnapshot, Trace};
use lcm_stache::Stache;
use lcm_tempest::MsgKind;
use std::fmt;

/// The three memory systems of the paper's evaluation (§6.3).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SystemKind {
    /// The unmodified Stache protocol with compiler-generated explicit
    /// copying (the baseline).
    Stache,
    /// LCM keeping a single clean copy at each block's home node.
    LcmScc,
    /// LCM keeping a clean copy on every node that obtains a marked block.
    LcmMcc,
}

impl SystemKind {
    /// All systems, in the paper's presentation order.
    pub fn all() -> [SystemKind; 3] {
        [SystemKind::LcmScc, SystemKind::LcmMcc, SystemKind::Stache]
    }

    /// This system's position in [`SystemKind::all`].
    pub fn index(self) -> usize {
        match self {
            SystemKind::LcmScc => 0,
            SystemKind::LcmMcc => 1,
            SystemKind::Stache => 2,
        }
    }

    /// The short name used in tables ("LCM-scc", "LCM-mcc", "Stache").
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Stache => "Stache",
            SystemKind::LcmScc => "LCM-scc",
            SystemKind::LcmMcc => "LCM-mcc",
        }
    }
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A C\*\* program, written once and runnable on any memory system.
pub trait Workload {
    /// Application-level output (checksums, counts) used for validation.
    type Output;

    /// Runs the program to completion on the given runtime.
    fn run<P: MemoryProtocol>(&self, rt: &mut Runtime<P>) -> Self::Output;
}

/// The measurements of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Which system ran.
    pub system: SystemKind,
    /// Execution time in simulated cycles (max node clock at completion).
    pub time: u64,
    /// Sum of all nodes' protocol counters.
    pub totals: NodeStats,
    /// Delivered protocol messages by kind, in [`MsgKind::all`] order.
    pub msg_kinds: Vec<(MsgKind, u64)>,
    /// Message attempts lost to fault injection (zero on a reliable run).
    pub net_dropped: u64,
    /// Duplicate deliveries detected under fault injection.
    pub net_duplicated: u64,
    /// Per-node cycle attribution (conservation-checked at harvest: on
    /// every node the category sums equal the final clock).
    pub ledger: CycleLedger,
    /// Final per-node logical clocks, indexed by node.
    pub clocks: Vec<u64>,
    /// Cumulative per-phase snapshots stamped by the runtime at each
    /// parallel step / barrier epoch (empty when no phases were marked).
    pub phases: Vec<PhaseSnapshot>,
    /// Wire bytes delivered per message kind, in [`MsgKind::all`] order.
    pub msg_bytes: Vec<(MsgKind, u64)>,
    /// Events captured by the bounded trace (zero when tracing is off).
    pub trace_events: usize,
    /// Events lost when the bounded trace buffer wrapped.
    pub trace_dropped: u64,
    /// Per-link fabric utilization, for links that carried traffic.
    /// Empty unless the cost model set a finite link bandwidth (the
    /// contention-aware network model is off by default).
    pub links: Vec<lcm_sim::LinkUtil>,
}

impl RunResult {
    /// The paper's "cache misses" metric.
    pub fn misses(&self) -> u64 {
        self.totals.misses()
    }

    /// The paper's "clean copies" metric.
    pub fn clean_copies(&self) -> u64 {
        self.totals.clean_copies
    }

    /// Total messages delivered (the per-kind sum).
    pub fn msgs_total(&self) -> u64 {
        self.msg_kinds.iter().map(|(_, n)| n).sum()
    }

    /// Delivered messages of one kind.
    pub fn msgs_of(&self, kind: MsgKind) -> u64 {
        self.msg_kinds
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n)
    }

    /// A deterministic fingerprint of every measured field (FNV-1a over
    /// the full `Debug` rendering). Two runs of the same configuration
    /// must produce equal digests regardless of what else ran on the
    /// process — the determinism tests compare these across `--jobs`
    /// settings.
    pub fn digest(&self) -> u64 {
        lcm_sim::fnv1a(format!("{self:?}").as_bytes())
    }

    /// Harvests a finished run from a protocol: time, counters, per-kind
    /// message counts, and the cycle-attribution ledger. Runs the
    /// coherence-invariant sanitizer first — which includes the ledger
    /// conservation check — and panics with its cycle-stamped diagnostic
    /// on violation.
    pub fn harvest<P: MemoryProtocol>(system: SystemKind, mem: &P) -> RunResult {
        lcm_rsm::sanitizer::enforce(mem);
        let t = mem.tempest();
        let machine = &t.machine;
        RunResult {
            system,
            time: machine.time(),
            totals: machine.total_stats(),
            msg_kinds: t.net.per_kind().collect(),
            net_dropped: t.net.dropped(),
            net_duplicated: t.net.duplicated(),
            ledger: machine.ledger().clone(),
            clocks: machine.node_ids().map(|n| machine.clock(n)).collect(),
            phases: machine.phases().to_vec(),
            msg_bytes: MsgKind::all()
                .into_iter()
                .map(|k| (k, t.net.bytes_of(k)))
                .collect(),
            trace_events: machine.trace().len(),
            trace_dropped: machine.trace().dropped(),
            links: machine.link_utilization(),
        }
    }
}

/// Runs `workload` on `system` over the machine `mc`: the one place a
/// [`SystemKind`] becomes a protocol and its compilation strategy.
/// Returns the program output, the measurements, and the recorded event
/// trace, still encoded — empty unless `mc` enables tracing
/// ([`MachineConfig::with_trace`]) or capture
/// ([`MachineConfig::with_capture`]).
///
/// In capture mode the pending coalesced work records are flushed
/// before harvest, so the events account for every charged cycle; the
/// `lcm-replay` crate turns that stream into a `.lcmtrace` file and
/// re-prices it under any cost model without re-executing the program.
/// A capture whose buffer overflowed (`trace_dropped > 0`) is unusable
/// for replay, so size it generously.
///
/// Faults ([`MachineConfig::with_faults`]) and crashes
/// ([`RuntimeConfig::crash`]) change costs and statistics only — the
/// output is bit-identical to the clean run. Every run ends with the
/// coherence-invariant sanitizer ([`lcm_rsm::sanitizer`]); a violation
/// panics with a cycle-stamped diagnostic.
pub fn execute<W: Workload>(
    system: SystemKind,
    mc: MachineConfig,
    config: RuntimeConfig,
    workload: &W,
) -> (W::Output, RunResult, Trace) {
    fn go<P: MemoryProtocol, W: Workload>(
        system: SystemKind,
        mut rt: Runtime<P>,
        workload: &W,
    ) -> (W::Output, RunResult, Trace) {
        let out = workload.run(&mut rt);
        rt.mem_mut().tempest_mut().machine.finish_capture();
        let result = RunResult::harvest(system, rt.mem());
        let trace = rt.mem_mut().tempest_mut().machine.take_trace();
        (out, result, trace)
    }
    match system {
        SystemKind::Stache => go(
            system,
            Runtime::with_config(Stache::new(mc), Strategy::ExplicitCopy, config),
            workload,
        ),
        SystemKind::LcmScc => go(
            system,
            Runtime::with_config(
                Lcm::new(mc, LcmVariant::Scc),
                Strategy::LcmDirectives,
                config,
            ),
            workload,
        ),
        SystemKind::LcmMcc => go(
            system,
            Runtime::with_config(
                Lcm::new(mc, LcmVariant::Mcc),
                Strategy::LcmDirectives,
                config,
            ),
            workload,
        ),
    }
}

/// Runs `workload` on all three systems, asserting the outputs agree, and
/// returns the results in [`SystemKind::all`] order.
pub fn execute_all<W: Workload>(nodes: usize, config: RuntimeConfig, workload: &W) -> Vec<RunResult>
where
    W::Output: PartialEq + fmt::Debug,
{
    let mut results = Vec::new();
    let mut reference: Option<W::Output> = None;
    for system in SystemKind::all() {
        let (out, result, _) = execute(system, MachineConfig::new(nodes), config, workload);
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(r, &out, "{system} computed a different result"),
        }
        results.push(result);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_cstar::Partition;
    use lcm_sim::FaultConfig;
    use lcm_tempest::Placement;

    /// A trivial workload: every element incremented once.
    struct Increment {
        len: usize,
    }

    impl Workload for Increment {
        type Output = Vec<i32>;

        fn run<P: MemoryProtocol>(&self, rt: &mut Runtime<P>) -> Vec<i32> {
            let a = rt.new_aggregate1::<i32>(self.len, Placement::Blocked, "v");
            rt.init1(a, |i| i as i32);
            rt.apply1(a, Partition::Static, |inv, i| {
                let v = inv.get(a.at(i));
                inv.set(a.at(i), v + 1);
            });
            (0..self.len).map(|i| rt.peek1(a, i)).collect()
        }
    }

    #[test]
    fn all_systems_compute_the_same_answer() {
        let results = execute_all(4, RuntimeConfig::default(), &Increment { len: 64 });
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.time > 0);
            assert!(r.totals.accesses() > 0);
        }
    }

    #[test]
    fn lcm_runs_report_clean_copies_stache_does_not() {
        let results = execute_all(4, RuntimeConfig::default(), &Increment { len: 64 });
        let by = |k: SystemKind| results.iter().find(|r| r.system == k).unwrap();
        assert!(by(SystemKind::LcmScc).clean_copies() > 0);
        assert!(by(SystemKind::LcmMcc).clean_copies() >= by(SystemKind::LcmScc).clean_copies());
        assert_eq!(by(SystemKind::Stache).clean_copies(), 0);
    }

    #[test]
    fn faulty_runs_compute_identical_answers_at_higher_cost() {
        let w = Increment { len: 64 };
        for system in SystemKind::all() {
            let (clean_out, clean, _) =
                execute(system, MachineConfig::new(4), RuntimeConfig::default(), &w);
            let faults = FaultConfig {
                drop_rate: 0.05,
                dup_rate: 0.02,
                seed: 11,
                ..FaultConfig::default()
            };
            let mc = MachineConfig::new(4).with_faults(faults);
            let (faulty_out, faulty, _) = execute(system, mc, RuntimeConfig::default(), &w);
            assert_eq!(clean_out, faulty_out, "{system}: faults changed the answer");
            assert!(
                faulty.time >= clean.time,
                "{system}: faults cannot speed a run up"
            );
            assert_eq!(clean.net_dropped, 0);
            assert_eq!(clean.totals.fault_events(), 0);
            assert_eq!(faulty.net_dropped, faulty.totals.msgs_dropped);
            assert_eq!(faulty.net_duplicated, faulty.totals.msgs_duplicated);
        }
    }

    #[test]
    fn message_conservation_holds_per_run() {
        // Satellite invariant: every delivered message is counted at both
        // ends, and the network's total equals the per-kind sum.
        let w = Increment { len: 64 };
        for system in SystemKind::all() {
            for faults in [
                FaultConfig::default(),
                FaultConfig {
                    drop_rate: 0.03,
                    dup_rate: 0.03,
                    delay_rate: 0.03,
                    seed: 5,
                    ..FaultConfig::default()
                },
            ] {
                let mc = MachineConfig::new(4).with_faults(faults);
                let (_, r, _) = execute(system, mc, RuntimeConfig::default(), &w);
                assert_eq!(
                    r.totals.msgs_sent, r.totals.msgs_recv,
                    "{system}: conservation"
                );
                assert_eq!(
                    r.msgs_total(),
                    r.totals.msgs_sent,
                    "{system}: network vs node counts"
                );
            }
        }
    }

    #[test]
    fn harvest_captures_ledger_phases_and_bytes() {
        let (_, r, _) = execute(
            SystemKind::LcmMcc,
            MachineConfig::new(4),
            RuntimeConfig::default(),
            &Increment { len: 64 },
        );
        assert_eq!(r.clocks.len(), 4);
        for (n, &clock) in r.clocks.iter().enumerate() {
            assert_eq!(
                r.ledger.node_total(lcm_sim::NodeId(n as u16)),
                clock,
                "node {n}: ledger total vs clock"
            );
        }
        assert!(!r.phases.is_empty(), "init + apply phases stamped");
        let last = r.phases.last().unwrap();
        assert_eq!(last.label, "apply");
        assert!(last.at <= r.time);
        let bytes: u64 = r.msg_bytes.iter().map(|(_, b)| b).sum();
        assert_eq!(bytes, r.totals.bytes_sent, "per-kind bytes vs node bytes");
        assert_eq!(r.totals.bytes_sent, r.totals.bytes_recv);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SystemKind::Stache.to_string(), "Stache");
        assert_eq!(SystemKind::LcmScc.label(), "LCM-scc");
        assert_eq!(SystemKind::all().len(), 3);
        for (i, s) in SystemKind::all().into_iter().enumerate() {
            assert_eq!(s.index(), i, "{s}");
        }
    }
}
