//! The experiment suite: regenerates every table and figure of the paper.
//!
//! * **Table 1** — cache misses and clean copies per benchmark/system;
//! * **Figure 2** — Stencil execution time (stat & dyn × 3 systems);
//! * **Figure 3** — Adaptive (stat & dyn), Threshold, Unstructured
//!   execution time × 3 systems;
//! * **§6.3 claims** — the prose's ordering/ratio statements, checked
//!   mechanically.
//!
//! A [`Suite`] runs each benchmark once per system and serves all views
//! from the cached results. [`Scale::Paper`] uses the paper's exact
//! problem sizes on 32 processors; smaller scales keep CI fast.

use crate::adaptive::Adaptive;
use crate::common::{execute, RunResult, SystemKind, Workload};
use crate::stencil::Stencil;
use crate::threshold::Threshold;
use crate::unstructured::Unstructured;
use lcm_cstar::{Partition, RuntimeConfig};
use std::collections::BTreeMap;
use std::fmt;

/// Problem-size scaling.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The paper's sizes: 32 processors, Stencil 1024²×50, Adaptive
    /// 64²×100 (depth ≤ 4), Threshold 512²×50, Unstructured 256/1024×512.
    Paper,
    /// Reduced sizes preserving every ordering; minutes → seconds.
    Medium,
    /// Tiny smoke-test sizes (orderings not guaranteed).
    Smoke,
}

impl Scale {
    /// Processor count at this scale.
    pub fn nodes(self) -> usize {
        match self {
            Scale::Paper => 32,
            Scale::Medium => 16,
            Scale::Smoke => 4,
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scale::Paper => "paper",
            Scale::Medium => "medium",
            Scale::Smoke => "smoke",
        };
        f.write_str(s)
    }
}

/// The benchmarks of the evaluation (§6.3).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Benchmark {
    /// Stencil, statically partitioned.
    StencilStat,
    /// Stencil, dynamically partitioned.
    StencilDyn,
    /// Adaptive, statically partitioned.
    AdaptiveStat,
    /// Adaptive, dynamically partitioned.
    AdaptiveDyn,
    /// Threshold.
    Threshold,
    /// Unstructured.
    Unstructured,
}

impl Benchmark {
    /// All benchmarks, in the paper's order.
    pub fn all() -> [Benchmark; 6] {
        [
            Benchmark::StencilStat,
            Benchmark::StencilDyn,
            Benchmark::AdaptiveStat,
            Benchmark::AdaptiveDyn,
            Benchmark::Threshold,
            Benchmark::Unstructured,
        ]
    }

    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Benchmark::StencilStat => "Stencil-stat",
            Benchmark::StencilDyn => "Stencil-dyn",
            Benchmark::AdaptiveStat => "Adaptive-stat",
            Benchmark::AdaptiveDyn => "Adaptive-dyn",
            Benchmark::Threshold => "Threshold",
            Benchmark::Unstructured => "Unstructured",
        }
    }

    /// Runs this benchmark on one system at the given scale.
    pub fn run(self, scale: Scale, system: SystemKind) -> RunResult {
        let nodes = scale.nodes();
        let cfg = RuntimeConfig::default();
        fn go<W: Workload>(
            system: SystemKind,
            nodes: usize,
            cfg: RuntimeConfig,
            w: &W,
        ) -> RunResult {
            execute(system, nodes, cfg, w).1
        }
        match (self, scale) {
            (Benchmark::StencilStat, Scale::Paper) => {
                go(system, nodes, cfg, &Stencil::paper(Partition::Static))
            }
            (Benchmark::StencilStat, Scale::Medium) => go(
                system,
                nodes,
                cfg,
                &Stencil {
                    rows: 256,
                    cols: 256,
                    iters: 15,
                    partition: Partition::Static,
                },
            ),
            (Benchmark::StencilStat, Scale::Smoke) => {
                go(system, nodes, cfg, &Stencil::small(Partition::Static))
            }
            (Benchmark::StencilDyn, Scale::Paper) => {
                go(system, nodes, cfg, &Stencil::paper(Partition::Dynamic))
            }
            (Benchmark::StencilDyn, Scale::Medium) => go(
                system,
                nodes,
                cfg,
                &Stencil {
                    rows: 256,
                    cols: 256,
                    iters: 15,
                    partition: Partition::Dynamic,
                },
            ),
            (Benchmark::StencilDyn, Scale::Smoke) => {
                go(system, nodes, cfg, &Stencil::small(Partition::Dynamic))
            }
            (Benchmark::AdaptiveStat, Scale::Paper) => {
                go(system, nodes, cfg, &Adaptive::paper(Partition::Static))
            }
            (Benchmark::AdaptiveStat, Scale::Medium) => go(
                system,
                nodes,
                cfg,
                &Adaptive {
                    size: 64,
                    iters: 40,
                    ..Adaptive::paper(Partition::Static)
                },
            ),
            (Benchmark::AdaptiveStat, Scale::Smoke) => {
                go(system, nodes, cfg, &Adaptive::small(Partition::Static))
            }
            (Benchmark::AdaptiveDyn, Scale::Paper) => {
                go(system, nodes, cfg, &Adaptive::paper(Partition::Dynamic))
            }
            (Benchmark::AdaptiveDyn, Scale::Medium) => go(
                system,
                nodes,
                cfg,
                &Adaptive {
                    size: 64,
                    iters: 40,
                    ..Adaptive::paper(Partition::Dynamic)
                },
            ),
            (Benchmark::AdaptiveDyn, Scale::Smoke) => {
                go(system, nodes, cfg, &Adaptive::small(Partition::Dynamic))
            }
            (Benchmark::Threshold, Scale::Paper) => go(system, nodes, cfg, &Threshold::paper()),
            (Benchmark::Threshold, Scale::Medium) => go(
                system,
                nodes,
                cfg,
                &Threshold {
                    size: 256,
                    iters: 15,
                    threshold: 1.0,
                    sources: 6,
                },
            ),
            (Benchmark::Threshold, Scale::Smoke) => go(system, nodes, cfg, &Threshold::small()),
            (Benchmark::Unstructured, Scale::Paper) => {
                go(system, nodes, cfg, &Unstructured::paper())
            }
            (Benchmark::Unstructured, Scale::Medium) => go(
                system,
                nodes,
                cfg,
                &Unstructured {
                    iters: 100,
                    ..Unstructured::paper()
                },
            ),
            (Benchmark::Unstructured, Scale::Smoke) => {
                go(system, nodes, cfg, &Unstructured::small())
            }
        }
    }

    /// The paper's Table 1 reference values, in thousands.
    /// `None` where the paper's row is blank. Note the scanned table's
    /// Stencil-stat miss columns contradict the prose ("mcc reduced cache
    /// misses by a factor of almost 8 over scc"); we report the printed
    /// values as-is.
    pub fn paper_table1(self) -> Option<PaperTable1Row> {
        match self {
            Benchmark::StencilStat => Some((Some(3216.0), 6374.0, 1035.0, Some(13.0), 406.0)),
            Benchmark::StencilDyn => Some((None, 6615.0, 12696.0, None, 6541.0)),
            // The paper's Adaptive/Threshold/Unstructured rows do not
            // split stat/dyn; attach them to the static rows.
            Benchmark::AdaptiveStat => Some((Some(4427.0), 3335.0, 2245.0, Some(66.0), 2398.0)),
            Benchmark::AdaptiveDyn => None,
            Benchmark::Threshold => Some((Some(411.0), 116.0, 432.0, Some(2.0), 63.0)),
            Benchmark::Unstructured => Some((Some(1168.0), 1156.0, 1176.0, Some(0.0), 130.0)),
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One Table 1 row: `(benchmark, [misses scc, mcc, copying], [clean scc, mcc])`.
pub type Table1Row = (Benchmark, [u64; 3], [u64; 2]);

/// The paper's printed Table 1 values, in thousands:
/// `(misses scc, misses mcc, misses copying, clean scc, clean mcc)`,
/// with `None` for cells the paper leaves blank.
pub type PaperTable1Row = (Option<f64>, f64, f64, Option<f64>, f64);

/// A checked §6.3 prose claim.
#[derive(Clone, Debug)]
pub struct Claim {
    /// What the paper says.
    pub description: &'static str,
    /// The ratio the paper reports.
    pub paper: &'static str,
    /// The ratio we measured.
    pub measured: String,
    /// Whether the qualitative statement holds in our run.
    pub holds: bool,
}

/// All benchmark runs at one scale, cached for the table/figure views.
#[derive(Clone, Debug)]
pub struct Suite {
    scale: Scale,
    results: BTreeMap<(Benchmark, u8), RunResult>,
}

fn sys_index(system: SystemKind) -> u8 {
    match system {
        SystemKind::LcmScc => 0,
        SystemKind::LcmMcc => 1,
        SystemKind::Stache => 2,
    }
}

impl Suite {
    /// Runs every benchmark on every system at `scale`, serially.
    pub fn run(scale: Scale) -> Suite {
        Suite::run_jobs(scale, 1)
    }

    /// Runs every benchmark on every system at `scale` on a pool of at
    /// most `jobs` worker threads.
    ///
    /// The sweep points are enumerated in canonical order —
    /// [`Benchmark::all`] × [`SystemKind::all`] — and results are
    /// assembled by that index, so the suite is byte-identical to a
    /// serial run no matter how the pool schedules the work. Each point
    /// is an independent simulation (own machine, own protocol, own
    /// seeded RNG); a sanitizer panic in a worker propagates here.
    pub fn run_jobs(scale: Scale, jobs: usize) -> Suite {
        let mut points = Vec::with_capacity(18);
        for b in Benchmark::all() {
            for s in SystemKind::all() {
                points.push((b, s));
            }
        }
        let keys: Vec<(Benchmark, u8)> = points.iter().map(|&(b, s)| (b, sys_index(s))).collect();
        let runs = lcm_sim::par_map(jobs, points, |_, (b, s)| b.run(scale, s));
        let results: BTreeMap<(Benchmark, u8), RunResult> = keys.into_iter().zip(runs).collect();
        Suite { scale, results }
    }

    /// The scale this suite ran at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The result of one benchmark on one system.
    ///
    /// # Panics
    /// Panics if the suite somehow lacks the combination (it cannot,
    /// after [`Suite::run`]).
    pub fn result(&self, b: Benchmark, s: SystemKind) -> &RunResult {
        self.results
            .get(&(b, sys_index(s)))
            .expect("suite ran all combinations")
    }

    /// Table 1: `(benchmark, [misses scc, mcc, copying], [clean scc, mcc])`.
    pub fn table1(&self) -> Vec<Table1Row> {
        Benchmark::all()
            .into_iter()
            .map(|b| {
                let scc = self.result(b, SystemKind::LcmScc);
                let mcc = self.result(b, SystemKind::LcmMcc);
                let cp = self.result(b, SystemKind::Stache);
                (
                    b,
                    [scc.misses(), mcc.misses(), cp.misses()],
                    [scc.clean_copies(), mcc.clean_copies()],
                )
            })
            .collect()
    }

    /// Figure 2: Stencil execution times, `(benchmark, system, cycles)`.
    pub fn fig2(&self) -> Vec<(Benchmark, SystemKind, u64)> {
        let mut rows = Vec::new();
        for b in [Benchmark::StencilStat, Benchmark::StencilDyn] {
            for s in SystemKind::all() {
                rows.push((b, s, self.result(b, s).time));
            }
        }
        rows
    }

    /// Figure 3: the other benchmarks' execution times.
    pub fn fig3(&self) -> Vec<(Benchmark, SystemKind, u64)> {
        let mut rows = Vec::new();
        for b in [
            Benchmark::AdaptiveStat,
            Benchmark::AdaptiveDyn,
            Benchmark::Threshold,
            Benchmark::Unstructured,
        ] {
            for s in SystemKind::all() {
                rows.push((b, s, self.result(b, s).time));
            }
        }
        rows
    }

    /// The §6.3 prose claims, checked against this suite's measurements.
    pub fn claims(&self) -> Vec<Claim> {
        let t = |b: Benchmark, s: SystemKind| self.result(b, s).time as f64;
        let m = |b: Benchmark, s: SystemKind| self.result(b, s).misses() as f64;
        use Benchmark::*;
        use SystemKind::*;
        let ratio = |a: f64, b: f64| format!("{:.2}x", a / b);
        let mut claims = Vec::new();

        let scc = t(StencilStat, LcmScc);
        let mcc = t(StencilStat, LcmMcc);
        claims.push(Claim {
            description: "Stencil: LCM-scc is roughly four times slower than LCM-mcc",
            paper: "~4x",
            measured: ratio(scc, mcc),
            holds: scc > 1.5 * mcc,
        });
        claims.push(Claim {
            description:
                "Stencil: LCM-mcc reduces cache misses by a factor of almost 8 over LCM-scc",
            paper: "~8x",
            measured: ratio(m(StencilStat, LcmScc), m(StencilStat, LcmMcc)),
            holds: m(StencilStat, LcmScc) > 3.0 * m(StencilStat, LcmMcc),
        });
        claims.push(Claim {
            description: "Stencil-stat runs almost five times faster under Stache",
            paper: "~5x",
            measured: ratio(t(StencilStat, LcmMcc), t(StencilStat, Stache)),
            holds: t(StencilStat, LcmMcc) > 2.0 * t(StencilStat, Stache),
        });
        claims.push(Claim {
            description: "Stencil-dyn: LCM-mcc at least matches Stache",
            paper: "2% faster",
            measured: ratio(t(StencilDyn, Stache), t(StencilDyn, LcmMcc)),
            holds: t(StencilDyn, LcmMcc) <= 1.05 * t(StencilDyn, Stache),
        });
        claims.push(Claim {
            description: "Adaptive-stat: LCM runs somewhat slower than statically-scheduled Stache",
            paper: "13% slower",
            measured: ratio(t(AdaptiveStat, LcmMcc), t(AdaptiveStat, Stache)),
            holds: t(AdaptiveStat, LcmMcc) >= 0.95 * t(AdaptiveStat, Stache),
        });
        claims.push(Claim {
            description: "Adaptive-dyn: LCM-mcc is almost two times faster than Stache",
            paper: "92% faster",
            measured: ratio(t(AdaptiveDyn, Stache), t(AdaptiveDyn, LcmMcc)),
            holds: t(AdaptiveDyn, Stache) > 1.2 * t(AdaptiveDyn, LcmMcc),
        });
        claims.push(Claim {
            description: "Threshold: LCM runs considerably faster than Stache (both variants)",
            paper: "97% / 74% faster",
            measured: format!(
                "mcc {} / scc {}",
                ratio(t(Threshold, Stache), t(Threshold, LcmMcc)),
                ratio(t(Threshold, Stache), t(Threshold, LcmScc))
            ),
            holds: t(Threshold, Stache) > 1.3 * t(Threshold, LcmMcc)
                && t(Threshold, Stache) > 1.3 * t(Threshold, LcmScc),
        });
        claims.push(Claim {
            description: "Threshold: LCM-mcc is faster than LCM-scc (spatial reuse)",
            paper: "12% faster",
            measured: ratio(t(Threshold, LcmScc), t(Threshold, LcmMcc)),
            holds: t(Threshold, LcmMcc) <= t(Threshold, LcmScc),
        });
        claims.push(Claim {
            description: "Unstructured: LCM is faster than Stache",
            paper: "19-28% faster",
            measured: ratio(t(Unstructured, Stache), t(Unstructured, LcmMcc)),
            holds: t(Unstructured, Stache) > 1.05 * t(Unstructured, LcmMcc),
        });
        claims.push(Claim {
            description: "Unstructured: LCM-mcc exceeds LCM-scc (spatial reuse)",
            paper: "8%",
            measured: ratio(t(Unstructured, LcmScc), t(Unstructured, LcmMcc)),
            holds: t(Unstructured, LcmMcc) <= t(Unstructured, LcmScc),
        });
        claims.push(Claim {
            description: "Stencil-dyn under copying has far more misses than under LCM-mcc",
            paper: "12,696k vs 6,615k",
            measured: ratio(m(StencilDyn, Stache), m(StencilDyn, LcmMcc)),
            holds: m(StencilDyn, Stache) > 1.5 * m(StencilDyn, LcmMcc),
        });
        claims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_runs_everything() {
        let suite = Suite::run(Scale::Smoke);
        assert_eq!(suite.table1().len(), 6);
        assert_eq!(suite.fig2().len(), 6);
        assert_eq!(suite.fig3().len(), 12);
        assert_eq!(suite.claims().len(), 11);
        for (b, misses, clean) in suite.table1() {
            assert!(misses.iter().all(|&x| x > 0), "{b}: misses measured");
            assert!(
                clean[1] >= clean[0],
                "{b}: mcc makes at least as many clean copies"
            );
        }
    }

    #[test]
    fn labels_and_refs_are_consistent() {
        for b in Benchmark::all() {
            assert!(!b.label().is_empty());
        }
        assert!(Benchmark::StencilStat.paper_table1().is_some());
        assert!(Benchmark::AdaptiveDyn.paper_table1().is_none());
        assert_eq!(Scale::Paper.nodes(), 32);
        assert_eq!(format!("{}", Scale::Medium), "medium");
    }
}
