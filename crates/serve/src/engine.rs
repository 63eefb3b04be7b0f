//! The resident query engine: loaded traces, the result cache, and the
//! batched what-if execution path shared by the in-process API, the
//! explore sweep and the TCP server.

use lcm_replay::codec::{cost_fields, COST_FIELDS};
use lcm_replay::{compare_replayed, replay, reprice, DiffIndex, Replayed, TraceHandle};
use lcm_sim::{par_map, CostModel, CycleCat, DirBackend, NodeId, NodeStats, Topology};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One what-if: re-price a loaded trace under this machine pricing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// Name of a loaded trace (see [`ServeEngine::trace_names`]).
    pub trace: String,
    /// Cost model to re-price under.
    pub cost: CostModel,
    /// Topology of the replay contention fabric.
    pub topology: Topology,
    /// Directory backend of the queried machine. Replay explores
    /// pricing, not policy, so the backend never changes the replayed
    /// numbers — but it is part of the cache-key identity, so results
    /// computed for different machines never alias.
    pub backend: DirBackend,
}

/// The serve-cache key: the loaded trace, every cost-model field, the
/// topology and the backend, compared exactly.
///
/// [`CacheKey::new`] is the *raw* key of a query, with every component
/// present, so any single knob change misses. The engine also files
/// each result under a private *canonical* key that drops what the
/// trace cannot observe; queries with equal canonical keys price
/// identically, which is what neighbor reuse serves from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    trace: u64,
    cost: [u64; COST_FIELDS],
    topology: Option<Topology>,
    backend: Option<DirBackend>,
}

impl CacheKey {
    /// The raw key for `query` against the loaded trace `trace` (the id
    /// [`ServeEngine::load`] assigned it).
    pub fn new(trace: u64, query: &Query) -> CacheKey {
        CacheKey {
            trace,
            cost: cost_fields(&query.cost),
            topology: Some(query.topology),
            backend: Some(query.backend),
        }
    }

    /// The canonical key for `query` against a trace whose differential
    /// index is `idx`: every cost field the trace is insensitive to at
    /// the query's bandwidth is zeroed, the topology is dropped when no
    /// fabric carries a transfer, and the backend is always dropped
    /// (replay ignores it, and its absence keeps canonical keys apart
    /// from raw ones).
    ///
    /// Sensitivity depends on the bandwidth only through `ni_occupancy`
    /// and `contention_window`, which matter only when the trace has
    /// transfers, and then the bandwidth itself is kept. So equal
    /// canonical keys imply equal bandwidths, hence one sensitive set:
    /// two queries share a canonical key exactly when every field they
    /// differ in, and the topology if they differ in it, is one neither
    /// can observe.
    fn canonical(trace: u64, query: &Query, idx: &DiffIndex) -> CacheKey {
        let bw = query.cost.link_bandwidth_bytes_per_cycle;
        let mut cost = cost_fields(&query.cost);
        for (i, v) in cost.iter_mut().enumerate() {
            if !idx.field_sensitive(i, bw) {
                *v = 0;
            }
        }
        CacheKey {
            trace,
            cost,
            topology: idx.topology_sensitive(bw).then_some(query.topology),
            backend: None,
        }
    }
}

/// A re-priced run, flattened for comparison and the wire: every field
/// a client needs to rebuild clocks, the full ledger and the stats.
/// `PartialEq`/`Eq` make byte-identity assertions (differential vs
/// full, cached vs cold, batched vs sequential) one comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryResult {
    /// Benchmark label from the trace metadata (`"?"` when absent).
    pub benchmark: String,
    /// System label from the trace metadata (`"?"` when absent).
    pub system: String,
    /// Node count of the captured machine.
    pub nodes: usize,
    /// Execution time under the query model (max node clock).
    pub time: u64,
    /// Global barriers in the stream.
    pub barriers: u64,
    /// Per-node clocks.
    pub clocks: Vec<u64>,
    /// The full cycle ledger, row-major: `nodes × CycleCat::COUNT`.
    pub ledger: Vec<u64>,
    /// Summed [`NodeStats`] as [`NodeStats::as_array`].
    pub stats: Vec<u64>,
    /// Phase boundaries: label and replayed time.
    pub phases: Vec<(String, u64)>,
}

impl QueryResult {
    fn from_replayed(entry: &TraceEntry, r: &Replayed) -> QueryResult {
        let file = &entry.handle;
        let nodes = file.nodes;
        let mut ledger = Vec::with_capacity(nodes * CycleCat::COUNT);
        for n in 0..nodes {
            for cat in CycleCat::all() {
                ledger.push(r.ledger.get(NodeId(n as u16), cat));
            }
        }
        QueryResult {
            benchmark: file.meta("benchmark").unwrap_or("?").to_string(),
            system: file.meta("system").unwrap_or("?").to_string(),
            nodes,
            time: r.time,
            barriers: r.barriers,
            clocks: r.clocks.clone(),
            ledger,
            stats: r.totals.as_array().to_vec(),
            phases: r
                .phases
                .iter()
                .map(|(label, t)| (label.to_string(), *t))
                .collect(),
        }
    }

    /// Total cycles of one ledger category across all nodes.
    pub fn cat_total(&self, cat: CycleCat) -> u64 {
        (0..self.nodes)
            .map(|n| self.ledger[n * CycleCat::COUNT + cat.index()])
            .sum()
    }

    /// The summed protocol counters.
    pub fn totals(&self) -> NodeStats {
        let mut a = [0u64; NodeStats::FIELDS];
        for (slot, v) in a.iter_mut().zip(&self.stats) {
            *slot = *v;
        }
        NodeStats::from_array(a)
    }
}

/// How the engine satisfied one query. Classes are advisory (a batch
/// races its siblings for the cache), but the *result* is identical
/// whichever path served it — neighbor reuse is only taken when the
/// differing knobs provably cannot move any output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryClass {
    /// Raw cache-key hit.
    Cached,
    /// Canonical cache-key hit: served from a cached neighbor that
    /// differs only in knobs this trace never charges.
    Neighbor,
    /// Re-priced through the differential index.
    Differential,
}

/// Aggregate serve counters (monotonic; read with [`EngineStats::snapshot`]).
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Exact cache hits.
    pub cached: AtomicU64,
    /// Neighbor-reuse hits.
    pub neighbor: AtomicU64,
    /// Differential re-pricings.
    pub differential: AtomicU64,
}

impl EngineStats {
    /// `(cached, neighbor, differential)` at this instant.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.cached.load(Ordering::Relaxed),
            self.neighbor.load(Ordering::Relaxed),
            self.differential.load(Ordering::Relaxed),
        )
    }
}

/// One loaded trace: the shared decoded file, which owns its
/// differential index.
pub struct TraceEntry {
    /// Name queries address the trace by.
    pub name: String,
    /// The decoded trace, shared with every other holder of the handle.
    pub handle: TraceHandle,
    /// Header fingerprint (machine config + cost model + metadata).
    /// Listing only: two captures can share a header, never an `id`.
    pub fingerprint: u64,
    /// Cache identity: unique per [`ServeEngine::load`] call.
    id: u64,
}

/// The resident engine: loaded traces, the result cache and counters.
/// Shared across server connections and `par_map` workers by reference.
#[derive(Default)]
pub struct ServeEngine {
    traces: Vec<TraceEntry>,
    /// Traces loaded so far: the next [`TraceEntry`] id.
    loads: u64,
    /// Every result, under its raw key and its canonical key.
    cache: Mutex<HashMap<CacheKey, Arc<QueryResult>>>,
    /// Serve counters.
    pub stats: EngineStats,
}

impl ServeEngine {
    /// An engine with no traces loaded.
    pub fn new() -> ServeEngine {
        ServeEngine::default()
    }

    /// Loads a decoded trace under `name`, replacing any previous trace
    /// of the same name. Builds the trace's differential index now
    /// unless an earlier load of the same handle already did, so no
    /// query pays for it.
    pub fn load(&mut self, name: &str, handle: TraceHandle) {
        handle.index();
        self.traces.retain(|t| t.name != name);
        self.traces.push(TraceEntry {
            name: name.to_string(),
            fingerprint: handle.fingerprint(),
            handle,
            id: self.loads,
        });
        self.loads += 1;
    }

    /// The loaded traces, in load order.
    pub fn traces(&self) -> &[TraceEntry] {
        &self.traces
    }

    /// Names of the loaded traces, in load order.
    pub fn trace_names(&self) -> Vec<&str> {
        self.traces.iter().map(|t| t.name.as_str()).collect()
    }

    fn entry(&self, name: &str) -> Result<&TraceEntry, String> {
        self.traces.iter().find(|t| t.name == name).ok_or_else(|| {
            format!(
                "unknown trace {name:?} (loaded: {})",
                self.trace_names().join(", ")
            )
        })
    }

    /// Answers one query: a raw-key hit, a canonical-key hit (neighbor
    /// reuse), or a differential re-pricing, in that order. The returned
    /// result is byte-identical regardless of which path served it.
    pub fn query(&self, q: &Query) -> Result<(Arc<QueryResult>, QueryClass), String> {
        let entry = self.entry(&q.trace)?;
        let raw = CacheKey::new(entry.id, q);
        let canonical = CacheKey::canonical(entry.id, q, entry.handle.index());
        let mut cache = self.cache.lock().expect("serve cache poisoned");
        if let Some(hit) = cache.get(&raw) {
            self.stats.cached.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(hit), QueryClass::Cached));
        }
        if let Some(hit) = cache.get(&canonical).cloned() {
            cache.insert(raw, Arc::clone(&hit));
            self.stats.neighbor.fetch_add(1, Ordering::Relaxed);
            return Ok((hit, QueryClass::Neighbor));
        }
        drop(cache);
        let result = Arc::new(self.replay_differential(entry, q));
        self.stats.differential.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.cache.lock().expect("serve cache poisoned");
        cache.insert(raw, Arc::clone(&result));
        cache.insert(canonical, Arc::clone(&result));
        Ok((result, QueryClass::Differential))
    }

    /// Re-prices through the trace's differential index
    /// ([`lcm_replay::reprice`]), skipping the cache. In debug builds the
    /// result is asserted byte-identical to a full event-walk replay
    /// (release tests assert the same over the whole explore grid).
    pub fn replay_differential(&self, entry: &TraceEntry, q: &Query) -> QueryResult {
        let result =
            QueryResult::from_replayed(entry, &reprice(&entry.handle, &q.cost, q.topology));
        debug_assert_eq!(
            result,
            self.replay_full(entry, q),
            "differential replay diverged from the full event walk"
        );
        result
    }

    /// The control path: a full event-walk replay, no index, no cache.
    /// The bench harness measures differential and cached queries
    /// against this.
    pub fn replay_full(&self, entry: &TraceEntry, q: &Query) -> QueryResult {
        QueryResult::from_replayed(entry, &replay(&entry.handle, &q.cost, q.topology))
    }

    /// Full-replay control for a named trace (cold path, cache
    /// bypassed).
    pub fn query_full(&self, q: &Query) -> Result<QueryResult, String> {
        Ok(self.replay_full(self.entry(&q.trace)?, q))
    }

    /// Asserts the differential and full paths agree for `q`; returns
    /// the first divergence as an error.
    pub fn verify(&self, q: &Query) -> Result<(), String> {
        let entry = self.entry(&q.trace)?;
        let diff = reprice(&entry.handle, &q.cost, q.topology);
        let full = replay(&entry.handle, &q.cost, q.topology);
        compare_replayed(&diff, &full).map_err(|e| format!("trace {:?}: {e}", q.trace))
    }

    /// Answers a batch on `jobs` workers via the shared `par_map` pool.
    /// Results come back in input order and are byte-identical to
    /// issuing the queries one at a time (classes may differ — the
    /// batch races for the cache — but never the payload).
    pub fn query_batch(
        &self,
        jobs: usize,
        queries: &[Query],
    ) -> Vec<Result<(Arc<QueryResult>, QueryClass), String>> {
        par_map(jobs, queries.iter().collect(), |_, q| self.query(q))
    }
}

/// Convenience: a [`Query`] under default topology and backend.
pub fn query(trace: &str, cost: CostModel) -> Query {
    Query {
        trace: trace.to_string(),
        cost,
        topology: Topology::default(),
        backend: DirBackend::FullMap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_replay::codec::cost_from_fields;
    use lcm_replay::TraceFile;
    use lcm_sim::{CycleLedger, Event, Knob, Pcg32, Stamped};

    /// A four-node synthetic capture exercising every differential
    /// mechanism: raw and symbolic charges, repeat-sender transfers
    /// (nonzero pending deltas), a barrier, a phase mark and a tail
    /// segment with no materializing event.
    fn synthetic() -> TraceHandle {
        let cost = CostModel::cm5();
        let nodes = 4;
        let mut events: Vec<Stamped> = Vec::new();
        let mut seq = 0u64;
        let mut push = |events: &mut Vec<Stamped>, event: Event| {
            events.push(Stamped {
                seq,
                cycle: seq,
                event,
            });
            seq += 1;
        };
        let hdr = cost.msg_header_bytes;
        push(
            &mut events,
            Event::Work {
                node: NodeId(0),
                cycles: 40,
                hits: 3,
            },
        );
        push(
            &mut events,
            Event::Charge {
                node: NodeId(1),
                cat: CycleCat::ReadStallRemote,
                knob: Knob::RemoteMiss,
                units: 2,
            },
        );
        push(
            &mut events,
            Event::ChargeRaw {
                node: NodeId(1),
                cat: CycleCat::RetryBackoff,
                cycles: 500,
            },
        );
        push(
            &mut events,
            Event::Xfer {
                from: NodeId(1),
                to: NodeId(0),
                bytes: hdr + 32,
            },
        );
        push(
            &mut events,
            Event::Charge {
                node: NodeId(1),
                cat: CycleCat::MsgOverhead,
                knob: Knob::MsgSend,
                units: 1,
            },
        );
        // Same sender again: the second transfer carries a pending delta.
        push(
            &mut events,
            Event::Xfer {
                from: NodeId(1),
                to: NodeId(2),
                bytes: hdr + 64,
            },
        );
        push(
            &mut events,
            Event::Xfer {
                from: NodeId(0),
                to: NodeId(3),
                bytes: hdr + 16,
            },
        );
        // A barrier's `at` is its stamp: the eighth event, cycle 7.
        push(&mut events, Event::Barrier { at: 7 });
        push(
            &mut events,
            Event::Work {
                node: NodeId(2),
                cycles: 10,
                hits: 0,
            },
        );
        push(
            &mut events,
            Event::Charge {
                node: NodeId(3),
                cat: CycleCat::FlushReconcile,
                knob: Knob::BlockFlush,
                units: 4,
            },
        );
        push(&mut events, Event::PhaseMark { label: "iter" });
        // A transfer from an otherwise-silent segment position.
        push(
            &mut events,
            Event::Xfer {
                from: NodeId(3),
                to: NodeId(0),
                bytes: hdr + 8,
            },
        );
        push(
            &mut events,
            Event::Work {
                node: NodeId(2),
                cycles: 7,
                hits: 1,
            },
        );

        let file = TraceFile::from_capture(
            nodes,
            Topology::default(),
            cost,
            vec![
                ("benchmark".to_string(), "synthetic".to_string()),
                ("system".to_string(), "lcm".to_string()),
            ],
            events,
            vec![0; nodes],
            &CycleLedger::new(nodes),
            NodeStats::default(),
        )
        .expect("gap-free stream");
        Arc::new(file)
    }

    fn engine() -> ServeEngine {
        let mut e = ServeEngine::new();
        e.load("synthetic", synthetic());
        e
    }

    #[test]
    fn differential_matches_full_on_every_model_and_topology() {
        let e = engine();
        let mut doubled = CostModel::cm5();
        for f in [
            &mut doubled.cache_hit,
            &mut doubled.remote_miss,
            &mut doubled.msg_send,
            &mut doubled.block_flush,
            &mut doubled.barrier_base,
            &mut doubled.msg_header_bytes,
        ] {
            *f *= 2;
        }
        for cost in [
            CostModel::cm5(),
            CostModel::cm5_grid(16, 12_000),
            CostModel::cm5_grid(0, 500),
            CostModel::cm5_grid(1, 3_000),
            doubled,
        ] {
            for topology in [
                Topology::FatTree { arity: 4 },
                Topology::Crossbar,
                Topology::Flat,
            ] {
                let q = Query {
                    trace: "synthetic".to_string(),
                    cost,
                    topology,
                    backend: DirBackend::FullMap,
                };
                e.verify(&q).expect("differential == full");
            }
        }
    }

    #[test]
    fn exact_repeats_hit_the_cache_and_share_the_result() {
        let e = engine();
        let q = query("synthetic", CostModel::cm5_grid(16, 3_000));
        let (first, class1) = e.query(&q).expect("cold");
        assert_eq!(class1, QueryClass::Differential);
        let (second, class2) = e.query(&q).expect("warm");
        assert_eq!(class2, QueryClass::Cached);
        assert!(Arc::ptr_eq(&first, &second), "cache must share the result");
        assert_eq!(e.stats.snapshot(), (1, 0, 1));
    }

    #[test]
    fn neighbor_reuse_is_byte_identical_and_gated_on_sensitivity() {
        let e = engine();
        let base = query("synthetic", CostModel::cm5_grid(16, 3_000));
        let (first, _) = e.query(&base).expect("cold");
        // invalidate is never charged by this trace: reusable.
        let mut insens = base.clone();
        insens.cost.invalidate += 999;
        let (reused, class) = e.query(&insens).expect("neighbor");
        assert_eq!(class, QueryClass::Neighbor);
        assert!(Arc::ptr_eq(&first, &reused));
        assert_eq!(
            *reused,
            e.query_full(&insens).expect("full"),
            "reuse must be sound"
        );
        // remote_miss is charged: must re-price.
        let mut sens = base.clone();
        sens.cost.remote_miss += 1;
        let (repriced, class) = e.query(&sens).expect("re-priced");
        assert_eq!(class, QueryClass::Differential);
        assert_ne!(repriced.time, first.time);
    }

    #[test]
    fn backend_changes_the_key_but_reuses_the_result() {
        let e = engine();
        let base = query("synthetic", CostModel::cm5());
        let (first, _) = e.query(&base).expect("cold");
        let mut other = base.clone();
        other.backend = DirBackend::LimitedPtr { ptrs: 4 };
        let (reused, class) = e.query(&other).expect("backend variant");
        assert_eq!(class, QueryClass::Neighbor, "replay ignores the backend");
        assert!(Arc::ptr_eq(&first, &reused));
        // ... but the variant got its own cache entry.
        let (_, class) = e.query(&other).expect("warm");
        assert_eq!(class, QueryClass::Cached);
    }

    #[test]
    fn topology_reuse_requires_an_idle_fabric() {
        let e = engine();
        // Unlimited bandwidth: the fabric is off, topology cannot matter.
        let base = query("synthetic", CostModel::cm5_grid(0, 3_000));
        let (first, _) = e.query(&base).expect("cold");
        let mut flat = base.clone();
        flat.topology = Topology::Flat;
        let (reused, class) = e.query(&flat).expect("no fabric");
        assert_eq!(class, QueryClass::Neighbor);
        assert!(Arc::ptr_eq(&first, &reused));
        // Finite bandwidth: topology shapes contention, no reuse.
        let narrow = query("synthetic", CostModel::cm5_grid(4, 3_000));
        e.query(&narrow).expect("cold");
        let mut narrow_flat = narrow.clone();
        narrow_flat.topology = Topology::Flat;
        let (_, class) = e.query(&narrow_flat).expect("re-priced");
        assert_eq!(class, QueryClass::Differential);
    }

    /// The pairwise neighbor rule the engine used before canonical keys:
    /// every differing cost field is insensitive under both queries'
    /// bandwidths, and the topologies match or neither can matter.
    fn reference_neighbors(idx: &DiffIndex, a: &Query, b: &Query) -> bool {
        let (bw_a, bw_b) = (
            a.cost.link_bandwidth_bytes_per_cycle,
            b.cost.link_bandwidth_bytes_per_cycle,
        );
        let fields_agree = cost_fields(&a.cost)
            .iter()
            .zip(&cost_fields(&b.cost))
            .enumerate()
            .all(|(i, (x, y))| {
                x == y || (!idx.field_sensitive(i, bw_a) && !idx.field_sensitive(i, bw_b))
            });
        let topo_agrees = a.topology == b.topology
            || (!idx.topology_sensitive(bw_a) && !idx.topology_sensitive(bw_b));
        fields_agree && topo_agrees
    }

    /// An 8-node Threshold capture, as the integration tests take.
    fn threshold_capture() -> TraceHandle {
        use lcm_apps::{execute, threshold::Threshold, SystemKind};
        let mc = lcm_sim::MachineConfig::new(8).with_cost(CostModel::cm5());
        let (nodes, topology, cost) = (mc.nodes, mc.topology, mc.cost);
        let (_, result, trace) = execute(
            SystemKind::LcmMcc,
            mc.with_capture(1 << 20),
            lcm_cstar::RuntimeConfig::default(),
            &Threshold::small(),
        );
        let file = TraceFile::from_trace(
            nodes,
            topology,
            cost,
            vec![("benchmark".to_string(), "Threshold".to_string())],
            trace,
            result.clocks,
            result.ledger,
            result.totals,
        )
        .expect("the buffer holds the stream");
        Arc::new(file)
    }

    #[test]
    fn canonical_keys_agree_with_the_pairwise_neighbor_rule() {
        const TOPOLOGIES: [Topology; 4] = [
            Topology::FatTree { arity: 2 },
            Topology::FatTree { arity: 4 },
            Topology::Crossbar,
            Topology::Flat,
        ];
        let cm5 = cost_fields(&CostModel::cm5());
        let bandwidth = 15;
        let draw_field = |rng: &mut Pcg32, i: usize| -> u64 {
            if i == bandwidth {
                [0, 4, 64][rng.below(3) as usize]
            } else {
                [0, cm5[i], cm5[i] + 1][rng.below(3) as usize]
            }
        };
        let mut rng = Pcg32::new(17, 0);
        for handle in [synthetic(), threshold_capture()] {
            let mut e = ServeEngine::new();
            e.load("t", handle);
            let (id, idx) = (e.traces[0].id, e.traces[0].handle.index());
            let (mut alike, mut apart) = (0, 0);
            for _ in 0..150 {
                let mut f = cm5;
                for (i, v) in f.iter_mut().enumerate() {
                    *v = draw_field(&mut rng, i);
                }
                let a = Query {
                    trace: "t".to_string(),
                    cost: cost_from_fields(&f),
                    topology: TOPOLOGIES[rng.below(4) as usize],
                    backend: DirBackend::all()[rng.below(3) as usize],
                };
                // b differs from a in a few fields, maybe the topology,
                // maybe the backend.
                for (i, v) in f.iter_mut().enumerate() {
                    if rng.below(6) == 0 {
                        *v = draw_field(&mut rng, i);
                    }
                }
                let b = Query {
                    cost: cost_from_fields(&f),
                    topology: if rng.below(3) == 0 {
                        TOPOLOGIES[rng.below(4) as usize]
                    } else {
                        a.topology
                    },
                    backend: DirBackend::all()[rng.below(3) as usize],
                    ..a.clone()
                };
                let reference = reference_neighbors(idx, &a, &b);
                assert_eq!(
                    CacheKey::canonical(id, &a, idx) == CacheKey::canonical(id, &b, idx),
                    reference,
                    "canonical keys disagree with the pairwise rule:\n{a:?}\n{b:?}"
                );
                if reference {
                    alike += 1;
                } else {
                    apart += 1;
                }
                e.query(&a).expect("a");
                let (got, class) = e.query(&b).expect("b");
                if reference {
                    assert_ne!(class, QueryClass::Differential, "{b:?}");
                }
                if class == QueryClass::Neighbor {
                    assert_eq!(*got, e.query_full(&b).expect("full"), "{b:?}");
                }
            }
            assert!(alike > 10 && apart > 10, "{alike} alike, {apart} apart");
        }
    }

    #[test]
    fn batched_equals_sequential() {
        let queries: Vec<Query> = [0u64, 4, 16, 64]
            .into_iter()
            .flat_map(|bw| {
                [500u64, 3_000, 12_000]
                    .into_iter()
                    .map(move |lat| query("synthetic", CostModel::cm5_grid(bw, lat)))
            })
            .collect();
        let batched = engine();
        let b: Vec<_> = batched
            .query_batch(4, &queries)
            .into_iter()
            .map(|r| r.expect("batched"))
            .collect();
        let sequential = engine();
        for (q, (br, _)) in queries.iter().zip(&b) {
            let (sr, _) = sequential.query(q).expect("sequential");
            assert_eq!(**br, *sr, "batched result diverges for {q:?}");
        }
    }

    #[test]
    fn unknown_traces_are_named_errors() {
        let e = engine();
        let err = e
            .query(&query("missing", CostModel::cm5()))
            .expect_err("unknown");
        assert!(err.contains("unknown trace"), "unexpected: {err}");
        assert!(
            err.contains("synthetic"),
            "should list loaded traces: {err}"
        );
    }
}
