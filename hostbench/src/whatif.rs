//! The `whatif` workload: capture the serve trace set, round-trip it
//! through the `.lcmtrace` format, load a fresh `ServeEngine` behind a
//! TCP `Server`, and replay a seeded script from two closed-loop
//! clients.
//!
//! Every round repeats all of it, so each round's set-up and script are
//! the same deterministic work; a request's time is its fastest run over
//! rounds and script passes.
//! Each client owns three of the six traces, so which requests hit the
//! cache does not depend on how the clients interleave.

use crate::sim::{self, capture_points, panic_message, run_point, Point};
use crate::trace::{best_sum_ns, best_total_ns, self_ns, Tracer};
use crate::{Metric, Size};
use lcm_replay::TraceFile;
use lcm_serve::{Client, DiffIndex, Query, QueryClass, QueryResult, ServeEngine, Server};
use lcm_sim::{CostModel, DirBackend, Topology};
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Closed-loop client connections (the host has two cores).
pub const CLIENTS: usize = 2;

/// Capture buffer per trace; the medium captures fit with room to spare.
pub const CAPTURE_CAPACITY: usize = 1 << 24;

/// Link bandwidths of fresh queries, bytes/cycle (0 = unlimited).
const BANDWIDTHS: [u64; 4] = [0, 64, 16, 4];

/// Script replays per round, each on a fresh engine over the round's
/// traces: a request's time is its fastest over rounds and passes, and
/// each script segment's time its fastest pass. A round after which no
/// other fits replays the script until the time is up.
const SCRIPT_PASSES: usize = 3;

/// Segments of a script pass. The clients start each segment together,
/// and the script's time is the sum of each segment's fastest run: a
/// short stretch of the pass is more often free of a slow host phase than
/// the whole pass is.
const SEGMENTS: usize = 10;

/// Fresh queries re-priced in-process for the `serve.diff`/`serve.full`
/// layer split of a traced run (evenly spaced through the script).
const LAYER_SAMPLE: usize = 48;

/// How a scripted request should be served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Repeats an earlier query of the same client: an exact cache hit.
    Repeat,
    /// An earlier query with only `retry_timeout` changed, which a
    /// fault-free trace never charges: neighbor reuse.
    Neighbor,
    /// A (bandwidth, latency) point new for its trace: differential
    /// re-pricing.
    Fresh,
}

impl Kind {
    fn class(self) -> QueryClass {
        match self {
            Kind::Repeat => QueryClass::Cached,
            Kind::Neighbor => QueryClass::Neighbor,
            Kind::Fresh => QueryClass::Differential,
        }
    }
}

/// One distinct query of the script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    /// Index into the trace set.
    pub trace: usize,
    /// Link bandwidth, bytes/cycle.
    pub bandwidth: u64,
    /// Remote-miss latency, cycles.
    pub latency: u64,
    /// `retry_timeout` override (neighbor queries only).
    pub retry_timeout: Option<u64>,
}

impl Spec {
    fn query(&self, names: &[String]) -> Query {
        let mut cost = CostModel::cm5_grid(self.bandwidth, self.latency);
        if let Some(t) = self.retry_timeout {
            cost.retry_timeout = t;
        }
        Query {
            trace: names[self.trace].clone(),
            cost,
            topology: Topology::default(),
            backend: DirBackend::FullMap,
        }
    }
}

/// One scripted request: which distinct query, and its expected class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    /// Index into [`Script::distinct`].
    pub spec: usize,
    /// Expected class.
    pub kind: Kind,
}

/// The request script, generated from the seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Script {
    /// Every distinct query, in first-use order.
    pub distinct: Vec<Spec>,
    /// Each client's requests, in issue order.
    pub clients: Vec<Vec<Req>>,
}

/// Which of the fresh-query knobs can change a trace's replay: a query
/// differing from a cached one only in knobs the trace never charges is
/// served by neighbor reuse, not re-priced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sensitivity {
    /// Remote latency (`remote_miss` and the `upgrade` derived from it).
    pub latency: bool,
    /// Link bandwidth.
    pub bandwidth: bool,
}

impl Sensitivity {
    /// Reads a trace's sensitivity off its differential index. Field
    /// numbers are `.lcmtrace` cost-model wire order.
    pub fn of(file: &TraceFile) -> Sensitivity {
        const REMOTE_MISS: usize = 3;
        const UPGRADE: usize = 12;
        const LINK_BANDWIDTH: usize = 15;
        let idx = DiffIndex::build(file);
        Sensitivity {
            latency: idx.field_sensitive(REMOTE_MISS, 0) || idx.field_sensitive(UPGRADE, 0),
            bandwidth: idx.field_sensitive(LINK_BANDWIDTH, 0),
        }
    }
}

impl Script {
    /// Generates `per_client` requests for each of [`CLIENTS`] clients
    /// over traces of the given sensitivities; client `c` owns traces
    /// `c, c + CLIENTS, ...`.
    ///
    /// The fresh queries are fixed by the traces, not the seed: each
    /// (trace, bandwidth) pair a trace can tell apart gets the same
    /// number of fresh queries, about 15% of the requests in all (one per
    /// pair when the trace never charges latency), so every seed asks
    /// for the same re-pricing work. The seed draws their latencies, the
    /// order of all requests, about 5% neighbors (jittered by a few) and
    /// which earlier query each repeat and neighbor reuses. The first
    /// request is fresh.
    pub fn generate(seed: u64, traces: &[Sensitivity], per_client: usize) -> Script {
        let mut rng = SplitMix(seed);
        let mut distinct: Vec<Spec> = Vec::new();
        let mut used = HashSet::new();
        let mut next_retry = 1_000_000;
        let mut clients = Vec::new();
        for c in 0..CLIENTS {
            let pairs: Vec<(usize, u64)> = (c..traces.len())
                .step_by(CLIENTS)
                .flat_map(|t| {
                    let bws = if traces[t].bandwidth { 4 } else { 1 };
                    BANDWIDTHS[..bws].iter().map(move |&bw| (t, bw))
                })
                .collect();
            let sensitive = pairs.iter().filter(|(t, _)| traces[*t].latency).count();
            let per_pair =
                (per_client * 15 / 100).saturating_sub(pairs.len() - sensitive) / sensitive.max(1);
            let mut fresh: Vec<Spec> = Vec::new();
            for &(trace, bandwidth) in &pairs {
                let copies = if traces[trace].latency {
                    per_pair.max(1)
                } else {
                    1
                };
                for _ in 0..copies {
                    let latency = loop {
                        let lat = 500 + rng.below(11_501);
                        if used.insert((trace, bandwidth, lat)) {
                            break lat;
                        }
                    };
                    fresh.push(Spec {
                        trace,
                        bandwidth,
                        latency,
                        retry_timeout: None,
                    });
                }
            }
            rng.shuffle(&mut fresh);
            let neighbor = (per_client * 5 / 100 + rng.below(5) as usize).saturating_sub(2);
            let mut kinds = vec![Kind::Fresh; fresh.len().saturating_sub(1)];
            kinds.resize(kinds.len() + neighbor, Kind::Neighbor);
            kinds.resize(per_client.saturating_sub(1), Kind::Repeat);
            rng.shuffle(&mut kinds);
            kinds.insert(0, Kind::Fresh);

            let mut fresh = fresh.into_iter();
            let mut seen: Vec<usize> = Vec::new();
            let mut reqs = Vec::with_capacity(per_client);
            for kind in kinds {
                let spec = match kind {
                    Kind::Fresh => {
                        distinct.push(fresh.next().expect("one fresh spec per fresh kind"));
                        distinct.len() - 1
                    }
                    Kind::Neighbor => {
                        let base = distinct[seen[rng.below(seen.len() as u64) as usize]];
                        next_retry += 1;
                        distinct.push(Spec {
                            retry_timeout: Some(next_retry),
                            ..base
                        });
                        distinct.len() - 1
                    }
                    Kind::Repeat => seen[rng.below(seen.len() as u64) as usize],
                };
                if kind != Kind::Repeat {
                    seen.push(spec);
                }
                reqs.push(Req { spec, kind });
            }
            clients.push(reqs);
        }
        Script { distinct, clients }
    }

    /// Requests per kind: `(repeat, neighbor, fresh)`.
    pub fn kind_counts(&self) -> (u64, u64, u64) {
        let mut n = (0, 0, 0);
        for r in self.clients.iter().flatten() {
            match r.kind {
                Kind::Repeat => n.0 += 1,
                Kind::Neighbor => n.1 += 1,
                Kind::Fresh => n.2 += 1,
            }
        }
        n
    }

    /// All requests, interleaved across clients by position, each with
    /// its global request id (client-major index).
    fn merged(&self) -> Vec<(u32, Req)> {
        let per = self.clients.iter().map(Vec::len).max().unwrap_or(0);
        let mut out = Vec::new();
        for i in 0..per {
            for (c, reqs) in self.clients.iter().enumerate() {
                if let Some(r) = reqs.get(i) {
                    out.push((req_id(&self.clients, c, i), *r));
                }
            }
        }
        out
    }
}

fn req_id(clients: &[Vec<Req>], c: usize, i: usize) -> u32 {
    (clients[..c].iter().map(Vec::len).sum::<usize>() + i) as u32
}

/// SplitMix64: the script's own generator, independent of the program's.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Fisher-Yates.
    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Requests per client at each size; 1000 in all at full size leaves 10
/// samples beyond p99.
pub fn per_client(size: Size) -> usize {
    match size {
        Size::Full => 500,
        Size::Smoke => 100,
    }
}

/// A stable hash of every field of an answer.
fn answer_hash(r: &QueryResult) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (
        &r.benchmark,
        &r.system,
        r.nodes,
        r.time,
        r.barriers,
        &r.clocks,
        &r.ledger,
        &r.stats,
        &r.phases,
    )
        .hash(&mut h);
    h.finish()
}

/// A loaded engine behind a running server, plus what its set-up saw.
struct Stage {
    engine: Arc<ServeEngine>,
    server: Server,
    captures: Vec<lcm_apps::RunResult>,
    bytes: u64,
    events: u64,
    /// Seconds per set-up unit: each trace's trip through the format,
    /// then each trace's indexing, then the server start.
    unit_s: Vec<f64>,
}

/// Set-up units of `traces` traces: a pipeline and an index per trace,
/// and the server start.
fn setup_units(traces: usize) -> usize {
    2 * traces + 1
}

fn trace_name(p: &Point) -> String {
    format!("{}-{}", p.bench, p.system.label()).to_lowercase()
}

/// One trace's trip through the format: capture, encode, decode,
/// validate. Returns the decoded file, the capture's result, the
/// encoded size and the event count.
fn pipeline(
    p: &Point,
    unit: u32,
    tr: &Tracer,
) -> Result<(TraceFile, lcm_apps::RunResult, u64, u64), String> {
    let (result, stream) = tr.span("apps.capture", unit, || {
        run_point(p, Some(CAPTURE_CAPACITY), tr, unit)
    });
    if result.trace_dropped > 0 {
        return Err(format!("capture dropped {} events", result.trace_dropped));
    }
    let events = stream.len() as u64;
    let encoded = tr.span("replay.encode", unit, || {
        TraceFile::from_capture(
            p.machine.nodes,
            p.machine.topology,
            p.machine.cost,
            vec![
                ("benchmark".to_string(), p.bench.to_string()),
                ("system".to_string(), p.system.label().to_string()),
            ],
            stream,
            result.clocks.clone(),
            &result.ledger,
            result.totals.clone(),
        )
        .map(|f| f.to_bytes())
    })?;
    let file = tr.span("replay.decode", unit, || TraceFile::from_bytes(&encoded))?;
    tr.span("replay.validate", unit, || lcm_replay::validate(&file))
        .map_err(|e| format!("validation: {e}"))?;
    Ok((file, result, encoded.len() as u64, events))
}

/// One round's set-up. The trace pipelines run on [`sim::LANES`] lanes
/// in steps: step `k` starts traces `LANES * k ..` together, one per
/// lane, and the lanes swap traces from round to round. The engine then
/// indexes every trace and the server starts.
fn set_up(points: &[Point], round: u32, tr: &Tracer) -> Result<Stage, String> {
    type Piped = (
        usize,
        f64,
        Result<(TraceFile, lcm_apps::RunResult, u64, u64), String>,
    );
    let step = Barrier::new(sim::LANES);
    let mut piped: Vec<Piped> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..sim::LANES)
            .map(|lane| {
                let step = &step;
                s.spawn(move || {
                    (0..points.len())
                        .filter(|u| (u + round as usize) % sim::LANES == lane)
                        .map(|u| {
                            step.wait();
                            let t = Instant::now();
                            let r = catch_unwind(AssertUnwindSafe(|| {
                                pipeline(&points[u], u as u32, tr)
                            }))
                            .unwrap_or_else(|e| {
                                Err(format!("panicked: {}", panic_message(e.as_ref())))
                            });
                            (u, t.elapsed().as_secs_f64(), r)
                        })
                        .collect::<Vec<Piped>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("lanes catch their pipelines' panics"))
            .collect()
    });
    piped.sort_by_key(|(u, _, _)| *u);
    let n = points.len();
    let mut unit_s = vec![0.0; setup_units(n)];
    let mut engine = ServeEngine::new();
    let mut captures = Vec::new();
    let (mut bytes, mut events) = (0u64, 0u64);
    for (u, secs, r) in piped {
        let (file, result, size, count) = r.map_err(|e| format!("{}: {e}", points[u].key))?;
        unit_s[u] = secs;
        let t = Instant::now();
        tr.span("serve.index", u as u32, || {
            engine.load(&trace_name(&points[u]), Arc::new(file))
        });
        unit_s[n + u] = t.elapsed().as_secs_f64();
        captures.push(result);
        bytes += size;
        events += count;
    }
    let engine = Arc::new(engine);
    let t = Instant::now();
    let server = tr.span("serve.start", 0, || {
        Server::start("127.0.0.1:0", Arc::clone(&engine), 1)
    })?;
    unit_s[2 * n] = t.elapsed().as_secs_f64();
    Ok(Stage {
        engine,
        server,
        captures,
        bytes,
        events,
        unit_s,
    })
}

/// What one client saw in one pass.
struct ClientRun {
    /// Per segment: from the segment's start barrier to the client's
    /// last answer in it.
    segments: Vec<(Instant, Instant)>,
    lat_ns: Vec<u64>,
    answers: Vec<Result<(u64, QueryClass), String>>,
}

/// Replays the script over TCP, one thread and connection per client.
/// The clients start each of the [`SEGMENTS`] segments together.
fn replay_script(
    addr: &str,
    script: &Script,
    queries: &[Query],
    tr: &Tracer,
) -> Result<Vec<ClientRun>, String> {
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || -> Result<ClientRun, String> {
                    let mut client = Client::connect(addr);
                    let reqs = &script.clients[c];
                    let chunk = reqs.len().div_ceil(SEGMENTS).max(1);
                    let mut segments = Vec::with_capacity(SEGMENTS);
                    let mut lat_ns = Vec::with_capacity(reqs.len());
                    let mut results = Vec::with_capacity(reqs.len());
                    for k in 0..SEGMENTS {
                        // Every client meets every barrier, even one
                        // that could not connect, so none waits forever.
                        barrier.wait();
                        let begin = Instant::now();
                        if let Ok(client) = client.as_mut() {
                            let first = (k * chunk).min(reqs.len());
                            let last = ((k + 1) * chunk).min(reqs.len());
                            for (i, r) in reqs.iter().enumerate().take(last).skip(first) {
                                let id = req_id(&script.clients, c, i);
                                let t = Instant::now();
                                let answer =
                                    tr.span("proto.request", id, || client.query(&queries[r.spec]));
                                lat_ns.push(t.elapsed().as_nanos() as u64);
                                results.push(answer);
                            }
                        }
                        segments.push((begin, Instant::now()));
                    }
                    client?;
                    // Hash after the script: checking is not serving.
                    let answers = results
                        .into_iter()
                        .map(|a| a.map(|w| (answer_hash(&w.result), w.class)))
                        .collect();
                    Ok(ClientRun {
                        segments,
                        lat_ns,
                        answers,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(e) => Err(format!("client panicked: {}", panic_message(e.as_ref()))),
            })
            .collect()
    })
}

/// What one `whatif` run measured.
pub struct WhatifRun {
    /// Rounds completed.
    pub rounds: usize,
    /// Requests plus captures attempted.
    pub attempted: u64,
    /// Each failure, named.
    pub failures: Vec<String>,
    /// Exact counters of one round.
    pub counts: BTreeMap<&'static str, u64>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics shared with the other workloads (traced runs).
    pub layers: Vec<Metric>,
    /// Layers only this workload enters (traced runs).
    pub own_layers: Vec<Metric>,
    /// The script's request count per kind.
    pub kinds: (u64, u64, u64),
}

/// The script and its queries, generated once the traces are known.
struct Plan {
    script: Script,
    queries: Vec<Query>,
    kinds: (u64, u64, u64),
    total: usize,
}

impl Plan {
    fn new(seed: u64, size: Size, engine: &ServeEngine) -> Plan {
        let sens: Vec<Sensitivity> = engine
            .traces()
            .iter()
            .map(|t| Sensitivity::of(&t.handle))
            .collect();
        let names: Vec<String> = engine.traces().iter().map(|t| t.name.clone()).collect();
        let script = Script::generate(seed, &sens, per_client(size));
        Plan {
            queries: script.distinct.iter().map(|s| s.query(&names)).collect(),
            kinds: script.kind_counts(),
            total: script.clients.iter().map(Vec::len).sum(),
            script,
        }
    }
}

/// Runs the `whatif` workload for about `seconds` of rounds.
pub fn run_whatif(size: Size, seed: u64, seconds: f64, tr: &Tracer) -> WhatifRun {
    let traced = tr.is_on();
    tr.set_on(false);
    let points = capture_points(size);

    let mut failures: Vec<String> = Vec::new();
    let mut fail = |msg: String| {
        eprintln!("FAILED {msg}");
        failures.push(msg);
    };
    let mut attempted = 0u64;
    let mut counts = BTreeMap::new();
    let mut plan: Option<Plan> = None;
    // Fastest time per set-up unit and per request (global id), apart
    // for untraced [0] and traced [1] rounds; each request's first answer.
    let mut setup_best = [
        vec![f64::INFINITY; setup_units(points.len())],
        vec![f64::INFINITY; setup_units(points.len())],
    ];
    let mut best_ns: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    // Fastest run of each script segment: its start barrier to both
    // clients done with it.
    let mut segment_best = [[f64::INFINITY; SEGMENTS]; 2];
    let mut first: Vec<Option<(u64, QueryClass)>> = Vec::new();
    let mut rounds = 0usize;
    let mut last_engine: Option<Arc<ServeEngine>> = None;

    let start = Instant::now();
    let mut last = 0.0;
    let mut round = 0u32;
    'rounds: while rounds < 2 || start.elapsed().as_secs_f64() + last <= seconds {
        round += 1;
        let on = traced && round.is_multiple_of(2);
        let parity = on as usize;
        tr.set_round(round);
        // One engine's traces at a time: the set is hundreds of MB.
        last_engine = None;
        let t_round = Instant::now();
        attempted += points.len() as u64;
        tr.set_on(on);
        let stage = catch_unwind(AssertUnwindSafe(|| set_up(&points, round, tr)))
            .unwrap_or_else(|e| Err(format!("set-up panicked: {}", panic_message(e.as_ref()))));
        tr.set_on(false);
        let stage = match stage {
            Ok(s) => s,
            Err(e) => {
                fail(format!("whatif set-up (round {round}): {e}"));
                break;
            }
        };
        for (p, r) in points.iter().zip(&stage.captures) {
            if let Err(e) = sim::check(size, p, r) {
                fail(format!("{} (round {round}): {e}", p.key));
            }
        }
        let plan = plan.get_or_insert_with(|| Plan::new(seed, size, &stage.engine));
        let Plan {
            script,
            queries,
            kinds,
            total,
        } = plan;
        if first.is_empty() {
            best_ns = [vec![u64::MAX; *total], vec![u64::MAX; *total]];
            first = vec![None; *total];
        }
        for (b, s) in setup_best[parity].iter_mut().zip(&stage.unit_s) {
            *b = b.min(*s);
        }
        let mut server = Some(stage.server);
        let (mut pass, mut pass_s) = (0, 0.0);
        loop {
            if pass >= SCRIPT_PASSES {
                let now = start.elapsed().as_secs_f64();
                let final_round = rounds >= 1 && now + t_round.elapsed().as_secs_f64() > seconds;
                if !final_round || now + pass_s > seconds {
                    break;
                }
            }
            let t_pass = Instant::now();
            // Later passes serve the round's traces from a fresh engine,
            // so every pass sees the same cache misses.
            let (engine, server) = match server.take() {
                Some(first_server) => (Arc::clone(&stage.engine), first_server),
                None => {
                    let mut fresh = ServeEngine::new();
                    for t in stage.engine.traces() {
                        fresh.load(&t.name, Arc::clone(&t.handle));
                    }
                    let fresh = Arc::new(fresh);
                    match Server::start("127.0.0.1:0", Arc::clone(&fresh), 1) {
                        Ok(s) => (fresh, s),
                        Err(e) => {
                            fail(format!("whatif server (round {round}): {e}"));
                            break 'rounds;
                        }
                    }
                }
            };
            attempted += *total as u64;
            let addr = server.addr.to_string();
            tr.set_on(on);
            let runs = replay_script(&addr, script, queries, tr);
            tr.set_on(false);
            server.stop();
            let runs = match runs {
                Ok(r) => r,
                Err(e) => {
                    fail(format!("whatif script (round {round}): {e}"));
                    break 'rounds;
                }
            };
            for (k, best) in segment_best[parity].iter_mut().enumerate() {
                if let (Some(begin), Some(end)) = (
                    runs.iter().map(|r| r.segments[k].0).min(),
                    runs.iter().map(|r| r.segments[k].1).max(),
                ) {
                    *best = best.min(end.duration_since(begin).as_secs_f64());
                }
            }
            for (c, run) in runs.iter().enumerate() {
                for (i, (ns, answer)) in run.lat_ns.iter().zip(&run.answers).enumerate() {
                    let id = req_id(&script.clients, c, i) as usize;
                    let req = script.clients[c][i];
                    let at = format!("request {id} (round {round}, pass {pass})");
                    match answer {
                        Err(e) => fail(format!("{at}: {e}")),
                        Ok((hash, class)) => {
                            if *class != req.kind.class() {
                                fail(format!("{at}: served {class:?}, scripted {:?}", req.kind));
                            }
                            match first[id] {
                                None => first[id] = Some((*hash, *class)),
                                Some((h, _)) if h != *hash => {
                                    fail(format!("{at}: answer differs from the first"))
                                }
                                Some(_) => {}
                            }
                            best_ns[parity][id] = best_ns[parity][id].min(*ns);
                        }
                    }
                }
            }
            let served = engine.stats.snapshot();
            if served != *kinds {
                fail(format!(
                    "whatif engine counters (round {round}, pass {pass}): {served:?} \
                     (cached, neighbor, differential), script expects {kinds:?}"
                ));
            }
            pass_s = t_pass.elapsed().as_secs_f64();
            pass += 1;
        }
        if rounds == 0 {
            for r in &stage.captures {
                sim::add_counts(&mut counts, r);
            }
            counts.insert("replay.bytes", stage.bytes);
            counts.insert("replay.events", stage.events);
            counts.insert("serve.cached", kinds.0);
            counts.insert("serve.neighbor", kinds.1);
            counts.insert("serve.differential", kinds.2);
        }
        rounds += 1;
        last_engine = Some(stage.engine);
        last = t_round.elapsed().as_secs_f64();
    }

    let mut run = WhatifRun {
        rounds,
        attempted,
        failures: Vec::new(),
        counts,
        end_to_end: Vec::new(),
        layers: Vec::new(),
        own_layers: Vec::new(),
        kinds: (0, 0, 0),
    };
    let (Some(plan), Some(engine)) = (&plan, &last_engine) else {
        run.failures = failures;
        return run;
    };
    // Every answer against a full event walk of the same query.
    for (id, msg) in oracle(engine, &plan.script, &plan.queries, &first) {
        fail(format!("request {id}: {msg}"));
    }
    run.failures = failures;
    run.kinds = plan.kinds;

    // Set-up: every unit at its fastest. Script: every segment at its
    // fastest.
    let setup_s = |p: usize| setup_best[p].iter().filter(|s| s.is_finite()).sum::<f64>();
    let script_s = |p: usize| segment_best[p].iter().sum::<f64>();
    if traced {
        let plain = setup_s(0) + script_s(0);
        let with_spans = setup_s(1) + script_s(1);
        in_process_layers(engine, &plan.script, &plan.queries, tr);
        let spans = tr.spans();
        let (repeat, neighbor, _) = plan.kinds;
        let hit_ratio = (repeat + neighbor) as f64 / plan.total as f64;
        run.layers = crate::sim_layers(&spans, &run.counts, plain, with_spans, hit_ratio);
        run.own_layers = whatif_layers(&spans, &plan.script, &best_ns[0]);
    } else {
        let mut done: Vec<f64> = best_ns[0]
            .iter()
            .filter(|&&ns| ns != u64::MAX)
            .map(|&ns| ns as f64 / 1e9)
            .collect();
        if !done.is_empty() && script_s(0).is_finite() {
            done.sort_by(f64::total_cmp);
            let wall_s = script_s(0);
            run.end_to_end =
                crate::end_to_end(wall_s, setup_s(0), plan.total as f64 / wall_s, &done);
        }
    }
    run
}

/// Compares each request's answer with `query_full` (the full event
/// walk, cache bypassed) of its query, on [`CLIENTS`] threads. Returns
/// `(request id, problem)` for every mismatch.
fn oracle(
    engine: &ServeEngine,
    script: &Script,
    queries: &[Query],
    first: &[Option<(u64, QueryClass)>],
) -> Vec<(usize, String)> {
    let expected: Vec<Result<u64, String>> = std::thread::scope(|s| {
        let chunk = queries.len().div_ceil(CLIENTS).max(1);
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|qs| {
                s.spawn(move || {
                    qs.iter()
                        .map(|q| engine.query_full(q).map(|r| answer_hash(&r)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut problems = Vec::new();
    for (c, reqs) in script.clients.iter().enumerate() {
        for (i, r) in reqs.iter().enumerate() {
            let id = req_id(&script.clients, c, i) as usize;
            match (&expected[r.spec], first[id]) {
                (Err(e), _) => problems.push((id, format!("full replay failed: {e}"))),
                (Ok(want), Some((got, _))) if *want != got => {
                    problems.push((id, "answer differs from the full event walk".to_string()))
                }
                _ => {}
            }
        }
    }
    problems
}

/// The in-process half of the layer split: the script on a fresh
/// engine (misses, hits), then differential and full re-pricing of an
/// evenly spaced sample of its fresh queries.
fn in_process_layers(served: &ServeEngine, script: &Script, queries: &[Query], tr: &Tracer) {
    let mut engine = ServeEngine::new();
    for t in served.traces() {
        engine.load(&t.name, Arc::clone(&t.handle));
    }
    tr.set_round(0);
    tr.set_on(true);
    let merged = script.merged();
    for (id, r) in &merged {
        let name = match r.kind {
            Kind::Repeat => "serve.hit",
            Kind::Neighbor => "serve.neighbor",
            Kind::Fresh => "serve.miss",
        };
        let _ = tr.span(name, *id, || engine.query(&queries[r.spec]));
    }
    for (id, r) in sample_fresh(&merged) {
        let q = &queries[r.spec];
        if let Some(entry) = engine.traces().iter().find(|t| t.name == q.trace) {
            tr.span("serve.diff", id, || engine.replay_differential(entry, q));
            tr.span("serve.full", id, || engine.replay_full(entry, q));
        }
    }
    tr.set_on(false);
}

fn sample_fresh(merged: &[(u32, Req)]) -> Vec<(u32, Req)> {
    let fresh: Vec<(u32, Req)> = merged
        .iter()
        .filter(|(_, r)| r.kind == Kind::Fresh)
        .copied()
        .collect();
    let step = fresh.len().div_ceil(LAYER_SAMPLE).max(1);
    fresh.into_iter().step_by(step).collect()
}

/// The layers only `whatif` enters, from a traced run's spans.
fn whatif_layers(spans: &[crate::trace::Span], script: &Script, best_ns: &[u64]) -> Vec<Metric> {
    let ms = |name: &str| best_sum_ns(spans, name) as f64 / 1e6;
    let mean_ms = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64 / 1e6
        }
    };
    let sampled: HashSet<u32> = sample_fresh(&script.merged())
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    let miss: Vec<u64> = crate::trace::self_times(spans)
        .into_iter()
        .filter(|(s, _)| s.name == "serve.miss" && sampled.contains(&s.unit))
        .map(|(_, ns)| ns)
        .collect();
    let hit_us = {
        let v: Vec<f64> = self_ns(spans, "serve.hit")
            .into_iter()
            .map(|ns| ns as f64 / 1e3)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(&v)
        }
    };
    let tcp_hit_us: Vec<f64> = script
        .merged()
        .iter()
        .filter(|(id, r)| r.kind == Kind::Repeat && best_ns[*id as usize] != u64::MAX)
        .map(|(id, _)| best_ns[*id as usize] as f64 / 1e3)
        .collect();
    let tcp_hit_us = if tcp_hit_us.is_empty() {
        0.0
    } else {
        crate::stats::median(&tcp_hit_us)
    };
    vec![
        Metric::new(
            "apps.capture_ms",
            best_total_ns(spans, "apps.capture") as f64 / 1e6,
            "ms",
        ),
        Metric::new("replay.encode_ms", ms("replay.encode"), "ms"),
        Metric::new("replay.decode_ms", ms("replay.decode"), "ms"),
        Metric::new("replay.validate_ms", ms("replay.validate"), "ms"),
        Metric::new("serve.index_ms", ms("serve.index"), "ms"),
        Metric::new(
            "serve.diff_ms",
            mean_ms(&self_ns(spans, "serve.diff")),
            "ms",
        ),
        Metric::new(
            "serve.full_ms",
            mean_ms(&self_ns(spans, "serve.full")),
            "ms",
        ),
        Metric::new("serve.miss_ms", mean_ms(&miss), "ms"),
        Metric::new("serve.hit_us", hit_us, "us"),
        Metric::new("proto.overhead_us", tcp_hit_us - hit_us, "us"),
    ]
}
