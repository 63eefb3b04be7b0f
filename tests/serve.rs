//! The serve-engine contract (DESIGN.md §4k).
//!
//! Four guarantees, end to end, over real captures:
//!
//! * **Cache-key soundness** — changing any single cost-model field,
//!   the topology, or the directory backend changes the cache key, so
//!   distinct machine pricings can never alias a cached result.
//! * **Differential fidelity** — differential re-pricing is
//!   byte-identical to a full event-walk replay on every point of the
//!   explore grid (clocks, every ledger cell, stats, phases, links),
//!   for all three memory systems, including finite-bandwidth points
//!   where the contention fabric is live, on every topology.
//! * **Serving determinism** — batched answers equal sequential
//!   answers byte-for-byte at any worker count, cached reruns return
//!   the shared result, and neighbor reuse only fires when it provably
//!   cannot change the answer.
//! * **Protocol robustness** — a real TCP roundtrip agrees with the
//!   in-process engine, corrupt frames come back as named errors, and
//!   a link bandwidth of 2^63 or more, or a price of `u64::MAX`, gets
//!   an answer. A frame is one write; pipelined frames are answered in
//!   order and a request trickled in a byte at a time is answered;
//!   `Server::stop` wakes an accept loop blocked on an idle listener.
//!
//! A fixed-seed property drives all three serving tiers with random
//! query sequences and checks each answer and counter against a model.
//!
//! Two structural checks ride along: the cache keys a trace by its load,
//! not its header, and a trace's differential index is built once, at
//! the first load, and shared by every engine that loads the handle.

use lcm_apps::threshold::Threshold;
use lcm_apps::{SystemKind, Workload};
use lcm_bench::explore;
use lcm_replay::codec::cost_fields;
use lcm_replay::{TraceFile, TraceHandle};
use lcm_serve::{query, CacheKey, Client, Query, QueryClass, ServeEngine, Server};
use lcm_sim::{
    CostModel, CycleCat, CycleLedger, DirBackend, Event, MachineConfig, NodeId, NodeStats, Stamped,
    Topology,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

const NODES: usize = 8;

fn capture<W: Workload>(benchmark: &str, system: SystemKind, w: &W) -> TraceHandle {
    Arc::new(
        explore::capture_workload(
            benchmark,
            "smoke",
            system,
            MachineConfig::new(NODES).with_cost(CostModel::cm5()),
            w,
        )
        .expect("capture holds the whole stream"),
    )
}

/// One engine holding a Threshold capture per memory system.
fn engine() -> ServeEngine {
    let mut e = ServeEngine::new();
    for system in SystemKind::all() {
        e.load(
            system.label(),
            capture("Threshold", system, &Threshold::small()),
        );
    }
    e
}

/// The explore grid as serve queries against every loaded trace.
fn grid(e: &ServeEngine) -> Vec<Query> {
    let mut queries = Vec::new();
    for t in e.traces() {
        for bw in [0u64, 64, 16, 4] {
            for lat in [500u64, 3_000, 12_000] {
                queries.push(Query {
                    trace: t.name.clone(),
                    cost: CostModel::cm5_grid(bw, lat),
                    topology: t.handle.topology,
                    backend: DirBackend::FullMap,
                });
            }
        }
    }
    queries
}

#[test]
fn any_single_cost_field_change_changes_the_key() {
    let base = query("t", CostModel::cm5());
    let key = CacheKey::new(7, &base);
    type Bump = Box<dyn Fn(&mut CostModel)>;
    let mut fields: Vec<(&str, Bump)> = Vec::new();
    macro_rules! field {
        ($name:ident) => {
            fields.push((
                stringify!($name),
                Box::new(|c: &mut CostModel| c.$name += 1),
            ));
        };
    }
    field!(cache_hit);
    field!(local_fill);
    field!(local_refill);
    field!(remote_miss);
    field!(msg_send);
    field!(msg_recv);
    field!(block_flush);
    field!(clean_copy_create);
    field!(reconcile_per_version);
    field!(barrier_base);
    field!(barrier_per_level);
    field!(invalidate);
    field!(upgrade);
    field!(retry_timeout);
    field!(msg_header_bytes);
    field!(link_bandwidth_bytes_per_cycle);
    field!(ni_occupancy);
    field!(contention_window);
    assert_eq!(fields.len(), 18, "every CostModel field must be covered");
    for (name, bump) in fields {
        let mut q = base.clone();
        bump(&mut q.cost);
        assert_ne!(
            CacheKey::new(7, &q),
            key,
            "changing {name} must change the cache key"
        );
    }
}

#[test]
fn topology_backend_and_trace_change_the_key() {
    let base = query("t", CostModel::cm5());
    let key = CacheKey::new(7, &base);
    for topology in [
        Topology::FatTree { arity: 2 },
        Topology::FatTree { arity: 8 },
        Topology::Crossbar,
        Topology::Flat,
    ] {
        let q = Query {
            topology,
            ..base.clone()
        };
        assert_ne!(CacheKey::new(7, &q), key, "topology {topology} must rekey");
    }
    for backend in [
        DirBackend::LimitedPtr { ptrs: 2 },
        DirBackend::LimitedPtr { ptrs: 4 },
        DirBackend::CoarseVec { bits: 8 },
    ] {
        let q = Query {
            backend,
            ..base.clone()
        };
        assert_ne!(
            CacheKey::new(7, &q),
            key,
            "backend {} must rekey",
            backend.label()
        );
    }
    // Same query against a different trace fingerprint.
    assert_ne!(CacheKey::new(8, &base), key, "fingerprint must rekey");
    // And the same inputs must agree with themselves.
    assert_eq!(CacheKey::new(7, &base.clone()), key);
}

#[test]
fn differential_replay_is_byte_identical_across_the_grid() {
    let e = engine();
    let queries = grid(&e);
    assert_eq!(queries.len(), 3 * 12, "three systems, twelve grid points");
    for q in &queries {
        e.verify(q).unwrap_or_else(|err| {
            panic!(
                "{} bw={} lat={}: {err}",
                q.trace, q.cost.link_bandwidth_bytes_per_cycle, q.cost.remote_miss
            )
        });
    }
}

#[test]
fn differential_replay_is_byte_identical_on_every_topology() {
    let e = engine();
    let topologies = [
        Topology::FatTree { arity: 2 },
        Topology::FatTree { arity: 8 },
        Topology::Crossbar,
        Topology::Flat,
    ];
    for t in e.traces() {
        for topology in topologies {
            for bw in [64u64, 16, 4] {
                let q = Query {
                    topology,
                    ..query(&t.name, CostModel::cm5_grid(bw, 3_000))
                };
                e.verify(&q)
                    .unwrap_or_else(|err| panic!("{} {topology} bw={bw}: {err}", t.name));
            }
        }
    }
}

#[test]
fn batched_equals_sequential_at_any_worker_count() {
    let queries = grid(&engine());
    let sequential = engine();
    let want: Vec<_> = queries
        .iter()
        .map(|q| sequential.query(q).expect("sequential").0)
        .collect();
    for jobs in [1usize, 2, 8] {
        let batched = engine();
        let got = batched.query_batch(jobs, &queries);
        for ((q, w), g) in queries.iter().zip(&want).zip(got) {
            let (g, _) = g.expect("batched");
            assert_eq!(
                *g, **w,
                "jobs={jobs}: batched diverges from sequential for {} bw={} lat={}",
                q.trace, q.cost.link_bandwidth_bytes_per_cycle, q.cost.remote_miss
            );
        }
    }
}

#[test]
fn cached_rerun_returns_the_shared_results() {
    let e = engine();
    let queries = grid(&e);
    let cold: Vec<_> = e
        .query_batch(2, &queries)
        .into_iter()
        .map(|r| r.expect("cold").0)
        .collect();
    for (q, first) in queries.iter().zip(&cold) {
        let (again, class) = e.query(q).expect("warm");
        assert_eq!(class, QueryClass::Cached, "{}: rerun must hit", q.trace);
        assert!(Arc::ptr_eq(first, &again), "{}: rerun must share", q.trace);
    }
}

#[test]
fn neighbor_reuse_never_changes_an_answer() {
    let e = engine();
    for q in grid(&e) {
        // Bump a price the capture may or may not exercise; whatever
        // path serves it, the answer must equal a cold full replay.
        let mut variant = q.clone();
        variant.cost.retry_timeout += 17;
        variant.cost.invalidate += 3;
        let (got, _) = e.query(&variant).expect("variant");
        assert_eq!(
            *got,
            e.query_full(&variant).expect("full"),
            "{} bw={} lat={}: served answer diverges from a cold full replay",
            variant.trace,
            variant.cost.link_bandwidth_bytes_per_cycle,
            variant.cost.remote_miss
        );
    }
}

#[test]
fn tcp_roundtrip_agrees_with_the_in_process_engine() {
    let engine = Arc::new(engine());
    let queries = grid(&engine);
    let server = Server::start("127.0.0.1:0", Arc::clone(&engine), 2).expect("bind");
    let addr = server.addr.to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let listed = client.list().expect("LIST");
    assert_eq!(listed.len(), engine.traces().len());
    for (info, t) in listed.iter().zip(engine.traces()) {
        assert_eq!(info.name, t.name);
        assert_eq!(info.nodes as usize, t.handle.nodes);
        assert_eq!(info.fingerprint, t.fingerprint);
    }

    let wire = client.query_batch(&queries).expect("QUERY");
    for (q, w) in queries.iter().zip(&wire) {
        let local = engine.query_full(q).expect("full");
        assert_eq!(w.result, local, "{}: wire result diverges", q.trace);
    }

    // Unknown traces are server-side errors, not dead connections.
    let err = client
        .query(&query("no-such-trace", CostModel::cm5()))
        .expect_err("unknown trace");
    assert!(err.contains("unknown trace"), "unexpected: {err}");

    // The connection still works after the error.
    assert_eq!(client.list().expect("LIST after error").len(), 3);

    client.shutdown().expect("SHUTDOWN");
    server.wait();
}

#[test]
fn huge_link_bandwidths_get_answers_over_tcp() {
    let engine = Arc::new(engine());
    let server = Server::start("127.0.0.1:0", Arc::clone(&engine), 2).expect("bind");
    let mut client = Client::connect(&server.addr.to_string()).expect("connect");
    let name = engine.traces()[0].name.clone();
    for bw in [1u64 << 63, u64::MAX] {
        let mut cost = CostModel::cm5_grid(64, 3_000);
        cost.link_bandwidth_bytes_per_cycle = bw;
        let huge = query(&name, cost);
        let got = client
            .query(&huge)
            .expect("an answer, not a dead connection");
        assert_eq!(
            got.result,
            engine.query_full(&huge).expect("full"),
            "bw={bw}"
        );
        // The same connection then answers a normal query.
        let normal = query(&name, CostModel::cm5_grid(16, 3_000));
        let got = client.query(&normal).expect("connection survives");
        assert_eq!(got.result, engine.query_full(&normal).expect("full"));
    }
    client.shutdown().expect("SHUTDOWN");
    server.wait();
}

#[test]
fn huge_prices_get_answers_over_tcp() {
    let engine = Arc::new(engine());
    let server = Server::start("127.0.0.1:0", Arc::clone(&engine), 2).expect("bind");
    let mut client = Client::connect(&server.addr.to_string()).expect("connect");
    let name = engine.traces()[0].name.clone();
    type Set = fn(&mut CostModel);
    let huge: [(&str, Set); 4] = [
        ("remote_miss", |c| c.remote_miss = u64::MAX),
        ("ni_occupancy", |c| c.ni_occupancy = u64::MAX),
        ("msg_header_bytes", |c| c.msg_header_bytes = u64::MAX),
        ("barrier_base", |c| c.barrier_base = u64::MAX),
    ];
    for (field, set) in huge {
        let mut cost = CostModel::cm5_grid(16, 3_000);
        set(&mut cost);
        let q = query(&name, cost);
        let got = client.query(&q).expect("an answer, not a dead connection");
        assert_eq!(
            got.result,
            engine.query_full(&q).expect("full"),
            "{field} = u64::MAX"
        );
        // The same connection then answers a normal query.
        let normal = query(&name, CostModel::cm5_grid(16, 3_000));
        let got = client.query(&normal).expect("connection survives");
        assert_eq!(got.result, engine.query_full(&normal).expect("full"));
    }
    client.shutdown().expect("SHUTDOWN");
    server.wait();
}

#[test]
fn corrupt_frames_get_named_errors_not_panics() {
    use std::io::Write as _;
    let engine = Arc::new(engine());
    let server = Server::start("127.0.0.1:0", Arc::clone(&engine), 2).expect("bind");
    let addr = server.addr.to_string();

    // All three probe connections deliberately stay open until the end
    // of the test: shutdown must complete even while idle clients hold
    // silent connections (stopping shuts their sockets down, waking the
    // connection threads blocked in reads).

    // Unknown opcode.
    let mut raw1 = std::net::TcpStream::connect(&addr).expect("connect");
    raw1.write_all(&1u32.to_le_bytes()).expect("len");
    raw1.write_all(&[42u8]).expect("op");
    let frame = lcm_serve::proto::read_frame(&mut raw1)
        .expect("response")
        .expect("frame");
    let err = lcm_serve::proto::decode_query_response(&frame).expect_err("named error");
    assert!(
        err.contains("malformed request") && err.contains("unknown opcode"),
        "unexpected: {err}"
    );

    // Truncated query payload: a QUERY header promising one query with
    // no body behind it.
    let mut raw2 = std::net::TcpStream::connect(&addr).expect("connect");
    raw2.write_all(&2u32.to_le_bytes()).expect("len");
    raw2.write_all(&[lcm_serve::proto::OP_QUERY, 1])
        .expect("body");
    let frame = lcm_serve::proto::read_frame(&mut raw2)
        .expect("response")
        .expect("frame");
    let err = lcm_serve::proto::decode_query_response(&frame).expect_err("named error");
    assert!(err.contains("malformed request"), "unexpected: {err}");

    // An oversized frame length is refused without allocation; the
    // server answers with the frame-layer error and drops the
    // connection rather than trusting the stream again.
    let mut raw3 = std::net::TcpStream::connect(&addr).expect("connect");
    raw3.write_all(&u32::MAX.to_le_bytes()).expect("len");
    let frame = lcm_serve::proto::read_frame(&mut raw3)
        .expect("response")
        .expect("frame");
    let err = lcm_serve::proto::decode_query_response(&frame).expect_err("named error");
    assert!(err.contains("exceeds"), "unexpected: {err}");

    // The server survived all three: a healthy client still works, and
    // SHUTDOWN drains with raw1/raw2 still connected.
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.list().expect("LIST").len(), 3);
    client.shutdown().expect("SHUTDOWN");
    server.wait();
    drop((raw1, raw2, raw3));
}

#[test]
fn a_trace_read_from_disk_serves_queries() {
    let dir = std::env::temp_dir().join(format!("lcm-serve-read-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("threshold.lcmtrace");
    let file = capture("Threshold", SystemKind::LcmMcc, &Threshold::small());
    file.write_to(&path).expect("write");

    let read = Arc::new(TraceFile::read_from(&path).expect("read"));
    let mut e = ServeEngine::new();
    e.load("threshold", read);
    let (r, _) = e
        .query(&query("threshold", CostModel::cm5()))
        .expect("query");
    assert_eq!(r.nodes, NODES);
    std::fs::remove_dir_all(&dir).ok();
}

/// A one-node capture of `cycles` compute cycles. Every such capture
/// has the same header (nodes, topology, cost model, metadata), so the
/// header fingerprint cannot tell two of them apart.
fn same_header_capture(cycles: u64) -> TraceHandle {
    let mut ledger = CycleLedger::new(1);
    ledger.charge(NodeId(0), CycleCat::Compute, cycles);
    let events = vec![Stamped {
        seq: 0,
        cycle: cycles,
        event: Event::Work {
            node: NodeId(0),
            cycles,
            hits: 0,
        },
    }];
    let meta = vec![("benchmark".to_string(), "same".to_string())];
    let file = TraceFile::from_capture(
        1,
        Topology::default(),
        CostModel::cm5(),
        meta,
        events,
        vec![cycles],
        &ledger,
        NodeStats::default(),
    )
    .expect("gap-free capture");
    Arc::new(file)
}

#[test]
fn traces_with_equal_headers_never_share_cache_entries() {
    let (a, b) = (same_header_capture(100), same_header_capture(999));
    assert_eq!(a.fingerprint(), b.fingerprint(), "headers match");
    let mut e = ServeEngine::new();
    e.load("a", a);
    e.load("b", b);
    let (ra, _) = e.query(&query("a", CostModel::cm5())).expect("a");
    assert_eq!(ra.time, 100);
    let (rb, class) = e.query(&query("b", CostModel::cm5())).expect("b");
    assert_eq!(class, QueryClass::Differential, "b must not hit a's entry");
    assert_eq!(rb.time, 999);
    assert_eq!(*rb, e.query_full(&query("b", CostModel::cm5())).unwrap());
    // A neighbor of b's query must not be served from a's entries either.
    let mut near = query("b", CostModel::cm5());
    near.cost.invalidate += 1;
    let (rn, class) = e.query(&near).expect("b neighbor");
    assert_eq!((class, rn.time), (QueryClass::Neighbor, 999));
}

#[test]
fn engines_loading_one_handle_share_its_index_built_at_load() {
    let handle = capture("Threshold", SystemKind::LcmMcc, &Threshold::small());
    assert!(
        handle.index_if_built().is_none(),
        "a fresh capture has no index"
    );
    let mut first = ServeEngine::new();
    first.load("t", Arc::clone(&handle));
    let built = handle.index_if_built().expect("load builds the index") as *const _;
    let mut second = ServeEngine::new();
    second.load("t", Arc::clone(&handle));
    for e in [&first, &second] {
        e.query(&query("t", CostModel::cm5_grid(16, 3_000)))
            .expect("query");
        assert!(
            std::ptr::eq(e.traces()[0].handle.index(), built),
            "every engine prices through the one index built at the first load"
        );
    }
}

/// A `Write` that counts the calls it receives.
#[derive(Default)]
struct CountingWrite {
    writes: usize,
    bytes: Vec<u8>,
}

impl std::io::Write for CountingWrite {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_frame_is_one_write_of_length_and_payload() {
    let payload = lcm_serve::proto::encode_query_request(&[query("t", CostModel::cm5())]);
    let mut w = CountingWrite::default();
    lcm_serve::proto::write_frame(&mut w, &payload).expect("write");
    assert_eq!(w.writes, 1, "length and payload go out in one write");
    let mut want = (payload.len() as u32).to_le_bytes().to_vec();
    want.extend_from_slice(&payload);
    assert_eq!(w.bytes, want, "the frame is len || payload");
}

/// A raw connection whose reads fail after a while instead of hanging
/// a test whose server never answers.
fn raw_connect(addr: std::net::SocketAddr) -> std::net::TcpStream {
    let raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    raw
}

/// One length-prefixed QUERY frame for `queries`.
fn query_frame(queries: &[Query]) -> Vec<u8> {
    let mut frame = Vec::new();
    lcm_serve::proto::write_frame(&mut frame, &lcm_serve::proto::encode_query_request(queries))
        .expect("frame");
    frame
}

/// Reads one response frame and checks it is byte-identical to the
/// in-process engine's full replay of `q`, served under the class the
/// server reported.
fn expect_answer(raw: &mut std::net::TcpStream, engine: &ServeEngine, q: &Query) {
    let frame = lcm_serve::proto::read_frame(raw)
        .expect("a response, not a timeout")
        .expect("a frame, not EOF");
    let wire = lcm_serve::proto::decode_query_response(&frame).expect("an OK response");
    assert_eq!(wire.len(), 1);
    let local = lcm_serve::proto::WireResult {
        result: engine.query_full(q).expect("full"),
        class: wire[0].class,
    };
    assert_eq!(
        frame,
        lcm_serve::proto::encode_query_ok(&[local]),
        "{}: wire answer diverges from in-process",
        q.trace
    );
}

#[test]
fn pipelined_frames_are_answered_in_order() {
    use std::io::Write as _;
    let engine = Arc::new(engine());
    let server = Server::start("127.0.0.1:0", Arc::clone(&engine), 2).expect("bind");
    let names: Vec<String> = engine.traces().iter().map(|t| t.name.clone()).collect();
    let first = query(&names[0], CostModel::cm5_grid(16, 3_000));
    let second = query(&names[1], CostModel::cm5_grid(64, 500));
    // Both frames in one write: the server reads them in one buffer and
    // must answer the second from what is left after the first.
    let mut both = query_frame(std::slice::from_ref(&first));
    both.extend(query_frame(std::slice::from_ref(&second)));
    let mut raw = raw_connect(server.addr);
    raw.write_all(&both).expect("write");
    expect_answer(&mut raw, &engine, &first);
    expect_answer(&mut raw, &engine, &second);
    drop(raw);
    server.stop();
}

#[test]
fn a_request_sent_one_byte_per_write_is_answered() {
    use std::io::Write as _;
    let engine = Arc::new(engine());
    let server = Server::start("127.0.0.1:0", Arc::clone(&engine), 2).expect("bind");
    let q = query(&engine.traces()[0].name, CostModel::cm5_grid(4, 12_000));
    let mut raw = raw_connect(server.addr);
    for b in query_frame(std::slice::from_ref(&q)) {
        raw.write_all(&[b]).expect("write");
    }
    expect_answer(&mut raw, &engine, &q);
    drop(raw);
    server.stop();
}

#[test]
fn frame_errors_are_answered_then_the_connection_drops() {
    use std::io::Write as _;
    let engine = Arc::new(engine());
    let server = Server::start("127.0.0.1:0", Arc::clone(&engine), 2).expect("bind");
    let named_error_then_eof = |raw: &mut std::net::TcpStream, want: &str| {
        let frame = lcm_serve::proto::read_frame(raw)
            .expect("a response")
            .expect("a frame");
        let err = lcm_serve::proto::decode_query_response(&frame).expect_err("named error");
        assert!(err.contains(want), "unexpected: {err}");
        assert_eq!(
            lcm_serve::proto::read_frame(raw).expect("EOF, not a timeout"),
            None,
            "the server drops a connection whose framing broke"
        );
    };

    let mut oversized = raw_connect(server.addr);
    oversized.write_all(&u32::MAX.to_le_bytes()).expect("len");
    named_error_then_eof(&mut oversized, "exceeds");

    // Ten bytes promised, three sent, then the write side closes.
    let mut cut = raw_connect(server.addr);
    cut.write_all(&10u32.to_le_bytes()).expect("len");
    cut.write_all(&[lcm_serve::proto::OP_QUERY, 1, 0])
        .expect("part");
    cut.shutdown(std::net::Shutdown::Write).expect("half-close");
    named_error_then_eof(&mut cut, "closed mid-frame");
    server.stop();
}

#[test]
fn stop_wakes_an_accept_loop_blocked_on_an_idle_listener() {
    let engine = Arc::new(engine());
    let server = Server::start("127.0.0.1:0", engine, 2).expect("bind");
    let mut client = Client::connect(&server.addr.to_string()).expect("connect");
    assert_eq!(client.list().expect("LIST").len(), 3);
    drop(client);
    // The accept loop now blocks with no connection pending; stopping
    // must wake it rather than wait for a client that never comes.
    let (done, stopped) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.stop();
        let _ = done.send(());
    });
    stopped
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("Server::stop returns while no client connects");
    stopper.join().expect("stopper");
}

#[test]
fn stop_returns_while_a_silent_client_holds_a_connection() {
    let engine = Arc::new(engine());
    let server = Server::start("127.0.0.1:0", engine, 2).expect("bind");
    // Connected, never sends a byte: its connection thread blocks in a
    // read that only the server's own socket shutdown can end.
    let silent = raw_connect(server.addr);
    // Connections are accepted in order: once a later one is answered,
    // the silent one has its own connection thread.
    let mut client = Client::connect(&server.addr.to_string()).expect("connect");
    assert_eq!(client.list().expect("LIST").len(), 3);
    drop(client);
    let (done, stopped) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.stop();
        let _ = done.send(());
    });
    stopped
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("Server::stop returns while a silent client stays connected");
    stopper.join().expect("stopper");
    drop(silent);
}

/// The two smoke traces the tier property serves, captured once.
fn tier_traces() -> &'static [(&'static str, TraceHandle); 2] {
    static TRACES: OnceLock<[(&'static str, TraceHandle); 2]> = OnceLock::new();
    TRACES.get_or_init(|| {
        [SystemKind::Stache, SystemKind::LcmMcc].map(|system| {
            (
                system.label(),
                capture("Threshold", system, &Threshold::small()),
            )
        })
    })
}

/// The index of the one cost field that `bump` changes.
fn field_of(bump: fn(&mut CostModel)) -> usize {
    let base = CostModel::cm5();
    let mut bumped = base;
    bump(&mut bumped);
    let (a, b) = (cost_fields(&base), cost_fields(&bumped));
    let changed: Vec<usize> = (0..a.len()).filter(|&i| a[i] != b[i]).collect();
    assert_eq!(changed.len(), 1, "the bump changes exactly one field");
    changed[0]
}

const BANDWIDTHS: [u64; 4] = [0, 64, 16, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random sequences of repeats, `retry_timeout`-only changes and fresh
    /// bandwidth/latency queries over two smoke traces: every answer
    /// equals a cold full replay, and the engine's per-tier counters equal
    /// the classes a model of the sequence implies. The model: a query
    /// seen before is a cache hit; one that differs from an earlier query
    /// only in `retry_timeout`, which a fault-free trace never charges, is
    /// a neighbor hit; anything else is re-priced differentially.
    #[test]
    fn serve_tiers_match_a_model_on_random_query_sequences(
        ops in proptest::collection::vec(
            (0u8..10, 0usize..2, 0usize..4, 500u64..12_000, any::<u64>()),
            1..40,
        ),
    ) {
        let traces = tier_traces();
        let retry = field_of(|c| c.retry_timeout += 1);
        let latency = field_of(|c| c.remote_miss += 1);
        let bandwidth = field_of(|c| c.link_bandwidth_bytes_per_cycle += 1);
        let mut e = ServeEngine::new();
        for (name, handle) in traces {
            // The model's premises: retry_timeout is unobservable, while
            // latency and bandwidth tell queries apart.
            let idx = handle.index();
            for bw in BANDWIDTHS {
                prop_assert!(!idx.field_sensitive(retry, bw), "{}: retries charged", name);
                prop_assert!(idx.field_sensitive(latency, bw), "{}: latency unseen", name);
                prop_assert!(idx.field_sensitive(bandwidth, bw), "{}: no transfers", name);
            }
            e.load(name, Arc::clone(handle));
        }

        let mut history: Vec<Query> = Vec::new();
        let mut seen: HashSet<CacheKey> = HashSet::new();
        let mut seen_canonical: HashSet<CacheKey> = HashSet::new();
        let mut full: HashMap<CacheKey, lcm_serve::QueryResult> = HashMap::new();
        let mut expect = (0u64, 0u64, 0u64);
        for &(kind, trace, bw, lat, pick) in &ops {
            let q = match kind {
                0..=5 if !history.is_empty() => {
                    history[(pick % history.len() as u64) as usize].clone()
                }
                6..=7 if !history.is_empty() => {
                    let mut q = history[(pick % history.len() as u64) as usize].clone();
                    q.cost.retry_timeout = 1 + pick % 100_000;
                    q
                }
                _ => query(traces[trace].0, CostModel::cm5_grid(BANDWIDTHS[bw], lat)),
            };
            let raw = CacheKey::new(trace_id(&e, &q), &q);
            let mut canonical_query = q.clone();
            canonical_query.cost.retry_timeout = 0;
            let canonical = CacheKey::new(trace_id(&e, &q), &canonical_query);
            let class = if seen.contains(&raw) {
                QueryClass::Cached
            } else if seen_canonical.contains(&canonical) {
                QueryClass::Neighbor
            } else {
                QueryClass::Differential
            };
            match class {
                QueryClass::Cached => expect.0 += 1,
                QueryClass::Neighbor => expect.1 += 1,
                QueryClass::Differential => expect.2 += 1,
            }
            seen.insert(raw);
            seen_canonical.insert(canonical);

            let (got, got_class) = e.query(&q).expect("a loaded trace answers");
            prop_assert_eq!(got_class, class, "query {:?}", q);
            let want = full
                .entry(raw)
                .or_insert_with(|| e.query_full(&q).expect("full replay"));
            prop_assert!(
                *got == *want,
                "{:?}: served answer diverges from a cold full replay",
                q
            );
            history.push(q);
        }
        prop_assert_eq!(e.stats.snapshot(), expect);
    }
}

/// A stand-in trace id for the model's keys: the trace's load position.
fn trace_id(e: &ServeEngine, q: &Query) -> u64 {
    e.traces()
        .iter()
        .position(|t| t.name == q.trace)
        .expect("query names a loaded trace") as u64
}
