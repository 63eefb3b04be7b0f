//! The `lcm-serve` wire protocol: length-prefixed binary frames over a
//! byte stream (TCP in practice, any `Read + Write` in tests).
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload. Payloads are written and read with [`lcm_replay::codec`],
//! the codec `.lcmtrace` files use: LEB128 varints, varint-length-
//! prefixed UTF-8 strings, the wire-order cost model and the topology.
//! Requests open with an opcode byte, responses with a status byte —
//! `0` carries a result, `1` carries an error message. A malformed
//! frame is a *named* decode error, never a panic: the server reports
//! it in an error response and keeps serving.

use crate::engine::{Query, QueryClass, QueryResult};
use lcm_replay::codec::{put_cost_model, put_str, put_topology, put_varint, Cursor};
use lcm_sim::DirBackend;
use std::io::{Read, Write};

/// Opcode: list the loaded traces.
pub const OP_LIST: u8 = 0;
/// Opcode: answer a batch of what-if queries.
pub const OP_QUERY: u8 = 1;
/// Opcode: shut the server down (responds, then stops accepting).
pub const OP_SHUTDOWN: u8 = 2;

/// Response status: the payload carries the result.
pub const ST_OK: u8 = 0;
/// Response status: the payload carries an error message.
pub const ST_ERR: u8 = 1;

/// Frames larger than this are rejected before allocation — a corrupt
/// length prefix must not look like a 4 GiB read.
pub const MAX_FRAME: usize = 1 << 26;

/// A decoded request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// List loaded traces.
    List,
    /// Price a batch of queries, answered in order.
    Query(Vec<Query>),
    /// Stop the server.
    Shutdown,
}

/// One query answer on the wire: the result plus how it was served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireResult {
    /// The re-priced run.
    pub result: QueryResult,
    /// Which engine path served it (advisory; see [`QueryClass`]).
    pub class: QueryClass,
}

/// A trace listing row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceInfo {
    /// Name queries address the trace by.
    pub name: String,
    /// Node count of the captured machine.
    pub nodes: u64,
    /// Header fingerprint.
    pub fingerprint: u64,
}

// --------------------------------------------------------------- queries

fn put_query(buf: &mut Vec<u8>, q: &Query) {
    put_str(buf, &q.trace);
    put_cost_model(buf, &q.cost);
    put_topology(buf, q.topology);
    match q.backend {
        DirBackend::FullMap => buf.push(0),
        DirBackend::LimitedPtr { ptrs } => {
            buf.push(1);
            put_varint(buf, u64::from(ptrs));
        }
        DirBackend::CoarseVec { bits } => {
            buf.push(2);
            put_varint(buf, u64::from(bits));
        }
    }
}

/// Most queries, results, phases or listing rows one frame may carry.
const MAX_LIST: usize = 1 << 20;

/// Reads a list length: at most [`MAX_LIST`], and no more elements of
/// at least `min_bytes` each than the rest of the frame can hold, so a
/// corrupt count fails before anything is allocated for it.
fn list_len(c: &mut Cursor, min_bytes: usize, what: &str) -> Result<usize, String> {
    let n = c.element_count(min_bytes, what)?;
    if n > MAX_LIST {
        return Err(format!(
            "{what} of {n} exceeds the {MAX_LIST}-element limit"
        ));
    }
    Ok(n)
}

/// Smallest encoded query: empty name, 18 one-byte cost fields, and
/// the topology and backend tags.
const MIN_QUERY_BYTES: usize = 21;

fn get_query(c: &mut Cursor) -> Result<Query, String> {
    Ok(Query {
        trace: c.string()?,
        cost: c.cost_model()?,
        topology: c.topology()?,
        backend: match c.u8()? {
            0 => DirBackend::FullMap,
            1 => DirBackend::LimitedPtr {
                ptrs: c.varint_u16("limited-pointer count")?,
            },
            2 => DirBackend::CoarseVec {
                bits: c.varint_u16("coarse-vector width")?,
            },
            t => return Err(format!("unknown backend tag {t}")),
        },
    })
}

// -------------------------------------------------------------- requests

/// Encodes a request payload (without the frame length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::List => vec![OP_LIST],
        Request::Query(queries) => encode_query_request(queries),
        Request::Shutdown => vec![OP_SHUTDOWN],
    }
}

/// Encodes a QUERY request payload straight from a borrowed batch.
pub fn encode_query_request(queries: &[Query]) -> Vec<u8> {
    let mut buf = vec![OP_QUERY];
    put_varint(&mut buf, queries.len() as u64);
    for q in queries {
        put_query(&mut buf, q);
    }
    buf
}

/// Decodes a request payload; any malformation is a named error.
pub fn decode_request(buf: &[u8]) -> Result<Request, String> {
    let mut c = Cursor::new(buf);
    let req = match c.u8()? {
        OP_LIST => Request::List,
        OP_QUERY => {
            let count = list_len(&mut c, MIN_QUERY_BYTES, "query batch")?;
            let mut queries = Vec::with_capacity(count);
            for _ in 0..count {
                queries.push(get_query(&mut c)?);
            }
            Request::Query(queries)
        }
        OP_SHUTDOWN => Request::Shutdown,
        op => return Err(format!("unknown opcode {op}")),
    };
    if c.remaining() != 0 {
        return Err(format!(
            "{} trailing bytes after a complete request",
            c.remaining()
        ));
    }
    Ok(req)
}

// ------------------------------------------------------------- responses

fn put_result(buf: &mut Vec<u8>, r: &QueryResult, class: QueryClass) {
    put_str(buf, &r.benchmark);
    put_str(buf, &r.system);
    put_varint(buf, r.nodes as u64);
    put_varint(buf, r.time);
    put_varint(buf, r.barriers);
    for &c in &r.clocks {
        put_varint(buf, c);
    }
    for &v in &r.ledger {
        put_varint(buf, v);
    }
    put_varint(buf, r.stats.len() as u64);
    for &v in &r.stats {
        put_varint(buf, v);
    }
    put_varint(buf, r.phases.len() as u64);
    for (label, t) in &r.phases {
        put_str(buf, label);
        put_varint(buf, *t);
    }
    buf.push(match class {
        QueryClass::Cached => 0,
        QueryClass::Neighbor => 1,
        QueryClass::Differential => 2,
    });
}

/// Smallest encoded result: two empty strings, nodes, time, barriers,
/// the stats and phase counts, and the class byte.
const MIN_RESULT_BYTES: usize = 8;

fn get_result(c: &mut Cursor) -> Result<WireResult, String> {
    let benchmark = c.string()?;
    let system = c.string()?;
    let nodes = c.varint()? as usize;
    if nodes > lcm_sim::MAX_NODES {
        return Err(format!("node count {nodes} exceeds MAX_NODES"));
    }
    let time = c.varint()?;
    let barriers = c.varint()?;
    let clocks = get_varints(c, nodes)?;
    let ledger = get_varints(c, nodes * lcm_sim::CycleCat::COUNT)?;
    let nstats = c.varint()? as usize;
    if nstats > 256 {
        return Err(format!("stats vector of {nstats} is malformed"));
    }
    let stats = get_varints(c, nstats)?;
    let nphases = list_len(c, 2, "phase list")?;
    let mut phases = Vec::with_capacity(nphases);
    for _ in 0..nphases {
        phases.push((c.string()?, c.varint()?));
    }
    let class = match c.u8()? {
        0 => QueryClass::Cached,
        1 => QueryClass::Neighbor,
        2 => QueryClass::Differential,
        t => return Err(format!("unknown query class {t}")),
    };
    Ok(WireResult {
        result: QueryResult {
            benchmark,
            system,
            nodes,
            time,
            barriers,
            clocks,
            ledger,
            stats,
            phases,
        },
        class,
    })
}

/// `n` varints into a vector allocated once. A varint takes at least a
/// byte, so the rest of the frame caps what a corrupt `n` can reserve.
fn get_varints(c: &mut Cursor, n: usize) -> Result<Vec<u64>, String> {
    let mut v = Vec::with_capacity(n.min(c.remaining()));
    for _ in 0..n {
        v.push(c.varint()?);
    }
    Ok(v)
}

/// Encodes an OK query response from borrowed answers, such as the
/// engine's cached results: nothing is copied before encoding.
pub fn encode_answers<'a>(
    answers: impl ExactSizeIterator<Item = (&'a QueryResult, QueryClass)>,
) -> Vec<u8> {
    let mut buf = vec![ST_OK];
    put_varint(&mut buf, answers.len() as u64);
    for (r, class) in answers {
        put_result(&mut buf, r, class);
    }
    buf
}

/// Encodes an OK query response of wire results, the inverse of
/// [`decode_query_response`].
pub fn encode_query_ok(results: &[WireResult]) -> Vec<u8> {
    encode_answers(results.iter().map(|w| (&w.result, w.class)))
}

/// Encodes an OK listing response.
pub fn encode_list_ok(traces: &[TraceInfo]) -> Vec<u8> {
    let mut buf = vec![ST_OK];
    put_varint(&mut buf, traces.len() as u64);
    for t in traces {
        put_str(&mut buf, &t.name);
        put_varint(&mut buf, t.nodes);
        put_varint(&mut buf, t.fingerprint);
    }
    buf
}

/// Encodes an empty OK response (shutdown acknowledgement).
pub fn encode_ok() -> Vec<u8> {
    vec![ST_OK]
}

/// Encodes an error response.
pub fn encode_err(msg: &str) -> Vec<u8> {
    let mut buf = vec![ST_ERR];
    put_str(&mut buf, msg);
    buf
}

/// A cursor past the status byte of an OK response, or the server's
/// error.
fn check_status(buf: &[u8]) -> Result<Cursor<'_>, String> {
    let mut c = Cursor::new(buf);
    match c.u8()? {
        ST_OK => Ok(c),
        ST_ERR => Err(format!("server error: {}", c.string()?)),
        s => Err(format!("unknown response status {s}")),
    }
}

/// Decodes a query response into wire results (or the server's error).
pub fn decode_query_response(buf: &[u8]) -> Result<Vec<WireResult>, String> {
    let mut c = check_status(buf)?;
    let count = list_len(&mut c, MIN_RESULT_BYTES, "result batch")?;
    (0..count).map(|_| get_result(&mut c)).collect()
}

/// Decodes a listing response.
pub fn decode_list_response(buf: &[u8]) -> Result<Vec<TraceInfo>, String> {
    let mut c = check_status(buf)?;
    let count = list_len(&mut c, 3, "trace listing")?;
    (0..count)
        .map(|_| {
            Ok(TraceInfo {
                name: c.string()?,
                nodes: c.varint()?,
                fingerprint: c.varint()?,
            })
        })
        .collect()
}

/// Decodes an empty OK response (shutdown acknowledgement).
pub fn decode_ok_response(buf: &[u8]) -> Result<(), String> {
    check_status(buf).map(|_| ())
}

// ---------------------------------------------------------------- frames

/// Writes one length-prefixed frame with a single write: on a
/// `TCP_NODELAY` socket a separate length write goes out as its own
/// segment, and the peer wakes once for it and again for the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), String> {
    if payload.len() > MAX_FRAME {
        return Err(format!(
            "frame of {} bytes exceeds the {MAX_FRAME}-byte limit",
            payload.len()
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| format!("writing frame: {e}"))
}

/// Reads one length-prefixed frame. `Ok(None)` is a clean EOF at a
/// frame boundary (the peer hung up between requests). Over a socket,
/// pass a buffered reader: a frame that arrived whole then costs one
/// read syscall, not one for the length and one for the payload.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, String> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(format!("reading frame length: {e}")),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte limit"
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| format!("reading {len}-byte frame: {e}"))?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_sim::{CostModel, Topology};

    fn sample_query() -> Query {
        Query {
            trace: "jacobi.lcmtrace".to_string(),
            cost: CostModel::cm5_grid(16, 3000),
            topology: Topology::FatTree { arity: 4 },
            backend: DirBackend::LimitedPtr { ptrs: 4 },
        }
    }

    #[test]
    fn request_roundtrips() {
        for req in [
            Request::List,
            Request::Shutdown,
            Request::Query(vec![
                sample_query(),
                Query {
                    topology: Topology::Flat,
                    backend: DirBackend::CoarseVec { bits: 8 },
                    ..sample_query()
                },
            ]),
        ] {
            let decoded = decode_request(&encode_request(&req)).expect("roundtrip");
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn query_response_roundtrips() {
        let wire = WireResult {
            result: QueryResult {
                benchmark: "jacobi".to_string(),
                system: "lcm".to_string(),
                nodes: 2,
                time: 12345,
                barriers: 3,
                clocks: vec![12000, 12345],
                ledger: vec![7; 2 * lcm_sim::CycleCat::COUNT],
                stats: vec![9; 33],
                phases: vec![("iter".to_string(), 4000)],
            },
            class: QueryClass::Differential,
        };
        let decoded = decode_query_response(&encode_query_ok(std::slice::from_ref(&wire)))
            .expect("roundtrip");
        assert_eq!(decoded, vec![wire]);
    }

    #[test]
    fn corrupt_frames_are_named_errors() {
        assert!(decode_request(&[]).unwrap_err().contains("truncated"));
        assert!(decode_request(&[9]).unwrap_err().contains("unknown opcode"));
        // A QUERY whose payload stops mid-cost-model.
        let mut buf = encode_request(&Request::Query(vec![sample_query()]));
        buf.truncate(buf.len() / 2);
        assert!(decode_request(&buf).is_err());
        // Trailing garbage after a complete request.
        let mut buf = encode_request(&Request::List);
        buf.push(0);
        assert!(decode_request(&buf).unwrap_err().contains("trailing"));
        // An error response surfaces the server's message.
        let err =
            decode_query_response(&encode_err("unknown trace \"x\"")).expect_err("error response");
        assert!(err.contains("unknown trace"), "unexpected: {err}");
    }

    #[test]
    fn oversized_frame_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut &buf[..]).expect_err("rejected");
        assert!(err.contains("exceeds"), "unexpected: {err}");
    }

    #[test]
    fn degenerate_machines_are_named_errors() {
        let mut q = sample_query();
        q.topology = Topology::FatTree { arity: 1 };
        let err = decode_request(&encode_request(&Request::Query(vec![q]))).unwrap_err();
        assert!(err.contains("arity 1 is below 2"), "unexpected: {err}");
        // A pointer count past u16 is rejected, not truncated.
        let mut buf = encode_request(&Request::Query(vec![sample_query()]));
        buf.truncate(buf.len() - 1);
        put_varint(&mut buf, 70_000);
        let err = decode_request(&buf).unwrap_err();
        assert!(
            err.contains("limited-pointer count 70000"),
            "unexpected: {err}"
        );
    }
}
