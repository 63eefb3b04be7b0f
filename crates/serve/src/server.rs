//! The resident TCP front end: accepts connections, decodes request
//! frames, answers them from a shared [`ServeEngine`], and keeps
//! serving across malformed requests (they get error responses, not
//! panics).

use crate::engine::ServeEngine;
use crate::proto::{
    decode_request, encode_answers, encode_err, encode_list_ok, encode_ok, write_frame, Request,
    TraceInfo, MAX_FRAME,
};
use std::io::{BufReader, Read};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How often an idle connection wakes to check the stop flag. Idle
/// connections must not pin a shutting-down server: SHUTDOWN has to
/// complete even while other clients hold open, silent connections.
const STOP_POLL: Duration = Duration::from_millis(50);

/// How long the accept loop backs off after a failed `accept` (out of
/// descriptors, say), so a persistent error does not spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// The server's stop flag, and the address that wakes its accept loop
/// out of a blocking `accept`.
struct Stop {
    raised: AtomicBool,
    wake: SocketAddr,
}

impl Stop {
    fn new(bound: SocketAddr) -> Stop {
        // A listener on the unspecified address is reached over loopback.
        let mut wake = bound;
        if wake.ip().is_unspecified() {
            wake.set_ip(match bound {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Stop {
            raised: AtomicBool::new(false),
            wake,
        }
    }

    fn is_raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }

    /// Raises the flag, then connects once to the listener so a blocked
    /// `accept` returns and sees it. The connection fails harmlessly
    /// when the listener is already gone.
    fn raise(&self) {
        self.raised.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }
}

/// A running server: the bound address and the handle to stop it.
pub struct Server {
    /// The address the listener actually bound (resolves `:0`).
    pub addr: std::net::SocketAddr,
    stop: Arc<Stop>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and serves `engine` until [`Server::stop`] (or a
    /// client's SHUTDOWN request). Each connection gets a thread;
    /// batches inside a connection run on `jobs` pool workers.
    pub fn start(addr: &str, engine: Arc<ServeEngine>, jobs: usize) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
        let bound = listener
            .local_addr()
            .map_err(|e| format!("resolving bound address: {e}"))?;
        let stop = Arc::new(Stop::new(bound));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = thread::spawn(move || {
            let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
            // `accept` blocks: a new connection is served at once, and an
            // idle server never wakes until `Stop::raise` connects.
            for stream in listener.incoming() {
                if accept_stop.is_raised() {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        // Responses are one frame: never trade latency
                        // for coalescing (Nagle + delayed ACK stalls
                        // every roundtrip by tens of milliseconds).
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_read_timeout(Some(STOP_POLL));
                        let engine = Arc::clone(&engine);
                        let stop = Arc::clone(&accept_stop);
                        conns.push(thread::spawn(move || {
                            serve_connection(stream, &engine, jobs, &stop);
                        }));
                    }
                    Err(_) => thread::sleep(ACCEPT_BACKOFF),
                }
                conns.retain(|h| !h.is_finished());
            }
            for h in conns {
                let _ = h.join();
            }
        });
        Ok(Server {
            addr: bound,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// Stops accepting, waits for in-flight connections to drain.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Blocks until the server stops on its own (a client's SHUTDOWN
    /// request) — the resident `--listen` mode.
    pub fn wait(mut self) {
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }

    fn shutdown(&mut self) {
        if let Some(h) = self.accept_thread.take() {
            self.stop.raise();
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one connection until EOF, an unrecoverable I/O error, or
/// SHUTDOWN. Decode failures answer with a named error and keep the
/// connection open — a corrupt frame must not take the server down.
/// Reads are buffered, so a frame that arrived whole costs one read
/// syscall, and frames pipelined behind it are answered in order
/// from the buffer.
fn serve_connection(stream: TcpStream, engine: &ServeEngine, jobs: usize, stop: &Stop) {
    let mut conn = BufReader::new(stream);
    loop {
        if stop.is_raised() {
            return;
        }
        let payload = match read_frame_polling(&mut conn, stop) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean EOF between requests, or shutdown while idle
            Err(e) => {
                // A frame-layer error (oversized length, mid-frame EOF)
                // is answered if the socket still works, then the
                // connection is dropped: framing is no longer trusted.
                let _ = write_frame(conn.get_mut(), &encode_err(&e));
                return;
            }
        };
        let response = match decode_request(&payload) {
            Err(e) => encode_err(&format!("malformed request: {e}")),
            Ok(Request::List) => {
                let traces: Vec<TraceInfo> = engine
                    .traces()
                    .iter()
                    .map(|t| TraceInfo {
                        name: t.name.clone(),
                        nodes: t.handle.nodes as u64,
                        fingerprint: t.fingerprint,
                    })
                    .collect();
                encode_list_ok(&traces)
            }
            Ok(Request::Query(queries)) => {
                // Answers are encoded straight from the engine's shared
                // results: a cache hit copies nothing before the wire.
                match engine
                    .query_batch(jobs, &queries)
                    .into_iter()
                    .collect::<Result<Vec<_>, String>>()
                {
                    Ok(answers) => encode_answers(answers.iter().map(|(r, class)| (&**r, *class))),
                    Err(e) => encode_err(&e),
                }
            }
            Ok(Request::Shutdown) => {
                let _ = write_frame(conn.get_mut(), &encode_ok());
                stop.raise();
                return;
            }
        };
        if write_frame(conn.get_mut(), &response).is_err() {
            return;
        }
    }
}

/// What [`read_exact_polling`] observed while filling a buffer.
enum Fill {
    /// The buffer was filled completely.
    Full,
    /// EOF arrived before the first byte (clean only at a frame boundary).
    Eof,
    /// The stop flag was raised before the fill completed.
    Stopped,
}

/// [`crate::proto::read_frame`] for a stream with a read timeout: a
/// timed-out read between frames loops back to check `stop`, so an idle
/// connection can never pin a shutting-down server. Returns `Ok(None)`
/// on clean EOF at a frame boundary or when `stop` is raised while no
/// frame is in flight; shutdown mid-frame is an error (the server is
/// stopping — the request is abandoned, not half-read).
fn read_frame_polling(conn: &mut impl Read, stop: &Stop) -> Result<Option<Vec<u8>>, String> {
    let mut header = [0u8; 4];
    match read_exact_polling(conn, &mut header, stop)? {
        Fill::Eof | Fill::Stopped => return Ok(None),
        Fill::Full => {}
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte limit"
        ));
    }
    let mut payload = vec![0u8; len];
    match read_exact_polling(conn, &mut payload, stop)? {
        Fill::Full => Ok(Some(payload)),
        Fill::Eof => Err("connection closed mid-frame".to_string()),
        Fill::Stopped => Err("server shutting down mid-frame".to_string()),
    }
}

/// Fills `buf`, retrying timed-out reads. EOF before the first byte
/// short-circuits as [`Fill::Eof`]; a raised stop flag at any timeout
/// short-circuits as [`Fill::Stopped`] (a stalled half-frame sender
/// must not pin shutdown either); EOF mid-way is a framing error.
fn read_exact_polling(conn: &mut impl Read, buf: &mut [u8], stop: &Stop) -> Result<Fill, String> {
    let mut got = 0usize;
    while got < buf.len() {
        match conn.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(Fill::Eof),
            Ok(0) => return Err("connection closed mid-frame".to_string()),
            Ok(n) => got += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                if stop.is_raised() {
                    return Ok(Fill::Stopped);
                }
            }
            Err(e) => return Err(format!("reading frame: {e}")),
        }
    }
    Ok(Fill::Full)
}
