//! The resident TCP front end: accepts connections, decodes request
//! frames, answers them from a shared [`ServeEngine`], and keeps
//! serving across malformed requests (they get error responses, not
//! panics).

use crate::engine::ServeEngine;
use crate::proto::{
    decode_request, encode_answers, encode_err, encode_list_ok, encode_ok, read_frame, write_frame,
    Request, TraceInfo,
};
use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread;
use std::time::Duration;

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
            // Each live connection's thread, with a handle on its socket
            // (weak: the socket closes when its thread drops it).
            let mut conns: Vec<(thread::JoinHandle<()>, Weak<TcpStream>)> = Vec::new();
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
                        let stream = Arc::new(stream);
                        let handle = Arc::downgrade(&stream);
                        let engine = Arc::clone(&engine);
                        let stop = Arc::clone(&accept_stop);
                        let h = thread::spawn(move || {
                            serve_connection(&stream, &engine, jobs, &stop);
                        });
                        conns.push((h, handle));
                    }
                    Err(_) => thread::sleep(ACCEPT_BACKOFF),
                }
                conns.retain(|(h, _)| !h.is_finished());
            }
            // Connection threads block in reads: shutting their sockets
            // down wakes each one with EOF (or fails its next write).
            for stream in conns.iter().filter_map(|(_, s)| s.upgrade()) {
                let _ = stream.shutdown(Shutdown::Both);
            }
            for (h, _) in conns {
                let _ = h.join();
            }
        });
        Ok(Server {
            addr: bound,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// Stops accepting, shuts down every live connection, and waits for
    /// their threads to exit.
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
/// from the buffer. Reads block; a stopping server wakes them by
/// shutting the socket down.
fn serve_connection(stream: &TcpStream, engine: &ServeEngine, jobs: usize, stop: &Stop) {
    let mut conn = BufReader::new(stream);
    loop {
        if stop.is_raised() {
            return;
        }
        let payload = match read_frame(&mut conn) {
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
