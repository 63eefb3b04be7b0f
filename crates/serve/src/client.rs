//! A thin blocking client for the serve protocol: one TCP connection,
//! synchronous request/response frames.

use crate::proto::{
    decode_list_response, decode_ok_response, decode_query_response, encode_query_request,
    encode_request, read_frame, write_frame, Request, TraceInfo, WireResult,
};
use crate::Query;
use std::io::BufReader;
use std::net::TcpStream;

/// One connection to a running `lcm-serve` server.
pub struct Client {
    /// Buffered, so a response that arrived whole is one read syscall.
    conn: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7199`).
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("setting TCP_NODELAY: {e}"))?;
        Ok(Client {
            conn: BufReader::new(stream),
        })
    }

    fn roundtrip(&mut self, request: &[u8]) -> Result<Vec<u8>, String> {
        write_frame(self.conn.get_mut(), request)?;
        read_frame(&mut self.conn)?
            .ok_or_else(|| "server closed the connection mid-request".to_string())
    }

    /// Lists the traces loaded into the server.
    pub fn list(&mut self) -> Result<Vec<TraceInfo>, String> {
        let resp = self.roundtrip(&encode_request(&Request::List))?;
        decode_list_response(&resp)
    }

    /// Prices a batch of queries; answers come back in request order.
    pub fn query_batch(&mut self, queries: &[Query]) -> Result<Vec<WireResult>, String> {
        let resp = self.roundtrip(&encode_query_request(queries))?;
        decode_query_response(&resp)
    }

    /// Prices one query.
    pub fn query(&mut self, query: &Query) -> Result<WireResult, String> {
        let mut results = self.query_batch(std::slice::from_ref(query))?;
        results
            .pop()
            .ok_or_else(|| "server returned an empty batch".to_string())
    }

    /// Asks the server to shut down (acknowledged before it stops).
    pub fn shutdown(&mut self) -> Result<(), String> {
        let resp = self.roundtrip(&encode_request(&Request::Shutdown))?;
        decode_ok_response(&resp)
    }
}
