//! The byte codec shared by `.lcmtrace` files and the `lcm-serve` wire
//! protocol: LEB128 varints, varint-length-prefixed UTF-8 strings, the
//! 18-field cost model and the topology, written by the `put_*`
//! functions and read back through a bounds-checked [`Cursor`]. The
//! varint is [`lcm_sim::codec`]'s, the one the event encoding uses.
//!
//! Every decode failure is a named `Err` string, never a panic, and the
//! error text names no container format, so each caller can prefix its
//! own context.

use lcm_sim::codec::get_varint;
pub use lcm_sim::codec::put_varint;
use lcm_sim::{CostModel, Topology};

/// Number of cost-model fields on the wire.
pub const COST_FIELDS: usize = 18;

/// Appends `s` as a varint length followed by its UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends the cost model's [`cost_fields`] as varints.
pub fn put_cost_model(out: &mut Vec<u8>, cost: &CostModel) {
    for v in cost_fields(cost) {
        put_varint(out, v);
    }
}

/// Appends a topology: a tag byte, plus the arity for a fat tree.
pub fn put_topology(out: &mut Vec<u8>, topology: Topology) {
    match topology {
        Topology::FatTree { arity } => {
            out.push(0);
            put_varint(out, arity as u64);
        }
        Topology::Crossbar => out.push(1),
        Topology::Flat => out.push(2),
    }
}

/// The cost model's fields in declaration order — wire format, extend at
/// the end only (with a `.lcmtrace` version bump, since the count is not
/// prefixed). [`crate::DiffIndex::field_sensitive`] indexes by this order.
pub fn cost_fields(c: &CostModel) -> [u64; COST_FIELDS] {
    [
        c.cache_hit,
        c.local_fill,
        c.local_refill,
        c.remote_miss,
        c.msg_send,
        c.msg_recv,
        c.block_flush,
        c.clean_copy_create,
        c.reconcile_per_version,
        c.barrier_base,
        c.barrier_per_level,
        c.invalidate,
        c.upgrade,
        c.retry_timeout,
        c.msg_header_bytes,
        c.link_bandwidth_bytes_per_cycle,
        c.ni_occupancy,
        c.contention_window,
    ]
}

/// Rebuilds a cost model from its wire-order fields.
pub fn cost_from_fields(f: &[u64; COST_FIELDS]) -> CostModel {
    CostModel {
        cache_hit: f[0],
        local_fill: f[1],
        local_refill: f[2],
        remote_miss: f[3],
        msg_send: f[4],
        msg_recv: f[5],
        block_flush: f[6],
        clean_copy_create: f[7],
        reconcile_per_version: f[8],
        barrier_base: f[9],
        barrier_per_level: f[10],
        invalidate: f[11],
        upgrade: f[12],
        retry_timeout: f[13],
        msg_header_bytes: f[14],
        link_bandwidth_bytes_per_cycle: f[15],
        ni_occupancy: f[16],
        contention_window: f[17],
    }
}

/// A read position over an encoded buffer.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// The cursor's offset from the start of the buffer.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left between the cursor and the end of the buffer.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads a varint length prefix announcing `n` elements of at least
    /// `min_bytes` bytes each, and validates it. A corrupt (or malicious)
    /// count larger than the remaining buffer could otherwise drive
    /// `Vec::with_capacity` into a multi-gigabyte allocation before the
    /// first element read fails; rejecting it up front turns that into a
    /// named error.
    pub fn element_count(&mut self, min_bytes: usize, what: &str) -> Result<usize, String> {
        let n = self.varint()?;
        let need = (n as usize).saturating_mul(min_bytes);
        if need > self.remaining() {
            return Err(format!(
                "implausible {what} count {n}: needs at least {need} bytes but only {} remain",
                self.remaining()
            ));
        }
        Ok(n as usize)
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(format!(
                "truncated input: wanted {n} bytes at offset {}",
                self.pos
            )),
        }
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16_le(&mut self) -> Result<u16, String> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// A little-endian `u64`.
    pub fn u64_le(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// An LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, String> {
        get_varint(self.buf, &mut self.pos).map_err(|e| e.to_string())
    }

    /// A varint that must fit in a `u16`; `what` names the field.
    pub fn varint_u16(&mut self, what: &str) -> Result<u16, String> {
        let v = self.varint()?;
        u16::try_from(v).map_err(|_| format!("{what} {v} exceeds {}", u16::MAX))
    }

    /// A varint-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, String> {
        let len = self.varint()?;
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("non-UTF-8 string: {e}"))
    }

    /// The 18 wire-order cost-model fields.
    pub fn cost_model(&mut self) -> Result<CostModel, String> {
        let mut fields = [0u64; COST_FIELDS];
        for f in &mut fields {
            *f = self.varint()?;
        }
        Ok(cost_from_fields(&fields))
    }

    /// A topology written by [`put_topology`]. A fat tree needs arity of
    /// at least 2 (the contention fabric cannot be built otherwise).
    pub fn topology(&mut self) -> Result<Topology, String> {
        match self.u8()? {
            0 => {
                let arity = self.varint()?;
                if arity < 2 {
                    return Err(format!("fat-tree arity {arity} is below 2"));
                }
                Ok(Topology::FatTree {
                    arity: arity as usize,
                })
            }
            1 => Ok(Topology::Crossbar),
            2 => Ok(Topology::Flat),
            t => Err(format!("unknown topology tag {t}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_fields_roundtrip_wire_order() {
        let cost = CostModel::cm5_grid(64, 500);
        assert_eq!(cost_from_fields(&cost_fields(&cost)), cost);
        let mut buf = Vec::new();
        put_cost_model(&mut buf, &cost);
        assert_eq!(Cursor::new(&buf).cost_model(), Ok(cost));
    }
}
