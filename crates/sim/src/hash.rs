//! A fast, deterministic hasher for the protocol maps.
//!
//! The tables consulted on every simulated access are page-indexed
//! ([`crate::mem::BlockMap`]). The maps that remain (stale-data snapshots
//! and nested-phase touch sets) are keyed by block ids, for which the
//! default SipHash is needless overhead. `FastHasher` is a
//! Fibonacci-multiply finalizer — plenty for ids that are already
//! well-distributed — and, unlike `RandomState`, is deterministic, which
//! keeps iteration-order-independent code honest and traces reproducible.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher for small integer keys.
#[derive(Default)]
pub struct FastHasher {
    state: u64,
}

/// `BuildHasher` for [`FastHasher`]; plug into `HashMap::with_hasher`.
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// A `HashMap` using [`FastHasher`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuild>;

/// A `HashSet` using [`FastHasher`].
pub type FastSet<K> = std::collections::HashSet<K, FastBuild>;

const GOLDEN: u64 = 0x9e3779b97f4a7c15;

/// 64-bit FNV-1a over a byte slice: the repo's standard fingerprint
/// hash. `.lcmtrace` headers and checksums use it, so it is wire format.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche (splitmix64 tail) so low bits are usable.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ b as u64).wrapping_mul(GOLDEN);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = (self.state ^ i).wrapping_mul(GOLDEN);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FastBuild::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
    }

    #[test]
    fn nearby_keys_spread() {
        // Consecutive block ids should land in different low-bit buckets.
        let buckets = 1 << 8;
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u64 {
            seen.insert(hash_of(&i) % buckets);
        }
        assert!(seen.len() > 48, "got {} distinct buckets of 64", seen.len());
    }

    #[test]
    fn usable_as_map() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&500), Some(&1000));
        assert_eq!(m.len(), 1000);
    }
}
