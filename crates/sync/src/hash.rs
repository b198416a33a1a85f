//! The workspace's shared fast hasher.
//!
//! Every hot-path hash in this project keys on small integers or integer
//! pairs (edges, node references), for which SipHash is needlessly slow.
//! [`FxHasher`] is the FxHash-style multiply-xor hasher previously private
//! to [`crate::cmap`]; it now lives here so the sharded map and the
//! adjacency store's lock stripes share one definition.

use std::hash::{BuildHasherDefault, Hasher};

/// A fast, non-cryptographic hasher (FxHash-style multiply-xor) used to pick
/// shards and to hash keys inside shards.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Hashes one value with [`FxHasher`] (convenience for index selection).
#[inline]
pub fn fx_hash_u64(word: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(word);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn consecutive_integers_spread() {
        // The hasher must not collapse consecutive small keys onto the same
        // low bits (they are used to pick shards and lock stripes).
        let build = FxBuildHasher::default();
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..64u64 {
            low_bits.insert(build.hash_one(i) & 0xF);
        }
        assert!(
            low_bits.len() >= 8,
            "only {} of 16 buckets hit",
            low_bits.len()
        );
    }

    #[test]
    fn fx_hash_u64_is_deterministic_and_nontrivial() {
        assert_eq!(fx_hash_u64(7), fx_hash_u64(7));
        assert_ne!(fx_hash_u64(7), fx_hash_u64(8));
        assert_ne!(fx_hash_u64(7), 7);
    }
}
