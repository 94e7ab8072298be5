//! The word hasher behind the routing stack's hot hash tables: the
//! verifier's state intern table (keyed by `(NodeId, RouteHeader)`) and the
//! dedup set of [`crate::cdg::DependencyGraph`] (keyed by resource pairs).

use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate word hash (the "Fx" function rustc uses for its own
/// tables). Its keys are a handful of machine words: a header is five, its
/// fields packed, plus one per two via-chain entries after the front, and a
/// dependency edge is two. Under the
/// default SipHash, hashing headers measured a fifth of a verifier walk. The
/// keys are produced by the routing functions, not read from outside the
/// program, so collision resistance buys nothing here.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.mix(u64::from(byte));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// The `S` parameter of a `HashMap` or `HashSet` hashed with [`WordHasher`].
pub type BuildWordHasher = BuildHasherDefault<WordHasher>;
