//! The crate's one hasher. Every map key here — model kinds, request ids,
//! memo slots — is made by the program itself, so no key can be chosen to
//! flood a table, and std's `RandomState` SipHash buys nothing but cost.
//! This is the multiplicative word hash of rustc's `FxHasher`: one
//! rotate, xor and multiply per word, seeded the same in every process.

use std::hash::{BuildHasherDefault, Hasher};

/// A map hashed by [`FxHasher`]; build it with `FxHashMap::default()`.
#[allow(clippy::disallowed_types)]
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Folds each machine word into the state as `(h.rotl(5) ^ w) · K`.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}
