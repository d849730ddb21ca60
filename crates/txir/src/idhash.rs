//! The one hasher for id-keyed maps.
//!
//! Every key the hot maps hold — [`ObjectId`](crate::ObjectId), a
//! transaction id, a request id, a node rank, a class id — is an integer
//! the system mints itself, never a value an adversary chooses. SipHash's
//! keyed collision resistance buys nothing against such keys and costs a
//! few dozen cycles per lookup, so [`IdMap`] and [`IdSet`] hash with
//! [`IdHasher`] instead: a fixed-key multiply-rotate hasher in the style of
//! rustc's `FxHasher`, one multiply per word. Because the key is fixed,
//! iteration order depends only on the insertions, not on per-process
//! random keys.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by system-minted ids, hashed with [`IdHasher`].
/// Build one with `IdMap::default()` or `collect()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of system-minted ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// The multiplier: odd, with well-mixed bits, so the product's top bits —
/// the ones a hash table's probe tag reads — depend on every key bit.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Fixed-key integer hasher: per word, `h = (h.rotl(5) ^ word) * K`.
///
/// Not collision resistant against chosen keys; use it only for ids the
/// system mints (see the module doc).
#[derive(Debug, Default, Clone)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjClass, ObjectId};
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(key: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// The benchmark's key shapes: 64 hot and 4 096 cold objects in two
    /// classes (Bank's branches and accounts), and 10 000 sequential
    /// `(client, seq, req)` dedup keys.
    fn key_hashes() -> Vec<(&'static str, Vec<u64>)> {
        const HOT: ObjClass = ObjClass::new(0, "Hot");
        const COLD: ObjClass = ObjClass::new(1, "Cold");
        let objects = (0..64)
            .map(|i| ObjectId::new(HOT, i))
            .chain((0..4096).map(|i| ObjectId::new(COLD, i)))
            .map(|o| hash(&o))
            .collect();
        let requests = (0..10_000u64)
            .map(|i| hash(&((4u32 + (i % 2) as u32, i / 2), i)))
            .collect();
        vec![("objects", objects), ("requests", requests)]
    }

    #[test]
    fn id_keys_hash_almost_collision_free() {
        for (shape, hashes) in key_hashes() {
            let distinct: IdSet<u64> = hashes.iter().copied().collect();
            assert!(
                distinct.len() * 100 >= hashes.len() * 99,
                "{shape}: {} distinct hashes of {}",
                distinct.len(),
                hashes.len()
            );
        }
    }

    /// hashbrown's probe tag is the hash's top 7 bits: a hasher that
    /// leaves them constant (identity-like) makes every probe a key
    /// compare.
    #[test]
    fn id_keys_fill_every_probe_tag() {
        for (shape, hashes) in key_hashes() {
            let tags: IdSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert_eq!(tags.len(), 128, "{shape}: top-7-bit values taken");
        }
    }

    #[test]
    fn class_is_part_of_the_key() {
        let a = ObjectId::new(ObjClass::new(0, "A"), 7);
        let b = ObjectId::new(ObjClass::new(1, "B"), 7);
        assert_ne!(hash(&a), hash(&b));
    }

    #[test]
    fn byte_writes_take_eight_byte_words() {
        let mut words = IdHasher::default();
        words.write_u64(u64::from_le_bytes(*b"abcdefgh"));
        words.write_u64(u64::from_le_bytes(*b"ij\0\0\0\0\0\0"));
        let mut bytes = IdHasher::default();
        bytes.write(b"abcdefghij");
        assert_eq!(words.finish(), bytes.finish());
    }
}
