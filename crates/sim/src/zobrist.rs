//! Keyed mixing for incremental, Zobrist-style structural fingerprints.
//!
//! Classic Zobrist hashing assigns every *(position, content)* pair an
//! independent random key and identifies a composite state with the XOR of
//! the keys of its parts; because XOR is its own inverse, changing one part
//! updates the fingerprint in O(1) instead of rehashing the whole state.
//! Rather than materialize a key table, this module derives each key on
//! demand by running the part's coordinates through a splitmix64 finalizer
//! chain — a standard table-free variant with the same independence
//! properties (each key is a pseudo-random function of its coordinates).
//!
//! [`crate::config::Config`] folds one `component` per base object, per
//! process state and per recorded history event into a maintained
//! fingerprint, so `Config::fingerprint()` — the deduplication key of the
//! exploration engine — is a field read instead of a full-state
//! serialization.  The checker kernel uses the same construction for its
//! incremental visited-cache keys.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The splitmix64 finalizer [`mix`] and the word fold over it, from the one
/// copy every layer shares (the checker is the lowest crate that hashes).
pub use evlin_checker::{fold_word_iter, fold_words, mix, TAG_FOLD};

/// Mixes two words into one (order-sensitive).
#[inline]
pub(crate) fn mix2(a: u64, b: u64) -> u64 {
    mix(a ^ mix(b))
}

/// Domain-separation tag for base-object components.
pub(crate) const TAG_OBJECT: u64 = 0x6f62_6a65_6374_0001;
/// Domain-separation tag for process-state components.
pub(crate) const TAG_PROCESS: u64 = 0x7072_6f63_6573_0002;
/// Domain-separation tag for history-event components.
pub(crate) const TAG_EVENT: u64 = 0x6576_656e_7400_0003;

/// The derived Zobrist key of one part of a composite state: `tag` selects
/// the part kind, `slot` its position, `content` a hash of its value.  The
/// fingerprint of the whole state is the XOR of its parts' components.
#[inline]
pub(crate) fn component(tag: u64, slot: u64, content: u64) -> u64 {
    mix(tag ^ mix2(slot, content))
}

/// The shard index of `key` among `1 << shards_log2` prefix shards: its top
/// `shards_log2` bits, right-aligned.  Because every fingerprint in this
/// workspace goes through [`mix`] (an avalanching bijection), the high bits
/// are uniformly distributed, so prefix routing balances shards without a
/// second hash.  `shards_log2 == 0` yields `0` (the one-shard /
/// one-partition degenerate case — shifting by 64 would be undefined).
///
/// This is the single routing function shared by the visited store's shards
/// ([`crate::store`]) and the fingerprint-range partitioner
/// ([`crate::checkpoint::explore_partitioned`]), which is what makes a
/// partitioned exploration's per-partition stores line up with the key
/// ranges exactly.
#[inline]
pub(crate) fn prefix_shard(key: u64, shards_log2: u32) -> usize {
    if shards_log2 == 0 {
        0
    } else {
        (key >> (64 - shards_log2)) as usize
    }
}

/// The Fx hash function (as used by rustc): a fast non-cryptographic word
/// mixer used to reduce part *contents* (debug renderings, `Hash` impls) to
/// the `content` word of a `component`.  Identical to the hasher the
/// checker kernel uses for its hot-path tables.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Word-chunked mixing: `hash_debug` streams whole debug renderings
        // through here once per step on the tracked hot paths, so one mix
        // round per 8 bytes (plus a tail) matters — byte-at-a-time would be
        // ~8× the work.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let remainder = chunks.remainder();
        if !remainder.is_empty() {
            let mut tail = [0u8; 8];
            tail[..remainder.len()].copy_from_slice(remainder);
            // Fold the tail length in so "ab" + "c" ≠ "abc" + "".
            self.add(u64::from_le_bytes(tail) ^ (remainder.len() as u64) << 56);
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

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// [`FxHasher`] as a table's hasher, for keys this crate produced itself
/// (content hashes, avalanched dedup keys): they need no SipHash round and
/// no protection against crafted collisions.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Streams a value's `Debug` rendering straight into a hasher, so content
/// hashing allocates no intermediate strings.
struct HashWriter<'a, H: Hasher>(&'a mut H);

impl<H: Hasher> std::fmt::Write for HashWriter<'_, H> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// The content hash of a value's `Debug` rendering (used for trait objects —
/// programme states, base objects — whose only uniform structural view is
/// their debug output, which for the state machines in this workspace prints
/// every field).
pub(crate) fn hash_debug(value: &dyn std::fmt::Debug) -> u64 {
    use std::fmt::Write as _;
    let mut hasher = FxHasher::default();
    write!(HashWriter(&mut hasher), "{value:?}").expect("hashing cannot fail");
    hasher.finish()
}

/// The content hash of a `Hash` value.
pub(crate) fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_separate_domains_and_slots() {
        let c = component(TAG_OBJECT, 0, 42);
        assert_ne!(c, component(TAG_PROCESS, 0, 42));
        assert_ne!(c, component(TAG_OBJECT, 1, 42));
        assert_ne!(c, component(TAG_OBJECT, 0, 43));
        // XOR self-inverse: folding a component twice removes it.
        assert_eq!(c ^ c, 0);
    }

    #[test]
    fn debug_and_hash_content_hashes_are_deterministic() {
        assert_eq!(hash_debug(&(1, "x")), hash_debug(&(1, "x")));
        assert_ne!(hash_debug(&(1, "x")), hash_debug(&(2, "x")));
        assert_eq!(hash_of("abc"), hash_of("abc"));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
    }

    #[test]
    fn mix2_is_order_sensitive() {
        assert_ne!(mix2(1, 2), mix2(2, 1));
    }
}
