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

/// The splitmix64 finalizer: a cheap bijective avalanche function.  Every
/// output bit depends on every input bit, which is what makes the derived
/// component keys behave like independent random table entries.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

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

/// Folds a slice of words into one fingerprint, one `mix` round per word.
///
/// This is the batch counterpart of `component`: where the incremental
/// fingerprint XORs independently keyed parts so single-part updates are
/// O(1), `fold_words` hashes a whole *run* of words whose identity is their
/// order — an event frame, a segment's packed event stream — in a single
/// word-at-a-time sweep.  The fold is order-sensitive (each word is mixed
/// with the running state before the next) and length-separated (`seed`
/// plus a final length fold), so a frame split at a different boundary
/// produces a different fingerprint while the concatenated stream hash is a
/// pure function of the word sequence.
#[inline]
pub fn fold_words(seed: u64, words: &[u64]) -> u64 {
    fold_word_iter(seed, words.iter().copied())
}

/// [`fold_words`] over words produced on the fly, for a caller whose words
/// sit inside larger records (the sequence numbers of a frame's items) and
/// would otherwise be copied out just to be folded.
#[inline]
pub fn fold_word_iter(seed: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    let mut acc = mix(seed ^ TAG_FOLD);
    let mut len = 0u64;
    for w in words {
        acc = mix(acc ^ w);
        len += 1;
    }
    mix(acc ^ len)
}

/// Domain-separation tag for [`fold_words`] batch fingerprints.
pub const TAG_FOLD: u64 = 0x666f_6c64_0000_0004;

/// The top `bits` bits of a fingerprint, right-aligned: the *prefix* used to
/// route a key to a shard or partition.  Because every fingerprint in this
/// workspace goes through [`mix`] (an avalanching bijection), the high bits
/// are uniformly distributed, so prefix routing balances shards without a
/// second hash.  `bits == 0` yields `0` (the one-shard / one-partition
/// degenerate case — shifting by 64 would be undefined).
#[inline]
pub fn prefix(key: u64, bits: u32) -> u64 {
    if bits == 0 {
        0
    } else {
        key >> (64 - bits)
    }
}

/// The shard index of `key` among `1 << shards_log2` prefix shards: the
/// [`prefix`] of `shards_log2` bits, as a `usize`.  This is the single
/// routing function shared by the prefix-sharded visited stores
/// ([`crate::store`]) and the fingerprint-range partitioner
/// ([`crate::checkpoint::explore_partitioned`]), which is what makes a
/// partitioned exploration's per-partition stores line up with the key
/// ranges exactly.
#[inline]
pub(crate) fn prefix_shard(key: u64, shards_log2: u32) -> usize {
    prefix(key, shards_log2) as usize
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
pub fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_avalanches_single_bits() {
        // Flipping one input bit must flip roughly half the output bits.
        for bit in 0..64 {
            let a = mix(0);
            let b = mix(1u64 << bit);
            let flipped = (a ^ b).count_ones();
            assert!(
                (8..=56).contains(&flipped),
                "bit {bit}: only {flipped} output bits flipped"
            );
        }
    }

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

    #[test]
    fn fold_words_is_order_and_length_sensitive() {
        assert_eq!(fold_words(0, &[1, 2, 3]), fold_words(0, &[1, 2, 3]));
        assert_ne!(fold_words(0, &[1, 2, 3]), fold_words(0, &[3, 2, 1]));
        assert_ne!(fold_words(0, &[1, 2]), fold_words(0, &[1, 2, 0]));
        assert_ne!(fold_words(0, &[]), fold_words(0, &[0]));
        assert_ne!(fold_words(0, &[1]), fold_words(1, &[1]));
    }

    #[test]
    fn fold_words_chains_across_chunks() {
        // Folding a stream in chunks, threading the accumulator as the next
        // seed, must be sensitive to the chunk boundary only through the
        // explicit length folds — i.e. re-chunking changes the value (each
        // chunk folds its own length), while identical chunking is stable.
        let a = fold_words(fold_words(7, &[1, 2]), &[3, 4]);
        let b = fold_words(fold_words(7, &[1, 2]), &[3, 4]);
        assert_eq!(a, b);
        assert_ne!(a, fold_words(fold_words(7, &[1, 2, 3]), &[4]));
    }
}
