//! Small utilities shared by the checkers.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx hash function (as used by rustc): a fast, non-cryptographic hasher
/// for the kernel's hot-path tables, where SipHash's per-hash setup cost
/// dominates on the small keys (interned ids, transition keys, frontier-row
/// hashes) the searcher produces at every node.
#[derive(Default)]
pub(crate) struct FxHasher {
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
        for &b in bytes {
            self.add(b as u64);
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

/// A hash map using [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The splitmix64 finalizer: a cheap bijective avalanche function.  Every
/// output bit depends on every input bit, which is what makes keys derived
/// through it — the kernel's incremental (Zobrist-style) visited-cache keys,
/// the simulator's configuration fingerprints (`evlin_sim::zobrist`
/// re-exports this one copy) — behave like independent random table entries.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The derived Zobrist key of one part of a composite search state: `tag`
/// separates domains (class counts vs object states), `slot` the position,
/// `payload` the value.  A state's key is the XOR of its parts, so one
/// linearization step updates it with four mixes instead of re-serializing
/// the `(linearized-multiset, object-states)` pair.
#[inline]
pub(crate) fn zkey(tag: u64, slot: u64, payload: u64) -> u64 {
    mix(tag ^ mix(slot ^ mix(payload)))
}

/// Domain-separation tag for [`fold_words`] batch fingerprints.
pub const TAG_FOLD: u64 = 0x666f_6c64_0000_0004;

/// Folds a slice of words into one fingerprint, one `mix` round per word.
///
/// This is the batch counterpart of a Zobrist key: where an incremental key
/// XORs independently keyed parts so single-part updates are O(1),
/// `fold_words` hashes a whole *run* of words whose identity is their order
/// — an event frame, a segment's packed event stream, a sorted run of
/// visited records — in a single word-at-a-time sweep.  The fold is
/// order-sensitive (each word is mixed with the running state before the
/// next) and length-separated (`seed` plus a final length fold), so a frame
/// split at a different boundary produces a different fingerprint while the
/// concatenated stream hash is a pure function of the word sequence.  Every
/// layer that fingerprints words — the runtime's frames, the service's wire
/// and journal, the monitor's segment keys, the explorer's checkpoints —
/// calls this one copy, which is what lets them agree.
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

/// The content hash of a `Hash` value under [`FxHasher`] (the simulator
/// keeps its own hasher, whose hashes are persisted in checkpoints; the two
/// differ on multi-byte `write` calls, so they agree only on word-shaped
/// keys).
#[inline]
pub(crate) fn hash_of<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
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
