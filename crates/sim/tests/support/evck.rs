//! The one test-side spelling of `checkpoint.bin`'s trailer, shared by
//! `store_differential` and the facade's `tests/arbitrary_bytes.rs`.

use evlin_checker::codec::fold_bytes;

/// Recomputes a doctored checkpoint's trailer, as a writer would have:
/// `fold_bytes("EVCKsumm", body)` (docs/CHECKPOINT.md).  The checksum then
/// vouches for whatever the body says.
pub fn reseal(bytes: &mut [u8]) {
    let body_len = bytes.len() - 8;
    let checksum = fold_bytes(u64::from_le_bytes(*b"EVCKsumm"), &bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
}
