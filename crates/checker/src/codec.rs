//! The one byte codec under the wire frames, `EVJL` journals, `EVRN` runs
//! and `EVCK` checkpoints: one bounded [`Reader`], one [`Encode::put`].
//!
//! Little-endian throughout; the sealed [`Encode`] / [`Decode`] traits cover
//! `u8`, `u16`, `u32`, `u64`, `i64`, a `u16`-prefixed UTF-8 `&str` and a
//! LEB128 [`Varint`].  Every read is bounds checked, every error is a
//! [`CodecError`] naming its byte offset (each format maps it onto its own
//! error type), and every preallocation sized by a count read from the bytes
//! goes through [`Reader::capacity`].  Everything is `#[inline]`: without LTO
//! an out-of-line call would land on the wire decoder's per-field path.

use crate::util::fold_word_iter;
use std::{fs::File, io, path::Path};

/// Why a [`Reader`] refused its input, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecError {
    /// Offset of the item being read.
    pub at: usize,
    /// What was wrong with it.
    pub fault: Fault,
}

/// What a [`CodecError`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The item needed the input to be `needed` bytes long; it is `have`.
    #[allow(missing_docs)]
    Truncated { needed: usize, have: usize },
    /// A varint carries more than 64 bits.
    VarintOverflow,
    /// A string is not UTF-8.
    BadUtf8,
    /// A header does not start with the format's magic.
    BadMagic,
    /// A header names a version this build does not speak.
    UnsupportedVersion(u16),
}

/// The on-disk formats' mapping: `InvalidData`, naming the offset.
impl From<CodecError> for io::Error {
    fn from(err: CodecError) -> io::Error {
        let message = format!("{:?} at byte {}", err.fault, err.at);
        io::Error::new(io::ErrorKind::InvalidData, message)
    }
}

mod sealed {
    pub trait Sealed {}
}

/// What a format writes.  Sealed: the kinds the formats' tables name.
pub trait Encode: sealed::Sealed {
    /// Appends `self`'s encoding to `out`.
    fn put(self, out: &mut Vec<u8>);
}

/// What [`Reader::get`] reads.  Sealed, like [`Encode`].
pub trait Decode<'a>: sealed::Sealed + Sized {
    /// Reads one value, advancing the reader past it.
    fn decode(reader: &mut Reader<'a>) -> Result<Self, CodecError>;
}

/// An unsigned LEB128 integer: 7 bits per byte, low bits first, the high bit
/// set on all but the last byte; at most ten bytes, the tenth `00` or `01`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Varint(pub u64);

/// A bounded cursor over untrusted bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    /// The bytes not read yet: a read is one length check and a split.
    rest: &'a [u8],
    /// The whole input's length; offsets are `len - rest.len()`.
    len: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            rest: bytes,
            len: bytes.len(),
        }
    }

    /// The offset of the next byte to be read.
    #[inline]
    pub fn at(&self) -> usize {
        self.len - self.rest.len()
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes, verbatim; a failed read consumes nothing.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let Some((taken, rest)) = self.rest.split_at_checked(n) else {
            return Err(self.truncated(n));
        };
        self.rest = rest;
        Ok(taken)
    }

    /// The error of an `n`-byte read the input is too short for.
    #[cold]
    fn truncated(&self, n: usize) -> CodecError {
        let at = self.at();
        let fault = Fault::Truncated {
            needed: at.saturating_add(n),
            have: self.len,
        };
        CodecError { at, fault }
    }

    /// The next value of type `T`.
    #[inline]
    pub fn get<T: Decode<'a>>(&mut self) -> Result<T, CodecError> {
        T::decode(self)
    }

    /// The one file-header check: the 4-byte `magic`, then the `u16` `version`.
    #[inline]
    pub fn header(&mut self, magic: &[u8; 4], version: u16) -> Result<(), CodecError> {
        let at = self.at();
        let fault = match (self.take(4)?, self.get::<u16>()?) {
            (found, _) if found != magic => Fault::BadMagic,
            (_, found) if found != version => Fault::UnsupportedVersion(found),
            _ => return Ok(()),
        };
        Err(CodecError { at, fault })
    }

    /// How many items to preallocate for when the bytes announce `count`,
    /// each at least `min_item_bytes` long: `count`, capped by what the rest
    /// of the input could hold — so a corrupt count costs a constant times
    /// the input's length at most.
    #[inline]
    pub fn capacity(&self, count: u64, min_item_bytes: usize) -> usize {
        count.min((self.remaining() / min_item_bytes.max(1)) as u64) as usize
    }
}

macro_rules! fixed_width {
    ($($ty:ty),*) => {$(
        impl sealed::Sealed for $ty {}

        impl Encode for $ty {
            #[inline]
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }

        impl Decode<'_> for $ty {
            #[inline]
            fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
                const N: usize = std::mem::size_of::<$ty>();
                let Some((bytes, rest)) = reader.rest.split_first_chunk::<N>() else {
                    return Err(reader.truncated(N));
                };
                reader.rest = rest;
                Ok(<$ty>::from_le_bytes(*bytes))
            }
        }
    )*};
}

fixed_width!(u8, u16, u32, u64, i64);

impl sealed::Sealed for &str {}

/// Cut at 65 535 bytes (which may split a character: the reader refuses it).
impl Encode for &str {
    #[inline]
    fn put(self, out: &mut Vec<u8>) {
        let bytes = &self.as_bytes()[..self.len().min(u16::MAX as usize)];
        (bytes.len() as u16).put(out);
        out.extend_from_slice(bytes);
    }
}

impl<'a> Decode<'a> for &'a str {
    #[inline]
    fn decode(reader: &mut Reader<'a>) -> Result<Self, CodecError> {
        let at = reader.at();
        let len = reader.get::<u16>()?;
        let fault = Fault::BadUtf8;
        std::str::from_utf8(reader.take(len as usize)?).map_err(|_| CodecError { at, fault })
    }
}

impl sealed::Sealed for Varint {}

impl Encode for Varint {
    #[inline]
    fn put(self, out: &mut Vec<u8>) {
        let mut value = self.0;
        while value >= 0x80 {
            out.push(value as u8 | 0x80);
            value >>= 7;
        }
        out.push(value as u8);
    }
}

/// A loop over the ten byte positions, not one that runs until the data
/// says stop: a run probe decodes up to 256 varints, and the fixed trip
/// count lets the compiler unroll it (the data-dependent exit cost
/// `explore_spill` 4 %).  The tenth byte has room for bit 63 only.  Always
/// inlined: rustc leaves it out of line otherwise, and then its 40-byte
/// result goes through memory for every varint of a probe.
impl Decode<'_> for Varint {
    #[inline(always)]
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut value = 0u64;
        for index in 0..10u32 {
            let byte = reader.get::<u8>()?;
            if index == 9 && byte > 1 {
                break;
            }
            value |= u64::from(byte & 0x7f) << (7 * index);
            if byte & 0x80 == 0 {
                return Ok(Varint(value));
            }
        }
        // Only a tenth byte ends the loop: the varint began ten bytes back.
        let (at, fault) = (reader.at() - 10, Fault::VarintOverflow);
        Err(CodecError { at, fault })
    }
}

/// Folds bytes into one word: little-endian 8-byte words (the tail
/// zero-padded), then the byte length, through [`crate::fold_words`]'s fold
/// from `seed`.  `EVCK`'s trailer is `fold_bytes("EVCKsumm", body)`.
#[inline]
pub fn fold_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let words = bytes.chunks(8).map(|chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(word)
    });
    fold_word_iter(seed, words.chain([bytes.len() as u64]))
}

/// Makes the names created or renamed in `dir` durable: a file's fsync
/// covers its contents, not the directory entry that reaches it.
#[inline]
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_edge_values() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            Varint(v).put(&mut buf);
        }
        let mut reader = Reader::new(&buf);
        for &v in &values {
            assert_eq!(reader.get::<Varint>(), Ok(Varint(v)));
        }
        assert_eq!(reader.remaining(), 0);
        // Ten bytes carry 70 payload bits: the tenth may only hold bit 63.
        // Anything above it used to be shifted out silently.
        let mut tenth_too_big = vec![0xff; 9];
        tenth_too_big.push(0x02);
        let mut eleven_bytes = vec![0x80; 10];
        eleven_bytes.push(0x00);
        for bad in [tenth_too_big, eleven_bytes] {
            assert_eq!(
                Reader::new(&bad).get::<Varint>(),
                Err(CodecError {
                    at: 0,
                    fault: Fault::VarintOverflow
                }),
                "{bad:x?}"
            );
        }
        let mut max = vec![0xff; 9];
        max.push(0x01);
        assert_eq!(Reader::new(&max).get::<Varint>(), Ok(Varint(u64::MAX)));
        assert_eq!(
            Reader::new(&[0x80, 0x80]).get::<Varint>(),
            Err(CodecError {
                at: 2,
                fault: Fault::Truncated { needed: 3, have: 2 }
            })
        );
    }

    #[test]
    fn every_error_names_its_offset() {
        let mut out = b"EVXX".to_vec();
        3u16.put(&mut out);
        0xdead_beef_u32.put(&mut out);
        (-5i64).put(&mut out);
        "é".put(&mut out);
        let mut reader = Reader::new(&out);
        assert_eq!(reader.header(b"EVXX", 3), Ok(()));
        assert_eq!(reader.get::<u32>(), Ok(0xdead_beef));
        assert_eq!(reader.get::<i64>(), Ok(-5));
        assert_eq!(reader.get::<&str>(), Ok("é"));
        assert_eq!(
            reader.get::<u8>(),
            Err(CodecError {
                at: 22,
                fault: Fault::Truncated {
                    needed: 23,
                    have: 22
                }
            })
        );
        assert_eq!(
            Reader::new(&out).header(b"EVYY", 3),
            Err(CodecError {
                at: 0,
                fault: Fault::BadMagic
            })
        );
        assert_eq!(
            Reader::new(&out).header(b"EVXX", 4),
            Err(CodecError {
                at: 0,
                fault: Fault::UnsupportedVersion(3)
            })
        );
        let mut bad = out[18..].to_vec();
        bad[3] = 0xff;
        assert_eq!(
            Reader::new(&bad).get::<&str>(),
            Err(CodecError {
                at: 0,
                fault: Fault::BadUtf8
            })
        );
        let err = io::Error::from(CodecError {
            at: 7,
            fault: Fault::BadMagic,
        });
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "BadMagic at byte 7");
    }

    #[test]
    fn take_and_capacity_never_trust_a_count() {
        let bytes = [0u8; 16];
        let mut reader = Reader::new(&bytes);
        assert_eq!(reader.take(4).map(<[u8]>::len), Ok(4));
        assert_eq!(
            reader.take(usize::MAX),
            Err(CodecError {
                at: 4,
                fault: Fault::Truncated {
                    needed: usize::MAX,
                    have: 16
                }
            })
        );
        assert_eq!(reader.at(), 4, "a failed read consumes nothing");
        assert_eq!(reader.capacity(u64::MAX, 4), 3);
        assert_eq!(reader.capacity(2, 4), 2);
        assert_eq!(reader.capacity(u64::MAX, 0), 12);
    }

    #[test]
    fn long_strings_are_cut_at_the_prefix_width() {
        let long = "x".repeat(70_000);
        let mut out = Vec::new();
        long.as_str().put(&mut out);
        assert_eq!(out.len(), 2 + u16::MAX as usize);
        assert_eq!(Reader::new(&out).get::<&str>().map(str::len), Ok(65_535));
    }

    #[test]
    fn fold_bytes_is_the_checkpoint_checksum() {
        // The pre-codec spelling: words, then the length, one fold.
        assert_eq!(
            fold_bytes(9, &[1, 0, 0, 0, 0, 0, 0, 0, 2]),
            crate::fold_words(9, &[1, 2, 9])
        );
        assert_ne!(fold_bytes(0, &[0]), fold_bytes(0, &[0, 0]));
    }
}
