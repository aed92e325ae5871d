//! Binary serialization of relational data.
//!
//! The durability subsystem (`tm-durable`) persists tuples in WAL frames
//! and checkpoint snapshots; this module is the codec it builds on. The
//! format is a simple little-endian tag-length-value encoding:
//!
//! * integers are fixed-width little-endian (`u32`/`u64`/`i64`),
//! * strings are a `u32` byte length followed by UTF-8 bytes,
//! * values are a one-byte tag (`0` Null, `1` Int, `2` Double, `3` Str,
//!   `4` Bool) followed by the payload,
//! * tuples are a `u32` arity followed by that many values,
//! * tuple lists are a `u32` count followed by that many tuples.
//!
//! Doubles are encoded as their IEEE-754 bit pattern and decoded through
//! [`Value::double`], which re-canonicalizes NaN and negative zero — so a
//! decoded value always satisfies the same `Eq`/`Hash` invariants as a
//! constructed one, even when the input bytes were corrupted.
//!
//! Decoding never panics: every malformed input — short buffer, unknown
//! tag, invalid UTF-8, a length that overruns the buffer — is reported as
//! a [`CodecError`] carrying the byte offset where decoding failed.

use std::fmt;

use crate::tuple::Tuple;
use crate::value::Value;

/// A decoding failure, with the byte offset at which it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    UnexpectedEof {
        /// Offset at which more bytes were needed.
        offset: usize,
        /// Bytes that were needed at that offset.
        needed: usize,
    },
    /// An unknown value tag byte.
    InvalidTag {
        /// Offset of the tag byte.
        offset: usize,
        /// The unrecognized tag.
        tag: u8,
    },
    /// A string payload was not valid UTF-8.
    InvalidUtf8 {
        /// Offset of the string payload.
        offset: usize,
    },
    /// A boolean payload byte was neither 0 nor 1.
    InvalidBool {
        /// Offset of the payload byte.
        offset: usize,
        /// The offending byte.
        byte: u8,
    },
    /// A declared length exceeds the remaining buffer — corrupt input
    /// rather than a short read, reported before any allocation is sized
    /// by it.
    LengthOverrun {
        /// Offset of the length field.
        offset: usize,
        /// The declared length.
        declared: u64,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// Well-formed decoding finished but bytes were left over where the
    /// caller demanded the buffer be fully consumed.
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        offset: usize,
        /// Number of unconsumed bytes.
        count: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { offset, needed } => {
                write!(f, "unexpected end of input at byte {offset} (needed {needed} more)")
            }
            CodecError::InvalidTag { offset, tag } => {
                write!(f, "invalid value tag {tag:#04x} at byte {offset}")
            }
            CodecError::InvalidUtf8 { offset } => {
                write!(f, "invalid UTF-8 in string at byte {offset}")
            }
            CodecError::InvalidBool { offset, byte } => {
                write!(f, "invalid boolean byte {byte:#04x} at byte {offset}")
            }
            CodecError::LengthOverrun {
                offset,
                declared,
                remaining,
            } => write!(
                f,
                "declared length {declared} at byte {offset} exceeds the {remaining} remaining bytes"
            ),
            CodecError::TrailingBytes { offset, count } => {
                write!(f, "{count} trailing byte(s) after decoded value at byte {offset}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Codec result alias.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BOOL: u8 = 4;

/// Append a `u32` in little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` in little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append one encoded [`Value`].
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            out.push(TAG_DOUBLE);
            put_u64(out, d.to_bits());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
    }
}

/// Append one encoded [`Tuple`] (arity then values).
pub fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    put_u32(out, t.values().len() as u32);
    for v in t.values() {
        put_value(out, v);
    }
}

/// The number of bytes [`put_tuple`] appends for `t` — for presizing a
/// buffer that many tuples are encoded into.
pub fn tuple_len(t: &Tuple) -> usize {
    let value_len = |v: &Value| match v {
        Value::Null => 1,
        Value::Int(_) | Value::Double(_) => 9,
        Value::Str(s) => 5 + s.len(),
        Value::Bool(_) => 2,
    };
    4 + t.values().iter().map(value_len).sum::<usize>()
}

/// Append an encoded tuple list (count then tuples). The caller provides
/// the tuples in a deterministic order when byte-stable output matters.
pub fn put_tuples<'a>(out: &mut Vec<u8>, tuples: impl ExactSizeIterator<Item = &'a Tuple>) {
    put_u32(out, tuples.len() as u32);
    for t in tuples {
        put_tuple(out, t);
    }
}

/// A bounds-checked cursor over an encoded buffer. All reads advance the
/// cursor; all failures carry the offset at which they occurred.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Open a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Current offset into the buffer.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole buffer has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Error unless the buffer is fully consumed.
    pub fn expect_end(&self) -> CodecResult<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                offset: self.pos,
                count: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                offset: self.pos,
                needed: n - self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> CodecResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a declared element count, rejecting counts that could not
    /// possibly fit in the remaining bytes (each element occupies at least
    /// `min_elem_size` bytes). This bounds allocations on corrupt input.
    pub fn count(&mut self, min_elem_size: usize) -> CodecResult<usize> {
        let offset = self.pos;
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_size.max(1)) > self.remaining() {
            return Err(CodecError::LengthOverrun {
                offset,
                declared: n as u64,
                remaining: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> CodecResult<String> {
        let offset = self.pos;
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(CodecError::LengthOverrun {
                offset,
                declared: len as u64,
                remaining: self.remaining(),
            });
        }
        let payload_offset = self.pos;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| CodecError::InvalidUtf8 {
                offset: payload_offset,
            })
    }

    /// Read one encoded [`Value`].
    pub fn value(&mut self) -> CodecResult<Value> {
        let offset = self.pos;
        match self.u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_INT => Ok(Value::Int(self.i64()?)),
            // Decode through the canonicalizing constructor: a corrupted
            // bit pattern must not smuggle a non-canonical NaN or -0.0
            // past the Eq/Hash invariants.
            TAG_DOUBLE => Ok(Value::double(f64::from_bits(self.u64()?))),
            TAG_STR => Ok(Value::Str(self.str()?)),
            TAG_BOOL => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                byte => Err(CodecError::InvalidBool {
                    offset: offset + 1,
                    byte,
                }),
            },
            tag => Err(CodecError::InvalidTag { offset, tag }),
        }
    }

    /// Read one encoded [`Tuple`].
    pub fn tuple(&mut self) -> CodecResult<Tuple> {
        let arity = self.count(1)?;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(self.value()?);
        }
        Ok(Tuple::from_values(values))
    }

    /// Read an encoded tuple list.
    pub fn tuples(&mut self) -> CodecResult<Vec<Tuple>> {
        let n = self.count(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.tuple()?);
        }
        Ok(out)
    }
}

/// Encode a single value to a fresh buffer (round-trip convenience).
pub fn encode_value(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    put_value(&mut out, v);
    out
}

/// Decode a single value, requiring the whole buffer to be consumed.
pub fn decode_value(buf: &[u8]) -> CodecResult<Value> {
    let mut r = ByteReader::new(buf);
    let v = r.value()?;
    r.expect_end()?;
    Ok(v)
}

/// Encode a single tuple to a fresh buffer.
pub fn encode_tuple(t: &Tuple) -> Vec<u8> {
    let mut out = Vec::new();
    put_tuple(&mut out, t);
    out
}

/// Decode a single tuple, requiring the whole buffer to be consumed.
pub fn decode_tuple(buf: &[u8]) -> CodecResult<Tuple> {
    let mut r = ByteReader::new(buf);
    let t = r.tuple()?;
    r.expect_end()?;
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: Value) {
        let bytes = encode_value(&v);
        assert_eq!(decode_value(&bytes).unwrap(), v, "{v:?}");
    }

    #[test]
    fn value_roundtrips() {
        roundtrip_value(Value::Null);
        roundtrip_value(Value::Int(0));
        roundtrip_value(Value::Int(i64::MIN));
        roundtrip_value(Value::Int(-17));
        roundtrip_value(Value::double(0.0));
        roundtrip_value(Value::double(-0.0)); // canonicalized on both sides
        roundtrip_value(Value::double(f64::INFINITY));
        roundtrip_value(Value::double(f64::NEG_INFINITY));
        roundtrip_value(Value::double(f64::NAN));
        roundtrip_value(Value::str(""));
        roundtrip_value(Value::str("münchner weißbier"));
        roundtrip_value(Value::Bool(true));
        roundtrip_value(Value::Bool(false));
    }

    #[test]
    fn tuple_roundtrips() {
        for t in [
            Tuple::from_values(vec![]),
            Tuple::of((1, "two", 3.0_f64)),
            Tuple::from_values(vec![Value::Null, Value::Bool(false)]),
        ] {
            let bytes = encode_tuple(&t);
            assert_eq!(bytes.len(), tuple_len(&t), "{t:?}");
            assert_eq!(decode_tuple(&bytes).unwrap(), t);
        }
    }

    #[test]
    fn corrupt_inputs_error_without_panicking() {
        // Truncations of a valid encoding.
        let bytes = encode_tuple(&Tuple::of((42, "beer", 1.5_f64)));
        for cut in 0..bytes.len() {
            assert!(decode_tuple(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Unknown tag.
        assert!(matches!(
            decode_value(&[9]),
            Err(CodecError::InvalidTag { tag: 9, .. })
        ));
        // Bad bool payload.
        assert!(matches!(
            decode_value(&[TAG_BOOL, 7]),
            Err(CodecError::InvalidBool { byte: 7, .. })
        ));
        // String length overrunning the buffer must not allocate 4 GiB.
        let mut huge = vec![TAG_STR];
        put_u32(&mut huge, u32::MAX);
        assert!(matches!(
            decode_value(&huge),
            Err(CodecError::LengthOverrun { .. })
        ));
        // Invalid UTF-8 payload.
        let mut bad = vec![TAG_STR];
        put_u32(&mut bad, 2);
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            decode_value(&bad),
            Err(CodecError::InvalidUtf8 { .. })
        ));
        // Trailing garbage is rejected by the strict decoders.
        let mut extra = encode_value(&Value::Int(1));
        extra.push(0);
        assert!(matches!(
            decode_value(&extra),
            Err(CodecError::TrailingBytes { count: 1, .. })
        ));
    }

    #[test]
    fn corrupt_arity_is_bounded() {
        // A tuple claiming 2^32-1 values in a 5-byte buffer must be
        // rejected by the count guard, not attempted.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        buf.push(TAG_NULL);
        assert!(matches!(
            decode_tuple(&buf),
            Err(CodecError::LengthOverrun { .. })
        ));
    }
}
