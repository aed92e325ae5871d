//! Property tests for the binary value/tuple codec: every encodable value
//! decodes back to itself (the WAL and checkpoint formats depend on this
//! being exact), and corrupted or truncated input yields typed errors —
//! never a panic, never a silent wrong value.

use proptest::prelude::*;

use tm_relational::codec::{
    decode_tuple, decode_value, encode_tuple, encode_value, put_tuples, tuple_len, ByteReader,
};
use tm_relational::{Tuple, Value};

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (i64::MIN..=i64::MAX).prop_map(Value::Int),
        // Doubles from raw bit patterns: covers NaN payloads, both
        // infinities, -0.0, subnormals. `Value::double` canonicalizes, so
        // the round-trip target is the canonical form.
        (0u64..=u64::MAX).prop_map(|bits| Value::double(f64::from_bits(bits))),
        Just(Value::double(f64::NAN)),
        Just(Value::double(f64::INFINITY)),
        Just(Value::double(f64::NEG_INFINITY)),
        Just(Value::double(-0.0)),
        Just(Value::Int(i64::MIN)),
        Just(Value::str("")),
        "[a-z0-9 ]{0,12}".prop_map(Value::str),
        prop_oneof![Just(true), Just(false)].prop_map(Value::Bool),
    ]
}

fn tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(value(), 0..6).prop_map(Tuple::from_values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn value_round_trips(v in value()) {
        let bytes = encode_value(&v);
        let back = decode_value(&bytes).expect("decode of a fresh encoding");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn tuple_round_trips(t in tuple()) {
        let bytes = encode_tuple(&t);
        prop_assert_eq!(bytes.len(), tuple_len(&t));
        let back = decode_tuple(&bytes).expect("decode of a fresh encoding");
        prop_assert_eq!(back, t);
    }

    #[test]
    fn tuple_batches_round_trip(ts in proptest::collection::vec(tuple(), 0..8)) {
        let mut buf = Vec::new();
        put_tuples(&mut buf, ts.iter());
        let mut r = ByteReader::new(&buf);
        let back = r.tuples().expect("decode of a fresh batch");
        r.expect_end().expect("batch decoding consumes everything");
        prop_assert_eq!(back, ts);
    }

    /// Every proper prefix of an encoding is rejected with an error — the
    /// torn-write case the WAL scanner leans on.
    #[test]
    fn truncations_error_not_panic(t in tuple(), frac in 0u64..1000) {
        let bytes = encode_tuple(&t);
        if !bytes.is_empty() {
            let cut = (frac as usize * bytes.len()) / 1000;
            prop_assert!(decode_tuple(&bytes[..cut]).is_err());
        }
    }

    /// Arbitrary bytes either decode to *some* tuple or error cleanly;
    /// decoding never panics, and whatever decodes re-encodes (no
    /// out-of-range values sneak through).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        if let Ok(t) = decode_tuple(&bytes) {
            let re = encode_tuple(&t);
            prop_assert_eq!(decode_tuple(&re).unwrap(), t);
        }
    }

    /// Single-byte corruption of a value encoding is either detected or
    /// decodes to a *different-but-valid* value (a flipped payload byte is
    /// indistinguishable at this layer — the WAL's CRC catches it); it
    /// must never panic.
    #[test]
    fn flipped_bytes_never_panic(v in value(), pos in 0usize..64, mask in 1u8..=255) {
        let mut bytes = encode_value(&v);
        if !bytes.is_empty() {
            let pos = pos % bytes.len();
            bytes[pos] ^= mask;
            let _ = decode_value(&bytes);
        }
    }
}

#[test]
fn tuple_of_every_kind_round_trips() {
    let t = Tuple::from_values(vec![
        Value::Null,
        Value::Int(i64::MIN),
        Value::Int(-1),
        Value::double(f64::NAN),
        Value::double(f64::NEG_INFINITY),
        Value::double(-0.0),
        Value::str(""),
        Value::str("käse–smörgås"),
        Value::Bool(false),
    ]);
    let bytes = encode_tuple(&t);
    assert_eq!(decode_tuple(&bytes).unwrap(), t);
}
