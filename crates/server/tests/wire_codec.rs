//! Property tests for the wire protocol codec: every request/response
//! frame round-trips exactly, and malformed, truncated, or bit-flipped
//! frames yield typed protocol errors — never a panic, never a hung
//! decode. (Mirrors `crates/relational/tests/codec_roundtrip.rs` for the
//! value layer underneath.)

use proptest::prelude::*;

use tm_relational::{Tuple, Value};
use tm_server::error::ProtocolError;
use tm_server::proto::{
    read_frame, write_frame, write_request, write_response, ErrorCode, Request, Response, TxReport,
    FRAME_HEADER, MAX_FRAME,
};

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (i64::MIN..=i64::MAX).prop_map(Value::Int),
        (0u64..=u64::MAX).prop_map(|bits| Value::double(f64::from_bits(bits))),
        "[a-z0-9 ]{0,12}".prop_map(Value::str),
        prop_oneof![Just(true), Just(false)].prop_map(Value::Bool),
    ]
}

fn params() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(value(), 0..5)
}

fn tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(value(), 0..5).prop_map(Tuple::from_values)
}

fn name() -> impl Strategy<Value = String> {
    "[a-z_][a-z0-9_]{0,10}".prop_map(|s| s)
}

fn text() -> impl Strategy<Value = String> {
    // Program/rule text is opaque to the codec — any UTF-8 goes.
    "[ -~àß≤]{0,40}".prop_map(|s| s)
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        name().prop_map(|tenant| Request::Hello { tenant }),
        text().prop_map(|template| Request::Prepare { template }),
        (0u32..1000, params()).prop_map(|(stmt_id, params)| Request::Execute { stmt_id, params }),
        (0u32..1000, proptest::collection::vec(params(), 0..4))
            .prop_map(|(stmt_id, bindings)| Request::ExecuteMany { stmt_id, bindings }),
        text().prop_map(|tx| Request::AdHoc { tx }),
        (name(), text()).prop_map(|(name, text)| Request::DefineRule { name, text }),
        (name(), text()).prop_map(|(name, cl)| Request::DefineConstraint { name, cl }),
        name().prop_map(|name| Request::RemoveRule { name }),
        name().prop_map(|relation| Request::Snapshot { relation }),
        Just(Request::Analyze),
        Just(Request::Stats),
    ]
}

fn flag() -> impl Strategy<Value = bool> {
    prop_oneof![Just(false), Just(true)]
}

fn tx_report() -> impl Strategy<Value = TxReport> {
    (
        flag(),
        flag(),
        0u32..100,
        0u32..100,
        0u32..100,
        proptest::option::of(text()),
    )
        .prop_map(
            |(committed, reused_plan, checks_skipped, checks_probed, checks_evaluated, abort)| {
                TxReport {
                    committed,
                    reused_plan,
                    checks_skipped,
                    checks_probed,
                    checks_evaluated,
                    abort,
                }
            },
        )
}

fn error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::BadRequest),
        Just(ErrorCode::UnknownTenant),
        Just(ErrorCode::NeedHello),
        Just(ErrorCode::UnknownStatement),
        Just(ErrorCode::Engine),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        name().prop_map(|tenant| Response::HelloOk { tenant }),
        (0u32..1000, 0u32..16).prop_map(|(stmt_id, param_count)| Response::Prepared {
            stmt_id,
            param_count
        }),
        tx_report().prop_map(Response::Tx),
        (0u64..1 << 40, 0u64..1 << 40)
            .prop_map(|(committed, aborted)| Response::Batch { committed, aborted }),
        text().prop_map(|detail| Response::Ack { detail }),
        (name(), proptest::collection::vec(tuple(), 0..6))
            .prop_map(|(relation, tuples)| Response::SnapshotData { relation, tuples }),
        text().prop_map(|text| Response::Analysis { text }),
        text().prop_map(|text| Response::StatsDump { text }),
        (0u64..1 << 20).prop_map(|limit| Response::Busy { limit }),
        (error_code(), text()).prop_map(|(code, message)| Response::Error { code, message }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request frame round-trips through a byte stream exactly.
    #[test]
    fn request_frames_round_trip(req in request()) {
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let mut cursor = &wire[..];
        let payload = read_frame(&mut cursor).unwrap().expect("one frame");
        prop_assert_eq!(Request::decode(&payload).unwrap(), req);
        prop_assert!(cursor.is_empty(), "frame must consume exactly its bytes");
    }

    /// Every response frame round-trips through a byte stream exactly.
    #[test]
    fn response_frames_round_trip(resp in response()) {
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        let mut cursor = &wire[..];
        let payload = read_frame(&mut cursor).unwrap().expect("one frame");
        prop_assert_eq!(Response::decode(&payload).unwrap(), resp);
        prop_assert!(cursor.is_empty());
    }

    /// Encoding straight into the frame buffer writes the very bytes of
    /// framing the separately encoded payload with `write_frame`.
    #[test]
    fn frames_encoded_in_place_equal_framed_payloads(req in request(), resp in response()) {
        let (mut direct, mut framed, mut payload) = (Vec::new(), Vec::new(), Vec::new());
        write_request(&mut direct, &req).unwrap();
        req.encode(&mut payload);
        write_frame(&mut framed, &payload).unwrap();
        prop_assert_eq!(&direct, &framed);
        let (mut direct, mut framed, mut payload) = (Vec::new(), Vec::new(), Vec::new());
        write_response(&mut direct, &resp).unwrap();
        resp.encode(&mut payload);
        write_frame(&mut framed, &payload).unwrap();
        prop_assert_eq!(&direct, &framed);
        prop_assert_eq!(&framed[..4], &(payload.len() as u32).to_le_bytes()[..]);
    }

    /// Several frames on one stream arrive in order, and the stream ends
    /// with a clean `None`.
    #[test]
    fn frame_streams_preserve_order(reqs in proptest::collection::vec(request(), 1..5)) {
        let mut wire = Vec::new();
        for r in &reqs {
            write_request(&mut wire, r).unwrap();
        }
        let mut cursor = &wire[..];
        for r in &reqs {
            let payload = read_frame(&mut cursor).unwrap().expect("frame");
            prop_assert_eq!(&Request::decode(&payload).unwrap(), r);
        }
        prop_assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    /// Every proper prefix of a frame is a typed error (mid-frame close),
    /// except the empty prefix, which is a clean end-of-stream.
    #[test]
    fn truncated_frames_error_not_panic(req in request(), frac in 0u64..1000) {
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let cut = (frac as usize * wire.len()) / 1000;
        let mut cursor = &wire[..cut];
        match read_frame(&mut cursor) {
            Ok(None) => prop_assert_eq!(cut, 0, "only the empty prefix is a clean close"),
            Ok(Some(_)) => prop_assert!(false, "a proper prefix decoded as a whole frame"),
            Err(ProtocolError::UnexpectedEof { .. }) => {}
            Err(e) => prop_assert!(false, "wrong error kind: {e}"),
        }
    }

    /// A single flipped bit anywhere in a frame is always detected: in
    /// the payload (or the crc field) the checksum catches it; in the
    /// length field the frame either overruns the protocol cap, tears
    /// the stream, or mismatches the checksum. Never a panic, never a
    /// silently wrong message.
    #[test]
    fn bit_flips_are_detected(req in request(), pos in 0usize..4096, bit in 0u8..8) {
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let pos = pos % wire.len();
        wire[pos] ^= 1 << bit;
        let mut cursor = &wire[..];
        match read_frame(&mut cursor) {
            Ok(Some(payload)) => {
                // The frame layer can only pass a flip through when the
                // length field shrank/grew onto another valid framing —
                // impossible with a single frame — or the flip cancelled
                // in the CRC, which CRC-32 excludes for single bits.
                prop_assert!(false, "flipped frame decoded: {:?}", Request::decode(&payload));
            }
            Ok(None) => prop_assert!(false, "flipped frame read as clean close"),
            Err(
                ProtocolError::ChecksumMismatch { .. }
                | ProtocolError::FrameTooLarge { .. }
                | ProtocolError::UnexpectedEof { .. },
            ) => {}
            Err(e) => prop_assert!(false, "wrong error kind: {e}"),
        }
    }

    /// Arbitrary payload bytes (framing intact, contents garbage) either
    /// decode to some message or yield a typed codec error — no panics,
    /// and whatever decodes re-encodes identically.
    #[test]
    fn arbitrary_payloads_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..96)) {
        if let Ok(req) = Request::decode(&bytes) {
            let mut re = Vec::new();
            req.encode(&mut re);
            prop_assert_eq!(Request::decode(&re).unwrap(), req);
        }
        if let Ok(resp) = Response::decode(&bytes) {
            let mut re = Vec::new();
            resp.encode(&mut re);
            prop_assert_eq!(Response::decode(&re).unwrap(), resp);
        }
    }

    /// Trailing bytes after a well-formed message are rejected — a
    /// desynchronized stream cannot smuggle a second message into one
    /// frame.
    #[test]
    fn trailing_bytes_rejected(req in request(), extra in 1usize..8) {
        let mut payload = Vec::new();
        req.encode(&mut payload);
        payload.extend(std::iter::repeat_n(0u8, extra));
        prop_assert!(Request::decode(&payload).is_err());
    }
}

/// A frame header announcing more than [`MAX_FRAME`] bytes is rejected
/// before any allocation is sized by it.
#[test]
fn oversized_length_is_rejected() {
    let mut wire = Vec::new();
    wire.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    wire.extend_from_slice(&0u32.to_le_bytes());
    let mut cursor = &wire[..];
    assert!(matches!(
        read_frame(&mut cursor),
        Err(ProtocolError::FrameTooLarge { .. })
    ));
    assert_eq!(wire.len(), FRAME_HEADER);
}

/// Request and response tags are disjoint: decoding a response payload
/// as a request (a desynchronized peer) is a typed error, not a
/// misparse.
#[test]
fn request_and_response_tags_are_disjoint() {
    let resp = Response::HelloOk { tenant: "t".into() };
    let mut payload = Vec::new();
    resp.encode(&mut payload);
    assert!(Request::decode(&payload).is_err());

    let req = Request::Hello { tenant: "t".into() };
    let mut payload = Vec::new();
    req.encode(&mut payload);
    assert!(Response::decode(&payload).is_err());
}
