//! The wire protocol: message taxonomy and frame codec.
//!
//! ## Frame layout
//!
//! The framing reuses the `tm-durable` WAL discipline — length-prefixed,
//! CRC-32-checksummed:
//!
//! ```text
//! ┌─────────┬─────────┬──────────────────────────────┐
//! │ len u32 │ crc u32 │ payload = tag u8 ‖ fields    │
//! └─────────┴─────────┴──────────────────────────────┘
//! ```
//!
//! `len` is the payload length (capped at [`MAX_FRAME`]); `crc` is CRC-32
//! (IEEE) over the payload. The payload is one message: a tag byte
//! followed by its fields in the `tm-relational` binary codec (the same
//! value/tuple encoding the WAL records use). Requests and responses use
//! disjoint tag ranges (`0x01..` vs `0x81..`) so a desynchronized peer is
//! detected immediately.
//!
//! ## Corruption contract
//!
//! Decoding is total: a truncated header, an oversized length, a checksum
//! mismatch, an unknown tag, a short payload, or trailing bytes each map
//! to a typed [`ProtocolError`] — never a panic, never an unbounded
//! allocation (lengths are validated against the remaining input before
//! any buffer is sized by them, via [`ByteReader::count`]).

use std::io::{Read, Write};

use tm_durable::crc32;
use tm_relational::codec::{put_str, put_u32, put_u64, put_value, ByteReader, CodecError};
use tm_relational::{Tuple, Value};

use crate::error::{ProtocolError, Result};

/// Hard cap on a frame payload, bytes. Large enough for a bulk snapshot,
/// small enough that garbage bytes read as a length cannot drive an
/// absurd allocation.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Bytes of the `len`+`crc` frame header.
pub const FRAME_HEADER: usize = 8;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session against a tenant. Must be the first request on a
    /// connection; everything else is rejected with
    /// [`ErrorCode::NeedHello`] until it succeeds.
    Hello {
        /// The tenant id to bind this connection to.
        tenant: String,
    },
    /// Prepare a transaction template (RA program text, `?N`
    /// placeholders allowed): one `ModT` run, retained server-side.
    Prepare {
        /// The template program text.
        template: String,
    },
    /// Bind values to a prepared statement and execute it once.
    Execute {
        /// Statement id from a [`Response::Prepared`].
        stmt_id: u32,
        /// One value per `?N` placeholder.
        params: Vec<Value>,
    },
    /// Bind and execute a prepared statement once per binding — the
    /// batch path that amortizes the wire round-trip over many
    /// transactions.
    ExecuteMany {
        /// Statement id from a [`Response::Prepared`].
        stmt_id: u32,
        /// One execution per element.
        bindings: Vec<Vec<Value>>,
    },
    /// Execute an ad-hoc transaction (RA program text, no placeholders,
    /// not retained).
    AdHoc {
        /// The program text.
        tx: String,
    },
    /// Add an integrity rule from RL text to the tenant's catalog.
    DefineRule {
        /// Catalog name for the rule.
        name: String,
        /// The RL rule text.
        text: String,
    },
    /// Declare a CL constraint (compiled to rules server-side).
    DefineConstraint {
        /// Catalog name for the constraint.
        name: String,
        /// The CL constraint text.
        cl: String,
    },
    /// Remove a rule or constraint by name.
    RemoveRule {
        /// The catalog name to remove.
        name: String,
    },
    /// Read a consistent snapshot of one relation.
    Snapshot {
        /// The relation name.
        relation: String,
    },
    /// Run the catalog static analysis and return its rendering.
    Analyze,
    /// Fetch the server metrics dump (includes tenant health: deferred
    /// checkpoint errors).
    Stats,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The session is open.
    HelloOk {
        /// The tenant the connection is now bound to.
        tenant: String,
    },
    /// A template was prepared and retained.
    Prepared {
        /// Id to pass to `Execute`/`ExecuteMany`.
        stmt_id: u32,
        /// Number of `?N` placeholders the template declares.
        param_count: u32,
    },
    /// Outcome of one transaction execution.
    Tx(TxReport),
    /// Outcome summary of an `ExecuteMany` batch.
    Batch {
        /// Executions that committed.
        committed: u64,
        /// Executions that aborted (integrity violation or explicit).
        aborted: u64,
    },
    /// Generic success acknowledgement for catalog requests.
    Ack {
        /// Human-readable detail (e.g. `"rule removed"`).
        detail: String,
    },
    /// A relation snapshot.
    SnapshotData {
        /// The relation name.
        relation: String,
        /// Its tuples at the read point.
        tuples: Vec<Tuple>,
    },
    /// The catalog analysis rendering.
    Analysis {
        /// Plaintext report.
        text: String,
    },
    /// The metrics dump.
    StatsDump {
        /// Plaintext metrics, one `key value` pair per line.
        text: String,
    },
    /// The request was rejected by admission control — typed overload,
    /// not a timeout. Retry later.
    Busy {
        /// The tenant's in-flight cap (0 when the token bucket rejected).
        limit: u64,
    },
    /// The request failed.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Outcome of a single transaction execution, as reported on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct TxReport {
    /// Whether the transaction committed.
    pub committed: bool,
    /// Whether the execution reused the prepared plan without
    /// re-modification (always `false` for ad-hoc transactions).
    pub reused_plan: bool,
    /// Rule checks skipped by specialization or triggering analysis.
    pub checks_skipped: u32,
    /// Rule checks reduced to point probes.
    pub checks_probed: u32,
    /// Rule checks evaluated generically.
    pub checks_evaluated: u32,
    /// Abort reason rendering; `None` on commit.
    pub abort: Option<String>,
}

/// Machine-readable error classes of [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request is well-formed but invalid in this state (e.g. a
    /// second `Hello`).
    BadRequest,
    /// `Hello` named a tenant the registry does not know.
    UnknownTenant,
    /// A work request arrived before a successful `Hello`.
    NeedHello,
    /// `Execute` named a statement id this tenant never prepared.
    UnknownStatement,
    /// The engine rejected the request (parse error, bind error,
    /// catalog conflict, …).
    Engine,
    /// A retryable serialization conflict. This server never sends it —
    /// executions serialize under the tenant's engine lock — but the byte
    /// stays assigned and decodable, so clients that handle it keep
    /// working against any server speaking the protocol.
    Conflict,
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownTenant => "unknown-tenant",
            ErrorCode::NeedHello => "need-hello",
            ErrorCode::UnknownStatement => "unknown-statement",
            ErrorCode::Engine => "engine",
            ErrorCode::Conflict => "conflict",
        };
        f.write_str(s)
    }
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::UnknownTenant => 2,
            ErrorCode::NeedHello => 3,
            ErrorCode::UnknownStatement => 4,
            ErrorCode::Engine => 5,
            ErrorCode::Conflict => 6,
        }
    }

    fn from_byte(offset: usize, b: u8) -> std::result::Result<Self, CodecError> {
        Ok(match b {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::UnknownTenant,
            3 => ErrorCode::NeedHello,
            4 => ErrorCode::UnknownStatement,
            5 => ErrorCode::Engine,
            6 => ErrorCode::Conflict,
            tag => return Err(CodecError::InvalidTag { offset, tag }),
        })
    }
}

const REQ_HELLO: u8 = 0x01;
const REQ_PREPARE: u8 = 0x02;
const REQ_EXECUTE: u8 = 0x03;
const REQ_EXECUTE_MANY: u8 = 0x04;
const REQ_ADHOC: u8 = 0x05;
const REQ_DEFINE_RULE: u8 = 0x06;
const REQ_DEFINE_CONSTRAINT: u8 = 0x07;
const REQ_REMOVE_RULE: u8 = 0x08;
const REQ_SNAPSHOT: u8 = 0x09;
const REQ_ANALYZE: u8 = 0x0a;
const REQ_STATS: u8 = 0x0b;

const RESP_HELLO_OK: u8 = 0x81;
const RESP_PREPARED: u8 = 0x82;
const RESP_TX: u8 = 0x83;
const RESP_BATCH: u8 = 0x84;
const RESP_ACK: u8 = 0x85;
const RESP_SNAPSHOT: u8 = 0x86;
const RESP_ANALYSIS: u8 = 0x87;
const RESP_STATS: u8 = 0x88;
const RESP_BUSY: u8 = 0x8e;
const RESP_ERROR: u8 = 0x8f;

fn put_params(out: &mut Vec<u8>, params: &[Value]) {
    put_u32(out, params.len() as u32);
    for v in params {
        put_value(out, v);
    }
}

fn read_params(r: &mut ByteReader<'_>) -> std::result::Result<Vec<Value>, CodecError> {
    // A value is at least one tag byte, so `count` can bound the
    // allocation against the remaining input.
    let n = r.count(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.value()?);
    }
    Ok(out)
}

impl Request {
    /// Encode this request as a frame payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Hello { tenant } => {
                out.push(REQ_HELLO);
                put_str(out, tenant);
            }
            Request::Prepare { template } => {
                out.push(REQ_PREPARE);
                put_str(out, template);
            }
            Request::Execute { stmt_id, params } => {
                out.push(REQ_EXECUTE);
                put_u32(out, *stmt_id);
                put_params(out, params);
            }
            Request::ExecuteMany { stmt_id, bindings } => {
                out.push(REQ_EXECUTE_MANY);
                put_u32(out, *stmt_id);
                put_u32(out, bindings.len() as u32);
                for b in bindings {
                    put_params(out, b);
                }
            }
            Request::AdHoc { tx } => {
                out.push(REQ_ADHOC);
                put_str(out, tx);
            }
            Request::DefineRule { name, text } => {
                out.push(REQ_DEFINE_RULE);
                put_str(out, name);
                put_str(out, text);
            }
            Request::DefineConstraint { name, cl } => {
                out.push(REQ_DEFINE_CONSTRAINT);
                put_str(out, name);
                put_str(out, cl);
            }
            Request::RemoveRule { name } => {
                out.push(REQ_REMOVE_RULE);
                put_str(out, name);
            }
            Request::Snapshot { relation } => {
                out.push(REQ_SNAPSHOT);
                put_str(out, relation);
            }
            Request::Analyze => out.push(REQ_ANALYZE),
            Request::Stats => out.push(REQ_STATS),
        }
    }

    /// Decode a frame payload as a request. Total: every malformed input
    /// maps to a [`CodecError`]; the whole payload must be consumed.
    pub fn decode(buf: &[u8]) -> std::result::Result<Request, CodecError> {
        let mut r = ByteReader::new(buf);
        let tag = r.u8()?;
        let req = match tag {
            REQ_HELLO => Request::Hello { tenant: r.str()? },
            REQ_PREPARE => Request::Prepare { template: r.str()? },
            REQ_EXECUTE => Request::Execute {
                stmt_id: r.u32()?,
                params: read_params(&mut r)?,
            },
            REQ_EXECUTE_MANY => {
                let stmt_id = r.u32()?;
                // Each binding is at least a 4-byte count.
                let n = r.count(4)?;
                let mut bindings = Vec::with_capacity(n);
                for _ in 0..n {
                    bindings.push(read_params(&mut r)?);
                }
                Request::ExecuteMany { stmt_id, bindings }
            }
            REQ_ADHOC => Request::AdHoc { tx: r.str()? },
            REQ_DEFINE_RULE => Request::DefineRule {
                name: r.str()?,
                text: r.str()?,
            },
            REQ_DEFINE_CONSTRAINT => Request::DefineConstraint {
                name: r.str()?,
                cl: r.str()?,
            },
            REQ_REMOVE_RULE => Request::RemoveRule { name: r.str()? },
            REQ_SNAPSHOT => Request::Snapshot { relation: r.str()? },
            REQ_ANALYZE => Request::Analyze,
            REQ_STATS => Request::Stats,
            tag => {
                return Err(CodecError::InvalidTag {
                    offset: r.offset().saturating_sub(1),
                    tag,
                })
            }
        };
        r.expect_end()?;
        Ok(req)
    }
}

fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(b as u8);
}

fn read_bool(r: &mut ByteReader<'_>) -> std::result::Result<bool, CodecError> {
    let offset = r.offset();
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        byte => Err(CodecError::InvalidBool { offset, byte }),
    }
}

impl TxReport {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bool(out, self.committed);
        put_bool(out, self.reused_plan);
        put_u32(out, self.checks_skipped);
        put_u32(out, self.checks_probed);
        put_u32(out, self.checks_evaluated);
        match &self.abort {
            None => put_bool(out, false),
            Some(reason) => {
                put_bool(out, true);
                put_str(out, reason);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> std::result::Result<TxReport, CodecError> {
        let committed = read_bool(r)?;
        let reused_plan = read_bool(r)?;
        let checks_skipped = r.u32()?;
        let checks_probed = r.u32()?;
        let checks_evaluated = r.u32()?;
        let abort = if read_bool(r)? { Some(r.str()?) } else { None };
        Ok(TxReport {
            committed,
            reused_plan,
            checks_skipped,
            checks_probed,
            checks_evaluated,
            abort,
        })
    }
}

impl Response {
    /// Encode this response as a frame payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::HelloOk { tenant } => {
                out.push(RESP_HELLO_OK);
                put_str(out, tenant);
            }
            Response::Prepared {
                stmt_id,
                param_count,
            } => {
                out.push(RESP_PREPARED);
                put_u32(out, *stmt_id);
                put_u32(out, *param_count);
            }
            Response::Tx(report) => {
                out.push(RESP_TX);
                report.encode(out);
            }
            Response::Batch { committed, aborted } => {
                out.push(RESP_BATCH);
                put_u64(out, *committed);
                put_u64(out, *aborted);
            }
            Response::Ack { detail } => {
                out.push(RESP_ACK);
                put_str(out, detail);
            }
            Response::SnapshotData { relation, tuples } => {
                out.push(RESP_SNAPSHOT);
                put_str(out, relation);
                put_u32(out, tuples.len() as u32);
                for t in tuples {
                    tm_relational::codec::put_tuple(out, t);
                }
            }
            Response::Analysis { text } => {
                out.push(RESP_ANALYSIS);
                put_str(out, text);
            }
            Response::StatsDump { text } => {
                out.push(RESP_STATS);
                put_str(out, text);
            }
            Response::Busy { limit } => {
                out.push(RESP_BUSY);
                put_u64(out, *limit);
            }
            Response::Error { code, message } => {
                out.push(RESP_ERROR);
                out.push(code.to_byte());
                put_str(out, message);
            }
        }
    }

    /// Decode a frame payload as a response. Total, like
    /// [`Request::decode`].
    pub fn decode(buf: &[u8]) -> std::result::Result<Response, CodecError> {
        let mut r = ByteReader::new(buf);
        let tag = r.u8()?;
        let resp = match tag {
            RESP_HELLO_OK => Response::HelloOk { tenant: r.str()? },
            RESP_PREPARED => Response::Prepared {
                stmt_id: r.u32()?,
                param_count: r.u32()?,
            },
            RESP_TX => Response::Tx(TxReport::decode(&mut r)?),
            RESP_BATCH => Response::Batch {
                committed: r.u64()?,
                aborted: r.u64()?,
            },
            RESP_ACK => Response::Ack { detail: r.str()? },
            RESP_SNAPSHOT => {
                let relation = r.str()?;
                // A tuple is at least a 4-byte arity.
                let n = r.count(4)?;
                let mut tuples = Vec::with_capacity(n);
                for _ in 0..n {
                    tuples.push(r.tuple()?);
                }
                Response::SnapshotData { relation, tuples }
            }
            RESP_ANALYSIS => Response::Analysis { text: r.str()? },
            RESP_STATS => Response::StatsDump { text: r.str()? },
            RESP_BUSY => Response::Busy { limit: r.u64()? },
            RESP_ERROR => {
                let offset = r.offset();
                let code = ErrorCode::from_byte(offset, r.u8()?)?;
                Response::Error {
                    code,
                    message: r.str()?,
                }
            }
            tag => {
                return Err(CodecError::InvalidTag {
                    offset: r.offset().saturating_sub(1),
                    tag,
                })
            }
        };
        r.expect_end()?;
        Ok(resp)
    }
}

/// The one frame encoder: reserve the header, let `encode` append the
/// payload behind it in the same buffer, then patch the header with the
/// payload's length and CRC and write the frame with one `write_all`.
/// `capacity` is a hint for the payload size.
fn write_encoded(
    w: &mut impl Write,
    capacity: usize,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Result<()> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + capacity);
    frame.resize(FRAME_HEADER, 0);
    encode(&mut frame);
    let payload = &frame[FRAME_HEADER..];
    debug_assert!(payload.len() as u64 <= MAX_FRAME as u64);
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    frame[..4].copy_from_slice(&len);
    frame[4..FRAME_HEADER].copy_from_slice(&crc);
    w.write_all(&frame)?;
    Ok(())
}

/// Frame a raw payload and write it to `w` (one `write_all`: header and
/// payload go out together).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    write_encoded(w, payload.len(), |frame| frame.extend_from_slice(payload))
}

/// Encode and frame a request in one step, into one buffer.
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<()> {
    write_encoded(w, 0, |frame| req.encode(frame))
}

/// Encode and frame a response in one step, into one buffer.
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<()> {
    write_encoded(w, 0, |frame| resp.encode(frame))
}

/// Fill `buf[*got..]` from `r`, tolerating `Interrupted` and — so a
/// server thread with a read timeout can poll its stop flag — treating
/// `WouldBlock`/`TimedOut` as a tick: `stop` is consulted, and reading
/// resumes where it left off (partial bytes are never dropped).
///
/// Returns `Ok(true)` when the buffer is full, `Ok(false)` when `stop`
/// asked to give up before any byte of it arrived.
fn fill_interruptible(
    r: &mut impl Read,
    buf: &mut [u8],
    got: &mut usize,
    total_before: usize,
    stop: &mut dyn FnMut() -> bool,
) -> Result<bool> {
    while *got < buf.len() {
        match r.read(&mut buf[*got..]) {
            Ok(0) => {
                return if *got == 0 && total_before == 0 {
                    Ok(false) // clean close at a frame boundary
                } else {
                    Err(ProtocolError::UnexpectedEof {
                        got: total_before + *got,
                    })
                };
            }
            Ok(n) => *got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop() {
                    return if *got == 0 && total_before == 0 {
                        Ok(false) // idle at a boundary: quiet shutdown
                    } else {
                        Err(ProtocolError::UnexpectedEof {
                            got: total_before + *got,
                        })
                    };
                }
            }
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    Ok(true)
}

/// Read one frame payload from `r`, polling `stop` whenever a read
/// timeout elapses. Returns `Ok(None)` on a clean close at a frame
/// boundary, or when `stop` returns `true` while the connection is idle;
/// a close (or shutdown) mid-frame, an oversized length, and a checksum
/// mismatch are typed errors.
pub fn read_frame_interruptible(
    r: &mut impl Read,
    stop: &mut dyn FnMut() -> bool,
) -> Result<Option<Vec<u8>>> {
    let mut header = [0u8; FRAME_HEADER];
    let mut got = 0;
    if !fill_interruptible(r, &mut header, &mut got, 0, stop)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(ProtocolError::FrameTooLarge { len: len as u64 });
    }
    let mut payload = vec![0u8; len as usize];
    let mut read = 0;
    // `total_before` is non-zero, so a close or shutdown here is always
    // the mid-frame error, never a quiet `Ok(false)`.
    fill_interruptible(r, &mut payload, &mut read, FRAME_HEADER, stop)?;
    let actual = crc32(&payload);
    if actual != crc {
        return Err(ProtocolError::ChecksumMismatch {
            expected: crc,
            actual,
        });
    }
    Ok(Some(payload))
}

/// Read one frame payload from a blocking `r` (no timeout; see
/// [`read_frame_interruptible`] for the server-side variant). Returns
/// `Ok(None)` on a clean close at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    read_frame_interruptible(r, &mut || false)
}
