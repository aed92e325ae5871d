//! Typed errors of the wire protocol and client.

use std::fmt;
use std::io;

use tm_relational::CodecError;

use crate::proto::ErrorCode;

/// Everything that can go wrong on a protocol connection. Corrupt or
/// malformed input is always reported through one of these variants —
/// never a panic, never a hung connection.
#[derive(Debug)]
pub enum ProtocolError {
    /// A socket-level I/O failure.
    Io(io::Error),
    /// The peer closed the connection mid-frame (a clean close at a
    /// frame boundary is not an error).
    UnexpectedEof {
        /// Bytes of the partial frame that did arrive.
        got: usize,
    },
    /// A frame header announced a payload longer than the protocol
    /// allows — almost certainly garbage bytes, not a frame.
    FrameTooLarge {
        /// The announced payload length.
        len: u64,
    },
    /// The frame checksum did not match its payload: bit rot or a
    /// desynchronized stream.
    ChecksumMismatch {
        /// CRC-32 announced by the header.
        expected: u32,
        /// CRC-32 of the payload that arrived.
        actual: u32,
    },
    /// The payload arrived intact (checksum valid) but does not decode
    /// as a message: unknown tag, truncated field, trailing bytes.
    Codec(CodecError),
    /// The server answered with a typed error response.
    Remote {
        /// The machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server rejected the request under admission control; retry
    /// later. Carries the tenant's in-flight limit for context.
    Busy {
        /// The tenant's configured in-flight cap (0 when rejected by the
        /// token bucket instead).
        limit: u64,
    },
    /// The peer answered with a well-formed message that makes no sense
    /// in this state (e.g. a `Tx` response to a `Prepare` request).
    Unexpected {
        /// What arrived, rendered for the error message.
        got: String,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
            ProtocolError::UnexpectedEof { got } => {
                write!(f, "connection closed mid-frame ({got} byte(s) arrived)")
            }
            ProtocolError::FrameTooLarge { len } => {
                write!(f, "frame payload of {len} bytes exceeds the protocol limit")
            }
            ProtocolError::ChecksumMismatch { expected, actual } => write!(
                f,
                "frame checksum mismatch (header says {expected:#010x}, payload hashes to {actual:#010x})"
            ),
            ProtocolError::Codec(e) => write!(f, "undecodable frame payload: {e}"),
            ProtocolError::Remote { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
            ProtocolError::Busy { limit } => {
                write!(f, "server busy (admission control, in-flight cap {limit})")
            }
            ProtocolError::Unexpected { got } => {
                write!(f, "unexpected response: {got}")
            }
        }
    }
}

impl ProtocolError {
    /// Whether this error is a retryable serialization conflict
    /// ([`ErrorCode::Conflict`]): re-issuing the request may succeed.
    pub fn is_conflict(&self) -> bool {
        matches!(
            self,
            ProtocolError::Remote {
                code: ErrorCode::Conflict,
                ..
            }
        )
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<CodecError> for ProtocolError {
    fn from(e: CodecError) -> Self {
        ProtocolError::Codec(e)
    }
}

/// Shorthand result type of the protocol layer.
pub type Result<T> = std::result::Result<T, ProtocolError>;
