//! Length-prefixed binary envelope codec — the framed-TCP wire format.
//!
//! Each frame is a little-endian `u32` body length followed by the body:
//!
//! ```text
//! ┌─────────────┬──────┬─────────┬──────────────────────────────┐
//! │ len: u32 LE │ kind │ version │ body (request or response)   │
//! └─────────────┴──────┴─────────┴──────────────────────────────┘
//! ```
//!
//! Strings are `u32` length + UTF-8 bytes; maps are `u32` count + pairs;
//! integers are little-endian; the response status travels as
//! [`ServiceCode::wire`].  The codec is hand-rolled (no serialization crate
//! on the wire) so the format is explicit, versioned, and stable across
//! builds.  Frames above [`MAX_FRAME_BYTES`] are refused on both ends so a
//! corrupt length prefix cannot trigger an unbounded allocation.

use crate::{Operation, RequestEnvelope, ResponseEnvelope};
use sigma_core::ServiceCode;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};

/// Hard cap on a frame body; larger lengths are rejected as corruption.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Largest piece of a frame body [`read_frame`] allocates ahead of the bytes
/// arriving, so a declared length alone cannot reserve [`MAX_FRAME_BYTES`].
const READ_STEP_BYTES: usize = 1 << 20;

/// Wire format version stamped into every frame.
pub const WIRE_VERSION: u8 = 1;

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;

const OP_BACKUP: u8 = 1;
const OP_RESTORE: u8 = 2;
const OP_DELETE_FILE: u8 = 3;
const OP_DELETE_BACKUP: u8 = 4;
const OP_DELETE_GENERATION: u8 = 5;
const OP_COLLECT_GARBAGE: u8 = 6;
const OP_STATS: u8 = 7;

/// Why a frame could not be encoded or decoded.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying socket/stream failure.
    Io(io::Error),
    /// Length prefix exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// The advertised body length.
        len: u32,
    },
    /// First body byte is neither request nor response.
    UnknownKind(u8),
    /// Version byte this build does not speak.
    UnsupportedVersion(u8),
    /// Opcode byte outside the known operations.
    UnknownOpcode(u8),
    /// Response status outside the [`ServiceCode`] table.
    UnknownCode(u16),
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// Body ended before the structure was complete, or had trailing bytes.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {}", e),
            CodecError::FrameTooLarge { len } => {
                write!(
                    f,
                    "frame body of {} bytes exceeds cap {}",
                    len, MAX_FRAME_BYTES
                )
            }
            CodecError::UnknownKind(k) => write!(f, "unknown frame kind {}", k),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported wire version {}", v),
            CodecError::UnknownOpcode(op) => write!(f, "unknown opcode {}", op),
            CodecError::UnknownCode(c) => write!(f, "unknown service code {}", c),
            CodecError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::Malformed(what) => write!(f, "malformed frame: {}", what),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// `true` when the error means the peer hung up cleanly between frames.
pub fn is_clean_eof(err: &CodecError) -> bool {
    matches!(err, CodecError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof)
}

// ---------------------------------------------------------------- encoding

struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    fn new(kind: u8) -> Self {
        Encoder {
            buf: vec![kind, WIRE_VERSION],
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    fn map(&mut self, m: &BTreeMap<String, String>) {
        self.u32(m.len() as u32);
        for (k, v) in m {
            self.string(k);
            self.string(v);
        }
    }

    fn finish(self) -> Result<Vec<u8>, CodecError> {
        if self.buf.len() > MAX_FRAME_BYTES as usize {
            return Err(CodecError::FrameTooLarge {
                len: self.buf.len() as u32,
            });
        }
        Ok(self.buf)
    }
}

/// Serializes a request body (no length prefix — [`write_frame`] adds it).
pub fn encode_request(req: &RequestEnvelope) -> Result<Vec<u8>, CodecError> {
    let mut e = Encoder::new(KIND_REQUEST);
    e.u64(req.request_id);
    e.string(&req.tenant);
    match &req.operation {
        Operation::Backup {
            file_name,
            generation,
        } => {
            e.u8(OP_BACKUP);
            e.string(file_name);
            e.u64(*generation);
        }
        Operation::Restore { file_id } => {
            e.u8(OP_RESTORE);
            e.u64(*file_id);
        }
        Operation::DeleteFile { file_id } => {
            e.u8(OP_DELETE_FILE);
            e.u64(*file_id);
        }
        Operation::DeleteBackup { session_id } => {
            e.u8(OP_DELETE_BACKUP);
            e.u64(*session_id);
        }
        Operation::DeleteGeneration { generation } => {
            e.u8(OP_DELETE_GENERATION);
            e.u64(*generation);
        }
        Operation::CollectGarbage => e.u8(OP_COLLECT_GARBAGE),
        Operation::Stats => e.u8(OP_STATS),
    }
    e.map(&req.metadata);
    e.bytes(&req.payload);
    e.finish()
}

/// Serializes a response body (no length prefix — [`write_frame`] adds it).
pub fn encode_response(resp: &ResponseEnvelope) -> Result<Vec<u8>, CodecError> {
    let mut e = Encoder::new(KIND_RESPONSE);
    e.u64(resp.request_id);
    e.u16(resp.code.wire());
    e.string(&resp.message);
    e.map(&resp.metadata);
    e.bytes(&resp.payload);
    e.finish()
}

// ---------------------------------------------------------------- decoding

struct Decoder<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.body.len())
            .ok_or(CodecError::Malformed("body truncated"))?;
        let slice = &self.body[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.bytes()?).map_err(|_| CodecError::InvalidUtf8)
    }

    fn map(&mut self) -> Result<BTreeMap<String, String>, CodecError> {
        let count = self.u32()?;
        let mut m = BTreeMap::new();
        for _ in 0..count {
            let k = self.string()?;
            let v = self.string()?;
            m.insert(k, v);
        }
        Ok(m)
    }

    fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.body.len() {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes after body"))
        }
    }
}

fn open_body(body: &[u8], expected_kind: u8) -> Result<Decoder<'_>, CodecError> {
    let mut d = Decoder { body, pos: 0 };
    let kind = d.u8()?;
    if kind != KIND_REQUEST && kind != KIND_RESPONSE {
        return Err(CodecError::UnknownKind(kind));
    }
    if kind != expected_kind {
        return Err(CodecError::Malformed("frame kind does not match direction"));
    }
    let version = d.u8()?;
    if version != WIRE_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    Ok(d)
}

/// Deserializes a request body produced by [`encode_request`].
pub fn decode_request(body: &[u8]) -> Result<RequestEnvelope, CodecError> {
    let mut d = open_body(body, KIND_REQUEST)?;
    let request_id = d.u64()?;
    let tenant = d.string()?;
    let opcode = d.u8()?;
    let operation = match opcode {
        OP_BACKUP => Operation::Backup {
            file_name: d.string()?,
            generation: d.u64()?,
        },
        OP_RESTORE => Operation::Restore { file_id: d.u64()? },
        OP_DELETE_FILE => Operation::DeleteFile { file_id: d.u64()? },
        OP_DELETE_BACKUP => Operation::DeleteBackup {
            session_id: d.u64()?,
        },
        OP_DELETE_GENERATION => Operation::DeleteGeneration {
            generation: d.u64()?,
        },
        OP_COLLECT_GARBAGE => Operation::CollectGarbage,
        OP_STATS => Operation::Stats,
        other => return Err(CodecError::UnknownOpcode(other)),
    };
    let metadata = d.map()?;
    let payload = d.bytes()?;
    d.finish()?;
    Ok(RequestEnvelope {
        request_id,
        tenant,
        operation,
        metadata,
        payload,
    })
}

/// Deserializes a response body produced by [`encode_response`].
pub fn decode_response(body: &[u8]) -> Result<ResponseEnvelope, CodecError> {
    let mut d = open_body(body, KIND_RESPONSE)?;
    let request_id = d.u64()?;
    let wire_code = d.u16()?;
    let code = ServiceCode::from_wire(wire_code).ok_or(CodecError::UnknownCode(wire_code))?;
    let message = d.string()?;
    let metadata = d.map()?;
    let payload = d.bytes()?;
    d.finish()?;
    Ok(ResponseEnvelope {
        request_id,
        code,
        message,
        metadata,
        payload,
    })
}

// ----------------------------------------------------------------- framing

/// Writes one length-prefixed frame and flushes.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), CodecError> {
    debug_assert!(
        body.len() <= MAX_FRAME_BYTES as usize,
        "encoder enforces cap"
    );
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame body.
///
/// A clean disconnect before the length prefix surfaces as
/// [`CodecError::Io`] with [`io::ErrorKind::UnexpectedEof`] — see
/// [`is_clean_eof`].
///
/// The body grows in steps of at most 1 MiB as its bytes arrive, so a peer
/// that declares a large frame and then stalls or disconnects costs one step,
/// not the declared length.  A body of 1 MiB or less is one exact allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, CodecError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(CodecError::FrameTooLarge { len });
    }
    let len = len as usize;
    let mut body = Vec::with_capacity(len.min(READ_STEP_BYTES));
    while body.len() < len {
        let start = body.len();
        body.resize(len.min(start + READ_STEP_BYTES), 0);
        r.read_exact(&mut body[start..])?;
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_ops() -> Vec<Operation> {
        vec![
            Operation::Backup {
                file_name: "db.dump".into(),
                generation: 3,
            },
            Operation::Restore { file_id: 42 },
            Operation::DeleteFile { file_id: u64::MAX },
            Operation::DeleteBackup { session_id: 7 },
            Operation::DeleteGeneration { generation: 0 },
            Operation::CollectGarbage,
            Operation::Stats,
        ]
    }

    #[test]
    fn request_round_trips_for_every_operation() {
        for (i, op) in sample_ops().into_iter().enumerate() {
            let req = RequestEnvelope::new(i as u64, "tenant-α", op)
                .with_token("s3cret")
                .with_metadata("trace", "xyz")
                .with_payload(vec![0xAB; 17]);
            let body = encode_request(&req).unwrap();
            assert_eq!(decode_request(&body).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trips_for_every_code() {
        for code in [
            ServiceCode::Ok,
            ServiceCode::InvalidRequest,
            ServiceCode::Unauthorized,
            ServiceCode::NotFound,
            ServiceCode::Conflict,
            ServiceCode::ResourceExhausted,
            ServiceCode::Internal,
            ServiceCode::Unavailable,
        ] {
            let resp = ResponseEnvelope {
                request_id: 9,
                code,
                message: "détail".into(),
                metadata: BTreeMap::from([("file_id".into(), "5".into())]),
                payload: vec![1, 2, 3],
            };
            let body = encode_response(&resp).unwrap();
            assert_eq!(decode_response(&body).unwrap(), resp);
        }
    }

    #[test]
    fn framing_round_trips_over_a_stream() {
        let req = RequestEnvelope::new(5, "t", Operation::Stats);
        let body = encode_request(&req).unwrap();
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        write_frame(&mut wire, &body).unwrap();
        let mut cursor = io::Cursor::new(wire);
        for _ in 0..2 {
            let got = read_frame(&mut cursor).unwrap();
            assert_eq!(decode_request(&got).unwrap(), req);
        }
        let eof = read_frame(&mut cursor).unwrap_err();
        assert!(is_clean_eof(&eof));

        // A body spanning several read steps arrives intact.
        let big: Vec<u8> = (0..3 * READ_STEP_BYTES + 7).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &big).unwrap();
        assert_eq!(read_frame(&mut io::Cursor::new(wire)).unwrap(), big);
    }

    #[test]
    fn declared_length_alone_allocates_at_most_one_step() {
        /// Yields a 64 MiB length prefix, then EOF; records the largest
        /// buffer `read_frame` asks it to fill.
        struct HeaderThenEof {
            header: io::Cursor<[u8; 4]>,
            largest_ask: usize,
        }
        impl Read for HeaderThenEof {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = self.header.read(buf)?;
                if n == 0 {
                    self.largest_ask = self.largest_ask.max(buf.len());
                }
                Ok(n)
            }
        }
        let mut reader = HeaderThenEof {
            header: io::Cursor::new(MAX_FRAME_BYTES.to_le_bytes()),
            largest_ask: 0,
        };
        let err = read_frame(&mut reader).unwrap_err();
        assert!(
            matches!(&err, CodecError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "{}",
            err
        );
        assert!(reader.largest_ask > 0, "the body read was attempted");
        assert!(reader.largest_ask <= READ_STEP_BYTES);
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(wire)).unwrap_err();
        assert!(matches!(err, CodecError::FrameTooLarge { .. }), "{}", err);
    }

    #[test]
    fn corruption_is_detected_not_misread() {
        let req = RequestEnvelope::new(1, "t", Operation::Restore { file_id: 8 });
        let good = encode_request(&req).unwrap();

        // Wrong kind byte.
        let mut bad = good.clone();
        bad[0] = 99;
        assert!(matches!(
            decode_request(&bad).unwrap_err(),
            CodecError::UnknownKind(99)
        ));

        // Response frame offered where a request is expected.
        let resp_body = encode_response(&ResponseEnvelope::ok(1)).unwrap();
        assert!(matches!(
            decode_request(&resp_body).unwrap_err(),
            CodecError::Malformed(_)
        ));

        // Future version.
        let mut bad = good.clone();
        bad[1] = WIRE_VERSION + 1;
        assert!(matches!(
            decode_request(&bad).unwrap_err(),
            CodecError::UnsupportedVersion(_)
        ));

        // Truncated body.
        let bad = &good[..good.len() - 1];
        assert!(matches!(
            decode_request(bad).unwrap_err(),
            CodecError::Malformed(_)
        ));

        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            decode_request(&bad).unwrap_err(),
            CodecError::Malformed(_)
        ));

        // Unknown status code.
        let mut bad = resp_body.clone();
        // request_id occupies bytes [2, 10); the code is the next two.
        bad[10] = 0xFF;
        bad[11] = 0xFF;
        assert!(matches!(
            decode_response(&bad).unwrap_err(),
            CodecError::UnknownCode(0xFFFF)
        ));
    }

    /// Derives an arbitrary (possibly multi-byte-UTF-8, possibly empty)
    /// string from raw bytes.
    fn string_from(bytes: &[u8]) -> String {
        bytes
            .iter()
            .map(|&b| match b % 4 {
                0 => 'α',
                1 => '\u{1F984}',
                _ => (b'a' + (b % 26)) as char,
            })
            .collect()
    }

    proptest! {
        #[test]
        fn prop_request_round_trip(
            request_id in any::<u64>(),
            tenant_raw in proptest::collection::vec(any::<u8>(), 0..32),
            op_idx in 0usize..7,
            name_raw in proptest::collection::vec(any::<u8>(), 0..64),
            num in any::<u64>(),
            meta_raw in proptest::collection::vec(any::<u8>(), 0..10),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let tenant = string_from(&tenant_raw);
            let file_name = string_from(&name_raw);
            let metadata: BTreeMap<String, String> = meta_raw
                .chunks(2)
                .map(|pair| (string_from(&pair[..1]), string_from(&pair[1..])))
                .collect();
            let operation = match op_idx {
                0 => Operation::Backup { file_name, generation: num },
                1 => Operation::Restore { file_id: num },
                2 => Operation::DeleteFile { file_id: num },
                3 => Operation::DeleteBackup { session_id: num },
                4 => Operation::DeleteGeneration { generation: num },
                5 => Operation::CollectGarbage,
                _ => Operation::Stats,
            };
            let req = RequestEnvelope { request_id, tenant, operation, metadata, payload };
            let body = encode_request(&req).unwrap();
            prop_assert_eq!(decode_request(&body).unwrap(), req);
        }

        #[test]
        fn prop_decode_never_panics_on_noise(noise in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_request(&noise);
            let _ = decode_response(&noise);
        }
    }
}
