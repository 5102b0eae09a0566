//! The DPRQ/DPRS framed wire protocol of the preservation service.
//!
//! Every message travels as one length-prefixed frame whose body is a
//! DPSL integrity seal (the same fnv64 envelope the tier files use, so
//! the fault campaign can attack service frames with the exact machinery
//! that attacks archives):
//!
//! ```text
//! frame    := frame_len:u32 sealed
//! sealed   := "DPSL" fnv64(body):u64 body
//! body     := request | response
//! request  := "DPRQ" version:u16 op:u8 kind:u8
//!             tenant_len:u16 tenant key_len:u16 key
//!             payload_len:u32 payload
//! response := "DPRS" version:u16 op:u8 status:u8
//!             detail_len:u16 detail payload_len:u32 payload
//! ```
//!
//! Decoding is defensive in the same way the tier codec is: every
//! declared length is checked against the bytes actually present before
//! anything is sliced (a 30-byte frame claiming a 10 MB payload errors
//! immediately, it does not allocate), frames are capped at
//! [`MAX_FRAME_BYTES`], and trailing garbage after a well-formed body is
//! an error. Because the body is sealed, any single-byte change to a
//! frame in flight surfaces as [`ProtoError::Seal`] — the "detected or
//! harmless" guarantee the `serve-frame` faultlab class asserts.
//!
//! **One digest pass per payload.** A frame's seal covers its payload,
//! and so do the digests the vault keeps of the same bytes. So the
//! server checks a request seal and computes the vault envelope digest
//! of the payload it stores in one multi-lane pass
//! ([`decode_request_folding`]), and seals a response whose payload
//! came out of the vault in the sweep that verified it
//! ([`ResponseHead`]). The body is parsed before its seal is checked,
//! because the parse finds where the payload starts; nothing in it is
//! acted on until the seal verified, and a body that fails to parse
//! reports a seal failure first, exactly like an unseal-then-parse
//! decode would.

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use daspos_tiers::codec::{self, fnv64_fold, fnv64_fold_many, CodecError, FNV_BASIS};
use daspos_vault::{validate_key, ObjectKind, PreparedEnvelope};

use crate::stream::{CHUNK_KIND, CHUNK_SEQ_BYTES};

/// Magic of a request body: "DASPOS Preservation ReQuest".
pub const REQUEST_MAGIC: &[u8; 4] = b"DPRQ";

/// Magic of a response body: "DASPOS Preservation ReSponse".
pub const RESPONSE_MAGIC: &[u8; 4] = b"DPRS";

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 1;

/// Hard cap on one sealed frame body (seal overhead included). Keeps a
/// hostile length prefix from pinning server memory.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Longest accepted tenant name.
pub const MAX_TENANT_LEN: usize = 64;

/// Largest chunk a streamed PUT/GET may carry in one frame: the frame
/// cap minus generous room for the request envelope and the seal.
pub const MAX_CHUNK_BYTES: usize = MAX_FRAME_BYTES - 4096;

/// Chunk size streamed transfers use when the caller does not choose.
pub const DEFAULT_CHUNK_BYTES: usize = 4 * 1024 * 1024;

/// The operations a client can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Store a payload under `tenant/key`.
    Put = 1,
    /// Fetch the payload stored under `tenant/key`.
    Get = 2,
    /// Integrity-check the object (no repair); payload echoes the report.
    Verify = 3,
    /// Scrub the whole vault (repairing); payload carries the report.
    Scrub = 4,
    /// Server statistics (object count, op counters) as text.
    Stat = 5,
    /// Ask the server to drain in-flight work and exit.
    Shutdown = 6,
    /// Open a streamed multi-frame PUT; the response detail carries the
    /// server-assigned stream id.
    PutBegin = 7,
    /// Append one chunk to an open put-stream (key = stream id).
    PutChunk = 8,
    /// Close an open put-stream: the server re-reads every staged chunk,
    /// folds the object digest and publishes the object atomically.
    PutCommit = 9,
    /// Abandon an open put-stream and reclaim its staged chunks.
    PutAbort = 10,
    /// Open a streamed GET: the response payload describes the object's
    /// chunking (total length, chunk size, chunk count, fnv64 digest).
    GetBegin = 11,
    /// Fetch one chunk of an object by sequence number.
    GetChunk = 12,
}

impl Op {
    /// All ops, in wire order.
    pub const ALL: [Op; 12] = [
        Op::Put,
        Op::Get,
        Op::Verify,
        Op::Scrub,
        Op::Stat,
        Op::Shutdown,
        Op::PutBegin,
        Op::PutChunk,
        Op::PutCommit,
        Op::PutAbort,
        Op::GetBegin,
        Op::GetChunk,
    ];

    /// The wire discriminant.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decode a wire discriminant.
    pub fn from_u8(v: u8) -> Option<Op> {
        Op::ALL.into_iter().find(|op| op.as_u8() == v)
    }

    /// Stable lowercase label used in counters (`serve.ops.put`, …) and
    /// loadgen reports.
    pub fn name(self) -> &'static str {
        match self {
            Op::Put => "put",
            Op::Get => "get",
            Op::Verify => "verify",
            Op::Scrub => "scrub",
            Op::Stat => "stat",
            Op::Shutdown => "shutdown",
            Op::PutBegin => "put-begin",
            Op::PutChunk => "put-chunk",
            Op::PutCommit => "put-commit",
            Op::PutAbort => "put-abort",
            Op::GetBegin => "get-begin",
            Op::GetChunk => "get-chunk",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The outcome carried by a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The operation succeeded; the payload (if any) is valid.
    Ok = 0,
    /// No object stored under the tenant/key.
    NotFound = 1,
    /// Copies exist but none passed integrity checks.
    Damaged = 2,
    /// The admission gate rejected the request; retry later.
    Overloaded = 3,
    /// The request was malformed (bad tenant, bad key, unknown op).
    BadRequest = 4,
    /// The server failed internally (storage fault after retries).
    ServerError = 5,
    /// A per-tenant quota (stored bytes, in-flight ops, or ops/sec)
    /// rejected the op. Unlike `Overloaded` this names *this* tenant's
    /// budget: other tenants are unaffected and an immediate retry will
    /// not help until the budget frees.
    QuotaExceeded = 6,
}

impl Status {
    /// All statuses, in wire order.
    pub const ALL: [Status; 7] = [
        Status::Ok,
        Status::NotFound,
        Status::Damaged,
        Status::Overloaded,
        Status::BadRequest,
        Status::ServerError,
        Status::QuotaExceeded,
    ];

    /// The wire discriminant.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decode a wire discriminant.
    pub fn from_u8(v: u8) -> Option<Status> {
        Status::ALL.into_iter().find(|s| s.as_u8() == v)
    }

    /// Stable lowercase label.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::NotFound => "not-found",
            Status::Damaged => "damaged",
            Status::Overloaded => "overloaded",
            Status::BadRequest => "bad-request",
            Status::ServerError => "server-error",
            Status::QuotaExceeded => "quota-exceeded",
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A protocol-level failure: the frame could not be trusted or parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The body ended before the declared structure was complete.
    Truncated,
    /// The body does not start with the expected DPRQ/DPRS magic.
    BadMagic,
    /// The frame speaks a protocol version this build does not.
    UnsupportedVersion {
        /// Version found in the frame.
        found: u16,
    },
    /// The op byte is not a known operation.
    UnknownOp(u8),
    /// The kind byte is not a known object kind.
    UnknownKind(u8),
    /// The status byte is not a known status.
    UnknownStatus(u8),
    /// The tenant name violates the tenant alphabet.
    BadTenant(String),
    /// The object key violates the storage-key alphabet (or the
    /// composed `tenant.key` would).
    BadKey(String),
    /// A declared length exceeds the frame cap.
    Oversized {
        /// Bytes the frame declared.
        declared: usize,
        /// The enforced cap.
        limit: usize,
    },
    /// Well-formed body followed by trailing garbage.
    TrailingBytes(usize),
    /// A tenant/key/detail field is not valid UTF-8.
    BadText,
    /// The DPSL seal around the body failed to verify.
    Seal(CodecError),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => f.write_str("frame truncated mid-structure"),
            ProtoError::BadMagic => f.write_str("bad frame magic (not a DPRQ/DPRS body)"),
            ProtoError::UnsupportedVersion { found } => write!(
                f,
                "unsupported protocol version {found} (this build speaks {PROTOCOL_VERSION})"
            ),
            ProtoError::UnknownOp(v) => write!(f, "unknown op byte {v:#04x}"),
            ProtoError::UnknownKind(v) => write!(f, "unknown object-kind byte {v:#04x}"),
            ProtoError::UnknownStatus(v) => write!(f, "unknown status byte {v:#04x}"),
            ProtoError::BadTenant(t) => write!(f, "invalid tenant name '{t}'"),
            ProtoError::BadKey(k) => write!(f, "invalid object key '{k}'"),
            ProtoError::Oversized { declared, limit } => {
                write!(f, "declared length {declared} exceeds frame cap {limit}")
            }
            ProtoError::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) after a complete body")
            }
            ProtoError::BadText => f.write_str("text field is not valid UTF-8"),
            ProtoError::Seal(e) => write!(f, "frame seal rejected: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// Stable short category name, the vocabulary the `serve-frame`
    /// fault class histograms detections under (mirrors
    /// `CodecError::category()` for the seal layer).
    pub fn category(&self) -> &'static str {
        match self {
            ProtoError::Truncated => "framing",
            ProtoError::BadMagic => "magic",
            ProtoError::UnsupportedVersion { .. } => "version",
            ProtoError::UnknownOp(_)
            | ProtoError::UnknownKind(_)
            | ProtoError::UnknownStatus(_)
            | ProtoError::BadTenant(_)
            | ProtoError::BadKey(_)
            | ProtoError::Oversized { .. }
            | ProtoError::TrailingBytes(_)
            | ProtoError::BadText => "structure",
            ProtoError::Seal(e) => e.category().name(),
        }
    }
}

/// Tenants are the namespace axis, so their alphabet is strictly
/// narrower than the storage-key alphabet: lowercase alphanumerics and
/// dashes only, 1–[`MAX_TENANT_LEN`] bytes, **no dots**. The composed
/// storage key is `{tenant}.{key}`; because a tenant can never contain a
/// dot, the first dot always splits the pair back unambiguously.
pub fn validate_tenant(tenant: &str) -> Result<(), ProtoError> {
    let ok = !tenant.is_empty()
        && tenant.len() <= MAX_TENANT_LEN
        && tenant
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(ProtoError::BadTenant(tenant.to_string()))
    }
}

/// Compose the backend storage key for a tenant's object, validating
/// both halves (and the composed key against the backend alphabet).
/// The `..` sequence is reserved: the streaming layer stores an
/// object's chunk records under `{tenant}.{key}..g<gen>.c<seq>`, so a
/// client-supplied key may never contain two consecutive dots.
pub fn storage_key(tenant: &str, key: &str) -> Result<String, ProtoError> {
    validate_tenant(tenant)?;
    if key.is_empty() || key.contains("..") {
        return Err(ProtoError::BadKey(key.to_string()));
    }
    let composed = format!("{tenant}.{key}");
    validate_key(&composed).map_err(|_| ProtoError::BadKey(key.to_string()))?;
    Ok(composed)
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The requested operation.
    pub op: Op,
    /// Object kind (meaningful for `Put`; `Opaque` elsewhere).
    pub kind: ObjectKind,
    /// The tenant namespace the op runs in.
    pub tenant: String,
    /// The object key within the tenant (empty for vault-wide ops).
    pub key: String,
    /// The payload (`Put` bytes; empty elsewhere).
    pub payload: Bytes,
}

impl Request {
    /// A payload-free request (get/verify/scrub/stat/shutdown).
    pub fn control(op: Op, tenant: &str, key: &str) -> Request {
        Request {
            op,
            kind: ObjectKind::Opaque,
            tenant: tenant.to_string(),
            key: key.to_string(),
            payload: Bytes::new(),
        }
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echo of the op this responds to.
    pub op: Op,
    /// The outcome.
    pub status: Status,
    /// Human-readable diagnostics (error reasons, report text).
    pub detail: String,
    /// The payload (`Get` bytes; empty or report text elsewhere).
    pub payload: Bytes,
}

impl Response {
    /// A payload-free response.
    pub fn status_only(op: Op, status: Status, detail: impl Into<String>) -> Response {
        Response {
            op,
            status,
            detail: detail.into(),
            payload: Bytes::new(),
        }
    }
}

fn need(buf: &Bytes, n: usize) -> Result<(), ProtoError> {
    if buf.remaining() < n {
        Err(ProtoError::Truncated)
    } else {
        Ok(())
    }
}

/// Read a length-prefixed field, clamping the declared length by the
/// bytes actually remaining *before* slicing — a forged length cannot
/// drive an allocation.
fn take(buf: &mut Bytes, declared: usize) -> Result<Bytes, ProtoError> {
    if declared > MAX_FRAME_BYTES {
        return Err(ProtoError::Oversized {
            declared,
            limit: MAX_FRAME_BYTES,
        });
    }
    need(buf, declared)?;
    Ok(buf.split_to(declared))
}

fn take_text(buf: &mut Bytes, declared: usize) -> Result<String, ProtoError> {
    let raw = take(buf, declared)?;
    String::from_utf8(raw.to_vec()).map_err(|_| ProtoError::BadText)
}

/// Bytes in front of a frame body: the u32 length prefix, then the
/// seal's magic and digest.
const FRAME_HEAD: usize = 4 + codec::SEAL_OVERHEAD;

/// Serialize and seal a request into one wire frame (length prefix
/// included).
pub fn encode_request(req: &Request) -> Bytes {
    encode_request_folding(req, 0, FNV_BASIS).0
}

/// [`encode_request`] that also folds the payload's last `tail` bytes
/// into the running fnv64 state `fold`, in the same digest pass that
/// seals the frame. Returns the frame and the advanced state.
pub fn encode_request_folding(req: &Request, tail: usize, fold: u64) -> (Bytes, u64) {
    assert!(
        tail <= req.payload.len(),
        "fold tail longer than the payload"
    );
    let mut frame = BytesMut::with_capacity(
        FRAME_HEAD + 16 + req.tenant.len() + req.key.len() + req.payload.len(),
    );
    frame.put_slice(&[0; FRAME_HEAD]);
    frame.put_slice(REQUEST_MAGIC);
    frame.put_u16_le(PROTOCOL_VERSION);
    frame.put_u8(req.op.as_u8());
    frame.put_u8(req.kind.as_u8());
    frame.put_u16_le(req.tenant.len() as u16);
    frame.put_slice(req.tenant.as_bytes());
    frame.put_u16_le(req.key.len() as u16);
    frame.put_slice(req.key.as_bytes());
    frame.put_u32_le(req.payload.len() as u32);
    frame.put_slice(&req.payload);
    seal_frame(frame, tail, fold)
}

/// Serialize and seal a response into one wire frame (length prefix
/// included).
pub fn encode_response(resp: &Response) -> Bytes {
    let mut frame = response_frame_head(
        resp.op,
        resp.status,
        &resp.detail,
        resp.payload.len(),
        resp.payload.len(),
    );
    frame.put_slice(&resp.payload);
    seal_frame(frame, 0, FNV_BASIS).0
}

/// A new response frame holding [`FRAME_HEAD`] placeholder bytes and
/// the body up to its payload, with room for `room` more bytes.
fn response_frame_head(
    op: Op,
    status: Status,
    detail: &str,
    payload_len: usize,
    room: usize,
) -> BytesMut {
    let mut frame = BytesMut::with_capacity(FRAME_HEAD + 16 + detail.len() + room);
    frame.put_slice(&[0; FRAME_HEAD]);
    frame.put_slice(RESPONSE_MAGIC);
    frame.put_u16_le(PROTOCOL_VERSION);
    frame.put_u8(op.as_u8());
    frame.put_u8(status.as_u8());
    frame.put_u16_le(detail.len() as u16);
    frame.put_slice(detail.as_bytes());
    frame.put_u32_le(payload_len as u32);
    frame
}

/// A response whose payload ends in a *tail* the server reads from the
/// vault: the part of the frame known before the read. Its seal starts
/// from [`seal_start`](ResponseHead::seal_start), the caller folds the
/// tail on from there inside the sweep that verifies the read
/// ([`Vault::get_folding`](daspos_vault::Vault::get_folding)), and
/// [`seal`](ResponseHead::seal) assembles the frame with that seal —
/// byte-identical to [`encode_response`] of the same response.
#[derive(Debug, Clone)]
pub struct ResponseHead {
    op: Op,
    status: Status,
    detail: String,
    /// Payload bytes in front of the tail (a `GetChunk`'s sequence
    /// number).
    lead: Vec<u8>,
}

impl ResponseHead {
    /// The head of a response whose payload is `lead` followed by a tail.
    pub fn new(op: Op, status: Status, detail: impl Into<String>, lead: &[u8]) -> ResponseHead {
        ResponseHead {
            op,
            status,
            detail: detail.into(),
            lead: lead.to_vec(),
        }
    }

    /// The frame up to the tail, with room for it.
    fn frame_head(&self, tail_len: usize) -> BytesMut {
        let payload_len = self.lead.len() + tail_len;
        let mut frame =
            response_frame_head(self.op, self.status, &self.detail, payload_len, payload_len);
        frame.put_slice(&self.lead);
        frame
    }

    /// The seal's fold over every body byte in front of a `tail_len`-byte
    /// tail: the state the tail's fold starts from.
    pub fn seal_start(&self, tail_len: usize) -> u64 {
        fnv64_fold(FNV_BASIS, &self.frame_head(tail_len)[FRAME_HEAD..])
    }

    /// Assemble the frame around `tail`, given its `seal`: the fold of
    /// `tail` from [`seal_start`](ResponseHead::seal_start)`(tail.len())`.
    /// Returns the response (its payload a window of the frame) and the
    /// frame.
    pub fn seal(self, tail: &[u8], seal: u64) -> (Response, Bytes) {
        let mut frame = self.frame_head(tail.len());
        frame.put_slice(tail);
        let payload_at = frame.len() - tail.len() - self.lead.len();
        let frame = write_seal(frame, seal);
        let response = Response {
            op: self.op,
            status: self.status,
            detail: self.detail,
            payload: frame.slice(payload_at..),
        };
        (response, frame)
    }
}

/// Fill in the length prefix and DPSL seal of a frame whose body follows
/// [`FRAME_HEAD`] placeholder bytes. The body's last `tail` bytes are
/// also folded into `fold` in the same two-lane digest pass; returns the
/// frame and the advanced fold.
fn seal_frame(frame: BytesMut, tail: usize, fold: u64) -> (Bytes, u64) {
    let (seal, fold) = seal_digest_folding(&frame[FRAME_HEAD..], tail, fold);
    (write_seal(frame, seal), fold)
}

/// Write the length prefix, the seal magic and `seal` into a frame's
/// [`FRAME_HEAD`] bytes.
fn write_seal(mut frame: BytesMut, seal: u64) -> Bytes {
    let sealed_len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&sealed_len.to_le_bytes());
    frame[4..8].copy_from_slice(codec::SEAL_MAGIC);
    frame[8..FRAME_HEAD].copy_from_slice(&seal.to_le_bytes());
    frame.freeze()
}

/// The seal digest of `body`, and `fold` advanced over the body's last
/// `tail` bytes: one serial pass over the rest of the body, then one
/// two-lane pass over the tail.
fn seal_digest_folding(body: &[u8], tail: usize, fold: u64) -> (u64, u64) {
    let (head, tail) = body.split_at(body.len() - tail);
    let mut lanes = [(fnv64_fold(FNV_BASIS, head), tail), (fold, tail)];
    fnv64_fold_many(&mut lanes);
    (lanes[0].0, lanes[1].0)
}

/// Reject a sealed frame body over the frame cap.
fn check_frame_cap(sealed: &Bytes) -> Result<(), ProtoError> {
    if sealed.len() > MAX_FRAME_BYTES {
        return Err(ProtoError::Oversized {
            declared: sealed.len(),
            limit: MAX_FRAME_BYTES,
        });
    }
    Ok(())
}

fn decode_prologue(
    body: &mut Bytes,
    magic: &[u8; 4],
) -> Result<(u8, u8), ProtoError> {
    need(body, 8)?;
    let got = body.split_to(4);
    if got.as_slice() != magic {
        return Err(ProtoError::BadMagic);
    }
    let version = body.get_u16_le();
    if version != PROTOCOL_VERSION {
        return Err(ProtoError::UnsupportedVersion { found: version });
    }
    Ok((body.get_u8(), body.get_u8()))
}

/// Parse a sealed request frame body. Validates the seal, the structure,
/// the tenant/key alphabets, and that nothing trails the body.
pub fn decode_request(sealed: &Bytes) -> Result<Request, ProtoError> {
    decode_request_folding(sealed).map(|decoded| decoded.request)
}

/// A request, and the vault envelope of the bytes it asks the server to
/// store, digested in the pass that checked the frame seal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedRequest {
    /// The request.
    pub request: Request,
    /// The stored bytes of a `Put` (its payload, under the request's
    /// kind) or a `PutChunk` (the chunk data after the sequence number,
    /// as a [`CHUNK_KIND`] object). `None` for every other op, and for a
    /// `PutChunk` payload too short to hold a sequence number.
    pub envelope: Option<PreparedEnvelope>,
}

/// The bytes of `req` the vault stores as one object, and their kind —
/// always the payload's tail, so the body's tail too.
fn stored_part(req: &Request) -> Option<(ObjectKind, Bytes)> {
    match req.op {
        Op::Put => Some((req.kind, req.payload.clone())),
        Op::PutChunk if req.payload.len() >= CHUNK_SEQ_BYTES => {
            Some((CHUNK_KIND, req.payload.slice(CHUNK_SEQ_BYTES..)))
        }
        _ => None,
    }
}

/// [`decode_request`] that also prepares the vault envelope of the bytes
/// a `Put` or `PutChunk` stores: the seal and the envelope digest are
/// computed in one two-lane pass over those bytes. The result equals
/// [`decode_request`]'s, errors and their precedence included: a body
/// that fails to parse has its seal checked on its own first, so a
/// damaged frame reports as a seal failure.
pub fn decode_request_folding(sealed: &Bytes) -> Result<DecodedRequest, ProtoError> {
    let (stored, body, request) = parse_sealed(sealed, parse_request)?;
    let (actual, envelope) = match stored_part(&request) {
        Some((kind, part)) => {
            let head = fnv64_fold(FNV_BASIS, &body[..body.len() - part.len()]);
            let mut seal = [(head, &part[..])];
            let envelope = PreparedEnvelope::folding(kind, part.clone(), &mut seal);
            (seal[0].0, Some(envelope))
        }
        None => (fnv64_fold(FNV_BASIS, &body), None),
    };
    check_seal(stored, actual)?;
    Ok(DecodedRequest { request, envelope })
}

/// Split a sealed frame body and parse it before its seal is checked.
/// Returns the stored seal, the body and the parsed value. A body that
/// fails to parse has its seal checked on its own first, so a damaged
/// frame reports as a seal failure, as an unseal-then-parse decode does.
fn parse_sealed<T>(
    sealed: &Bytes,
    parse: impl FnOnce(Bytes) -> Result<T, ProtoError>,
) -> Result<(u64, Bytes, T), ProtoError> {
    check_frame_cap(sealed)?;
    let (stored, body) = codec::split_seal(sealed).map_err(ProtoError::Seal)?;
    match parse(body.clone()) {
        Ok(parsed) => Ok((stored, body, parsed)),
        Err(e) => {
            check_seal(stored, fnv64_fold(FNV_BASIS, &body))?;
            Err(e)
        }
    }
}

/// Compare a recomputed seal digest with the stored one.
fn check_seal(stored: u64, actual: u64) -> Result<(), ProtoError> {
    if actual == stored {
        Ok(())
    } else {
        Err(ProtoError::Seal(CodecError::SealMismatch { stored, actual }))
    }
}

/// Parse an unsealed request body.
fn parse_request(mut body: Bytes) -> Result<Request, ProtoError> {
    let (op_byte, kind_byte) = decode_prologue(&mut body, REQUEST_MAGIC)?;
    let op = Op::from_u8(op_byte).ok_or(ProtoError::UnknownOp(op_byte))?;
    let kind = ObjectKind::from_u8(kind_byte).ok_or(ProtoError::UnknownKind(kind_byte))?;
    need(&body, 2)?;
    let tenant_len = body.get_u16_le() as usize;
    let tenant = take_text(&mut body, tenant_len)?;
    need(&body, 2)?;
    let key_len = body.get_u16_le() as usize;
    let key = take_text(&mut body, key_len)?;
    need(&body, 4)?;
    let payload_len = body.get_u32_le() as usize;
    let payload = take(&mut body, payload_len)?;
    if !body.is_empty() {
        return Err(ProtoError::TrailingBytes(body.len()));
    }
    validate_tenant(&tenant)?;
    if op != Op::Shutdown && op != Op::Stat && op != Op::Scrub {
        // Keyed ops must name a storable object.
        storage_key(&tenant, &key)?;
    }
    Ok(Request {
        op,
        kind,
        tenant,
        key,
        payload,
    })
}

/// Parse a sealed response frame body.
pub fn decode_response(sealed: &Bytes) -> Result<Response, ProtoError> {
    decode_response_folding(sealed, usize::MAX, FNV_BASIS).map(|(resp, _)| resp)
}

/// [`decode_response`] that also folds the response payload, past its
/// first `skip` bytes, into the running fnv64 state `fold` in the same
/// digest pass that checks the seal (a `skip` at or past the payload's
/// end folds nothing). Returns the response and the advanced state.
///
/// Like [`decode_request_folding`], the body is parsed before its seal
/// is checked; every declared length is still checked against the bytes
/// present, and a body that fails to parse has its seal checked on its
/// own first, so a damaged frame reports as a seal failure.
pub fn decode_response_folding(
    sealed: &Bytes,
    skip: usize,
    fold: u64,
) -> Result<(Response, u64), ProtoError> {
    let (stored, body, resp) = parse_sealed(sealed, parse_response)?;
    // The payload is the body's last field, so its folded part is the
    // body's tail.
    let tail = resp.payload.len().saturating_sub(skip);
    let (actual, fold) = seal_digest_folding(&body, tail, fold);
    check_seal(stored, actual)?;
    Ok((resp, fold))
}

/// Parse an unsealed response body.
fn parse_response(mut body: Bytes) -> Result<Response, ProtoError> {
    let (op_byte, status_byte) = decode_prologue(&mut body, RESPONSE_MAGIC)?;
    let op = Op::from_u8(op_byte).ok_or(ProtoError::UnknownOp(op_byte))?;
    let status = Status::from_u8(status_byte).ok_or(ProtoError::UnknownStatus(status_byte))?;
    need(&body, 2)?;
    let detail_len = body.get_u16_le() as usize;
    let detail = take_text(&mut body, detail_len)?;
    need(&body, 4)?;
    let payload_len = body.get_u32_le() as usize;
    let payload = take(&mut body, payload_len)?;
    if !body.is_empty() {
        return Err(ProtoError::TrailingBytes(body.len()));
    }
    Ok(Response {
        op,
        status,
        detail,
        payload,
    })
}

/// Split one wire frame into its sealed body, checking the length prefix
/// against the cap and the bytes present. Returns the sealed body and
/// the total frame size consumed. Used by tests and the fault class; the
/// live server reads the prefix straight off the socket.
pub fn split_frame(wire: &Bytes) -> Result<(Bytes, usize), ProtoError> {
    let mut b = wire.clone();
    need(&b, 4)?;
    let declared = b.get_u32_le() as usize;
    if declared > MAX_FRAME_BYTES {
        return Err(ProtoError::Oversized {
            declared,
            limit: MAX_FRAME_BYTES,
        });
    }
    need(&b, declared)?;
    Ok((b.split_to(declared), 4 + declared))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            op: Op::Put,
            kind: ObjectKind::SealedTier,
            tenant: "cms-higgs".to_string(),
            key: "aod-0001.dpef".to_string(),
            payload: Bytes::from_static(b"sealed tier bytes"),
        }
    }

    #[test]
    fn request_round_trips() {
        let req = sample_request();
        let wire = encode_request(&req);
        let (sealed, used) = split_frame(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(decode_request(&sealed).unwrap(), req);
    }

    #[test]
    fn response_round_trips() {
        let resp = Response {
            op: Op::Get,
            status: Status::Ok,
            detail: "kind=sealed-tier".to_string(),
            payload: Bytes::from_static(b"object bytes"),
        };
        let wire = encode_response(&resp);
        let (sealed, _) = split_frame(&wire).unwrap();
        assert_eq!(decode_response(&sealed).unwrap(), resp);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let wire = encode_request(&sample_request());
        let (sealed, _) = split_frame(&wire).unwrap();
        for i in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.to_vec();
                bad[i] ^= 1 << bit;
                assert!(
                    decode_request(&Bytes::from(bad)).is_err(),
                    "flip bit {bit} of byte {i} must not decode"
                );
            }
        }
    }

    #[test]
    fn truncations_are_detected() {
        let wire = encode_request(&sample_request());
        let (sealed, _) = split_frame(&wire).unwrap();
        for cut in 0..sealed.len() {
            let bad = sealed.slice(0..cut);
            assert!(decode_request(&bad).is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn forged_lengths_do_not_allocate_or_decode() {
        // Re-seal a body whose payload length claims 10 MB on a tiny
        // frame: the seal verifies (we forged it honestly) so the parser
        // itself must catch the lie.
        let mut body = BytesMut::new();
        body.put_slice(REQUEST_MAGIC);
        body.put_u16_le(PROTOCOL_VERSION);
        body.put_u8(Op::Put.as_u8());
        body.put_u8(0);
        body.put_u16_le(1);
        body.put_slice(b"t");
        body.put_u16_le(1);
        body.put_slice(b"k");
        body.put_u32_le(10_000_000);
        body.put_slice(b"tiny");
        let sealed = codec::seal(&body.freeze());
        assert_eq!(
            decode_request(&sealed),
            Err(ProtoError::Truncated),
            "declared 10MB on 4 bytes must error, not allocate"
        );
    }

    #[test]
    fn oversized_frame_prefix_is_rejected() {
        let mut wire = BytesMut::new();
        wire.put_u32_le((MAX_FRAME_BYTES + 1) as u32);
        let err = split_frame(&wire.freeze()).unwrap_err();
        assert!(matches!(err, ProtoError::Oversized { .. }));
    }

    #[test]
    fn tenant_alphabet_is_enforced() {
        for good in ["cms", "atlas-run2", "t0", "a-b-c-9"] {
            validate_tenant(good).unwrap();
        }
        for bad in ["", "CMS", "with.dot", "under_score", "sp ace", &"x".repeat(65)] {
            assert!(validate_tenant(bad).is_err(), "tenant {bad:?} must fail");
        }
    }

    #[test]
    fn storage_key_composes_and_splits_unambiguously() {
        assert_eq!(storage_key("cms", "aod.dpef").unwrap(), "cms.aod.dpef");
        // A tenant can never contain a dot, so the first dot always
        // recovers the tenant.
        let composed = storage_key("atlas-run2", "x.y.z").unwrap();
        let (tenant, key) = composed.split_once('.').unwrap();
        assert_eq!((tenant, key), ("atlas-run2", "x.y.z"));
        assert!(storage_key("cms", "").is_err());
        assert!(storage_key("cms", "bad/slash").is_err());
        assert!(storage_key("", "k").is_err());
    }

    #[test]
    fn double_dot_keys_are_reserved_for_the_streaming_layer() {
        assert!(storage_key("cms", "a..b").is_err());
        assert!(storage_key("cms", "a..g1.c0").is_err());
        assert!(storage_key("cms", "..x").is_err());
        // A single interior dot stays legal.
        storage_key("cms", "a.b").unwrap();
    }

    #[test]
    fn stream_ops_round_trip_and_carry_distinct_discriminants() {
        let mut seen = std::collections::BTreeSet::new();
        for op in Op::ALL {
            assert!(seen.insert(op.as_u8()), "duplicate discriminant for {op}");
            assert_eq!(Op::from_u8(op.as_u8()), Some(op));
            let req = Request {
                op,
                kind: ObjectKind::Opaque,
                tenant: "cms".to_string(),
                key: "42".to_string(),
                payload: Bytes::from_static(b"\x01\x00\x00\x00chunk"),
            };
            let wire = encode_request(&req);
            let (sealed, _) = split_frame(&wire).unwrap();
            assert_eq!(decode_request(&sealed).unwrap(), req);
        }
        assert_eq!(Op::ALL.len(), 12);
        assert_eq!(Status::ALL.len(), 7);
        assert_eq!(Status::from_u8(6), Some(Status::QuotaExceeded));
        assert_eq!(Status::QuotaExceeded.name(), "quota-exceeded");
    }

    #[test]
    fn wrong_version_and_unknown_bytes_are_typed() {
        let mut body = BytesMut::new();
        body.put_slice(REQUEST_MAGIC);
        body.put_u16_le(99);
        body.put_u8(1);
        body.put_u8(0);
        let sealed = codec::seal(&body.freeze());
        assert_eq!(
            decode_request(&sealed),
            Err(ProtoError::UnsupportedVersion { found: 99 })
        );

        let mut req = sample_request();
        req.op = Op::Put;
        let wire = encode_request(&req);
        let (sealed, _) = split_frame(&wire).unwrap();
        // Rebuild with an unknown op byte, sealed honestly.
        let mut body = codec::unseal(&sealed).unwrap().to_vec();
        body[6] = 0xEE;
        let resealed = codec::seal(&Bytes::from(body));
        assert_eq!(
            decode_request(&resealed),
            Err(ProtoError::UnknownOp(0xEE))
        );
    }

    /// The unfused decode: unseal, then parse.
    fn unseal_then_parse(sealed: &Bytes) -> Result<Request, ProtoError> {
        check_frame_cap(sealed)?;
        parse_request(codec::unseal(sealed).map_err(ProtoError::Seal)?)
    }

    /// The part of a request the vault stores, cut by hand.
    fn expected_envelope(req: &Request) -> Option<(ObjectKind, u64, Bytes)> {
        let (kind, part) = match req.op {
            Op::Put => (req.kind, req.payload.clone()),
            Op::PutChunk if req.payload.len() >= 4 => (ObjectKind::Opaque, req.payload.slice(4..)),
            _ => return None,
        };
        Some((kind, daspos_vault::envelope_digest(kind, &part), part))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        // Property: on intact, truncated, bit-flipped and honestly
        // resealed damaged frames, the fused decode returns exactly what
        // unseal-then-parse returns — the same request or the same error
        // text — and for a PUT or PUT-chunk the envelope digest of the
        // bytes it stores.
        #[test]
        fn folding_decode_equals_unseal_then_parse(
            op in 0usize..12,
            kind in 0u8..6,
            names_at in 0usize..4,
            payload in proptest::prop::collection::vec(proptest::prelude::any::<u8>(), 0..48),
            damage in 0usize..4,
            at in proptest::prelude::any::<u64>(),
            bit in 0u32..8,
        ) {
            let names = [("cms", "aod.dpef"), ("cms", "7"), ("CMS", "k"), ("lhcb", "a..b")];
            let (tenant, key) = names[names_at];
            let req = Request {
                op: Op::ALL[op],
                kind: ObjectKind::from_u8(kind).unwrap(),
                tenant: tenant.to_string(),
                key: key.to_string(),
                payload: Bytes::from(payload),
            };
            let (sealed, _) = split_frame(&encode_request(&req)).unwrap();
            let at = (at % sealed.len() as u64) as usize;
            let mut bytes = sealed.to_vec();
            let sealed = match damage {
                0 => sealed,
                1 => sealed.slice(..at),
                2 => {
                    bytes[at] ^= 1 << bit;
                    Bytes::from(bytes)
                }
                _ => {
                    // Damage the body past the seal, then seal it honestly:
                    // only the parser can object.
                    let body_at = codec::SEAL_OVERHEAD + at % (bytes.len() - codec::SEAL_OVERHEAD);
                    bytes[body_at] ^= 1 << bit;
                    codec::seal(&Bytes::copy_from_slice(&bytes[codec::SEAL_OVERHEAD..]))
                }
            };
            let expected = unseal_then_parse(&sealed);
            let fused = decode_request_folding(&sealed);
            proptest::prop_assert_eq!(decode_request(&sealed), expected.clone());
            match (&fused, &expected) {
                (Ok(decoded), Ok(request)) => {
                    proptest::prop_assert_eq!(&decoded.request, request);
                    let envelope = decoded
                        .envelope
                        .as_ref()
                        .map(|e| (e.kind(), e.digest(), e.payload().clone()));
                    proptest::prop_assert_eq!(envelope, expected_envelope(request));
                }
                (Err(got), Err(want)) => {
                    proptest::prop_assert_eq!(got, want);
                    proptest::prop_assert_eq!(got.to_string(), want.to_string());
                }
                _ => proptest::prop_assert!(false, "fused {fused:?} vs unfused {expected:?}"),
            }
        }
    }

    #[test]
    fn response_heads_seal_byte_identically_to_encode_response() {
        for (lead, tail) in [
            (&b""[..], &b""[..]),
            (b"\x05\x00\x00\x00", b"chunk bytes"),
            (b"", b"x"),
        ] {
            let head = ResponseHead::new(Op::GetChunk, Status::Ok, "sealed-tier", lead);
            let seal = fnv64_fold(head.seal_start(tail.len()), tail);
            let (response, frame) = head.seal(tail, seal);
            let mut payload = lead.to_vec();
            payload.extend_from_slice(tail);
            let expected = Response {
                op: Op::GetChunk,
                status: Status::Ok,
                detail: "sealed-tier".to_string(),
                payload: Bytes::from(payload),
            };
            assert_eq!(response, expected);
            assert_eq!(frame, encode_response(&expected));
        }
    }

    #[test]
    fn categories_cover_the_failure_taxonomy() {
        assert_eq!(ProtoError::Truncated.category(), "framing");
        assert_eq!(ProtoError::BadMagic.category(), "magic");
        assert_eq!(
            ProtoError::UnsupportedVersion { found: 9 }.category(),
            "version"
        );
        assert_eq!(ProtoError::UnknownOp(7).category(), "structure");
        assert_eq!(
            ProtoError::Seal(CodecError::SealMismatch {
                stored: 1,
                actual: 2
            })
            .category(),
            "integrity"
        );
    }
}
