//! The wire codec of the distributed back-end: how a [`crate::Message`]
//! becomes bytes on a socket and comes back out intact.
//!
//! Two formats share the socket (the normative byte-level reference is
//! `PROTOCOL.md` at the repo root; this comment is the summary):
//!
//! * **v1 + JSON** — 4-byte big-endian length prefix + JSON payload:
//!   every handshake and the whole `ugd` client protocol. JSON keeps
//!   those frames human-debuggable with `tcpdump`/`nc` and reuses the
//!   exact serde path the checkpoint files already exercise —
//!   including the non-finite-float extension, which matters because
//!   every root subproblem ships with a `-Infinity` dual bound.
//! * **v2 + binary** — what every worker connection (per-call session
//!   or pool) speaks after its handshake. The length prefix is
//!   followed by a [`FrameHeader`]: a header CRC32, a sequence number,
//!   a cumulative ack, and a payload CRC32. The two CRCs make any
//!   single flipped bit anywhere in the frame (length prefix included)
//!   surface as [`WireError::Corrupt`] instead of desynchronizing the
//!   stream, and the seq/ack pair is what lets [`crate::process`]
//!   replay un-acked frames and suppress duplicates across a reconnect.
//!   An empty payload is a heartbeat or ack carrier. The payload is the
//!   compact binary encoding of the serde `Value` tree
//!   ([`to_payload_binary`]): a [`BINARY_MAGIC`] byte, then
//!   tag-prefixed nodes with zigzag-varint integers, fixed-width
//!   little-endian doubles, varint-length strings and interned object
//!   keys. Decoding auto-detects the payload codec (the magic byte can
//!   never start a JSON document).
//!
//! The decoder is incremental: bytes arrive in arbitrary chunks (TCP
//! guarantees order, not boundaries) and are buffered until a whole
//! frame is available.
//!
//! A job's instance rides inside those payloads as an
//! [`EncodedInstance`]: its binary payload behind a CRC32, as one
//! base64 string, encoded by the client and decoded by the worker
//! only.

use bytes::{Bytes, BytesMut};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io::{Read, Write};

/// Refuse frames larger than this (a corrupt or malicious length prefix
/// would otherwise make the receiver try to buffer gigabytes).
pub const MAX_FRAME_LEN: usize = 256 * 1024 * 1024;

/// Bytes between the length prefix and the payload in a v2 frame:
/// header CRC (4) + seq (8) + ack (8) + payload CRC (4).
pub const V2_HEADER_LEN: usize = 24;

/// A decode-side failure, structured so transport policy can tell
/// retryable faults from protocol bugs: everything except [`Codec`]
/// is survivable by dropping the connection and reconnecting, while a
/// `Codec` error means a CRC-clean frame carried unparseable JSON —
/// the peer speaks a different protocol and retrying cannot help.
///
/// [`Codec`]: WireError::Codec
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// An I/O-level fault wrapped into the wire domain (used when
    /// classifying transport errors; the codec itself never does I/O).
    Io(String),
    /// A CRC32 mismatch: the bytes on the wire are not the bytes that
    /// were sent. Retryable — a reconnect re-syncs the stream.
    Corrupt(String),
    /// A (CRC-valid) length prefix beyond [`MAX_FRAME_LEN`].
    TooLarge {
        /// The offending frame length.
        len: usize,
    },
    /// The payload passed its CRC but failed to deserialize: a
    /// protocol bug, not line noise. Fatal — never retried.
    Codec(String),
}

impl WireError {
    /// True when reconnecting may fix it (everything but [`WireError::Codec`]).
    pub fn is_retryable(&self) -> bool {
        !matches!(self, WireError::Codec(_))
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(m) => write!(f, "wire i/o error: {m}"),
            WireError::Corrupt(m) => write!(f, "wire corruption: {m}"),
            WireError::TooLarge { len } => {
                write!(f, "wire frame length {len} exceeds {MAX_FRAME_LEN}")
            }
            WireError::Codec(m) => write!(f, "wire codec error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Classifies an I/O error from a read/write loop for reconnect
/// policy: `true` only for a [`WireError::Codec`] buried inside —
/// plain socket errors, EOFs and CRC faults are all retryable.
pub fn io_error_is_fatal(e: &std::io::Error) -> bool {
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<WireError>())
        .is_some_and(|w| !w.is_retryable())
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) — hand-rolled so the
// wire stays dependency-free.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC32 (IEEE) of one buffer.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_parts(&[data])
}

/// CRC32 (IEEE) over the concatenation of `parts`.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for p in parts {
        crc = crc32_update(crc, p);
    }
    crc ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// The per-frame header of the v2 format: sequence number of this
/// frame and cumulative ack of the peer's frames ("I have received
/// everything below `ack`"). The two CRCs are computed and verified
/// by the codec and never surface here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameHeader {
    /// Sender-assigned, strictly increasing per connection *session*
    /// (it survives reconnects, which is what makes replayed frames
    /// recognizable as duplicates).
    pub seq: u64,
    /// The sender has received every peer frame with `seq < ack`.
    pub ack: u64,
}

fn count_tx(bytes: usize) {
    let w = crate::telemetry::wire();
    w.tx_frames.inc();
    w.tx_bytes.add(bytes as u64);
}

/// Wraps an already-serialized payload in a v1 frame (length prefix
/// only). Counts the frame in the process-wide tx wire telemetry.
pub fn frame_v1(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(4 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    framed.extend_from_slice(payload);
    count_tx(framed.len());
    framed
}

/// Wraps an already-serialized payload in a v2 frame: length prefix,
/// header CRC, seq, ack, payload CRC, payload. Counts tx telemetry.
pub fn frame_v2(payload: &[u8], header: FrameHeader) -> Vec<u8> {
    let len = ((V2_HEADER_LEN + payload.len()) as u32).to_be_bytes();
    let seq = header.seq.to_be_bytes();
    let ack = header.ack.to_be_bytes();
    let pcrc = crc32(payload).to_be_bytes();
    let hcrc = crc32_parts(&[&len, &seq, &ack, &pcrc]).to_be_bytes();
    let mut framed = Vec::with_capacity(4 + V2_HEADER_LEN + payload.len());
    framed.extend_from_slice(&len);
    framed.extend_from_slice(&hcrc);
    framed.extend_from_slice(&seq);
    framed.extend_from_slice(&ack);
    framed.extend_from_slice(&pcrc);
    framed.extend_from_slice(payload);
    count_tx(framed.len());
    framed
}

/// Sentinel sequence number of unsequenced frames (heartbeats and ack
/// carriers): not ringed, not replayed, exempt from duplicate
/// suppression, and they never advance the receiver's expected
/// sequence number.
pub const UNSEQ: u64 = u64::MAX;

/// Serializes `msg` to its JSON payload bytes (no framing, no
/// telemetry) — what retransmit rings store, so a replay re-frames
/// the identical payload under a fresh header.
pub fn to_payload<T: Serialize>(msg: &T) -> Vec<u8> {
    serde_json::to_vec(msg).expect("wire messages must serialize")
}

// ---------------------------------------------------------------------
// Binary payload codec: a compact encoding of the serde Value tree
// ---------------------------------------------------------------------

/// First byte of every binary payload. JSON text can never start with
/// this byte (payloads from [`to_payload`] begin with an ASCII token),
/// so [`decode`] distinguishes the two codecs without any out-of-band
/// state.
pub const BINARY_MAGIC: u8 = 0xB3;

/// Which payload encoding a sender uses inside a frame. Orthogonal to
/// the *frame* format (v1/v2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Codec {
    /// JSON text (handshakes and the client protocol).
    #[default]
    Json,
    /// The magic-prefixed binary Value encoding (worker connections).
    Binary,
}

/// Serializes `msg` under a payload codec chosen by value — what the
/// benchmark's JSON-vs-binary kernels call; the transports call
/// [`to_payload`] or [`to_payload_binary`] directly.
pub fn to_payload_codec<T: Serialize>(msg: &T, codec: Codec) -> Vec<u8> {
    match codec {
        Codec::Json => to_payload(msg),
        Codec::Binary => to_payload_binary(msg),
    }
}

/// Serializes `msg` to the magic-prefixed binary payload encoding.
pub fn to_payload_binary<T: Serialize>(msg: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(BINARY_MAGIC);
    binval::encode(&msg.to_value(), &mut out);
    out
}

/// The binary Value codec behind [`BINARY_MAGIC`]: one tag byte per
/// node, LEB128 varints for lengths/counts, zigzag varints for
/// integers and integral doubles, 8-byte little-endian doubles for
/// the rest (non-finite values survive bit-exactly, unlike any text
/// rendering), and object keys interned into a per-payload dictionary
/// so repeated struct fields cost one varint after their first
/// occurrence. The decoder is hardened
/// against arbitrary (CRC-clean but hostile) bytes: bounded varints,
/// length/count checks against the remaining input, a recursion-depth
/// cap, UTF-8 validation, and a trailing-garbage check — malformed
/// input is always a structured error, never a panic or an
/// out-of-memory allocation.
mod binval {
    use serde::Value;
    use std::collections::HashMap;

    /// Node tags. Object entry keys are *not* tagged: each key is a
    /// varint `k` where `k == 0` introduces a new string (varint
    /// length + bytes, appended to the dictionary) and `k > 0` refers
    /// to dictionary entry `k - 1`.
    const T_NULL: u8 = 0x00;
    const T_FALSE: u8 = 0x01;
    const T_TRUE: u8 = 0x02;
    const T_INT: u8 = 0x03;
    const T_FLOAT: u8 = 0x04;
    const T_STR: u8 = 0x05;
    const T_ARRAY: u8 = 0x06;
    const T_OBJECT: u8 = 0x07;
    /// A float whose value is an exactly-representable integer, stored
    /// as a zigzag varint instead of 8 fixed bytes. Integral doubles
    /// dominate real traffic (unit edge costs, integral bounds, node
    /// counts in stats), and JSON renders them in 3-4 bytes — without
    /// this tag the binary codec would *lose* to JSON on unit-cost
    /// instances. The decoder computes `i as f64`; the encoder only
    /// emits the tag when that cast reproduces the original bit
    /// pattern, so the round trip is bit-exact by construction (-0.0,
    /// NaN and out-of-range values fall back to [`T_FLOAT`]).
    const T_FLOAT_INT: u8 = 0x08;

    /// Nesting deeper than this is rejected: every real protocol or
    /// checkpoint value is a few levels deep, and the cap is what
    /// keeps a hostile `[[[[…]]]]` payload from overflowing the stack.
    const MAX_DEPTH: usize = 128;

    fn put_varint(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    fn zigzag(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
    }

    fn unzigzag(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

    /// Appends the encoding of `v` to `out`.
    pub fn encode(v: &Value, out: &mut Vec<u8>) {
        let mut dict: HashMap<&str, u64> = HashMap::new();
        enc(v, out, &mut dict);
    }

    fn enc<'a>(v: &'a Value, out: &mut Vec<u8>, dict: &mut HashMap<&'a str, u64>) {
        match v {
            Value::Null => out.push(T_NULL),
            Value::Bool(false) => out.push(T_FALSE),
            Value::Bool(true) => out.push(T_TRUE),
            Value::Int(i) => {
                out.push(T_INT);
                put_varint(out, zigzag(*i));
            }
            Value::Float(f) => {
                let i = *f as i64;
                if (i as f64).to_bits() == f.to_bits() {
                    out.push(T_FLOAT_INT);
                    put_varint(out, zigzag(i));
                } else {
                    out.push(T_FLOAT);
                    out.extend_from_slice(&f.to_le_bytes());
                }
            }
            Value::Str(s) => {
                out.push(T_STR);
                put_varint(out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
            Value::Array(items) => {
                out.push(T_ARRAY);
                put_varint(out, items.len() as u64);
                for item in items {
                    enc(item, out, dict);
                }
            }
            Value::Object(entries) => {
                out.push(T_OBJECT);
                put_varint(out, entries.len() as u64);
                for (key, val) in entries {
                    match dict.get(key.as_str()) {
                        Some(&idx) => put_varint(out, idx + 1),
                        None => {
                            put_varint(out, 0);
                            put_varint(out, key.len() as u64);
                            out.extend_from_slice(key.as_bytes());
                            let idx = dict.len() as u64;
                            dict.insert(key.as_str(), idx);
                        }
                    }
                    enc(val, out, dict);
                }
            }
        }
    }

    struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        fn u8(&mut self) -> Result<u8, String> {
            let b = *self.buf.get(self.pos).ok_or("truncated binary payload")?;
            self.pos += 1;
            Ok(b)
        }

        fn varint(&mut self) -> Result<u64, String> {
            let mut v = 0u64;
            let mut shift = 0u32;
            loop {
                let byte = self.u8()?;
                if shift == 63 && byte > 1 {
                    return Err("varint overflows u64".into());
                }
                v |= u64::from(byte & 0x7F) << shift;
                if byte & 0x80 == 0 {
                    return Ok(v);
                }
                shift += 7;
                if shift > 63 {
                    return Err("varint longer than 10 bytes".into());
                }
            }
        }

        fn bytes(&mut self, len: usize) -> Result<&'a [u8], String> {
            if len > self.remaining() {
                return Err(format!("length {len} exceeds remaining {}", self.remaining()));
            }
            let out = &self.buf[self.pos..self.pos + len];
            self.pos += len;
            Ok(out)
        }

        fn string(&mut self) -> Result<String, String> {
            let len = self.varint()? as usize;
            let bytes = self.bytes(len)?;
            String::from_utf8(bytes.to_vec()).map_err(|_| "invalid utf-8 in string".into())
        }
    }

    /// Decodes one value; the whole input must be consumed.
    pub fn decode(buf: &[u8]) -> Result<Value, String> {
        let mut r = Reader { buf, pos: 0 };
        let mut dict = Vec::new();
        let v = dec(&mut r, &mut dict, 0)?;
        if r.remaining() != 0 {
            return Err(format!("{} trailing bytes after value", r.remaining()));
        }
        Ok(v)
    }

    fn dec(r: &mut Reader<'_>, dict: &mut Vec<String>, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match r.u8()? {
            T_NULL => Ok(Value::Null),
            T_FALSE => Ok(Value::Bool(false)),
            T_TRUE => Ok(Value::Bool(true)),
            T_INT => Ok(Value::Int(unzigzag(r.varint()?))),
            T_FLOAT => {
                let bytes: [u8; 8] =
                    r.bytes(8)?.try_into().map_err(|_| "truncated float".to_string())?;
                Ok(Value::Float(f64::from_le_bytes(bytes)))
            }
            T_FLOAT_INT => Ok(Value::Float(unzigzag(r.varint()?) as f64)),
            T_STR => Ok(Value::Str(r.string()?)),
            T_ARRAY => {
                let n = r.varint()? as usize;
                // Every element costs at least one byte, so a count
                // beyond the remaining input is unsatisfiable — reject
                // it before allocating anything.
                if n > r.remaining() {
                    return Err(format!("array count {n} exceeds remaining input"));
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(dec(r, dict, depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            T_OBJECT => {
                let n = r.varint()? as usize;
                if n > r.remaining() {
                    return Err(format!("object count {n} exceeds remaining input"));
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let code = r.varint()?;
                    let key = if code == 0 {
                        let key = r.string()?;
                        dict.push(key.clone());
                        key
                    } else {
                        let idx = (code - 1) as usize;
                        dict.get(idx).cloned().ok_or_else(|| {
                            format!("key dictionary index {idx} out of range ({})", dict.len())
                        })?
                    };
                    let val = dec(r, dict, depth + 1)?;
                    entries.push((key, val));
                }
                Ok(Value::Object(entries))
            }
            tag => Err(format!("unknown value tag 0x{tag:02x}")),
        }
    }
}

// ---------------------------------------------------------------------
// The instance as it travels: opaque, checksummed, base64
// ---------------------------------------------------------------------

const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside the alphabet in [`BASE64_VALUES`].
const NOT_BASE64: u8 = 0xFF;

const fn base64_values() -> [u8; 256] {
    let mut table = [NOT_BASE64; 256];
    let mut i = 0;
    while i < 64 {
        table[BASE64_ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
}

static BASE64_VALUES: [u8; 256] = base64_values();

/// Standard base64 (RFC 4648 §4: `+/` alphabet, `=` padding) of `data`.
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = Vec::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [chunk[0], *chunk.get(1).unwrap_or(&0), *chunk.get(2).unwrap_or(&0)];
        let n = u32::from_be_bytes([0, b[0], b[1], b[2]]);
        for k in 0..4 {
            out.push(if k <= chunk.len() {
                BASE64_ALPHABET[(n >> (18 - 6 * k) & 0x3F) as usize]
            } else {
                b'='
            });
        }
    }
    String::from_utf8(out).expect("the alphabet is ASCII")
}

/// Decodes standard padded base64. Strict: the length must be a
/// multiple of four, `=` may only end the last quantum (at most two),
/// and the bits a padded quantum drops must be zero, so every byte
/// string has exactly one accepted encoding. Anything else is a
/// [`WireError::Codec`].
pub fn base64_decode(text: &str) -> Result<Vec<u8>, WireError> {
    let bad = |what: String| WireError::Codec(format!("bad base64: {what}"));
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(bad(format!("length {} is not a multiple of 4", bytes.len())));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    let quanta = bytes.len() / 4;
    for (q, quad) in bytes.chunks_exact(4).enumerate() {
        let pad = quad.iter().rev().take_while(|&&c| c == b'=').count();
        if pad > 2 || (pad > 0 && q + 1 != quanta) {
            return Err(bad(format!("misplaced padding in quantum {q}")));
        }
        let mut n = 0u32;
        for (k, &c) in quad[..4 - pad].iter().enumerate() {
            let v = BASE64_VALUES[c as usize];
            if v == NOT_BASE64 {
                return Err(bad(format!("byte 0x{c:02x} at offset {}", 4 * q + k)));
            }
            n |= (v as u32) << (18 - 6 * k);
        }
        let [_, b0, b1, b2] = n.to_be_bytes();
        let (keep, dropped) = match pad {
            0 => (&[b0, b1, b2][..], 0),
            1 => (&[b0, b1][..], b2),
            _ => (&[b0][..], b1 | b2),
        };
        if dropped != 0 {
            return Err(bad(format!("non-zero padding bits in quantum {q}")));
        }
        out.extend_from_slice(keep);
    }
    Ok(out)
}

/// A job's instance as it travels from the client to the worker: the
/// instance's binary payload ([`to_payload_binary`]) behind a CRC32,
/// carried as **one base64 string** (the serde `Value` has no bytes
/// variant). A JSON frame therefore carries one string instead of a
/// tree, and the binary codec copies it as one string node.
///
/// The client encodes it once ([`Self::encode`]); the daemons, their
/// ledgers and the gateway→shard hop hold and forward the string
/// without looking inside — a daemon only checks the CRC at `Submit`
/// ([`Self::verify`]) — and the worker decodes it once
/// ([`Self::decode`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodedInstance(String);

impl EncodedInstance {
    /// Encodes `instance`: binary payload, CRC32, base64.
    pub fn encode<T: Serialize>(instance: &T) -> Self {
        Self::from_payload(&to_payload_binary(instance))
    }

    /// Wraps an already-encoded payload: the big-endian CRC32 of
    /// `payload`, then `payload`, in base64.
    pub fn from_payload(payload: &[u8]) -> Self {
        let mut blob = Vec::with_capacity(4 + payload.len());
        blob.extend_from_slice(&crc32(payload).to_be_bytes());
        blob.extend_from_slice(payload);
        EncodedInstance(base64_encode(&blob))
    }

    /// The payload, once its CRC is checked: [`WireError::Codec`] for
    /// malformed base64 or a blob too short to hold a CRC,
    /// [`WireError::Corrupt`] for a CRC mismatch.
    pub fn payload(&self) -> Result<Vec<u8>, WireError> {
        let mut blob = base64_decode(&self.0)?;
        if blob.len() < 4 {
            return Err(WireError::Codec(format!("instance blob of {} bytes", blob.len())));
        }
        let payload = blob.split_off(4);
        let sent = u32::from_be_bytes(blob.try_into().expect("4 bytes"));
        let computed = crc32(&payload);
        if sent != computed {
            return Err(WireError::Corrupt(format!(
                "instance crc mismatch ({sent:08x} != {computed:08x})"
            )));
        }
        Ok(payload)
    }

    /// Checks the CRC without decoding the instance: what a daemon does
    /// at `Submit`, before anything is written ahead.
    pub fn verify(&self) -> Result<(), WireError> {
        self.payload().map(drop)
    }

    /// Decodes the instance: the worker's half.
    pub fn decode<T: DeserializeOwned>(&self) -> Result<T, WireError> {
        decode_payload(&self.payload()?)
    }
}

impl Serialize for EncodedInstance {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.0.clone())
    }
}

impl serde::Deserialize for EncodedInstance {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        v.as_str()
            .map(|s| EncodedInstance(s.to_owned()))
            .ok_or_else(|| serde::Error::msg("an encoded instance is a base64 string"))
    }
}

/// Serializes `msg` into one v1 framed buffer (prefix + payload),
/// ready for a single `write_all`. Every encoded frame is counted in
/// the process-wide wire telemetry ([`crate::telemetry::wire`]),
/// covering all transports without per-call-site plumbing.
pub fn encode<T: Serialize>(msg: &T) -> Vec<u8> {
    frame_v1(&to_payload(msg))
}

/// Deserializes one frame *payload* (without prefix or header),
/// auto-detecting the payload codec by [`BINARY_MAGIC`]. Counts the
/// frame in the process-wide rx wire telemetry.
pub fn decode<T: DeserializeOwned>(payload: &[u8]) -> Result<T, WireError> {
    let w = crate::telemetry::wire();
    w.rx_frames.inc();
    w.rx_bytes.add(payload.len() as u64 + 4);
    decode_payload(payload)
}

/// [`decode`] without the telemetry: a payload that is not a frame's.
fn decode_payload<T: DeserializeOwned>(payload: &[u8]) -> Result<T, WireError> {
    if payload.first() == Some(&BINARY_MAGIC) {
        let value = binval::decode(&payload[1..])
            .map_err(|e| WireError::Codec(format!("bad binary payload: {e}")))?;
        return T::from_value(&value)
            .map_err(|e| WireError::Codec(format!("bad binary payload: {e:?}")));
    }
    serde_json::from_slice(payload).map_err(|e| WireError::Codec(format!("bad payload: {e:?}")))
}

/// Incremental frame extractor: push received chunks in, pull complete
/// frame payloads out. Never blocks and never loses partial data.
/// Starts in v1 mode; [`Self::set_v2`] switches formats mid-stream
/// (buffered bytes are kept), which is how the handshake upgrades a
/// connection.
#[derive(Default)]
pub struct FrameDecoder {
    buf: BytesMut,
    v2: bool,
}

impl FrameDecoder {
    /// An empty decoder (v1 format).
    pub fn new() -> Self {
        FrameDecoder { buf: BytesMut::new(), v2: false }
    }

    /// Switches the expected frame format; already-buffered bytes are
    /// re-interpreted under the new format.
    pub fn set_v2(&mut self, v2: bool) {
        self.v2 = v2;
    }

    /// Appends freshly received bytes (any chunking).
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Extracts the next complete frame payload, discarding any v2
    /// header. See [`Self::next_frame2`] for error behavior.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, WireError> {
        Ok(self.next_frame2()?.map(|(_, payload)| payload))
    }

    /// Extracts the next complete frame (header + payload), or `None`
    /// if more bytes are needed.
    ///
    /// v1 frames carry a zeroed header. Errors: an over-limit length
    /// prefix yields [`WireError::TooLarge`] (v1, or v2 with a valid
    /// header CRC), a CRC mismatch yields [`WireError::Corrupt`]. On
    /// `TooLarge` the buffer is discarded so a decoder handed a fresh,
    /// valid frame afterwards (e.g. on a new connection) resumes
    /// cleanly; on `Corrupt` the stream is unrecoverable by design —
    /// the caller must drop the connection.
    pub fn next_frame2(&mut self) -> Result<Option<(FrameHeader, Bytes)>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if !self.v2 {
            if len > MAX_FRAME_LEN {
                self.buf.clear();
                return Err(WireError::TooLarge { len });
            }
            if self.buf.len() < 4 + len {
                return Ok(None);
            }
            let mut frame = self.buf.split_to(4 + len);
            let _prefix = frame.split_to(4);
            return Ok(Some((FrameHeader::default(), frame.freeze())));
        }
        // v2: the header CRC is verified before the length is trusted,
        // so a bit flipped in the length prefix surfaces as Corrupt
        // instead of stalling the stream or reading a wrong boundary.
        if self.buf.len() < 4 + V2_HEADER_LEN {
            return Ok(None);
        }
        let hcrc = u32::from_be_bytes([self.buf[4], self.buf[5], self.buf[6], self.buf[7]]);
        let computed = crc32_parts(&[&self.buf[0..4], &self.buf[8..4 + V2_HEADER_LEN]]);
        if hcrc != computed {
            crate::telemetry::comm().frames_corrupt.inc();
            self.buf.clear();
            return Err(WireError::Corrupt(format!(
                "header crc mismatch ({hcrc:08x} != {computed:08x})"
            )));
        }
        if len > MAX_FRAME_LEN {
            self.buf.clear();
            return Err(WireError::TooLarge { len });
        }
        if len < V2_HEADER_LEN {
            self.buf.clear();
            return Err(WireError::Corrupt(format!("v2 frame length {len} below header size")));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let mut frame = self.buf.split_to(4 + len);
        let _prefix_and_hcrc = frame.split_to(8);
        let seq = u64::from_be_bytes(frame[0..8].try_into().expect("8 bytes"));
        let ack = u64::from_be_bytes(frame[8..16].try_into().expect("8 bytes"));
        let pcrc = u32::from_be_bytes(frame[16..20].try_into().expect("4 bytes"));
        let _seq_ack_pcrc = frame.split_to(20);
        let payload = frame.freeze();
        let computed = crc32(&payload);
        if pcrc != computed {
            crate::telemetry::comm().frames_corrupt.inc();
            self.buf.clear();
            return Err(WireError::Corrupt(format!(
                "payload crc mismatch ({pcrc:08x} != {computed:08x})"
            )));
        }
        Ok(Some((FrameHeader { seq, ack }, payload)))
    }
}

/// Writes one message as a single v1 frame.
pub fn write_msg<T: Serialize, W: Write>(w: &mut W, msg: &T) -> std::io::Result<()> {
    w.write_all(&encode(msg))?;
    w.flush()
}

/// Reads until one whole message is decodable. Returns `Ok(None)` on a
/// clean EOF *between* frames; EOF mid-frame is an error. Honors the
/// reader's own timeout semantics (e.g. `TcpStream::set_read_timeout`)
/// by propagating `WouldBlock`/`TimedOut` errors untouched.
pub fn read_msg<T: DeserializeOwned, R: Read>(
    r: &mut R,
    dec: &mut FrameDecoder,
) -> std::io::Result<Option<T>> {
    match read_frame(r, dec)? {
        Some((_, payload)) => Ok(Some(decode(&payload)?)),
        None => Ok(None),
    }
}

/// Reads until one whole frame (header + raw payload) is available.
/// Same EOF/timeout semantics as [`read_msg`].
pub fn read_frame<R: Read>(
    r: &mut R,
    dec: &mut FrameDecoder,
) -> std::io::Result<Option<(FrameHeader, Bytes)>> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some(frame) = dec.next_frame2()? {
            return Ok(Some(frame));
        }
        match r.read(&mut chunk) {
            Ok(0) => {
                return if dec.buf.is_empty() {
                    Ok(None)
                } else {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                }
            }
            Ok(n) => dec.push(&chunk[..n]),
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let msg = vec![(1u32, f64::NEG_INFINITY), (2, 3.5)];
        let framed = encode(&msg);
        assert_eq!(&framed[..4], &((framed.len() as u32 - 4).to_be_bytes()));
        let back: Vec<(u32, f64)> = decode(&framed[4..]).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn decoder_handles_split_and_coalesced_frames() {
        let a = encode(&"first".to_string());
        let b = encode(&"second".to_string());
        let mut stream: Vec<u8> = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);

        let mut dec = FrameDecoder::new();
        // Feed one byte at a time: worst-case fragmentation.
        let mut out: Vec<String> = Vec::new();
        for byte in stream {
            dec.push(&[byte]);
            while let Some(frame) = dec.next_frame().unwrap() {
                out.push(decode(&frame).unwrap());
            }
        }
        assert_eq!(out, vec!["first".to_string(), "second".to_string()]);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut dec = FrameDecoder::new();
        dec.push(&u32::MAX.to_be_bytes());
        assert!(matches!(dec.next_frame(), Err(WireError::TooLarge { .. })));
    }

    #[test]
    fn read_msg_round_trips_over_a_reader() {
        let mut buf: Vec<u8> = Vec::new();
        write_msg(&mut buf, &42u64).unwrap();
        write_msg(&mut buf, &43u64).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let mut dec = FrameDecoder::new();
        assert_eq!(read_msg::<u64, _>(&mut cursor, &mut dec).unwrap(), Some(42));
        assert_eq!(read_msg::<u64, _>(&mut cursor, &mut dec).unwrap(), Some(43));
        assert_eq!(read_msg::<u64, _>(&mut cursor, &mut dec).unwrap(), None);
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_parts(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn v2_round_trip_preserves_header_and_payload() {
        let payload = to_payload(&"hello".to_string());
        let framed = frame_v2(&payload, FrameHeader { seq: 7, ack: 3 });
        let mut dec = FrameDecoder::new();
        dec.set_v2(true);
        dec.push(&framed);
        let (h, p) = dec.next_frame2().unwrap().expect("complete frame");
        assert_eq!(h, FrameHeader { seq: 7, ack: 3 });
        let s: String = decode(&p).unwrap();
        assert_eq!(s, "hello");
        assert!(dec.next_frame2().unwrap().is_none());
    }

    #[test]
    fn v2_single_bit_flip_is_caught_everywhere() {
        let payload = to_payload(&vec![1u64, 2, 3]);
        let framed = frame_v2(&payload, FrameHeader { seq: 41, ack: 40 });
        for bit in 0..framed.len() * 8 {
            let mut bad = framed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let mut dec = FrameDecoder::new();
            dec.set_v2(true);
            dec.push(&bad);
            assert!(
                matches!(dec.next_frame2(), Err(WireError::Corrupt(_))),
                "flipping bit {bit} was not caught"
            );
        }
    }

    #[test]
    fn error_kinds_classify_retryability() {
        assert!(WireError::Corrupt("x".into()).is_retryable());
        assert!(WireError::TooLarge { len: usize::MAX }.is_retryable());
        assert!(WireError::Io("x".into()).is_retryable());
        assert!(!WireError::Codec("x".into()).is_retryable());
        let fatal: std::io::Error = WireError::Codec("bad".into()).into();
        assert!(io_error_is_fatal(&fatal));
        let soft: std::io::Error = WireError::Corrupt("bad".into()).into();
        assert!(!io_error_is_fatal(&soft));
        let plain = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe");
        assert!(!io_error_is_fatal(&plain));
    }

    #[test]
    fn v1_garbage_payload_is_a_codec_error() {
        let framed = frame_v1(b"not json");
        assert!(matches!(decode::<u64>(&framed[4..]), Err(WireError::Codec(_))));
    }

    #[test]
    fn binary_payload_round_trips_including_non_finite_floats() {
        let msg = vec![
            (1u32, f64::NEG_INFINITY),
            (2, f64::INFINITY),
            (3, 3.5),
            (4, -0.0),
            (u32::MAX, 1e-300),
        ];
        let payload = to_payload_binary(&msg);
        assert_eq!(payload[0], BINARY_MAGIC);
        let back: Vec<(u32, f64)> = decode(&payload).unwrap();
        assert_eq!(back, msg);
        let nan = to_payload_binary(&f64::NAN);
        let back: f64 = decode(&nan).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn binary_payload_is_smaller_than_json_for_protocol_shapes() {
        // An ExportedNode-shaped value: ids plus dual bounds. Real
        // bounds are full-precision doubles (17 significant digits in
        // JSON text) — exactly where the fixed 8-byte layout wins.
        let msg: Vec<(u64, u64, f64)> =
            (0..64).map(|i| (i, i * 1003, -((i + 2) as f64).sqrt() * 1e3)).collect();
        let json = to_payload(&msg);
        let bin = to_payload_binary(&msg);
        assert!(
            bin.len() < json.len(),
            "binary ({}) should beat JSON ({}) on numeric payloads",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn integral_floats_use_the_compact_tag_and_round_trip_bit_exactly() {
        // Unit edge costs: the case that made JSON beat the fixed
        // 8-byte float layout before T_FLOAT_INT existed.
        let unit_costs = vec![1.0f64; 64];
        let bin = to_payload_binary(&unit_costs);
        let json = to_payload(&unit_costs);
        assert!(
            bin.len() < json.len(),
            "integral floats: binary ({}) should beat JSON ({})",
            bin.len(),
            json.len()
        );
        // Bit-exactness across the eligibility boundary: -0.0 and huge
        // magnitudes must fall back to the fixed-width tag, integral
        // values (including 2^63, exactly representable) may not drift.
        for f in [
            0.0f64,
            -0.0,
            1.0,
            -1.0,
            9.007199254740992e15, // 2^53
            9.223372036854776e18, // 2^63
            1e300,
            0.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            let back: f64 = decode(&to_payload_binary(&f)).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "float {f:?} must round-trip bit-exactly");
        }
    }

    #[test]
    fn binary_object_keys_are_interned() {
        #[derive(serde::Serialize, serde::Deserialize, PartialEq, Debug, Clone)]
        struct Row {
            alpha: u64,
            beta: u64,
        }
        let rows: Vec<Row> = (0..32).map(|i| Row { alpha: i, beta: i + 1 }).collect();
        let bin = to_payload_binary(&rows);
        // Each key's bytes must appear exactly once in the payload.
        let count = |needle: &[u8]| bin.windows(needle.len()).filter(|w| *w == needle).count();
        assert_eq!(count(b"alpha"), 1);
        assert_eq!(count(b"beta"), 1);
        let back: Vec<Row> = decode(&bin).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn binary_decoder_rejects_garbage_structurally() {
        // Truncated, over-claiming, unknown-tag, hostile-count and
        // deeply nested inputs are all structured Codec errors.
        let cases: Vec<Vec<u8>> = vec![
            vec![BINARY_MAGIC],                                     // empty
            vec![BINARY_MAGIC, 0x05, 0xFF, 0xFF, 0x7F],             // string claiming huge length
            vec![BINARY_MAGIC, 0x42],                               // unknown tag
            vec![BINARY_MAGIC, 0x04, 1, 2, 3],                      // truncated float
            vec![BINARY_MAGIC, 0x06, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F], // huge array count
            vec![BINARY_MAGIC, 0x07, 0x01, 0x05], // object key dict index out of range
        ];
        for bad in cases {
            assert!(
                matches!(decode::<serde::Value>(&bad), Err(WireError::Codec(_))),
                "input {bad:?} must fail structurally"
            );
        }
        // 200 levels of array nesting: rejected by the depth cap.
        let mut deep = vec![BINARY_MAGIC];
        for _ in 0..200 {
            deep.extend_from_slice(&[0x06, 1]);
        }
        deep.push(0x00);
        assert!(matches!(decode::<serde::Value>(&deep), Err(WireError::Codec(_))));
        // Trailing garbage after a valid value.
        let mut trailing = to_payload_binary(&7u64);
        trailing.push(0x00);
        assert!(matches!(decode::<u64>(&trailing), Err(WireError::Codec(_))));
    }
}
