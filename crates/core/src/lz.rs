//! Raw-LZ compression for durable state artifacts.
//!
//! Checkpoints and ledger records are JSON (deliberately — restart
//! artifacts stay human-inspectable). Earlier servers could wrap them
//! in the LZSS-style container implemented here (`--compress-state`,
//! since retired: no benchmark workload turned it on).
//! Readers still auto-detect it by magic ([`decompress_if_needed`]),
//! so a state directory such a server left behind still recovers; the
//! benchmark measures [`compress`] on a checkpoint as `core.lz_ratio`.
//!
//! ## Container layout
//!
//! ```text
//! +------+------+------+------+----------------+-----------------+
//! | 0x00 | 0x4C | 0x5A | 0x01 | raw_len varint | token stream    |
//! +------+------+------+------+----------------+-----------------+
//!   magic "\0LZ" + version      LEB128           see below
//! ```
//!
//! The magic begins with a NUL byte: JSON (and every other artifact
//! this crate writes) can never start with one, which is what makes
//! [`is_compressed`] a safe auto-detection test.
//!
//! ## Token stream
//!
//! A control byte covers the next 8 tokens, LSB first; bit clear means
//! a literal (1 raw byte), bit set means a back-reference: a 2-byte LE
//! `distance` (1..=65535, counted back from the current output
//! position) followed by a length byte storing `len - MIN_MATCH`
//! (matches span 4..=259 bytes). The final control byte may cover
//! fewer than 8 tokens; the stream ends exactly when `raw_len` output
//! bytes have been produced, and trailing bytes are rejected.
//!
//! This is deliberately *not* a standard format: it is ~120 lines with
//! no dependencies (the container ships inside durable files, so the
//! format must be frozen by this crate, not by an external crate
//! version). Ratios on JSON state land around 3-6x, which is the bulk
//! of what a general-purpose compressor would buy here.

use std::io;

/// Container magic: `\0LZ` + format version 1.
pub const MAGIC: [u8; 4] = [0x00, b'L', b'Z', 0x01];

/// Shortest back-reference worth emitting (below this a match costs
/// as much as the literals it replaces).
const MIN_MATCH: usize = 4;

/// Longest back-reference one token can encode (`MIN_MATCH + 255`).
const MAX_MATCH: usize = MIN_MATCH + 255;

/// Window the matcher may reach back into (u16 distance).
const WINDOW: usize = 65535;

/// Hash-chain depth: more probes find better matches, linearly slower.
const MAX_PROBES: usize = 32;

/// Decompressed sizes above this are rejected as corrupt rather than
/// allocated (matches the wire layer's 256 MiB frame cap).
const MAX_RAW_LEN: u64 = 256 * 1024 * 1024;

/// True when `data` starts with the compression container magic.
pub fn is_compressed(data: &[u8]) -> bool {
    data.len() >= MAGIC.len() && data[..MAGIC.len()] == MAGIC
}

fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("lz: {msg}"))
}

fn read_varint(data: &[u8], pos: &mut usize) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*pos).ok_or_else(|| bad("truncated varint"))?;
        *pos += 1;
        if shift >= 63 && b > 1 {
            return Err(bad("varint overflow"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> 17) as usize & 0x7FFF
}

/// Compresses `data` into the container format. Always succeeds; in
/// the worst case (incompressible input) the output is `data.len()`
/// plus one control byte per 8 literals plus the header.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(&MAGIC);
    put_varint(data.len() as u64, &mut out);

    // Hash-chain matcher: `head[h]` is the most recent position whose
    // 4-byte prefix hashed to `h`; `prev[i & WINDOW_MASK]` links to
    // the previous such position.
    let mut head = vec![usize::MAX; 0x8000];
    let mut prev = vec![usize::MAX; (WINDOW + 1).next_power_of_two()];
    let mask = prev.len() - 1;

    let mut i = 0usize;
    let mut ctrl_pos = 0usize;
    let mut ctrl_bit = 8u32; // forces a fresh control byte first
    let mut push_token = |out: &mut Vec<u8>, is_match: bool| {
        if ctrl_bit == 8 {
            ctrl_pos = out.len();
            out.push(0);
            ctrl_bit = 0;
        }
        if is_match {
            out[ctrl_pos] |= 1 << ctrl_bit;
        }
        ctrl_bit += 1;
    };

    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash4(data, i);
            let mut cand = head[h];
            let mut probes = 0;
            while cand != usize::MAX && probes < MAX_PROBES {
                let dist = i - cand;
                if dist > WINDOW {
                    break;
                }
                let limit = (data.len() - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < limit && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l == limit {
                        break;
                    }
                }
                cand = prev[cand & mask];
                probes += 1;
            }
        }
        if best_len >= MIN_MATCH {
            push_token(&mut out, true);
            out.extend_from_slice(&(best_dist as u16).to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            // Index every position the match covers so later matches
            // can land inside it.
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= data.len() {
                    let h = hash4(data, i);
                    prev[i & mask] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        } else {
            push_token(&mut out, false);
            out.push(data[i]);
            if i + MIN_MATCH <= data.len() {
                let h = hash4(data, i);
                prev[i & mask] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }
    out
}

/// Decompresses a container produced by [`compress`]. Every malformed
/// input — wrong magic, truncation, a distance reaching before the
/// start, an overclaiming length, trailing garbage — surfaces as
/// [`io::ErrorKind::InvalidData`], never a panic.
pub fn decompress(data: &[u8]) -> io::Result<Vec<u8>> {
    if !is_compressed(data) {
        return Err(bad("missing container magic"));
    }
    let mut pos = MAGIC.len();
    let raw_len = read_varint(data, &mut pos)?;
    if raw_len > MAX_RAW_LEN {
        return Err(bad("declared size exceeds the 256 MiB state cap"));
    }
    let raw_len = raw_len as usize;
    let mut out = Vec::with_capacity(raw_len.min(1 << 20));
    let mut ctrl = 0u8;
    let mut ctrl_bit = 8u32;
    while out.len() < raw_len {
        if ctrl_bit == 8 {
            ctrl = *data.get(pos).ok_or_else(|| bad("truncated control byte"))?;
            pos += 1;
            ctrl_bit = 0;
        }
        let is_match = ctrl >> ctrl_bit & 1 == 1;
        ctrl_bit += 1;
        if is_match {
            let lo = *data.get(pos).ok_or_else(|| bad("truncated match"))?;
            let hi = *data.get(pos + 1).ok_or_else(|| bad("truncated match"))?;
            let len =
                MIN_MATCH + *data.get(pos + 2).ok_or_else(|| bad("truncated match"))? as usize;
            pos += 3;
            let dist = u16::from_le_bytes([lo, hi]) as usize;
            if dist == 0 || dist > out.len() {
                return Err(bad("back-reference before start of output"));
            }
            if out.len() + len > raw_len {
                return Err(bad("match overruns the declared size"));
            }
            // Byte-at-a-time: overlapping matches (dist < len) are the
            // RLE idiom and must see their own freshly written bytes.
            let start = out.len() - dist;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        } else {
            let b = *data.get(pos).ok_or_else(|| bad("truncated literal"))?;
            pos += 1;
            out.push(b);
        }
    }
    if pos != data.len() {
        return Err(bad("trailing bytes after the token stream"));
    }
    Ok(out)
}

/// Auto-detecting read: decompresses when `data` carries the container
/// magic, passes plain data through untouched. This is what state
/// readers (checkpoint load, ledger recovery) call so both formats
/// coexist in one state directory.
pub fn decompress_if_needed(data: Vec<u8>) -> io::Result<Vec<u8>> {
    if is_compressed(&data) {
        decompress(&data)
    } else {
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let packed = compress(data);
        assert!(is_compressed(&packed));
        assert_eq!(decompress(&packed).unwrap(), data, "len {}", data.len());
    }

    #[test]
    fn round_trips_edge_shapes() {
        roundtrip(b"");
        roundtrip(b"x");
        roundtrip(b"abcd");
        roundtrip(&[0u8; 10_000]); // heavy RLE (overlapping matches)
        roundtrip("ab".repeat(5000).as_bytes());
        let mut rng = 0x12345678u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (rng >> 56) as u8
            })
            .collect();
        roundtrip(&noise); // incompressible
    }

    #[test]
    fn json_state_compresses_well() {
        // A checkpoint-shaped JSON body: repeated keys and structure.
        let mut json = String::from("{\"queue\":[");
        for i in 0..500 {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"sub\":{{\"fixed_one\":[{i}],\"fixed_zero\":[]}},\"dual_bound\":{}.5}}",
                i * 3
            ));
        }
        json.push_str("]}");
        let packed = compress(json.as_bytes());
        assert!(
            packed.len() * 3 < json.len(),
            "expected >=3x on repetitive JSON, got {} -> {}",
            json.len(),
            packed.len()
        );
        assert_eq!(decompress(&packed).unwrap(), json.as_bytes());
    }

    #[test]
    fn corrupt_containers_error_instead_of_panicking() {
        let packed =
            compress(b"the quick brown fox jumps over the lazy dog, twice: the quick brown fox");
        // Truncations at every boundary.
        for cut in 0..packed.len() {
            assert!(decompress(&packed[..cut]).is_err(), "cut at {cut} must error");
        }
        // A distance reaching before the start of the output.
        // Hand-build: magic + len 4 + ctrl byte with bit0 set (match) + dist 9 + len byte.
        let mut bad = MAGIC.to_vec();
        bad.extend_from_slice(&[4, 0b0000_0001, 9, 0, 0]);
        assert!(decompress(&bad).is_err());
        // Declared size beyond the cap.
        let mut huge = MAGIC.to_vec();
        put_varint(u64::MAX / 2, &mut huge);
        assert!(decompress(&huge).is_err());
        // Trailing garbage after a valid stream.
        let mut trailing = compress(b"hello world");
        trailing.push(0x55);
        assert!(decompress(&trailing).is_err());
    }

    #[test]
    fn plain_data_passes_through_detection() {
        assert!(!is_compressed(b"{\"json\":true}"));
        assert!(!is_compressed(b""));
        let plain = b"not compressed".to_vec();
        assert_eq!(decompress_if_needed(plain.clone()).unwrap(), plain);
        let packed = compress(b"payload");
        assert_eq!(decompress_if_needed(packed).unwrap(), b"payload");
    }
}
