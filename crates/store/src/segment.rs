//! CRC-framed append-only segment encoding, torn-tail tolerant on replay.
//!
//! A segment is a flat byte file of frames:
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload: len bytes]  …repeated…
//! ```
//!
//! where each payload is one wire-encoded [`StoreEntry`](crate::StoreEntry).
//! Replay walks the frames and classifies the first anomaly it meets:
//!
//! * a clean end-of-file ⇒ the segment is intact;
//! * a **torn tail** — a truncated header or body, or a CRC mismatch in the
//!   final frame — is what a crash mid-append leaves behind; replay stops
//!   at the last good frame and reports the dropped byte count so the
//!   writer can truncate and resume;
//! * anything after the torn point, or a declared length over
//!   [`MAX_ENTRY_LEN`], means the file is not a prefix of what was written
//!   — the caller decides (mid-log segments reject, the Merkle checkpoint
//!   distinguishes crash damage from tampering).
//!
//! [`crc32`] runs over every frame written and replayed and over every
//! CHECKPOINT, so it is slicing-by-8: eight 1 KiB tables built at compile
//! time advance the register by one 8-byte word per step, ≈ 4× the
//! bytewise table loop, in safe code. The bytewise loop stays as a
//! `#[cfg(test)]` oracle, compared on unaligned slices of every length
//! mod 8. A frame's payload is encoded in place behind its header
//! ([`write_frame`]), and replay hands out payloads borrowed from the
//! segment image ([`SegmentScan::payloads`]): neither path copies one.

/// Bytes of frame header preceding every payload (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// Upper bound on one entry's encoded payload (matches the wire crate's
/// frame cap): a corrupt length prefix can never demand a huge allocation.
pub const MAX_ENTRY_LEN: usize = 16 * 1024 * 1024;

// CRC-32 (IEEE 802.3, reflected), slicing-by-8. `CRC_TABLES[0]` is the
// classic bytewise table; `CRC_TABLES[k][b]` is the CRC of byte `b`
// followed by `k` zero bytes, so one lookup per byte of an 8-byte word
// advances the register by the whole word.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in tail {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append one frame to `out` whose payload `encode` writes in place: the
/// header is reserved first and filled in once the payload is known, so
/// the payload is never copied. Returns the payload as written.
pub fn write_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> &[u8] {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    encode(out);
    let len = out.len() - start - FRAME_HEADER;
    debug_assert!(len <= MAX_ENTRY_LEN);
    let crc = crc32(&out[start + FRAME_HEADER..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    &out[start + FRAME_HEADER..]
}

/// Total encoded size of a frame holding `payload_len` bytes.
pub fn frame_size(payload_len: usize) -> usize {
    FRAME_HEADER + payload_len
}

/// Why frame replay stopped before the end of the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameAnomaly {
    /// Fewer than [`FRAME_HEADER`] bytes remained: a torn header.
    TornHeader,
    /// The header's length exceeded the bytes remaining: a torn body.
    TornBody,
    /// The payload's CRC did not match the header.
    BadCrc,
    /// The header declared a length over [`MAX_ENTRY_LEN`] — not a
    /// truncation artefact, the header bytes themselves are damaged.
    OversizedLength,
}

/// Result of walking one segment's frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentScan<'a> {
    /// Payloads of the good frames, in file order, borrowed from the
    /// segment image.
    pub payloads: Vec<&'a [u8]>,
    /// Offset of the first byte past the last good frame (where an
    /// append-resuming writer must truncate to).
    pub good_len: u64,
    /// The anomaly that ended the scan, if the file did not end cleanly.
    pub anomaly: Option<FrameAnomaly>,
}

impl SegmentScan<'_> {
    /// Bytes after the last good frame (0 for a clean segment).
    pub fn torn_bytes(&self, file_len: u64) -> u64 {
        file_len.saturating_sub(self.good_len)
    }
}

/// Walk the frames of a segment image.
pub fn scan_segment(buf: &[u8]) -> SegmentScan<'_> {
    let mut payloads = Vec::new();
    let mut at = 0usize;
    let anomaly = loop {
        if at == buf.len() {
            break None; // clean end
        }
        if buf.len() - at < FRAME_HEADER {
            break Some(FrameAnomaly::TornHeader);
        }
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(buf[at + 4..at + 8].try_into().expect("4 bytes"));
        if len > MAX_ENTRY_LEN {
            break Some(FrameAnomaly::OversizedLength);
        }
        if buf.len() - at - FRAME_HEADER < len {
            break Some(FrameAnomaly::TornBody);
        }
        let payload = &buf[at + FRAME_HEADER..at + FRAME_HEADER + len];
        if crc32(payload) != crc {
            break Some(FrameAnomaly::BadCrc);
        }
        payloads.push(payload);
        at += FRAME_HEADER + len;
    };
    SegmentScan {
        payloads,
        good_len: at as u64,
        anomaly,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise CRC-32: the oracle [`crc32`] is tested against.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // 1 MiB of 'a' (zlib.crc32 agrees).
        assert_eq!(crc32(&vec![b'a'; 1 << 20]), 0xD7CD_5672);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn slicing_by_8_matches_bytewise_on_unaligned_slices() {
        // Every start offset mod 8 and every length to 320, so every tail
        // length mod 8 follows every alignment of the 8-byte words.
        let mut rng = simnet::Rng64::new(0xC3C_0032);
        let buf: Vec<u8> = (0..1 << 16).map(|_| rng.next_u64() as u8).collect();
        for start in 0..8 {
            for len in 0..=320 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
        for _ in 0..64 {
            let start = rng.index(buf.len());
            let s = &buf[start..start + rng.index(buf.len() - start + 1)];
            assert_eq!(crc32(s), crc32_bytewise(s), "len {}", s.len());
        }
    }

    fn image(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            write_frame(&mut out, |o| o.extend_from_slice(p));
        }
        out
    }

    #[test]
    fn clean_roundtrip() {
        let img = image(&[b"one", b"", b"three33"]);
        let scan = scan_segment(&img);
        assert_eq!(scan.anomaly, None);
        assert_eq!(scan.good_len, img.len() as u64);
        assert_eq!(scan.payloads, vec![&b"one"[..], b"", b"three33"]);
    }

    #[test]
    fn torn_tail_keeps_good_prefix() {
        let img = image(&[b"aaaa", b"bbbb"]);
        // Cut at every point inside the second frame: the first survives.
        let second_start = frame_size(4);
        for cut in second_start + 1..img.len() {
            let scan = scan_segment(&img[..cut]);
            assert_eq!(scan.payloads, vec![b"aaaa"], "cut at {cut}");
            assert_eq!(scan.good_len as usize, second_start);
            assert!(scan.anomaly.is_some());
        }
    }

    #[test]
    fn bitflip_detected() {
        let img = image(&[b"payload-x", b"payload-y"]);
        for i in 0..img.len() {
            let mut bad = img.clone();
            bad[i] ^= 0x40;
            let scan = scan_segment(&bad);
            // A flip anywhere must surface as an anomaly or change a
            // payload — it can never silently pass through unchanged.
            let intact =
                scan.anomaly.is_none() && scan.payloads == vec![b"payload-x", b"payload-y"];
            assert!(!intact, "bit flip at {i} undetected");
        }
    }

    #[test]
    fn hostile_length_rejected_without_allocation() {
        let mut img = Vec::new();
        img.extend_from_slice(&u32::MAX.to_le_bytes());
        img.extend_from_slice(&[0u8; 4]);
        let scan = scan_segment(&img);
        assert_eq!(scan.anomaly, Some(FrameAnomaly::OversizedLength));
        assert!(scan.payloads.is_empty());
    }
}
