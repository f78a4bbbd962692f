//! LEB128 variable-length integers — the workhorse of the codec.
//!
//! Unsigned base-128, little-endian groups, high bit = continuation. Small
//! values (timestamps, counts, handles, lengths) take 1–2 bytes; a full
//! `u64` takes at most 10. Encoding is canonical: the decoder rejects
//! over-long sequences (a non-final encoding of the same value), so every
//! value has exactly one byte representation — a requirement for
//! deterministic, comparable frames.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::indexing_slicing, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

use crate::codec::WireError;

/// Maximum encoded length of a `u64` varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Append the varint encoding of `v` to `out`.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encoded length of `v` as a varint, without encoding it.
#[inline]
pub fn varint_len(v: u64) -> usize {
    // ceil(bits/7); bits = 64 - leading_zeros, with 0 taking 1 byte.
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Decode one varint from the front of `buf`, returning `(value, bytes
/// consumed)`. Total: truncated input and non-canonical or overflowing
/// sequences are `Err`, never a panic.
pub fn read_varint(buf: &[u8]) -> Result<(u64, usize), WireError> {
    let mut v: u64 = 0;
    for (i, &byte) in buf.iter().enumerate().take(MAX_VARINT_LEN) {
        let group = (byte & 0x7f) as u64;
        if i == 9 && byte > 0x01 {
            // The 10th byte may only contribute the final bit of a u64.
            return Err(WireError::VarintOverflow);
        }
        v |= group << (7 * i);
        if byte & 0x80 == 0 {
            if byte == 0 && i > 0 {
                // Trailing zero group: an over-long (non-canonical) form.
                return Err(WireError::VarintOverflow);
            }
            return Ok((v, i + 1));
        }
    }
    if buf.len() < MAX_VARINT_LEN {
        Err(WireError::Truncated)
    } else {
        Err(WireError::VarintOverflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) -> usize {
        let mut out = Vec::new();
        write_varint(&mut out, v);
        assert_eq!(out.len(), varint_len(v), "len mismatch for {v}");
        let (back, used) = read_varint(&out).unwrap();
        assert_eq!(back, v);
        assert_eq!(used, out.len());
        out.len()
    }

    #[test]
    fn roundtrips_and_lengths() {
        assert_eq!(roundtrip(0), 1);
        assert_eq!(roundtrip(1), 1);
        assert_eq!(roundtrip(127), 1);
        assert_eq!(roundtrip(128), 2);
        assert_eq!(roundtrip(16_383), 2);
        assert_eq!(roundtrip(16_384), 3);
        assert_eq!(roundtrip(u32::MAX as u64), 5);
        assert_eq!(roundtrip(u64::MAX), 10);
        for shift in 0..64 {
            roundtrip(1u64 << shift);
            roundtrip((1u64 << shift) - 1);
        }
    }

    #[test]
    fn truncated_is_err() {
        let mut out = Vec::new();
        write_varint(&mut out, u64::MAX);
        for cut in 0..out.len() {
            assert_eq!(read_varint(&out[..cut]), Err(WireError::Truncated));
        }
        assert_eq!(read_varint(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn overlong_and_overflow_rejected() {
        // 0 encoded in two bytes (continuation + zero group).
        assert_eq!(read_varint(&[0x80, 0x00]), Err(WireError::VarintOverflow));
        // 1 encoded in two bytes.
        assert_eq!(read_varint(&[0x81, 0x00]), Err(WireError::VarintOverflow));
        // 11 continuation bytes: too long for a u64.
        let long = [0xffu8; 11];
        assert_eq!(read_varint(&long), Err(WireError::VarintOverflow));
        // 10 bytes whose final group overflows the 64th bit.
        let mut of = [0xffu8; 10];
        of[9] = 0x02;
        assert_eq!(read_varint(&of), Err(WireError::VarintOverflow));
        // u64::MAX itself is fine.
        let mut ok = [0xffu8; 10];
        ok[9] = 0x01;
        assert_eq!(read_varint(&ok), Ok((u64::MAX, 10)));
    }

    #[test]
    fn decode_consumes_prefix_only() {
        let mut out = Vec::new();
        write_varint(&mut out, 300);
        out.extend_from_slice(&[0xde, 0xad]);
        let (v, used) = read_varint(&out).unwrap();
        assert_eq!(v, 300);
        assert_eq!(used, 2);
    }
}
