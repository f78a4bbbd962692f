//! Length-prefixed, versioned frames — the unit a transport moves.
//!
//! Layout (all offsets fixed so a byte stream can be re-framed without
//! decoding the body):
//!
//! ```text
//! +----------------+---------+-------------+------------------+
//! | len: u32 LE    | version | from: u32 LE| body (Encode)    |
//! |  (bytes after  |  (= 1)  |  sender     |  one message     |
//! |   this field)  |         |  NodeId     |                  |
//! +----------------+---------+-------------+------------------+
//! ```
//!
//! The sender address travels in the header because the receiving state
//! machines ([`simnet::Process::on_message`]) are addressed by
//! [`NodeId`], not by TCP peer — one connection may proxy for any sender.
//!
//! Decoding is total: oversized or short length prefixes, unknown
//! versions, and bodies that under- or over-run the declared length all
//! return [`WireError`]s.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::indexing_slicing, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

use std::collections::VecDeque;

use bytes::Bytes;
use simnet::NodeId;

use crate::codec::{Decode, Encode, Reader, WireError};

/// Current (and only) wire format version.
pub const WIRE_VERSION: u8 = 1;

/// Bytes of header preceding the body: length prefix + version + sender.
pub const FRAME_HEADER_LEN: usize = 4 + 1 + 4;

/// Upper bound on `len` (version + sender + body). Frames declaring more
/// are rejected before any allocation — a corrupted length prefix must
/// not balloon memory.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Encode one message as a complete frame from `from`.
pub fn encode_frame<M: Encode>(from: NodeId, msg: &M) -> Vec<u8> {
    let body_len = msg.encoded_len();
    let len = 1 + 4 + body_len; // version + from + body
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(WIRE_VERSION);
    out.extend_from_slice(&from.0.to_le_bytes());
    msg.encode(&mut out);
    debug_assert_eq!(out.len(), 4 + len);
    out
}

/// Wire size of `msg` once framed (header included) — what the simulator
/// charges when metering bytes-on-wire.
pub fn frame_len<M: Encode>(msg: &M) -> usize {
    FRAME_HEADER_LEN + msg.encoded_len()
}

/// Decode one complete frame (as produced by [`encode_frame`]) into
/// `(sender, message)`. The buffer must contain exactly one frame.
pub fn decode_frame<M: Decode>(frame: &[u8]) -> Result<(NodeId, M), WireError> {
    decode_framed(Reader::new(frame), frame.len())
}

/// [`decode_frame`] over a [`Bytes`] buffer: payload fields in the
/// decoded message become **zero-copy slices** of `frame` instead of
/// fresh allocations — the path the batch transports use.
pub fn decode_frame_bytes<M: Decode>(frame: &Bytes) -> Result<(NodeId, M), WireError> {
    decode_framed(Reader::with_backing(frame), frame.len())
}

fn decode_framed<M: Decode>(mut r: Reader<'_>, total: usize) -> Result<(NodeId, M), WireError> {
    let len = r.read_u32_le()? as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len });
    }
    if len != total.saturating_sub(4) {
        return Err(if len > total.saturating_sub(4) {
            WireError::Truncated
        } else {
            WireError::TrailingBytes
        });
    }
    let version = r.read_u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let from = NodeId(r.read_u32_le()?);
    let msg = M::decode(&mut r)?;
    r.finish()?;
    Ok((from, msg))
}

/// Re-frames an arbitrary byte stream: push each socket read as an owned
/// [`Bytes`] chunk, pop complete frames. A frame lying entirely inside one
/// chunk comes back as a **slice of it** — no copy, no per-frame
/// allocation, the event-loop runtime's receive hot path — and only the
/// rare frame spanning a chunk boundary is stitched together through one
/// copy. Detects oversized frames as soon as the length prefix is
/// readable, so a poisoned stream fails fast.
///
/// A returned frame keeps its whole backing chunk alive (the cost of
/// sharing); consumers that retain frames long-term should copy them
/// out.
///
/// ```
/// use bytes::Bytes;
/// use wire::{decode_frame_bytes, encode_frame, BytesAssembler};
/// use simnet::NodeId;
///
/// // Two frames, delivered to the reader in awkward chunks.
/// let stream: Vec<u8> = [encode_frame(NodeId(1), &7u64), encode_frame(NodeId(2), &8u64)]
///     .concat();
/// let (a, b) = stream.split_at(5); // mid-header split
///
/// let mut asm = BytesAssembler::new();
/// asm.push(Bytes::copy_from_slice(a));
/// assert!(asm.next_frame().unwrap().is_none()); // not enough bytes yet
/// asm.push(Bytes::copy_from_slice(b));
/// let first = asm.next_frame().unwrap().expect("one complete frame");
/// assert_eq!(decode_frame_bytes::<u64>(&first).unwrap(), (NodeId(1), 7));
/// let second = asm.next_frame().unwrap().expect("and the second");
/// assert_eq!(decode_frame_bytes::<u64>(&second).unwrap(), (NodeId(2), 8));
/// assert!(asm.next_frame().unwrap().is_none());
/// ```
#[derive(Debug, Default)]
pub struct BytesAssembler {
    /// Unconsumed chunks, in arrival order; the front one may already be
    /// narrowed past frames handed out earlier.
    chunks: VecDeque<Bytes>,
    /// Total unconsumed bytes across `chunks`.
    avail: usize,
}

impl BytesAssembler {
    /// Fresh empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one owned chunk read from the stream.
    pub fn push(&mut self, chunk: Bytes) {
        if !chunk.is_empty() {
            self.avail += chunk.len();
            self.chunks.push_back(chunk);
        }
    }

    /// Pop the next complete frame (header included), `Ok(None)` when
    /// more bytes are needed, or an error for unrecoverable stream
    /// corruption (an oversized length prefix).
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, WireError> {
        if self.avail < 4 {
            return Ok(None);
        }
        // The length prefix itself may span chunks: peek it bytewise.
        let mut len_bytes = [0u8; 4];
        let buffered = self.chunks.iter().flat_map(|chunk| chunk.iter());
        for (slot, &b) in len_bytes.iter_mut().zip(buffered) {
            *slot = b;
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge { len });
        }
        let total = 4 + len;
        if self.avail < total {
            return Ok(None);
        }
        self.avail -= total;
        if let Some(front) = self.chunks.front_mut() {
            if front.len() > total {
                let frame = front.slice(0..total);
                *front = front.slice(total..);
                return Ok(Some(frame));
            }
            if front.len() == total {
                return Ok(self.chunks.pop_front());
            }
        }
        // The frame spans chunks: stitch it together with one copy.
        let mut out = Vec::with_capacity(total);
        while let Some(chunk) = self.chunks.pop_front() {
            let take = (total - out.len()).min(chunk.len());
            if let Some(part) = chunk.as_ref().get(..take) {
                out.extend_from_slice(part);
            }
            if take < chunk.len() {
                self.chunks.push_front(chunk.slice(take..));
            }
            if out.len() == total {
                break;
            }
        }
        debug_assert_eq!(out.len(), total);
        Ok(Some(Bytes::from(out)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let frame = encode_frame(NodeId(7), &12345u64);
        assert_eq!(frame.len(), frame_len(&12345u64));
        let (from, v): (NodeId, u64) = decode_frame(&frame).unwrap();
        assert_eq!(from, NodeId(7));
        assert_eq!(v, 12345);
    }

    #[test]
    fn truncation_and_trailing_rejected() {
        let frame = encode_frame(NodeId(1), &7u64);
        for cut in 0..frame.len() {
            assert!(decode_frame::<u64>(&frame[..cut]).is_err(), "cut {cut}");
        }
        let mut long = frame.clone();
        long.push(0);
        assert!(decode_frame::<u64>(&long).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut frame = encode_frame(NodeId(1), &7u64);
        frame[4] = 99;
        assert_eq!(decode_frame::<u64>(&frame), Err(WireError::BadVersion(99)));
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut frame = encode_frame(NodeId(1), &7u64);
        frame[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            decode_frame::<u64>(&frame),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn bytes_decode_is_zero_copy_for_payloads() {
        let payload = Bytes::from(vec![7u8; 32]);
        let frame = Bytes::from(encode_frame(NodeId(3), &payload));
        let (from, got): (NodeId, Bytes) = decode_frame_bytes(&frame).unwrap();
        assert_eq!(from, NodeId(3));
        assert_eq!(got, payload);
        // The decoded payload borrows the frame's allocation.
        assert_eq!(
            got.as_ref().as_ptr(),
            frame[frame.len() - payload.len()..].as_ptr()
        );
    }

    #[test]
    fn bytes_assembler_slices_within_chunk_zero_copy() {
        let frames: Vec<Vec<u8>> = (0..3u64).map(|i| encode_frame(NodeId(1), &i)).collect();
        let stream: Vec<u8> = frames.iter().flatten().copied().collect();
        let chunk = Bytes::from(stream);
        let base = chunk.as_ref().as_ptr() as usize;
        let end = base + chunk.len();
        let mut asm = BytesAssembler::new();
        asm.push(chunk);
        for want in &frames {
            let got = asm.next_frame().unwrap().expect("complete frame");
            assert_eq!(got.as_ref(), want.as_slice());
            // Zero-copy: the frame points into the pushed chunk.
            let p = got.as_ref().as_ptr() as usize;
            assert!(p >= base && p + got.len() <= end, "frame borrows the chunk");
        }
        assert_eq!(asm.next_frame().unwrap(), None);
    }

    #[test]
    fn bytes_assembler_matches_vec_assembler_on_any_chunking() {
        let frames: Vec<Vec<u8>> = (0..10u64).map(|i| encode_frame(NodeId(2), &i)).collect();
        let stream: Vec<u8> = frames.iter().flatten().copied().collect();
        for chunk in [1usize, 2, 3, 5, 7, 11, stream.len()] {
            let mut asm = BytesAssembler::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                asm.push(Bytes::from(piece.to_vec()));
                while let Some(f) = asm.next_frame().unwrap() {
                    got.push(f.to_vec());
                }
            }
            assert_eq!(got, frames, "chunk size {chunk}");
        }
    }

    #[test]
    fn bytes_assembler_rejects_oversized_prefix() {
        let mut frame = encode_frame(NodeId(1), &7u64);
        frame[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut asm = BytesAssembler::new();
        // Split mid-prefix so the peek itself has to span chunks.
        asm.push(Bytes::from(frame[..2].to_vec()));
        assert_eq!(asm.next_frame().unwrap(), None);
        asm.push(Bytes::from(frame[2..].to_vec()));
        assert!(matches!(
            asm.next_frame(),
            Err(WireError::FrameTooLarge { .. })
        ));
    }
}
