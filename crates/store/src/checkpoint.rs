//! The Merkle-root checkpoint: a small self-checksummed file pinning what
//! the log contained at a known-good moment.
//!
//! Every `checkpoint_every` appends (and at every segment seal) the file
//! store rewrites `CHECKPOINT` atomically (`tmp` + rename) with:
//!
//! * `entry_count` — how many entries the checkpoint covers;
//! * one [`SegmentMark`] per segment holding covered entries: its index,
//!   how many of its entries are covered, and the Merkle root over them;
//! * the top `root` — the Merkle root over the segment roots.
//!
//! What a checkpoint costs the writer: the hashes of the entries appended
//! since the last one, folded into the live segment's Merkle frontier,
//! plus O(log n) combines for the live and top roots — not a rebuild of
//! either tree. The file is still rewritten whole, so serializing the
//! marks (≈ 25 bytes per segment) stays O(segments).
//!
//! Recovery recomputes the same tree from the replayed segment bytes and
//! compares. The distinction this buys: a CRC-failing tail *after*
//! `entry_count` is an ordinary torn write (tolerated, truncated), while
//! any mismatch *within* `entry_count` entries means the bytes on disk are
//! not the bytes that were appended — tampering or silent corruption —
//! and recovery refuses.
//!
//! A checkpoint that is itself unreadable (missing, truncated, bad
//! checksum) is **skipped cleanly**: the log replays CRC-validated but
//! unverified, exactly as if no checkpoint had been written yet.

use chord::merkle;
use chord::sha1::{Digest, DIGEST_LEN};
use wire::{Encode, Reader, WireError};

use crate::segment::crc32;

/// File magic: identifies a checkpoint and pins its format version.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"P2PLTRC1";

/// Per-segment coverage record inside a [`Checkpoint`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentMark {
    /// Segment index (the `NNNNNN` of `seg-NNNNNN.log`).
    pub index: u64,
    /// How many of the segment's leading entries the checkpoint covers
    /// (all of them for sealed segments; a prefix for the live one).
    pub entries: u64,
    /// Merkle root over those entries' leaf hashes.
    pub root: Digest,
}

/// A decoded checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Total entries covered across all marks.
    pub entry_count: u64,
    /// Per-segment coverage, in segment order.
    pub segments: Vec<SegmentMark>,
    /// Merkle root over the segment roots (leaf-hashed in order).
    pub root: Digest,
}

impl Checkpoint {
    /// Build a checkpoint over per-segment entry-hash lists
    /// `(segment_index, hashes_of_covered_entries)`, hashing every tree
    /// from its leaves — what recovery verifies against.
    pub fn compute(per_segment: &[(u64, &[Digest])]) -> Checkpoint {
        let segments: Vec<SegmentMark> = per_segment
            .iter()
            .filter(|(_, hashes)| !hashes.is_empty())
            .map(|(index, hashes)| SegmentMark {
                index: *index,
                entries: hashes.len() as u64,
                root: merkle::root_of_entry_hashes(hashes),
            })
            .collect();
        let seg_roots: Vec<Digest> = segments.iter().map(|m| merkle::leaf(&m.root)).collect();
        Checkpoint {
            entry_count: segments.iter().map(|m| m.entries).sum(),
            root: merkle::root(&seg_roots),
            segments,
        }
    }

    /// Serialize: magic, body, trailing CRC-32 of the body.
    pub fn to_file_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
        self.entry_count.encode(&mut body);
        (self.segments.len() as u64).encode(&mut body);
        for m in &self.segments {
            m.index.encode(&mut body);
            m.entries.encode(&mut body);
            body.extend_from_slice(&m.root);
        }
        body.extend_from_slice(&self.root);
        let mut out = Vec::with_capacity(8 + body.len() + 4);
        out.extend_from_slice(CHECKPOINT_MAGIC);
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    /// Parse a checkpoint file. Any damage — wrong magic, truncation, CRC
    /// mismatch, malformed body — yields `Err`, never a panic.
    pub fn from_file_bytes(buf: &[u8]) -> Result<Checkpoint, WireError> {
        if buf.len() < 8 + 4 || &buf[..8] != CHECKPOINT_MAGIC {
            return Err(WireError::Truncated);
        }
        let body = &buf[8..buf.len() - 4];
        let stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().expect("4 bytes"));
        if crc32(body) != stored {
            return Err(WireError::Truncated);
        }
        let mut r = Reader::new(body);
        let entry_count = r.read_varint()?;
        let n = r.read_varint()?;
        // Each mark costs at least 22 bytes; reject hostile counts early.
        if n > (body.len() as u64) / 22 {
            return Err(WireError::BadLength);
        }
        let mut segments = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let index = r.read_varint()?;
            let entries = r.read_varint()?;
            let root: Digest = r.take(DIGEST_LEN)?.try_into().expect("fixed len");
            segments.push(SegmentMark {
                index,
                entries,
                root,
            });
        }
        let root: Digest = r.take(DIGEST_LEN)?.try_into().expect("fixed len");
        r.finish()?;
        Ok(Checkpoint {
            entry_count,
            segments,
            root,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digests(n: u8) -> Vec<Digest> {
        (0..n).map(|i| [i; 20]).collect()
    }

    #[test]
    fn roundtrip() {
        let a = digests(5);
        let b = digests(3);
        let ck = Checkpoint::compute(&[(0, &a), (1, &b)]);
        assert_eq!(ck.entry_count, 8);
        assert_eq!(ck.segments.len(), 2);
        let bytes = ck.to_file_bytes();
        assert_eq!(Checkpoint::from_file_bytes(&bytes).unwrap(), ck);
    }

    #[test]
    fn empty_segments_are_skipped() {
        let a = digests(2);
        let ck = Checkpoint::compute(&[(0, &a), (1, &[])]);
        assert_eq!(ck.segments.len(), 1);
        assert_eq!(ck.entry_count, 2);
    }

    #[test]
    fn any_damage_is_an_error() {
        let a = digests(4);
        let bytes = Checkpoint::compute(&[(0, &a)]).to_file_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::from_file_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                Checkpoint::from_file_bytes(&bad).is_err(),
                "bit flip at {i} accepted"
            );
        }
    }

    #[test]
    fn root_depends_on_every_entry() {
        let a = digests(6);
        let base = Checkpoint::compute(&[(0, &a[..3]), (1, &a[3..])]);
        let mut moved = a.clone();
        moved[4] = [0xAB; 20];
        let changed = Checkpoint::compute(&[(0, &moved[..3]), (1, &moved[3..])]);
        assert_ne!(base.root, changed.root);
    }
}
