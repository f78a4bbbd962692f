//! [`FileStore`] — the durable backend: segment files plus a Merkle
//! checkpoint in one directory.
//!
//! Layout:
//!
//! ```text
//! <dir>/seg-000000.log     CRC-framed entries (see `segment`)
//! <dir>/seg-000001.log     …next segment after `segment_max_bytes`…
//! <dir>/CHECKPOINT         Merkle-root checkpoint (see `checkpoint`)
//! ```
//!
//! Opening a directory replays and verifies it (see
//! [`FileStore::open`]); the torn tail a crash left behind is truncated so
//! appends resume cleanly from the last good frame.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use chord::merkle::{self, Frontier};
use chord::sha1::{sha1, Digest};
use wire::{Decode, Encode};

use crate::checkpoint::{Checkpoint, SegmentMark};
use crate::segment::{frame_size, scan_segment, write_frame};
use crate::{Replay, ReplayStats, Store, StoreEntry, StoreError};

/// Tunables of the file backend.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Roll to a new segment file once the current one would exceed this.
    pub segment_max_bytes: u64,
    /// Rewrite the Merkle checkpoint every this many appends (a checkpoint
    /// is also written at every segment seal). 0 disables periodic
    /// checkpoints — only [`Store::checkpoint`] writes one.
    pub checkpoint_every: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_max_bytes: 64 * 1024,
            checkpoint_every: 128,
        }
    }
}

const CHECKPOINT_FILE: &str = "CHECKPOINT";
const CHECKPOINT_TMP: &str = "CHECKPOINT.tmp";

fn segment_name(index: u64) -> String {
    format!("seg-{index:06}.log")
}

/// Per-segment replay artifacts kept by the writer (for checkpointing).
#[derive(Clone, Debug, Default)]
struct SegmentHashes {
    index: u64,
    hashes: Vec<Digest>,
}

#[derive(Debug)]
struct Inner {
    dir: PathBuf,
    cfg: StoreConfig,
    /// Open handle on the live segment (created lazily on first append).
    file: Option<File>,
    seg_index: u64,
    seg_bytes: u64,
    /// Sealed segments' Merkle marks — immutable once sealed, so each
    /// root is computed exactly once.
    sealed: Vec<SegmentMark>,
    /// The checkpoint's top tree over `leaf(mark.root)` of every sealed
    /// segment; the live segment's root joins it as the last leaf.
    sealed_top: Frontier,
    /// The live segment's tree over its folded entries.
    live: Frontier,
    /// Entry hashes appended to the live segment since the last fold
    /// into `live`, which happens at each checkpoint and each seal: an
    /// append only hashes its payload. A checkpoint thus costs
    /// O(entries since the last one + log n) in hashes, plus serializing
    /// one 25-byte mark per segment.
    unfolded: Vec<Digest>,
    entries: u64,
    since_checkpoint: u64,
}

/// The durable segment-file store. Cheap to clone via [`Store::handle`]
/// (handles share the writer state).
#[derive(Debug)]
pub struct FileStore {
    inner: Arc<Mutex<Inner>>,
}

/// Everything `scan_dir` learns from the bytes on disk.
struct DirScan {
    entries: Vec<StoreEntry>,
    per_segment: Vec<SegmentHashes>,
    stats: ReplayStats,
    /// `(segment index, good byte length)` of the final segment, when it
    /// had a torn tail the writer must truncate before appending.
    truncate: Option<(u64, u64)>,
    /// The checkpoint, once verified against the replayed hashes.
    checkpoint: Option<Checkpoint>,
}

/// Replay every segment in `dir`, CRC-validating frames and classifying
/// anomalies (torn final tail tolerated, anything else rejected), then
/// verify the Merkle checkpoint if a readable one exists.
fn scan_dir(dir: &Path) -> Result<DirScan, StoreError> {
    let mut seg_indices: Vec<u64> = Vec::new();
    if dir.exists() {
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(idx) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                seg_indices.push(idx);
            }
        }
    }
    seg_indices.sort_unstable();

    let mut entries = Vec::new();
    let mut per_segment = Vec::new();
    let mut stats = ReplayStats::default();
    let mut truncate = None;
    let last = seg_indices.last().copied();
    for idx in &seg_indices {
        let buf = fs::read(dir.join(segment_name(*idx)))?;
        let scan = scan_segment(&buf);
        if scan.anomaly.is_some() {
            if Some(*idx) != last {
                // A hole in the middle of the log: later segments exist, so
                // this was not a crash mid-append. Refuse.
                return Err(StoreError::Corrupt {
                    segment: *idx,
                    offset: scan.good_len,
                });
            }
            stats.torn_bytes = scan.torn_bytes(buf.len() as u64);
            truncate = Some((*idx, scan.good_len));
        }
        let mut hashes = Vec::with_capacity(scan.payloads.len());
        for payload in &scan.payloads {
            let entry = StoreEntry::from_wire(payload).map_err(StoreError::Entry)?;
            hashes.push(sha1(payload));
            entries.push(entry);
        }
        stats.bytes += scan.good_len;
        stats.segments += 1;
        per_segment.push(SegmentHashes {
            index: *idx,
            hashes,
        });
    }
    stats.entries = entries.len() as u64;

    // Checkpoint verification. An unreadable checkpoint is skipped cleanly
    // (stats.verified_entries stays None); a readable one must match the
    // replayed bytes exactly within its horizon.
    let checkpoint = fs::read(dir.join(CHECKPOINT_FILE))
        .ok()
        .and_then(|bytes| Checkpoint::from_file_bytes(&bytes).ok());
    if let Some(ck) = &checkpoint {
        verify_checkpoint(ck, &per_segment)?;
        stats.verified_entries = Some(ck.entry_count);
    }
    Ok(DirScan {
        entries,
        per_segment,
        stats,
        truncate,
        checkpoint,
    })
}

fn verify_checkpoint(ck: &Checkpoint, per_segment: &[SegmentHashes]) -> Result<(), StoreError> {
    let mut covered: Vec<(u64, &[Digest])> = Vec::with_capacity(ck.segments.len());
    for (i, mark) in ck.segments.iter().enumerate() {
        let seg = per_segment
            .iter()
            .find(|s| s.index == mark.index)
            .ok_or_else(|| StoreError::Tampered {
                detail: format!("checkpoint covers missing segment {}", mark.index),
            })?;
        // Only the checkpoint's *last* mark may be a prefix of its
        // segment: that segment was live when the checkpoint was written,
        // and appends after it are legitimate. Every earlier mark covers
        // a segment that was already sealed — the writer never appends to
        // sealed segments, so any extra (even CRC-valid) entry there is a
        // forgery, not a late append.
        let last_mark = i + 1 == ck.segments.len();
        if (seg.hashes.len() as u64) < mark.entries
            || (!last_mark && seg.hashes.len() as u64 != mark.entries)
        {
            return Err(StoreError::Tampered {
                detail: format!(
                    "segment {} holds {} entries, checkpoint covers {}{}",
                    mark.index,
                    seg.hashes.len(),
                    mark.entries,
                    if last_mark {
                        ""
                    } else {
                        " (sealed: must match)"
                    },
                ),
            });
        }
        covered.push((mark.index, &seg.hashes[..mark.entries as usize]));
    }
    let recomputed = Checkpoint::compute(&covered);
    for (got, want) in recomputed.segments.iter().zip(&ck.segments) {
        if got.root != want.root {
            return Err(StoreError::Tampered {
                detail: format!("segment {} merkle root mismatch", want.index),
            });
        }
    }
    if recomputed.root != ck.root {
        return Err(StoreError::Tampered {
            detail: "top merkle root mismatch".into(),
        });
    }
    Ok(())
}

impl FileStore {
    /// Open (or create) the store at `dir`: replay and verify what is
    /// there, truncate any torn tail, position the writer after the last
    /// good entry. Returns the store plus the verified [`Replay`], so a
    /// recovering peer pays for the disk walk exactly once.
    pub fn open(
        dir: impl Into<PathBuf>,
        cfg: StoreConfig,
    ) -> Result<(FileStore, Replay), StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let scan = scan_dir(&dir)?;
        if let Some((idx, good_len)) = scan.truncate {
            let f = OpenOptions::new()
                .write(true)
                .open(dir.join(segment_name(idx)))?;
            f.set_len(good_len)?;
        }
        // The writer resumes in the last segment on disk (post-truncation
        // length read back from the file itself).
        let seg_index = scan.per_segment.last().map(|s| s.index).unwrap_or(0);
        let seg_bytes = if scan.per_segment.is_empty() {
            0
        } else {
            fs::metadata(dir.join(segment_name(seg_index)))
                .map(|m| m.len())
                .unwrap_or(0)
        };
        let entries = scan.stats.entries;
        // Split replayed hashes into immutable sealed marks and the live
        // segment's hashes, which wait unfolded for the first checkpoint.
        // A sealed segment the verified checkpoint covers whole takes the
        // root verification just computed; only the rest is hashed here.
        let verified = scan.checkpoint.map(|ck| ck.segments).unwrap_or_default();
        let mut per_segment = scan.per_segment;
        let unfolded = per_segment.pop().map(|s| s.hashes).unwrap_or_default();
        let mut sealed = Vec::with_capacity(per_segment.len());
        let mut sealed_top = Frontier::default();
        for s in per_segment {
            let entries = s.hashes.len() as u64;
            let root = verified
                .binary_search_by_key(&s.index, |m| m.index)
                .ok()
                .map(|i| &verified[i])
                .filter(|m| m.entries == entries)
                .map_or_else(|| merkle::root_of_entry_hashes(&s.hashes), |m| m.root);
            sealed_top.push(merkle::leaf(&root));
            sealed.push(SegmentMark {
                index: s.index,
                entries,
                root,
            });
        }
        let inner = Inner {
            dir,
            cfg,
            file: None,
            seg_index,
            seg_bytes,
            sealed,
            sealed_top,
            live: Frontier::default(),
            unfolded,
            entries,
            since_checkpoint: 0,
        };
        let replay = Replay {
            entries: scan.entries,
            stats: scan.stats,
        };
        Ok((
            FileStore {
                inner: Arc::new(Mutex::new(inner)),
            },
            replay,
        ))
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> PathBuf {
        self.inner.lock().expect("file store poisoned").dir.clone()
    }
}

impl Inner {
    fn ensure_file(&mut self) -> Result<&mut File, StoreError> {
        if self.file.is_none() {
            let path = self.dir.join(segment_name(self.seg_index));
            let f = OpenOptions::new().create(true).append(true).open(path)?;
            self.file = Some(f);
        }
        Ok(self.file.as_mut().expect("just ensured"))
    }

    fn write_checkpoint(&mut self) -> Result<(), StoreError> {
        // Durability order: the segment bytes a checkpoint covers must
        // reach disk before the checkpoint does — otherwise a power loss
        // could leave a durable checkpoint describing lost bytes, and the
        // store would refuse itself as tampered forever after.
        if let Some(f) = &self.file {
            f.sync_all()?;
        }
        self.fold();
        let live = (!self.live.is_empty()).then(|| SegmentMark {
            index: self.seg_index,
            entries: self.live.len(),
            root: self.live.root_with(None),
        });
        let root = self
            .sealed_top
            .root_with(live.as_ref().map(|m| merkle::leaf(&m.root)));
        // Serialize the sealed marks without copying them: move them into
        // the checkpoint for the encoding and take them back after.
        let sealed = self.sealed.len();
        let mut ck = Checkpoint {
            entry_count: self.entries,
            segments: std::mem::take(&mut self.sealed),
            root,
        };
        ck.segments.extend(live);
        let bytes = ck.to_file_bytes();
        self.sealed = ck.segments;
        self.sealed.truncate(sealed);
        let tmp = self.dir.join(CHECKPOINT_TMP);
        let target = self.dir.join(CHECKPOINT_FILE);
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, &target)?;
        self.since_checkpoint = 0;
        Ok(())
    }

    fn fold(&mut self) {
        for hash in self.unfolded.drain(..) {
            self.live.push(merkle::leaf(&hash));
        }
    }

    fn seal_segment(&mut self) -> Result<(), StoreError> {
        // The finished segment's root is computed once and cached for
        // good (a sealed segment never changes again); the seal is then
        // pinned with a checkpoint, which also syncs the segment file.
        self.fold();
        let root = self.live.root_with(None);
        self.sealed.push(SegmentMark {
            index: self.seg_index,
            entries: self.live.len(),
            root,
        });
        self.sealed_top.push(merkle::leaf(&root));
        self.live = Frontier::default();
        self.write_checkpoint()?;
        self.file = None;
        self.seg_index += 1;
        self.seg_bytes = 0;
        Ok(())
    }

    fn append(&mut self, entry: &StoreEntry) -> Result<(), StoreError> {
        let mut frame = Vec::with_capacity(frame_size(entry.encoded_len()));
        let hash = sha1(write_frame(&mut frame, |out| entry.encode(out)));
        let frame_len = frame.len() as u64;
        if self.seg_bytes > 0 && self.seg_bytes + frame_len > self.cfg.segment_max_bytes {
            self.seal_segment()?;
        }
        self.ensure_file()?.write_all(&frame)?;
        self.seg_bytes += frame_len;
        self.entries += 1;
        self.since_checkpoint += 1;
        self.unfolded.push(hash);
        if self.cfg.checkpoint_every > 0 && self.since_checkpoint >= self.cfg.checkpoint_every {
            self.write_checkpoint()?;
        }
        Ok(())
    }
}

impl Store for FileStore {
    fn append(&mut self, entry: &StoreEntry) -> Result<(), StoreError> {
        self.inner
            .lock()
            .expect("file store poisoned")
            .append(entry)
    }

    fn replay(&self) -> Result<Replay, StoreError> {
        let dir = self.dir();
        let scan = scan_dir(&dir)?;
        Ok(Replay {
            entries: scan.entries,
            stats: scan.stats,
        })
    }

    fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.inner
            .lock()
            .expect("file store poisoned")
            .write_checkpoint()
    }

    fn handle(&self) -> Box<dyn Store> {
        Box::new(FileStore {
            inner: Arc::clone(&self.inner),
        })
    }

    fn is_recording(&self) -> bool {
        true
    }

    fn entry_count(&self) -> u64 {
        self.inner.lock().expect("file store poisoned").entries
    }

    fn describe(&self) -> String {
        let inner = self.inner.lock().expect("file store poisoned");
        format!(
            "file({}, {} entries, segment {})",
            inner.dir.display(),
            inner.entries,
            inner.seg_index
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use chord::Id;

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("p2pltr-store-{}-{n}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn put(i: u64) -> StoreEntry {
        StoreEntry::PutPrimary {
            key: Id(i),
            value: Bytes::from(vec![i as u8; 24]),
        }
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let dir = tmp_dir("reopen");
        let (mut s, replay) = FileStore::open(&dir, StoreConfig::default()).unwrap();
        assert!(replay.entries.is_empty());
        for i in 0..10 {
            s.append(&put(i)).unwrap();
        }
        drop(s);
        let (_s2, replay) = FileStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(replay.entries.len(), 10);
        assert_eq!(replay.entries[3], put(3));
        assert_eq!(replay.stats.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `Checkpoint::compute` over the hashes replayed from `dir`, less the
    /// last `uncovered` entries (appended after the checkpoint, all in the
    /// live segment: a seal writes a checkpoint).
    fn recompute(dir: &Path, uncovered: u64) -> Vec<u8> {
        let scan = scan_dir(dir).unwrap();
        let mut covered: Vec<(u64, &[Digest])> = scan
            .per_segment
            .iter()
            .map(|s| (s.index, s.hashes.as_slice()))
            .collect();
        if let Some((_, live)) = covered.last_mut() {
            *live = &live[..live.len() - uncovered as usize];
        }
        Checkpoint::compute(&covered).to_file_bytes()
    }

    #[test]
    fn every_checkpoint_equals_a_recompute_over_the_replayed_hashes() {
        let dir = tmp_dir("oracle");
        let cfg = StoreConfig {
            segment_max_bytes: 300, // a seal every few appends
            checkpoint_every: 5,
        };
        let mut rng = simnet::Rng64::new(0xC4EC_2029);
        let (mut s, _) = FileStore::open(&dir, cfg).unwrap();
        let cursor = |s: &FileStore| {
            let inner = s.inner.lock().unwrap();
            (inner.since_checkpoint, inner.seg_index)
        };
        let mut want = None;
        for step in 0..400u64 {
            let (since, seg) = cursor(&s);
            let wrote = match rng.gen_below(20) {
                0 => {
                    drop(s);
                    s = FileStore::open(&dir, cfg).unwrap().0;
                    false
                }
                1 => {
                    s.checkpoint().unwrap();
                    true
                }
                _ => {
                    let len = rng.gen_below(64) as usize;
                    s.append(&StoreEntry::PutPrimary {
                        key: Id(step),
                        value: Bytes::from(vec![step as u8; len]),
                    })
                    .unwrap();
                    // A periodic checkpoint resets the count; a seal
                    // writes one and moves to the next segment.
                    cursor(&s) != (since + 1, seg)
                }
            };
            if wrote {
                want = Some(recompute(&dir, cursor(&s).0));
            }
            let got = fs::read(dir.join(CHECKPOINT_FILE)).ok();
            assert!(got == want, "CHECKPOINT differs after step {step}");
        }
        assert!(s.inner.lock().unwrap().seg_index > 20, "seals are frequent");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Every segment file and CHECKPOINT a fixed append sequence leaves
    /// behind, as `(file name, SHA-1 of its bytes)`. Payload lengths cover
    /// every residue mod 8, so each CRC-32 tail length is on disk. The
    /// constants were written by the bytewise CRC-32 and the rolled SHA-1
    /// compression that the kernel oracles keep.
    const GOLDEN: [(&str, &str); 10] = [
        ("CHECKPOINT", "ef33500068a150abd4efbd271c05da6292e30ae0"),
        ("seg-000000.log", "a97faf73adf77464c63eac684ff4e60eb422732e"),
        ("seg-000001.log", "2b03fe38c4d961473d1d9dffa6608de875a5ad93"),
        ("seg-000002.log", "96cabf4b29f3a974101b0116ace6e6f6ef18a72a"),
        ("seg-000003.log", "db23d0a5b26316ac5f5cb35725ec337a19a20cc8"),
        ("seg-000004.log", "c63a3f1ae16144afe02e5ea6ddecb70596c185e0"),
        ("seg-000005.log", "2030c29e1babfd86e910c3166aa7e2793ec59fa9"),
        ("seg-000006.log", "cd604dcdb9266afa26ed42f9587cce5847f99d74"),
        ("seg-000007.log", "5521ecffa380523e9d23ae14e10c61637172f970"),
        ("seg-000008.log", "294317bd045a87cffd53e3c476a8a76531e8140b"),
    ];

    #[test]
    fn a_fixed_append_sequence_leaves_golden_bytes() {
        let dir = tmp_dir("golden");
        let cfg = StoreConfig {
            segment_max_bytes: 256,
            checkpoint_every: 5,
        };
        let (mut s, _) = FileStore::open(&dir, cfg).unwrap();
        for i in 0..64u64 {
            let key = Id(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            s.append(&match i % 4 {
                0 => StoreEntry::PutPrimary {
                    key,
                    value: Bytes::from(vec![i as u8; (i * 13 % 41) as usize]),
                },
                1 => StoreEntry::KtsAuth {
                    entry: kts::HandoffEntry {
                        key,
                        key_name: chord::DocName::new(format!("wiki/page-{i}")),
                        last_ts: i * 3,
                        epoch: i / 7,
                    },
                },
                2 => StoreEntry::FenceFloor {
                    key,
                    floor: i,
                    origin: !i,
                },
                _ => StoreEntry::DocOpen {
                    doc: chord::DocName::new(format!("notes/{i}")),
                    initial: "line\n".repeat((i % 9) as usize),
                },
            })
            .unwrap();
        }
        drop(s);
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let got: Vec<(String, String)> = names
            .into_iter()
            .map(|name| {
                let digest = sha1(&fs::read(dir.join(&name)).unwrap());
                let hex = digest.iter().map(|b| format!("{b:02x}")).collect();
                (name, hex)
            })
            .collect();
        let want: Vec<(String, String)> = GOLDEN
            .iter()
            .map(|(n, h)| (n.to_string(), h.to_string()))
            .collect();
        assert_eq!(got, want);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_and_checkpoints_verify() {
        let dir = tmp_dir("roll");
        let cfg = StoreConfig {
            segment_max_bytes: 128,
            checkpoint_every: 4,
        };
        let (mut s, _) = FileStore::open(&dir, cfg).unwrap();
        for i in 0..40 {
            s.append(&put(i)).unwrap();
        }
        drop(s);
        let segs = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("seg-")
            })
            .count();
        assert!(segs > 1, "expected multiple segments, got {segs}");
        let (_s2, replay) = FileStore::open(&dir, cfg).unwrap();
        assert_eq!(replay.entries.len(), 40);
        let verified = replay.stats.verified_entries.expect("checkpoint verified");
        assert!(verified >= 36, "verified {verified}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let dir = tmp_dir("torn");
        let cfg = StoreConfig {
            segment_max_bytes: 1 << 20,
            checkpoint_every: 0, // no checkpoint: the tail is just dropped
        };
        let (mut s, _) = FileStore::open(&dir, cfg).unwrap();
        for i in 0..5 {
            s.append(&put(i)).unwrap();
        }
        drop(s);
        // Tear the last record.
        let seg = dir.join(segment_name(0));
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 7)
            .unwrap();
        let (mut s2, replay) = FileStore::open(&dir, cfg).unwrap();
        assert_eq!(replay.entries.len(), 4);
        assert!(replay.stats.torn_bytes > 0);
        // Appends continue from the good prefix.
        s2.append(&put(99)).unwrap();
        drop(s2);
        let (_s3, replay) = FileStore::open(&dir, cfg).unwrap();
        assert_eq!(replay.entries.len(), 5);
        assert_eq!(replay.entries[4], put(99));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_inside_checkpoint_horizon_is_tampering() {
        let dir = tmp_dir("tamper");
        let cfg = StoreConfig {
            segment_max_bytes: 1 << 20,
            checkpoint_every: 1, // checkpoint after every append
        };
        let (mut s, _) = FileStore::open(&dir, cfg).unwrap();
        for i in 0..5 {
            s.append(&put(i)).unwrap();
        }
        drop(s);
        // Truncating checkpointed entries must be caught by the Merkle
        // verification, not silently accepted as a torn tail.
        let seg = dir.join(segment_name(0));
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len / 2)
            .unwrap();
        match FileStore::open(&dir, cfg) {
            Err(StoreError::Tampered { .. }) => {}
            other => panic!("expected Tampered, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forged_entry_on_a_sealed_segment_is_tampering() {
        let dir = tmp_dir("forge");
        let cfg = StoreConfig {
            segment_max_bytes: 128, // force several segments
            checkpoint_every: 1,
        };
        let (mut s, _) = FileStore::open(&dir, cfg).unwrap();
        for i in 0..20 {
            s.append(&put(i)).unwrap();
        }
        drop(s);
        // Append a perfectly well-formed, CRC-valid frame to the *first*
        // (sealed) segment: the writer never does this, so Merkle
        // verification must reject it even though every CRC passes.
        let mut frame = Vec::new();
        write_frame(&mut frame, |out| put(999).encode(out));
        let seg0 = dir.join(segment_name(0));
        let mut bytes = fs::read(&seg0).unwrap();
        bytes.extend_from_slice(&frame);
        fs::write(&seg0, &bytes).unwrap();
        match FileStore::open(&dir, cfg) {
            Err(StoreError::Tampered { .. }) => {}
            other => panic!("expected Tampered, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_checkpoint_is_skipped_cleanly() {
        let dir = tmp_dir("badck");
        let cfg = StoreConfig::default();
        let (mut s, _) = FileStore::open(&dir, cfg).unwrap();
        for i in 0..6 {
            s.append(&put(i)).unwrap();
        }
        s.checkpoint().unwrap();
        drop(s);
        // Truncate the checkpoint file itself: recovery falls back to
        // CRC-only replay (entries intact, verification skipped).
        let ck = dir.join(CHECKPOINT_FILE);
        let len = fs::metadata(&ck).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&ck)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (_s2, replay) = FileStore::open(&dir, cfg).unwrap();
        assert_eq!(replay.entries.len(), 6);
        assert_eq!(replay.stats.verified_entries, None);
        fs::remove_dir_all(&dir).unwrap();
    }
}
