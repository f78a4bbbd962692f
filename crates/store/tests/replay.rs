//! Property tests for segment replay — the same fuzz discipline as the
//! wire codec corpus (`crates/wire/tests/roundtrip.rs`), applied to the
//! durable store:
//!
//! 1. **Round-trip**: any entry sequence written through a [`FileStore`]
//!    (under randomized segment sizes and checkpoint cadences) replays
//!    byte-identically after reopen;
//! 2. **Torn final record**: truncating the last segment at any point
//!    replays the longest good prefix — never an error, never a panic —
//!    when no checkpoint covers the torn entries;
//! 3. **Bit-flipped CRC**: with a checkpoint covering every entry, any
//!    single-bit flip inside segment data makes recovery *error cleanly*
//!    ([`StoreError::Corrupt`] / [`StoreError::Tampered`] /
//!    [`StoreError::Entry`]), never silently succeed;
//! 4. **Truncated checkpoint**: damage to the checkpoint file itself is
//!    skipped cleanly (CRC-only replay, full entries, no verification);
//! 5. **Empty store**: an empty directory (or journal) recovers to the
//!    empty state.

use bytes::Bytes;
use chord::{DocName, Id};
use kts::HandoffEntry;
use proptest::prelude::*;
use simnet::Rng64;
use store::{FileStore, RecoveredState, Store, StoreConfig, StoreEntry, StoreError};

use std::fs::{self, OpenOptions};
use std::path::PathBuf;

fn tmp_dir(tag: &str, seed: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("p2pltr-replay-{}-{tag}-{seed}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn arb_entry(rng: &mut Rng64) -> StoreEntry {
    let key = Id(rng.next_u64());
    match rng.gen_below(8) {
        0 | 1 => StoreEntry::PutPrimary {
            key,
            value: arb_bytes(rng),
        },
        2 => StoreEntry::PutReplica {
            key,
            value: arb_bytes(rng),
        },
        3 => StoreEntry::DelPrimary { key },
        4 => StoreEntry::DelReplica { key },
        5 => StoreEntry::KtsAuth {
            entry: arb_handoff(rng),
        },
        6 => StoreEntry::KtsBackup {
            entry: arb_handoff(rng),
        },
        _ => StoreEntry::DocOpen {
            doc: DocName::new(format!("doc/{}", rng.gen_below(8))),
            initial: "seed text".into(),
        },
    }
}

fn arb_bytes(rng: &mut Rng64) -> Bytes {
    let len = rng.gen_below(120) as usize;
    Bytes::from(
        (0..len)
            .map(|_| rng.gen_below(256) as u8)
            .collect::<Vec<u8>>(),
    )
}

fn arb_handoff(rng: &mut Rng64) -> HandoffEntry {
    HandoffEntry {
        key: Id(rng.next_u64()),
        key_name: DocName::new(format!("doc/{}", rng.gen_below(8))),
        last_ts: rng.gen_below(1 << 20),
        epoch: 1 + rng.gen_below(5),
    }
}

fn arb_entries(rng: &mut Rng64, max: u64) -> Vec<StoreEntry> {
    let n = 1 + rng.gen_below(max) as usize;
    (0..n).map(|_| arb_entry(rng)).collect()
}

/// Paths of every segment file in `dir`, sorted.
fn segment_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("seg-"))
        })
        .collect();
    segs.sort();
    segs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn write_reopen_roundtrips(seed in 0u64..1_000_000) {
        let mut rng = Rng64::new(seed ^ 0x5708E);
        let entries = arb_entries(&mut rng, 60);
        let cfg = StoreConfig {
            segment_max_bytes: 64 + rng.gen_below(512),
            checkpoint_every: rng.gen_below(10), // 0 = manual only
        };
        let dir = tmp_dir("rt", seed);
        let (mut s, replay0) = FileStore::open(&dir, cfg).unwrap();
        prop_assert!(replay0.entries.is_empty());
        for e in &entries {
            s.append(e).unwrap();
        }
        prop_assert_eq!(s.entry_count(), entries.len() as u64);
        drop(s);
        let (_s2, replay) = FileStore::open(&dir, cfg).unwrap();
        prop_assert_eq!(&replay.entries, &entries);
        prop_assert_eq!(replay.stats.torn_bytes, 0);
        // The reduction is pure: same entries, same state.
        prop_assert_eq!(
            RecoveredState::rebuild(&replay.entries),
            RecoveredState::rebuild(&entries)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_record_replays_good_prefix(seed in 0u64..1_000_000) {
        let mut rng = Rng64::new(seed ^ 0x70A2);
        let entries = arb_entries(&mut rng, 30);
        let cfg = StoreConfig {
            segment_max_bytes: 1 << 20, // single segment
            checkpoint_every: 0,        // nothing pins the tail
        };
        let dir = tmp_dir("torn", seed);
        let (mut s, _) = FileStore::open(&dir, cfg).unwrap();
        for e in &entries {
            s.append(e).unwrap();
        }
        drop(s);
        let seg = &segment_files(&dir)[0];
        let len = fs::metadata(seg).unwrap().len();
        let cut = 1 + rng.gen_below(len - 1); // keep at least byte 0 gone
        OpenOptions::new().write(true).open(seg).unwrap().set_len(len - cut).unwrap();
        let (_s2, replay) = FileStore::open(&dir, cfg).unwrap();
        // The replayed entries are a strict prefix of what was appended.
        prop_assert!(replay.entries.len() < entries.len() + 1);
        prop_assert_eq!(&replay.entries[..], &entries[..replay.entries.len()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bitflip_under_checkpoint_errors_cleanly(seed in 0u64..1_000_000) {
        let mut rng = Rng64::new(seed ^ 0xB17F);
        let entries = arb_entries(&mut rng, 24);
        let cfg = StoreConfig {
            segment_max_bytes: 96 + rng.gen_below(256),
            checkpoint_every: 1, // every entry is Merkle-covered
        };
        let dir = tmp_dir("flip", seed);
        let (mut s, _) = FileStore::open(&dir, cfg).unwrap();
        for e in &entries {
            s.append(e).unwrap();
        }
        drop(s);
        let segs = segment_files(&dir);
        let seg = &segs[rng.gen_below(segs.len() as u64) as usize];
        let mut bytes = fs::read(seg).unwrap();
        let pos = rng.gen_below(bytes.len() as u64) as usize;
        let bit = 1u8 << rng.gen_below(8);
        bytes[pos] ^= bit;
        fs::write(seg, &bytes).unwrap();
        match FileStore::open(&dir, cfg) {
            Err(StoreError::Corrupt { .. })
            | Err(StoreError::Tampered { .. })
            | Err(StoreError::Entry(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
            Ok(_) => prop_assert!(
                false,
                "flip of bit {bit:#x} at {pos} in {seg:?} accepted silently"
            ),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_checkpoint_is_skipped_cleanly(seed in 0u64..1_000_000) {
        let mut rng = Rng64::new(seed ^ 0xCC4E);
        let entries = arb_entries(&mut rng, 24);
        let cfg = StoreConfig {
            segment_max_bytes: 1 << 20,
            checkpoint_every: 4,
        };
        let dir = tmp_dir("ck", seed);
        let (mut s, _) = FileStore::open(&dir, cfg).unwrap();
        for e in &entries {
            s.append(e).unwrap();
        }
        s.checkpoint().unwrap();
        drop(s);
        let ck = dir.join("CHECKPOINT");
        let len = fs::metadata(&ck).unwrap().len();
        let cut = 1 + rng.gen_below(len);
        OpenOptions::new().write(true).open(&ck).unwrap().set_len(len.saturating_sub(cut)).unwrap();
        let (_s2, replay) = FileStore::open(&dir, cfg).unwrap();
        prop_assert_eq!(&replay.entries, &entries, "entries survive a dead checkpoint");
        prop_assert_eq!(replay.stats.verified_entries, None);
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn empty_store_recovers_to_empty_state() {
    let dir = tmp_dir("empty", 0);
    let (s, replay) = FileStore::open(&dir, StoreConfig::default()).unwrap();
    assert!(replay.entries.is_empty());
    assert_eq!(replay.stats.entries, 0);
    assert!(RecoveredState::rebuild(&replay.entries).is_empty());
    // A second handle over the still-empty dir agrees.
    assert!(s.handle().replay().unwrap().entries.is_empty());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopen_resumes_appending_after_torn_tail() {
    // Crash mid-append, recover, keep writing, crash cleanly, recover:
    // the journal is the concatenation of both incarnations' entries.
    let cfg = StoreConfig {
        segment_max_bytes: 1 << 20,
        checkpoint_every: 0,
    };
    let dir = tmp_dir("resume", 1);
    let first: Vec<StoreEntry> = (0..6)
        .map(|i| StoreEntry::PutPrimary {
            key: Id(i),
            value: Bytes::from(vec![i as u8; 16]),
        })
        .collect();
    let (mut s, _) = FileStore::open(&dir, cfg).unwrap();
    for e in &first {
        s.append(e).unwrap();
    }
    drop(s);
    let seg = &segment_files(&dir)[0];
    let len = fs::metadata(seg).unwrap().len();
    OpenOptions::new()
        .write(true)
        .open(seg)
        .unwrap()
        .set_len(len - 5)
        .unwrap();
    let (mut s2, replay) = FileStore::open(&dir, cfg).unwrap();
    assert_eq!(replay.entries.len(), 5, "torn sixth entry dropped");
    let extra = StoreEntry::KtsAuth {
        entry: HandoffEntry {
            key: Id(99),
            key_name: DocName::new("doc"),
            last_ts: 7,
            epoch: 2,
        },
    };
    s2.append(&extra).unwrap();
    drop(s2);
    let (_s3, replay) = FileStore::open(&dir, cfg).unwrap();
    assert_eq!(replay.entries.len(), 6);
    assert_eq!(replay.entries[5], extra);
    assert_eq!(&replay.entries[..5], &first[..5]);
    fs::remove_dir_all(&dir).unwrap();
}
