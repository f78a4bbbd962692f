//! The journal unit: one [`StoreEntry`] per durable state transition.
//!
//! A P2P-LTR peer has three kinds of state worth surviving a crash (RR-6497
//! §3–5): the **log items** it stores as a Log-Peer / Log-Peer-Succ, the
//! **timestamp table** it serves as a Master-key peer (plus the backups it
//! keeps as a Master-Succ), and the set of **documents** its user opened.
//! Each mutation of that state appends exactly one entry here; replaying
//! the entries in order rebuilds the state (see
//! [`RecoveredState`](crate::RecoveredState)).
//!
//! Entries are encoded with the `wire` codec — the same canonical varints,
//! fixed-width ring ids and length-prefixed payloads every protocol
//! message uses — so a stored segment is as deterministic and
//! corruption-evident as a frame on the wire.

use bytes::Bytes;
use chord::{DocName, Id};
use kts::HandoffEntry;
use wire::wire_enum;

/// One durable state transition of a P2P-LTR peer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreEntry {
    /// A log item stored in the primary bucket (this node owns the key).
    PutPrimary {
        /// DHT key (`h_i(doc + ts)` for log records).
        key: Id,
        /// The stored bytes (an encoded `p2plog::LogRecord`).
        value: Bytes,
    },
    /// A log item stored in the replica bucket (Log-Peer-Succ role).
    PutReplica {
        /// DHT key.
        key: Id,
        /// The stored bytes.
        value: Bytes,
    },
    /// A primary item removed (GC sweep, or demoted during a handoff).
    DelPrimary {
        /// DHT key.
        key: Id,
    },
    /// A replica item removed (GC sweep, promotion, or pruning).
    DelReplica {
        /// DHT key.
        key: Id,
    },
    /// Authoritative timestamp-table upsert: a grant completed, a handoff
    /// was received, or a backup was promoted.
    KtsAuth {
        /// The table entry (key, document, last granted ts, fencing epoch).
        entry: HandoffEntry,
    },
    /// Master-Succ backup upsert (`ReplicateEntry` received).
    KtsBackup {
        /// The backed-up entry.
        entry: HandoffEntry,
    },
    /// An authoritative entry left this node (exported in a handoff); it
    /// survives recovery only as a backup.
    KtsDemote {
        /// The exported key.
        key: Id,
    },
    /// A document was opened locally with the given initial content.
    DocOpen {
        /// The document name.
        doc: DocName,
        /// Initial text (the recovery base the retrieval procedure
        /// re-integrates validated patches onto).
        initial: String,
    },
    /// A fence floor raised on a stored key (grant fencing; see
    /// ARCHITECTURE.md, "Grant fencing and master epochs"). Floors are
    /// max-merged on recovery — a restarted Log-Peer must keep rejecting
    /// writes it already fenced out.
    FenceFloor {
        /// DHT key of the fenced log slot.
        key: Id,
        /// The epoch floor in force.
        floor: u64,
        /// Ring id of the master that raised the fence.
        origin: u64,
    },
}

// Entry tags are part of the on-disk format: append-only, never renumber.
wire_enum! { StoreEntry;
    0 => PutPrimary { key, value },
    1 => PutReplica { key, value },
    2 => DelPrimary { key },
    3 => DelReplica { key },
    4 => KtsAuth { entry },
    5 => KtsBackup { entry },
    6 => KtsDemote { key },
    7 => DocOpen { doc, initial },
    8 => FenceFloor { key, floor, origin },
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{Decode, Encode, WireError};

    pub(crate) fn samples() -> Vec<StoreEntry> {
        vec![
            StoreEntry::PutPrimary {
                key: Id(7),
                value: Bytes::from_static(b"record-bytes"),
            },
            StoreEntry::PutReplica {
                key: Id(u64::MAX),
                value: Bytes::new(),
            },
            StoreEntry::DelPrimary { key: Id(0) },
            StoreEntry::DelReplica { key: Id(42) },
            StoreEntry::KtsAuth {
                entry: HandoffEntry {
                    key: Id(9),
                    key_name: DocName::new("wiki/Main"),
                    last_ts: 17,
                    epoch: 3,
                },
            },
            StoreEntry::KtsBackup {
                entry: HandoffEntry {
                    key: Id(10),
                    key_name: DocName::new("página/Ωλ"),
                    last_ts: 0,
                    epoch: 1,
                },
            },
            StoreEntry::KtsDemote { key: Id(1 << 40) },
            StoreEntry::DocOpen {
                doc: DocName::new("notes/today"),
                initial: "# heading\nbody".into(),
            },
            StoreEntry::FenceFloor {
                key: Id(77),
                floor: 4,
                origin: 0xABCD,
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for e in samples() {
            let buf = e.to_wire();
            assert_eq!(buf.len(), e.encoded_len());
            assert_eq!(StoreEntry::from_wire(&buf).unwrap(), e);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            StoreEntry::from_wire(&[0xEE]),
            Err(WireError::BadTag { .. })
        ));
    }
}
