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
use wire::{Decode, Encode, Reader, WireError};

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
const TAG_PUT_PRIMARY: u8 = 0;
const TAG_PUT_REPLICA: u8 = 1;
const TAG_DEL_PRIMARY: u8 = 2;
const TAG_DEL_REPLICA: u8 = 3;
const TAG_KTS_AUTH: u8 = 4;
const TAG_KTS_BACKUP: u8 = 5;
const TAG_KTS_DEMOTE: u8 = 6;
const TAG_DOC_OPEN: u8 = 7;
const TAG_FENCE_FLOOR: u8 = 8;

impl Encode for StoreEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            StoreEntry::PutPrimary { key, value } => {
                out.push(TAG_PUT_PRIMARY);
                key.encode(out);
                value.encode(out);
            }
            StoreEntry::PutReplica { key, value } => {
                out.push(TAG_PUT_REPLICA);
                key.encode(out);
                value.encode(out);
            }
            StoreEntry::DelPrimary { key } => {
                out.push(TAG_DEL_PRIMARY);
                key.encode(out);
            }
            StoreEntry::DelReplica { key } => {
                out.push(TAG_DEL_REPLICA);
                key.encode(out);
            }
            StoreEntry::KtsAuth { entry } => {
                out.push(TAG_KTS_AUTH);
                entry.encode(out);
            }
            StoreEntry::KtsBackup { entry } => {
                out.push(TAG_KTS_BACKUP);
                entry.encode(out);
            }
            StoreEntry::KtsDemote { key } => {
                out.push(TAG_KTS_DEMOTE);
                key.encode(out);
            }
            StoreEntry::DocOpen { doc, initial } => {
                out.push(TAG_DOC_OPEN);
                doc.encode(out);
                initial.encode(out);
            }
            StoreEntry::FenceFloor { key, floor, origin } => {
                out.push(TAG_FENCE_FLOOR);
                key.encode(out);
                floor.encode(out);
                origin.encode(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            StoreEntry::PutPrimary { key, value } | StoreEntry::PutReplica { key, value } => {
                key.encoded_len() + value.encoded_len()
            }
            StoreEntry::DelPrimary { key }
            | StoreEntry::DelReplica { key }
            | StoreEntry::KtsDemote { key } => key.encoded_len(),
            StoreEntry::KtsAuth { entry } | StoreEntry::KtsBackup { entry } => entry.encoded_len(),
            StoreEntry::DocOpen { doc, initial } => doc.encoded_len() + initial.encoded_len(),
            StoreEntry::FenceFloor { key, floor, origin } => {
                key.encoded_len() + floor.encoded_len() + origin.encoded_len()
            }
        }
    }
}

impl Decode for StoreEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.read_u8()? {
            TAG_PUT_PRIMARY => StoreEntry::PutPrimary {
                key: Id::decode(r)?,
                value: Bytes::decode(r)?,
            },
            TAG_PUT_REPLICA => StoreEntry::PutReplica {
                key: Id::decode(r)?,
                value: Bytes::decode(r)?,
            },
            TAG_DEL_PRIMARY => StoreEntry::DelPrimary {
                key: Id::decode(r)?,
            },
            TAG_DEL_REPLICA => StoreEntry::DelReplica {
                key: Id::decode(r)?,
            },
            TAG_KTS_AUTH => StoreEntry::KtsAuth {
                entry: HandoffEntry::decode(r)?,
            },
            TAG_KTS_BACKUP => StoreEntry::KtsBackup {
                entry: HandoffEntry::decode(r)?,
            },
            TAG_KTS_DEMOTE => StoreEntry::KtsDemote {
                key: Id::decode(r)?,
            },
            TAG_DOC_OPEN => StoreEntry::DocOpen {
                doc: DocName::decode(r)?,
                initial: String::decode(r)?,
            },
            TAG_FENCE_FLOOR => StoreEntry::FenceFloor {
                key: Id::decode(r)?,
                floor: u64::decode(r)?,
                origin: u64::decode(r)?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "StoreEntry",
                    tag,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
