//! # store — durable Merkle-checkpointed log store for P2P-LTR peers
//!
//! The paper's availability story assumes a crashed Master-key peer's
//! state can be re-derived from the *network* (Master-Succ backups, log
//! probes). This crate adds the missing local leg: every peer journals its
//! durable state transitions — log items stored, timestamp-table updates,
//! documents opened — to an **append-only segmented log**, and a restarted
//! peer rebuilds its key table, timestamp state and per-doc logs from its
//! own disk before rejoining the ring.
//!
//! The design follows the Merkle-tree log-notarization line of work
//! (Barontini, arXiv:2110.02103; Koisser & Sadeghi, arXiv:2308.05557):
//!
//! * **entries** ([`StoreEntry`]) are wire-codec encoded, CRC-framed and
//!   appended to segment files ([`segment`]); replay tolerates a torn
//!   final record (crash mid-append) by truncating to the last good frame;
//! * **Merkle-root checkpoints** ([`checkpoint`]) pin the content
//!   periodically; at recovery the tree is recomputed from the replayed
//!   bytes, so corruption *inside* the checkpointed horizon is
//!   distinguished from an ordinary torn tail and rejected as
//!   [`StoreError::Tampered`];
//! * **recovery** ([`RecoveredState`]) reduces the replayed entries to the
//!   peer's final tables, ready to seed a restarted `LtrNode`.
//!
//! Three backends implement the [`Store`] trait:
//!
//! | Backend | Purpose |
//! |---|---|
//! | [`NullStore`] | The default: journaling disabled, zero cost, preserves the simulator's byte-identical determinism. |
//! | [`MemStore`] | In-memory shared-handle journal: crash/restart scenarios inside the simulator without touching disk. |
//! | [`FileStore`] | The real thing: segment files + checkpoints in a directory, used by the recovery scenarios and the `tcp_ring` example. |
//!
//! ## Example
//!
//! ```
//! use store::{MemStore, RecoveredState, Store, StoreEntry};
//! use bytes::Bytes;
//!
//! let mut s = MemStore::new();
//! s.append(&StoreEntry::PutPrimary { key: chord::Id(7), value: Bytes::from_static(b"rec") })
//!     .unwrap();
//! // A second handle sees the same journal — this is how a restarted peer
//! // reopens the store its crashed incarnation wrote.
//! let replay = s.handle().replay().unwrap();
//! let state = RecoveredState::rebuild(&replay.entries);
//! assert_eq!(state.primary.len(), 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod entry;
pub mod file;
pub mod mem;
pub mod recover;
pub mod segment;

pub use checkpoint::{Checkpoint, SegmentMark};
pub use entry::StoreEntry;
pub use file::{FileStore, StoreConfig};
pub use mem::{MemStore, NullStore};
pub use recover::RecoveredState;

use wire::WireError;

/// Why a store operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure (message carries the underlying io error).
    Io(String),
    /// A non-final segment had damaged framing — the log is not a clean
    /// prefix of what was appended and cannot be trusted past this point.
    Corrupt {
        /// Segment index where replay stopped.
        segment: u64,
        /// Byte offset of the first bad frame inside that segment.
        offset: u64,
    },
    /// The replayed bytes disagree with the Merkle checkpoint inside its
    /// covered horizon: tampering or silent corruption.
    Tampered {
        /// Human-readable mismatch description.
        detail: String,
    },
    /// An entry's payload failed to decode after passing its CRC.
    Entry(WireError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Corrupt { segment, offset } => {
                write!(f, "segment {segment} corrupt at byte {offset}")
            }
            StoreError::Tampered { detail } => write!(f, "merkle verification failed: {detail}"),
            StoreError::Entry(e) => write!(f, "entry decode failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// Everything a replay learned, alongside the entries themselves.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Entries successfully replayed.
    pub entries: u64,
    /// Segment files visited.
    pub segments: u64,
    /// Total good bytes replayed.
    pub bytes: u64,
    /// Bytes dropped from the final segment's torn tail (0 = clean).
    pub torn_bytes: u64,
    /// Entries covered by a successfully verified Merkle checkpoint
    /// (`None` = no usable checkpoint was found, replay is CRC-only).
    pub verified_entries: Option<u64>,
}

/// A replayed journal: entries in append order plus [`ReplayStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Replay {
    /// The journal entries, oldest first.
    pub entries: Vec<StoreEntry>,
    /// What replay observed along the way.
    pub stats: ReplayStats,
}

/// A peer's durable journal. Implementations are *handles*: cloning via
/// [`Store::handle`] yields another view of the same underlying journal,
/// which is how a restarted peer reopens what its crashed incarnation
/// wrote (shared memory for [`MemStore`], the directory for [`FileStore`]).
pub trait Store {
    /// Append one entry. Durability is backend-defined; errors are
    /// reported but must leave the store usable.
    fn append(&mut self, entry: &StoreEntry) -> Result<(), StoreError>;

    /// Read back every persisted entry in append order, verifying CRCs and
    /// (for checkpointing backends) the Merkle checkpoint.
    fn replay(&self) -> Result<Replay, StoreError>;

    /// Force a Merkle checkpoint now (no-op for non-checkpointing
    /// backends).
    fn checkpoint(&mut self) -> Result<(), StoreError>;

    /// Another handle onto the same underlying journal.
    fn handle(&self) -> Box<dyn Store>;

    /// False for [`NullStore`]: the embedding layer skips journaling work
    /// entirely, keeping the default simulation path byte-identical.
    fn is_recording(&self) -> bool;

    /// Entries appended so far (diagnostics).
    fn entry_count(&self) -> u64;

    /// Human-readable backend description (diagnostics, examples).
    fn describe(&self) -> String;
}
