//! Observable events recorded by every node, consumed by the experiment
//! oracles (continuity, total order, convergence).

use p2plog::DocName;
use simnet::Time;

/// One notable occurrence on a node, with its simulated time.
#[derive(Clone, Debug, PartialEq)]
pub struct LtrEvent {
    /// When it happened.
    pub at: Time,
    /// What happened.
    pub kind: LtrEventKind,
}

/// Event kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum LtrEventKind {
    /// This node, acting as Master-key peer, granted a timestamp and the
    /// patch is durably in the log. The continuity oracle consumes these.
    MasterGranted {
        /// Document name.
        doc: DocName,
        /// The granted timestamp.
        ts: u64,
    },
    /// This node's own tentative patch was validated.
    OwnPublished {
        /// Document name.
        doc: DocName,
        /// Its timestamp.
        ts: u64,
        /// End-to-end latency from the save to the ack, in ms.
        latency_ms: f64,
    },
    /// A remote patch was integrated (in continuous order). The total-order
    /// oracle consumes these: per (node, doc) the ts sequence must be
    /// exactly +1 increments.
    Integrated {
        /// Document name.
        doc: DocName,
        /// Timestamp integrated.
        ts: u64,
        /// Master epoch stamped on the record (0 = an unstamped record). The
        /// epoch-monotonicity oracle consumes these: per (node, doc) the
        /// epoch sequence must be non-decreasing.
        epoch: u64,
        /// True when this was our own patch recovered from the log after a
        /// lost ack.
        own: bool,
    },
    /// A fetched record carried a master epoch below one this replica had
    /// already integrated — a superseded master's write at a re-granted
    /// slot. The record was rejected and the slot refetched after backoff.
    EpochRejected {
        /// Document name.
        doc: DocName,
        /// The slot.
        ts: u64,
        /// The rejected record's epoch.
        epoch: u64,
        /// The replica's epoch floor at that moment.
        floor: u64,
    },
    /// A validation was redirected (master moved).
    Redirected {
        /// Document name.
        doc: DocName,
    },
    /// A validation answered "retry: you are behind".
    RetriedBehind {
        /// Document name.
        doc: DocName,
        /// The master's last_ts at that moment.
        master_last_ts: u64,
    },
    /// A grant hint told this replica the master reached `ts`: the
    /// retrieval that follows — at once if the replica was idle, else when
    /// its current retrieval completes — started for this reason.
    Hinted {
        /// Document name.
        doc: DocName,
        /// The hinted timestamp.
        ts: u64,
    },
    /// This master detected it was stale (log conflict) and stood down.
    StaleMasterStoodDown {
        /// Document key involved.
        doc_key: chord::Id,
    },
    /// Backup entries promoted after a predecessor failure.
    BackupsPromoted {
        /// How many.
        count: usize,
    },
    /// Timestamp table handed to another master (leave/join).
    TableHandedOff {
        /// How many entries.
        count: usize,
    },
    /// Timestamp table received.
    TableReceived {
        /// How many entries.
        count: usize,
    },
    /// A publish cycle exhausted its attempts and backed off.
    CycleBackedOff {
        /// Document name.
        doc: DocName,
    },
    /// A retrieval could not find a record (all replicas missed).
    RetrievalStalled {
        /// Document name.
        doc: DocName,
        /// The missing timestamp.
        ts: u64,
    },
    /// Log GC removed records.
    GcSwept {
        /// Records removed on this node.
        removed: usize,
    },
}
