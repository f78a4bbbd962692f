//! Wire messages of the timestamping service (user ⇄ Master-key peer,
//! master ⇄ Master-key-Succ).

use bytes::Bytes;

use chord::{DocName, Id, NodeRef};

/// Client-operation handle, local to the issuing node (same convention as
/// `chord::OpId` but a distinct type to keep layers apart).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

impl std::fmt::Debug for ReqId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Why a validation could not be granted right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValidateFailure {
    /// The log peers could not be reached; try again later.
    LogUnreachable,
    /// Master shed load (bounded queue overflow).
    Overloaded,
    /// The user proposed a timestamp beyond what the log contains — either
    /// the retrieval state is corrupt or the log lost records.
    AheadOfLog,
}

/// KTS protocol messages.
#[derive(Clone, Debug)]
pub enum KtsMsg {
    /// User → master: "publish my tentative patch; my last integrated
    /// timestamp for this document is `proposed_ts`" (the paper's
    /// `put(ht(key), patch+ts)` interaction).
    Validate {
        /// User's operation handle.
        op: ReqId,
        /// `ht(document)` — the key the master serves.
        key: Id,
        /// The document name (needed to compute the replication hashes
        /// `h_i(key + ts)` when publishing to the log).
        key_name: DocName,
        /// The user's current timestamp (last integrated).
        proposed_ts: u64,
        /// Encoded tentative patch.
        patch: Bytes,
        /// Where to answer.
        user: NodeRef,
    },
    /// Master → user: granted; the patch is in the log with this timestamp.
    Granted {
        /// Echoed handle.
        op: ReqId,
        /// The validated (continuous) timestamp.
        ts: u64,
        /// The master epoch the grant was issued under (encoded as an
        /// optional trailing field; an absent field decodes as 0).
        epoch: u64,
    },
    /// Master → user: you are behind; retrieve `(proposed_ts, last_ts]`
    /// first, integrate, then re-validate.
    Retry {
        /// Echoed handle.
        op: ReqId,
        /// The master's current last timestamp for the key.
        last_ts: u64,
    },
    /// Master → user: I am not (or no longer) the master for this key —
    /// re-locate the master and resend.
    Redirect {
        /// Echoed handle.
        op: ReqId,
    },
    /// Master → user: validation failed for an operational reason.
    Failed {
        /// Echoed handle.
        op: ReqId,
        /// Why.
        reason: ValidateFailure,
    },
    /// User → master: read `last_ts(key)` (anti-entropy probe).
    LastTs {
        /// User's handle.
        op: ReqId,
        /// The key.
        key: Id,
        /// Where to answer.
        user: NodeRef,
        /// The asker's own last integrated timestamp (encoded as an
        /// optional trailing field; an absent field decodes as 0). A
        /// master that sees a reader ahead of its own table re-probes the
        /// log instead of serving a stale answer.
        known_ts: u64,
    },
    /// Master → user: `last_ts(key)` answer.
    LastTsReply {
        /// Echoed handle.
        op: ReqId,
        /// The key.
        key: Id,
        /// Last validated timestamp (0 = none).
        last_ts: u64,
    },
    /// Master → Master-key-Succ: backup one `last-ts` entry (the paper's
    /// "replicates the last-ts at the Master-Succ Peer").
    ReplicateEntry {
        /// The key.
        key: Id,
        /// Document name (kept with the backup so a promoted successor can
        /// publish/probe without re-learning it).
        key_name: DocName,
        /// Backed-up last timestamp.
        last_ts: u64,
        /// Fencing epoch of the entry.
        epoch: u64,
    },
    /// Authoritative transfer of timestamp state (graceful leave, or the
    /// old master shedding a sub-range to a newly joined master).
    TableHandoff {
        /// The entries; receiver becomes the master for them.
        entries: Vec<HandoffEntry>,
    },
    /// Master → holder: "`key` is at `ts`" — a grant hint sent, once the
    /// grant's publish fan-out is fully acknowledged, to the holders that
    /// poll this master. Purely an accelerator for the retrieval the
    /// holder's next `LastTs` poll would start anyway, so it carries no
    /// request handle, no epoch and no patch: the records still come from
    /// the Log-Peers, and a lost, duplicated or stale hint costs nothing.
    Published {
        /// The key.
        key: Id,
        /// The timestamp just granted.
        ts: u64,
    },
}

/// One entry of a [`KtsMsg::TableHandoff`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HandoffEntry {
    /// The key (`ht(document)`).
    pub key: Id,
    /// Document name.
    pub key_name: DocName,
    /// Last validated timestamp.
    pub last_ts: u64,
    /// Fencing epoch (receiver bumps it).
    pub epoch: u64,
}
