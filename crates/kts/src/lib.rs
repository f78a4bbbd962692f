//! # ltr-kts — the distributed timestamp service of P2P-LTR
//!
//! Implements the paper's Master-key peer role (derived from KTS, Akbarinia
//! et al., SIGMOD'07 "Data Currency in Replicated DHTs"):
//!
//! * **continuous, monotonic per-key timestamps**: `gen_ts(key)` returns
//!   exactly `last_ts + 1`, and a new timestamp is granted only after the
//!   previous patch finished replicating to the Log-Peers (sequential
//!   service per key);
//! * **`last_ts(key)`** reads for anti-entropy;
//! * **Master-key-Succ backup**: every grant is replicated to the
//!   successor, which promotes the backup on master failure;
//! * **takeover**: authoritative table handoff on graceful leave and on
//!   join-splits, with epoch bumps;
//! * **log-probe recovery** (extension; ARCHITECTURE.md, "The master's
//!   stage table"): before first serving a key — unknown, promoted,
//!   restored or handed over — the master verifies `last_ts` against the
//!   P2P-Log. The log is the ground truth, and first-writer conflicts
//!   there expose stale masters, which stand down.
//!
//! The state machine ([`master::KtsMaster`]) is sans-IO: publishing and
//! probing are delegated to the embedding layer (see the `p2p_ltr` crate).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::disallowed_types)]

pub mod config;
pub mod master;
pub mod msg;

pub use config::KtsConfig;
pub use master::{FenceOutcome, KtsMaster, MasterAction, MasterEvent, PublishOutcome, Stage};
pub use msg::{HandoffEntry, KtsMsg, ReqId, ValidateFailure};
