//! # ltr-chord — a Chord DHT as a sans-IO state machine
//!
//! From-scratch implementation of the Chord protocol (Stoica et al.,
//! SIGCOMM'01) in the variant the P2P-LTR paper builds on (Open Chord plus
//! the authors' own successor-management/stabilization layer):
//!
//! * 2^64 identifier ring (SHA-1-derived ids, [`id::Id`]);
//! * recursive [`msg::ChordMsg::FindSuccessor`] routing with finger tables
//!   and greedy closest-preceding-node forwarding;
//! * successor lists, periodic stabilize/notify/fix-fingers/check-predecessor;
//! * key-value storage with **successor replication** (the paper's
//!   Log-Peers-Succ robustness) and first-writer-wins conditional puts;
//! * responsibility handoff on join, graceful leave and crash — every
//!   predecessor change surfaces as [`events::ChordEvent::PredecessorChanged`]
//!   so the timestamping layer can move `last-ts` state (the paper's
//!   "transfers its keys and timestamps" behaviour);
//! * failure handling via per-operation timeouts, retry-through-successors,
//!   and short-lived suspect blacklists.
//!
//! The protocol core ([`node::ChordNode`]) performs no IO: callers feed it
//! messages/timers and execute the returned [`events::Action`]s. The
//! [`harness`] module provides a ready [`simnet::Process`] embedding.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::disallowed_types)]

pub mod config;
pub mod docname;
pub mod events;
pub mod harness;
pub mod id;
pub mod merkle;
pub mod msg;
pub mod node;
pub mod routing;
pub mod sha1;
pub mod stabilize;
pub mod storage;
pub mod storage_proto;
pub mod sync;

pub use config::ChordConfig;
pub use docname::DocName;
pub use events::{Action, ChordEvent, ChordTimer};
pub use id::{Id, M};
pub use msg::{ChordMsg, NodeRef, OpId, PutMode};
pub use node::ChordNode;
pub use storage::{value_rank, Storage, StorageDelta, SyncView, RANK_MAGIC};
