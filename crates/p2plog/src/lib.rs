//! # ltr-p2plog — the highly-available P2P log of P2P-LTR
//!
//! Timestamped patches are stored at `n` **Log-Peers** located by the
//! replication hash family `Hr = {h1 … hn}`:
//! `Put(h1(key+ts), patch) … Put(hn(key+ts), patch)` (RR-6497 §2–3). This
//! crate provides the log machinery as sans-IO components the `p2p-ltr`
//! crate drives over Chord:
//!
//! * [`hashfam`] — `ht` (master placement) and `h1..hn` (log placement);
//! * [`record::LogRecord`] — checksummed, self-verifying stored unit;
//! * [`publish::PublishTracker`] — fan-out bookkeeping with All/Quorum ack
//!   policies; a single first-writer conflict is decisive (duelling-master
//!   arbitration);
//! * [`fence::FenceTracker`] — quorum bookkeeping for the grant fence a
//!   fenced-mode master raises at the next slot's Log-Peers before
//!   serving (master-epoch hardening, see ARCHITECTURE.md);
//! * [`retrieval::Retriever`] — the paper's retrieval algorithm: pipelined
//!   fetches, replica fallback (`h1`, then `h2`, …), strictly in-order
//!   delivery of continuous timestamps;
//! * [`probe::LogProbe`] — gallop + binary-search recovery of `last_ts`
//!   from the log (double-failure path, extension);
//! * [`index::LogIndex`] — per-node record index for watermark GC
//!   (extension).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod fence;
pub mod hashfam;
pub mod index;
pub mod probe;
pub mod publish;
pub mod record;
pub mod retrieval;

pub use chord::DocName;
pub use config::{AckPolicy, LogConfig};
pub use fence::{FenceResponse, FenceTracker, FenceVerdict};
pub use hashfam::{hr, ht, log_locations, log_locations_iter, DocHashes};
pub use index::LogIndex;
pub use probe::{LogProbe, ProbeCmd};
pub use publish::{PublishTracker, PublishVerdict, ReplicaResponse};
pub use record::{LogRecord, RecordError};
pub use retrieval::{FetchCmd, RetrieveEvent, Retriever};
