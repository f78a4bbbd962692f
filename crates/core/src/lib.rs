//! # p2p_ltr — P2P Logging and Timestamping for Reconciliation
//!
//! A full reproduction of **Tlili, Dedzoe, Pacitti, Akbarinia, Valduriez:
//! "P2P Logging and Timestamping for Reconciliation"** (INRIA RR-6497,
//! 2008): optimistic multi-master replication for collaborative editing
//! over a DHT, with
//!
//! * a **distributed timestamp service** — each document's *Master-key*
//!   peer (located by `ht(doc)`) grants *continuous* timestamps, serialized
//!   per key, with Master-key-Succ backups and takeover under churn
//!   (`ltr-kts`);
//! * a **highly-available P2P log** — every timestamped patch is stored at
//!   `n` Log-Peers located by the replication hash family `h1..hn`
//!   (`ltr-p2plog`) on top of a Chord DHT with successor replication
//!   (`ltr-chord`);
//! * a **retrieval procedure** delivering missing patches in total order,
//!   integrated through an So6-style operational-transformation engine
//!   (`ltr-ot`), which yields **eventual consistency**.
//!
//! This crate composes those substrates into a single peer process
//! ([`node::LtrNode`]) runnable on the deterministic network simulator
//! (`simnet`), plus:
//!
//! * [`harness::LtrNet`] — build whole networks, open documents, inject
//!   edits, provoke failures (the paper's prototype-GUI workflow as an
//!   API);
//! * [`consistency`] — the oracles: timestamp continuity, per-replica
//!   total order, replica convergence, equivocation (dual-master
//!   detector), epoch monotonicity;
//! * [`baseline`] — the centralized single-reconciler comparator the
//!   paper's introduction argues against (bottleneck + single point of
//!   failure).
//!
//! ## Quickstart
//!
//! ```
//! use p2p_ltr::harness::LtrNet;
//! use p2p_ltr::consistency::check_convergence;
//! use p2p_ltr::LtrConfig;
//! use simnet::{Duration, NetConfig};
//!
//! // 8 peers on a LAN; one wiki page, two concurrent editors.
//! let mut net = LtrNet::build(42, NetConfig::lan(), 8, LtrConfig::default(),
//!                             Duration::from_millis(200));
//! net.settle(20); // let the ring stabilize
//! let peers = net.peers.clone();
//! net.open_doc(&peers, "wiki/Main", "hello");
//! net.settle(1);
//! net.edit(peers[0], "wiki/Main", "hello\nfrom zero");
//! net.edit(peers[3], "wiki/Main", "three was here\nhello");
//! net.settle(15);
//! assert!(net.run_until_quiet(&["wiki/Main"], 30));
//! let report = check_convergence(&net.sim);
//! assert!(report.is_converged(), "all replicas identical: {report:?}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod config;
pub mod consistency;
pub mod events;
pub mod harness;
pub mod node;
pub mod node_glue;
pub mod node_master;
pub mod node_user;
pub mod payload;
pub mod report;
pub mod wire_impls;

pub use config::{GcConfig, LtrConfig};
pub use consistency::{
    check_all, check_continuity, check_convergence, check_epoch_monotonic, check_equivocation,
    check_total_order, InvariantReport,
};
pub use events::{LtrEvent, LtrEventKind};
pub use harness::{LtrNet, RecoveryReport};
pub use node::LtrNode;
pub use payload::{Payload, UserCmd};
pub use report::{network_report, summarize, NetworkSummary, PeerReport};
