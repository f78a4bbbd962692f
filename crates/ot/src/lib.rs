//! # ltr-ot — operational transformation engine (So6/SOCT4-style)
//!
//! The reconciliation substrate P2P-LTR plugs its total order into. The
//! paper integrates the So6 synchronizer (Molli et al., GROUP'03), which is
//! line-based operational transformation over a *continuous* global order of
//! patches — the SOCT4 approach, where a timestamper serializes patches and
//! sites only ever transform their own pending work forward.
//!
//! Provided here, all from scratch:
//!
//! * [`op::TextOp`] — line insert/delete operations with content-carrying
//!   deletes (divergence becomes a loud [`op::OtError::ContentMismatch`]);
//! * [`transform`] — inclusion transformation with the TP1 property
//!   (property-tested), and sequence⨯sequence transforms;
//! * [`mod@diff`] — prefix/suffix-trimmed LCS line diff, turning saves into
//!   patches;
//! * [`patch::Patch`] + a compact binary codec (DHT value payloads);
//! * [`merge::Replica`] — the per-site engine: edit, integrate remote
//!   validated patches in timestamp order, rebase pending work (SOCT4).
//!
//! TP2 is deliberately *not* required: P2P-LTR's continuous timestamps mean
//! every site integrates validated patches in the identical order.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diff;
pub mod document;
pub mod merge;
pub mod op;
pub mod patch;
pub mod transform;

pub use diff::diff;
pub use document::Document;
pub use merge::Replica;
pub use op::{OtError, TextOp};
pub use patch::{decode_patch, encode_patch, Patch};
pub use transform::{transform_op, transform_op_seq, transform_seqs};
