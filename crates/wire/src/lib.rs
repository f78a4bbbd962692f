//! # wire — binary codec + pluggable transports for P2P-LTR
//!
//! Until this crate existed, protocol messages crossed node boundaries as
//! in-memory Rust enums inside the simulator: no wire format, no
//! byte-accurate sizing, no path to real traffic. This crate is that
//! missing layer:
//!
//! * a **deterministic, versioned binary codec** — [`Encode`]/[`Decode`]
//!   over canonical varints, fixed-width ring ids, length-prefixed names
//!   and `Bytes`-backed payload slices — implemented for every protocol
//!   message: `ChordMsg`, `KtsMsg`, the P2P-Log record, and (in the
//!   `p2p_ltr` crate) the `Payload` envelope that multiplexes them;
//! * **length-prefixed frames** ([`frame`]) carrying a version byte and
//!   the sender address, with a zero-copy [`BytesAssembler`] that
//!   re-frames arbitrary stream chunkings;
//! * a batch- and readiness-oriented [`Transport`] trait with two
//!   endpoints the [`WireNet`] runner drives unmodified
//!   [`simnet::Process`] state machines over, in real time — in-process
//!   bounded queues ([`MemHub`]) and the non-blocking **event-loop
//!   runtime** ([`RtHub`], [`runtime`]: `epoll` readiness, connection
//!   multiplexing, write batching, bounded backpressured queues; Linux
//!   only);
//! * total decoding: malformed input of any kind (truncation, corruption,
//!   hostile length prefixes, unknown tags/versions) yields a
//!   [`WireError`], never a panic and never an oversized allocation.
//!
//! The third transport is the simulator itself: install a wire meter
//! (`simnet::Sim::set_wire_meter`) built on [`frame::frame_len`] and the
//! simulator charges per-message latency from the *actual encoded size*
//! of each message whenever `NetConfig::bandwidth` is set.

#![deny(missing_docs)]
#![deny(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("wire's socket runtime parks on Linux epoll and has no fallback for other systems");

pub mod codec;
pub mod frame;
pub mod proto;
pub mod runner;
#[cfg(target_os = "linux")]
pub mod runtime;
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys;
pub mod transport;
pub mod varint;

pub use codec::{Decode, Encode, Reader, WireError};
pub use frame::{
    decode_frame, decode_frame_bytes, encode_frame, frame_len, BytesAssembler, FRAME_HEADER_LEN,
    MAX_FRAME_LEN, WIRE_VERSION,
};
pub use proto::{chord_class, kts_class};
pub use runner::WireNet;
pub use runtime::{RtHub, RtStats, RtTransport, RuntimeConfig};
pub use transport::{MemHub, MemTransport, Readiness, Transport, TransportError};
