//! Pluggable frame transports.
//!
//! [`Transport`] is the abstraction extracted from the simulator's
//! delivery path: a node endpoint that sends encoded frames to peers by
//! [`NodeId`] and drains frames that have arrived for it. The API is
//! **batch- and readiness-oriented**: frames move as [`Bytes`] batches
//! (no per-frame `Vec` allocation on the receive path), a full outbound
//! queue surfaces as an explicit [`TransportError::Backpressure`] /
//! partial-acceptance result instead of blocking, and [`Transport::poll`]
//! is the single hook a runner pumps to drive I/O and wait for work —
//! no spin-polling. Implementations:
//!
//! * [`MemHub`] / [`MemTransport`] — in-process **bounded** queues, the
//!   transport analogue of the simulator's delivery path. Frames really
//!   are encoded and re-decoded; only the medium is a channel instead of
//!   a socket, and a full peer queue reports backpressure exactly like a
//!   full socket buffer.
//! * [`RtHub`](crate::RtHub) / [`RtTransport`](crate::RtTransport) — the
//!   non-blocking, zero-extra-thread event-loop runtime
//!   ([`runtime`](crate::runtime)): kernel readiness (`epoll`),
//!   connection multiplexing, write batching, bounded rings. The serving
//!   path, and the socket transport [`WireNet`](crate::WireNet) runs on.
//!
//! (The third "transport" is the simulator itself, which moves typed
//! messages directly but — with a wire meter installed — charges latency
//! from the same encoded frame sizes; see `simnet::Sim::set_wire_meter`.)

use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use simnet::NodeId;

use crate::runtime::RuntimeConfig;

/// A transport-level failure (distinct from [`WireError`]: the bytes never
/// moved, rather than moved and failed to parse). The taxonomy is
/// retryability-aware — see [`TransportError::retryable`].
///
/// [`WireError`]: crate::WireError
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The destination `NodeId` is not registered with this hub.
    /// Not retryable until the peer registers.
    UnknownPeer(NodeId),
    /// The outbound queue (or socket buffer) is full and **zero** frames
    /// of the batch were accepted — the batch equivalent of
    /// `WouldBlock`. Retry after the next [`Transport::poll`].
    Backpressure,
    /// The connection to the peer is down (refused, reset, or inside the
    /// reconnect-backoff window). Retryable: the transport re-dials with
    /// capped backoff.
    Disconnected(NodeId),
    /// Any other OS-level I/O failure (message carries the rendered
    /// error).
    Io(String),
}

impl TransportError {
    /// True when retrying the same send later may succeed without any
    /// operator action (backpressure drains, connections re-establish).
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            TransportError::Backpressure | TransportError::Disconnected(_)
        )
    }

    /// Stable lowercase class name, used as a metrics key suffix
    /// (`wire.send_err.<class>`).
    pub fn class(&self) -> &'static str {
        match self {
            TransportError::UnknownPeer(_) => "unknown_peer",
            TransportError::Backpressure => "backpressure",
            TransportError::Disconnected(_) => "disconnected",
            TransportError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownPeer(n) => write!(f, "unknown peer {n}"),
            TransportError::Backpressure => write!(f, "outbound queue full (backpressure)"),
            TransportError::Disconnected(n) => write!(f, "peer {n} disconnected"),
            TransportError::Io(e) => write!(f, "transport io error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// What [`Transport::poll`] observed: whether inbound frames are queued
/// and whether blocked outbound work is worth retrying.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Readiness {
    /// At least one complete inbound frame is queued for
    /// [`Transport::recv_batch`].
    pub readable: bool,
    /// Outbound capacity exists (or was freed): a send that previously
    /// reported [`TransportError::Backpressure`] is worth retrying.
    pub writable: bool,
}

/// One node's endpoint of a frame transport.
///
/// Contract:
/// * **Per-destination frame order is preserved** for accepted frames.
/// * [`send_batch`](Transport::send_batch) never blocks: it accepts a
///   prefix of the batch and reports how many frames it took, or a
///   [`TransportError`] when it took none.
/// * [`poll`](Transport::poll) is the only call that may wait, and it is
///   also what drives I/O forward on single-threaded transports — a
///   runner must pump it even with `timeout == 0`.
/// * A blocking poll may return **early and not readable** when a
///   sibling endpoint of the same hub has work: whoever owns several
///   endpoints of one hub services them all before waiting again.
pub trait Transport {
    /// Queue encoded frames (header included) for delivery to `to`.
    ///
    /// Returns the number of frames accepted — always a prefix of
    /// `frames`, and at least 1 on `Ok`. `Ok(n)` with `n < frames.len()`
    /// means the outbound queue filled mid-batch: retry `frames[n..]`
    /// after the next [`poll`](Transport::poll) reports writable.
    /// `Err(Backpressure)` is the zero-accepted case of the same
    /// condition.
    fn send_batch(&mut self, to: NodeId, frames: &[Bytes]) -> Result<usize, TransportError>;

    /// Drain up to `max` complete inbound frames, appending each to
    /// `out` (which is reused by the caller across pumps — no per-frame
    /// allocation). Returns how many frames were appended.
    fn recv_batch(&mut self, out: &mut Vec<Bytes>, max: usize) -> usize;

    /// Drive the transport's I/O (accept, read, flush) and wait up to
    /// `timeout` for readiness — this endpoint's, or (see the contract
    /// above) a sibling's. `Duration::ZERO` performs one non-blocking
    /// rotation and returns immediately.
    fn poll(&mut self, timeout: Duration) -> Readiness;
}

// ---- in-process -----------------------------------------------------------

type MemRegistry = Arc<Mutex<HashMap<NodeId, SyncSender<Bytes>>>>;

/// Hub for the in-process transport; clone-able handle shared by all
/// endpoints (and by external "client" injectors). Inbound queues are
/// bounded at [`RuntimeConfig::inbound_depth`] frames: a slow consumer
/// backpressures its senders exactly like a full socket buffer.
#[derive(Clone, Default)]
pub struct MemHub {
    registry: MemRegistry,
    cfg: RuntimeConfig,
}

impl MemHub {
    /// Fresh hub with no endpoints and default queue depths.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh hub with explicit queue depths.
    pub fn with_config(cfg: RuntimeConfig) -> Self {
        MemHub {
            registry: MemRegistry::default(),
            cfg,
        }
    }

    /// Create (and register) the endpoint for `me`.
    pub fn endpoint(&self, me: NodeId) -> MemTransport {
        let (tx, rx) = sync_channel(self.cfg.inbound_depth);
        self.registry.lock().expect("mem registry").insert(me, tx);
        MemTransport {
            registry: self.registry.clone(),
            rx,
            stash: Vec::new(),
        }
    }

    /// Send a frame into the hub without owning an endpoint (external
    /// client injection, mirroring `Sim::send_external`). Blocks briefly
    /// if the destination queue is full — the client path has no event
    /// loop to retry from.
    pub fn send(&self, to: NodeId, frame: &[u8]) -> Result<(), TransportError> {
        let tx = {
            let reg = self.registry.lock().expect("mem registry");
            reg.get(&to).ok_or(TransportError::UnknownPeer(to))?.clone()
        };
        tx.send(Bytes::copy_from_slice(frame))
            .map_err(|_| TransportError::Disconnected(to))
    }
}

/// In-process endpoint: frames move through bounded queues, not sockets.
pub struct MemTransport {
    registry: MemRegistry,
    rx: Receiver<Bytes>,
    /// Frames pulled by a blocking [`Transport::poll`] ahead of the next
    /// [`Transport::recv_batch`].
    stash: Vec<Bytes>,
}

impl Transport for MemTransport {
    fn send_batch(&mut self, to: NodeId, frames: &[Bytes]) -> Result<usize, TransportError> {
        let tx = {
            let reg = self.registry.lock().expect("mem registry");
            reg.get(&to).ok_or(TransportError::UnknownPeer(to))?.clone()
        };
        for (i, frame) in frames.iter().enumerate() {
            match tx.try_send(frame.clone()) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    return if i == 0 {
                        Err(TransportError::Backpressure)
                    } else {
                        Ok(i)
                    };
                }
                Err(TrySendError::Disconnected(_)) => {
                    return if i == 0 {
                        Err(TransportError::Disconnected(to))
                    } else {
                        Ok(i)
                    };
                }
            }
        }
        Ok(frames.len())
    }

    fn recv_batch(&mut self, out: &mut Vec<Bytes>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            if let Some(f) = self.stash.pop() {
                out.push(f);
                n += 1;
                continue;
            }
            match self.rx.try_recv() {
                Ok(f) => {
                    out.push(f);
                    n += 1;
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        n
    }

    fn poll(&mut self, timeout: Duration) -> Readiness {
        if self.stash.is_empty() {
            let got = if timeout.is_zero() {
                self.rx.try_recv().ok()
            } else {
                self.rx.recv_timeout(timeout).ok()
            };
            if let Some(f) = got {
                self.stash.push(f);
            }
        }
        Readiness {
            readable: !self.stash.is_empty(),
            // Queues are per-destination; a blocked destination may have
            // drained at any time, so blocked sends are always worth a
            // retry.
            writable: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_frame, encode_frame};
    use std::time::Instant;

    fn bframe<M: crate::Encode>(from: NodeId, msg: &M) -> Bytes {
        Bytes::from(encode_frame(from, msg))
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "a real transport delivers in real time: the deadline is wall time"
    )]
    fn wait_frame<T: Transport>(t: &mut T, ms: u64) -> Option<Bytes> {
        let deadline = Instant::now() + Duration::from_millis(ms);
        let mut out = Vec::new();
        loop {
            if t.recv_batch(&mut out, 1) == 1 {
                return out.pop();
            }
            if Instant::now() > deadline {
                return None;
            }
            t.poll(Duration::from_micros(200));
        }
    }

    #[test]
    fn mem_transport_delivers_frames() {
        let hub = MemHub::new();
        let mut a = hub.endpoint(NodeId(0));
        let mut b = hub.endpoint(NodeId(1));
        assert_eq!(a.send_batch(NodeId(1), &[bframe(NodeId(0), &7u64)]), Ok(1));
        let frame = wait_frame(&mut b, 100).unwrap();
        let (from, v): (NodeId, u64) = decode_frame(&frame).unwrap();
        assert_eq!((from, v), (NodeId(0), 7));
        let mut none = Vec::new();
        assert_eq!(a.recv_batch(&mut none, 8), 0);
        assert_eq!(
            a.send_batch(NodeId(9), &[Bytes::from_static(b"x")]),
            Err(TransportError::UnknownPeer(NodeId(9)))
        );
    }

    #[test]
    fn mem_transport_bounded_queue_backpressures() {
        let hub = MemHub::with_config(RuntimeConfig::new().inbound_depth(4));
        let mut a = hub.endpoint(NodeId(0));
        let mut b = hub.endpoint(NodeId(1));
        let frames: Vec<Bytes> = (0..8u64).map(|i| bframe(NodeId(0), &i)).collect();
        // Queue holds 4: the batch is partially accepted.
        assert_eq!(a.send_batch(NodeId(1), &frames), Ok(4));
        assert_eq!(
            a.send_batch(NodeId(1), &frames[4..]),
            Err(TransportError::Backpressure)
        );
        // Draining the receiver frees capacity; the retry then succeeds
        // and per-destination order is preserved end to end.
        let mut got = Vec::new();
        assert_eq!(b.recv_batch(&mut got, 16), 4);
        assert_eq!(a.send_batch(NodeId(1), &frames[4..]), Ok(4));
        assert_eq!(b.recv_batch(&mut got, 16), 4);
        for (i, f) in got.iter().enumerate() {
            let (_, v): (NodeId, u64) = decode_frame(f).unwrap();
            assert_eq!(v, i as u64);
        }
    }
}
