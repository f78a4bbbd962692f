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
//! * [`TcpHub`] / [`TcpTransport`] — the **threaded loopback TCP**
//!   baseline: every endpoint owns a listener on `127.0.0.1`, an
//!   acceptor thread, and one reader thread per inbound connection;
//!   outbound connections are cached per peer, evicted on error, and
//!   re-dialled under a capped exponential backoff. One blocking write
//!   syscall per frame — no runner uses it; it is kept only as the
//!   reference point `exp_net` measures the runtime against.
//!
//! (The fourth "transport" is the simulator itself, which moves typed
//! messages directly but — with a wire meter installed — charges latency
//! from the same encoded frame sizes; see `simnet::Sim::set_wire_meter`.)
//!
//! detlint::allow-file(DET-CLOCK, transports are the real-time I/O layer — wall-clock reconnect backoff and poll timeouts never feed back into simulator logic)

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use simnet::NodeId;

use crate::frame::MAX_FRAME_LEN;
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

// ---- loopback TCP (threaded baseline) -------------------------------------

type TcpRegistry = Arc<Mutex<HashMap<NodeId, SocketAddr>>>;

/// Hub for the loopback-TCP transport: the `NodeId -> SocketAddr` name
/// service all endpoints share (the real-deployment analogue would be a
/// static peer table or a discovery service).
#[derive(Clone, Default)]
pub struct TcpHub {
    registry: TcpRegistry,
    cfg: RuntimeConfig,
}

impl TcpHub {
    /// Fresh hub with no endpoints and default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh hub with explicit reconnect-backoff settings.
    pub fn with_config(cfg: RuntimeConfig) -> Self {
        TcpHub {
            registry: TcpRegistry::default(),
            cfg,
        }
    }

    /// Bind a listener for `me` on `127.0.0.1:0`, register its address,
    /// and spawn the acceptor thread.
    pub fn endpoint(&self, me: NodeId) -> std::io::Result<TcpTransport> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        self.registry.lock().expect("tcp registry").insert(me, addr);
        let (tx, rx) = sync_channel::<Vec<u8>>(self.cfg.inbound_depth);
        std::thread::Builder::new()
            .name(format!("wire-accept-{me}"))
            .spawn(move || acceptor_loop(listener, tx))?;
        Ok(TcpTransport {
            registry: self.registry.clone(),
            cfg: self.cfg.clone(),
            rx,
            stash: Vec::new(),
            links: HashMap::new(),
        })
    }

    /// One-shot client send (external injection): opens a connection,
    /// writes the frame, closes.
    pub fn send(&self, to: NodeId, frame: &[u8]) -> Result<(), TransportError> {
        let addr = {
            let reg = self.registry.lock().expect("tcp registry");
            *reg.get(&to).ok_or(TransportError::UnknownPeer(to))?
        };
        let mut stream = TcpStream::connect(addr).map_err(|e| TransportError::Io(e.to_string()))?;
        stream
            .write_all(frame)
            .map_err(|e| TransportError::Io(e.to_string()))
    }
}

/// Accept inbound connections forever, spawning one reader per stream.
/// The thread ends when the process does (or the listener errors); reader
/// threads end at peer EOF.
fn acceptor_loop(listener: TcpListener, tx: SyncSender<Vec<u8>>) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { return };
        let tx = tx.clone();
        let _ = std::thread::Builder::new()
            .name("wire-read".into())
            .spawn(move || reader_loop(stream, tx));
    }
}

/// Read length-prefixed frames off one stream until EOF/error, pushing
/// each complete frame (header included) to the endpoint's queue.
fn reader_loop(mut stream: TcpStream, tx: SyncSender<Vec<u8>>) {
    loop {
        let mut len_buf = [0u8; 4];
        if stream.read_exact(&mut len_buf).is_err() {
            return; // EOF or reset: connection done.
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > MAX_FRAME_LEN {
            return; // Poisoned stream: drop the connection.
        }
        let mut frame = vec![0u8; 4 + len];
        frame[..4].copy_from_slice(&len_buf);
        if stream.read_exact(&mut frame[4..]).is_err() {
            return;
        }
        // A full endpoint queue blocks the reader thread — kernel socket
        // buffers then backpressure the sender, as on a real deployment.
        if tx.send(frame).is_err() {
            return; // Endpoint dropped.
        }
    }
}

/// Reconnect throttle for one peer: after a failure the link may not be
/// re-dialled until `retry_at`, with the delay doubling per consecutive
/// failure up to the configured cap. Shared with the event-loop runtime.
#[derive(Debug, Default)]
pub(crate) struct Backoff {
    fails: u32,
    retry_at: Option<Instant>,
}

impl Backoff {
    pub(crate) fn blocked(&self, now: Instant) -> bool {
        self.retry_at.is_some_and(|at| now < at)
    }

    pub(crate) fn record_failure(&mut self, now: Instant, cfg: &RuntimeConfig) {
        let delay = cfg
            .reconnect_backoff_base
            .saturating_mul(1u32 << self.fails.min(16))
            .min(cfg.reconnect_backoff_max);
        self.fails = self.fails.saturating_add(1);
        self.retry_at = Some(now + delay);
    }

    pub(crate) fn reset(&mut self) {
        self.fails = 0;
        self.retry_at = None;
    }
}

/// One cached outbound link of the threaded TCP transport.
#[derive(Debug, Default)]
struct TcpLink {
    stream: Option<TcpStream>,
    backoff: Backoff,
}

/// Loopback-TCP endpoint (threaded baseline). Outbound streams are
/// cached per peer; a send failure **evicts** the cached stream and
/// re-dials once immediately — if that also fails the peer enters a
/// capped exponential backoff window during which sends fail fast with
/// [`TransportError::Disconnected`] instead of paying a connect timeout
/// per frame.
pub struct TcpTransport {
    registry: TcpRegistry,
    cfg: RuntimeConfig,
    rx: Receiver<Vec<u8>>,
    stash: Vec<Bytes>,
    links: HashMap<NodeId, TcpLink>,
}

impl TcpTransport {
    fn connect(&self, to: NodeId) -> Result<TcpStream, TransportError> {
        let addr = {
            let reg = self.registry.lock().expect("tcp registry");
            *reg.get(&to).ok_or(TransportError::UnknownPeer(to))?
        };
        let stream = TcpStream::connect(addr).map_err(|_| TransportError::Disconnected(to))?;
        stream
            .set_nodelay(true)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(stream)
    }

    /// Write one frame, handling eviction, reconnect and backoff.
    fn write_frame(&mut self, to: NodeId, frame: &[u8]) -> Result<(), TransportError> {
        let now = Instant::now();
        if self.links.entry(to).or_default().backoff.blocked(now) {
            return Err(TransportError::Disconnected(to));
        }
        if self.links.get(&to).is_none_or(|l| l.stream.is_none()) {
            match self.connect(to) {
                Ok(s) => {
                    let link = self.links.entry(to).or_default();
                    link.stream = Some(s);
                    link.backoff.reset();
                }
                Err(e) => {
                    if e.retryable() {
                        self.links
                            .entry(to)
                            .or_default()
                            .backoff
                            .record_failure(now, &self.cfg);
                    }
                    return Err(e);
                }
            }
        }
        let link = self.links.entry(to).or_default();
        let Some(stream) = link.stream.as_mut() else {
            return Err(TransportError::Disconnected(to));
        };
        if stream.write_all(frame).is_ok() {
            link.backoff.reset();
            return Ok(());
        }
        // Stale connection (peer restarted / kernel reset): evict the
        // cached stream and reconnect once.
        link.stream = None;
        match self.connect(to) {
            Ok(mut fresh) => match fresh.write_all(frame) {
                Ok(()) => {
                    let link = self.links.entry(to).or_default();
                    link.stream = Some(fresh);
                    link.backoff.reset();
                    Ok(())
                }
                Err(_) => {
                    self.links
                        .entry(to)
                        .or_default()
                        .backoff
                        .record_failure(now, &self.cfg);
                    Err(TransportError::Disconnected(to))
                }
            },
            Err(e) => {
                if e.retryable() {
                    self.links
                        .entry(to)
                        .or_default()
                        .backoff
                        .record_failure(now, &self.cfg);
                }
                Err(e)
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send_batch(&mut self, to: NodeId, frames: &[Bytes]) -> Result<usize, TransportError> {
        for (i, frame) in frames.iter().enumerate() {
            if let Err(e) = self.write_frame(to, frame) {
                return if i == 0 { Err(e) } else { Ok(i) };
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
                    out.push(Bytes::from(f));
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
                self.stash.push(Bytes::from(f));
            }
        }
        let now = Instant::now();
        Readiness {
            readable: !self.stash.is_empty(),
            // Writes block in the kernel; the only "not writable" state
            // is every known link sitting inside a backoff window.
            writable: self.links.is_empty() || self.links.values().any(|l| !l.backoff.blocked(now)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_frame, encode_frame};

    fn bframe<M: crate::Encode>(from: NodeId, msg: &M) -> Bytes {
        Bytes::from(encode_frame(from, msg))
    }

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

    #[test]
    fn tcp_transport_delivers_frames_over_loopback() {
        let hub = TcpHub::new();
        let mut a = hub.endpoint(NodeId(0)).unwrap();
        let mut b = hub.endpoint(NodeId(1)).unwrap();
        // a -> b, then b -> a over the reverse path.
        assert_eq!(a.send_batch(NodeId(1), &[bframe(NodeId(0), &41u64)]), Ok(1));
        let (from, v): (NodeId, u64) = decode_frame(&wait_frame(&mut b, 2000).unwrap()).unwrap();
        assert_eq!((from, v), (NodeId(0), 41));
        assert_eq!(b.send_batch(NodeId(0), &[bframe(NodeId(1), &42u64)]), Ok(1));
        let (from, v): (NodeId, u64) = decode_frame(&wait_frame(&mut a, 2000).unwrap()).unwrap();
        assert_eq!((from, v), (NodeId(1), 42));
        // Client-style injection.
        hub.send(NodeId(1), &encode_frame(NodeId(1), &9u64))
            .unwrap();
        let (_, v): (NodeId, u64) = decode_frame(&wait_frame(&mut b, 2000).unwrap()).unwrap();
        assert_eq!(v, 9);
    }

    #[test]
    fn tcp_many_frames_keep_order_per_connection() {
        let hub = TcpHub::new();
        let mut a = hub.endpoint(NodeId(0)).unwrap();
        let mut b = hub.endpoint(NodeId(1)).unwrap();
        let frames: Vec<Bytes> = (0..200u64).map(|i| bframe(NodeId(0), &i)).collect();
        let mut sent = 0;
        while sent < frames.len() {
            match a.send_batch(NodeId(1), &frames[sent..]) {
                Ok(n) => sent += n,
                Err(e) => panic!("send failed: {e}"),
            }
        }
        for i in 0..200u64 {
            let (_, v): (NodeId, u64) =
                decode_frame(&wait_frame(&mut b, 2000).expect("frame arrives")).unwrap();
            assert_eq!(v, i);
        }
    }

    #[test]
    fn tcp_dead_peer_fails_fast_under_backoff_and_recovers() {
        let cfg = RuntimeConfig::new()
            .reconnect_backoff_base(Duration::from_millis(30))
            .reconnect_backoff_max(Duration::from_millis(30));
        let hub = TcpHub::with_config(cfg);
        let mut a = hub.endpoint(NodeId(0)).unwrap();
        // Register peer 1 at an address nobody listens on: grab a port,
        // then free it.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);
        hub.registry.lock().unwrap().insert(NodeId(1), addr);

        let frame = bframe(NodeId(0), &1u64);
        assert_eq!(
            a.send_batch(NodeId(1), &[frame.clone()]),
            Err(TransportError::Disconnected(NodeId(1)))
        );
        // Inside the backoff window the failure is immediate (no
        // connect attempt): time a burst of sends.
        let t0 = Instant::now();
        for _ in 0..50 {
            assert_eq!(
                a.send_batch(NodeId(1), &[frame.clone()]),
                Err(TransportError::Disconnected(NodeId(1)))
            );
        }
        assert!(
            t0.elapsed() < Duration::from_millis(25),
            "backoff makes dead-peer sends fail fast: {:?}",
            t0.elapsed()
        );

        // The peer comes back on the same address; after the backoff
        // window expires the transport reconnects and delivers.
        let revived = TcpListener::bind(addr).expect("rebind freed port");
        let (tx, rx) = sync_channel::<Vec<u8>>(16);
        std::thread::spawn(move || acceptor_loop(revived, tx));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match a.send_batch(NodeId(1), &[frame.clone()]) {
                Ok(1) => break,
                Ok(_) | Err(_) => {
                    assert!(Instant::now() < deadline, "reconnect after backoff");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.as_slice(), frame.as_ref());
    }
}
