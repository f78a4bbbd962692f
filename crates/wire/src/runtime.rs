//! The readiness-driven network runtime: a non-blocking, zero-extra-thread
//! event-loop transport over `std::net` sockets and Linux `epoll`.
//!
//! The serving path for real sockets, built to carry heavy traffic from
//! the caller's own thread:
//!
//! * **Connection multiplexing** — one endpoint owns a non-blocking
//!   listener plus all of its inbound and outbound connections; a single
//!   *rotation* of the event loop (see [`Transport::poll`]) asks the
//!   kernel which of them are ready, accepts and reads only those under
//!   a per-connection byte budget, and flushes every outbound ring that
//!   holds bytes. No threads are spawned; the caller's pump *is* the
//!   event loop.
//! * **Kernel readiness, one park** — every endpoint keeps its listener
//!   and inbound streams in a level-triggered `epoll` set, so an idle
//!   rotation is one system call and no failed `accept` or `read`. The
//!   hub keeps a set of its endpoints' sets, and a blocking
//!   [`poll`](Transport::poll) parks on *that*: it returns when the
//!   timeout passes or when **any endpoint of the hub** has work — which
//!   is what a single thread pumping many endpoints ([`WireNet`]) needs,
//!   and exactly the endpoint's own descriptors when it is alone in its
//!   process. A blocking poll may therefore return early and not
//!   readable; whoever owns several endpoints of one hub services them
//!   all before parking again.
//! * **Write batching / pipelining** — frames queued by
//!   [`Transport::send_batch`] append to a per-peer byte ring and go to
//!   the kernel in large writes (up to
//!   [`RuntimeConfig::max_batch_bytes`] per syscall), so a burst of
//!   small protocol frames costs one syscall, not one each. A ring the
//!   kernel refused is watched for writability until it drains.
//! * **Bounded queues with backpressure** — the inbound frame queue is
//!   capped at [`RuntimeConfig::inbound_depth`] frames (when full the
//!   loop stops reading and TCP flow control pushes back on senders);
//!   each outbound ring is capped at [`RuntimeConfig::outbound_bytes`]
//!   (when full `send_batch` accepts a partial batch or reports
//!   [`TransportError::Backpressure`]).
//! * **Zero-copy decode** — inbound frames surface as [`Bytes`]; a
//!   decode via [`decode_frame_bytes`](crate::decode_frame_bytes) slices
//!   payload fields out of the frame buffer without copying.
//! * **Self-healing links** — a failed outbound connection is evicted
//!   and re-dialled under a capped exponential backoff.
//! * **Counted** — [`RtTransport::stats`] reports parks, rotations and
//!   every system call the endpoint made, with how many came back
//!   `WouldBlock`.
//!
//! Linux only (`epoll_pwait2`, kernel 5.11 or later): there is no
//! fallback path for other systems.
//!
//! [`WireNet`]: crate::WireNet
//!
//! detlint::allow-file(DET-CLOCK, the runtime is the real-time I/O layer — wall-clock batching, parking and reconnect backoff never feed back into simulator logic)

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use simnet::NodeId;

use crate::frame::BytesAssembler;
use crate::sys::{Epoll, Interest};
use crate::transport::{Readiness, Transport, TransportError};

/// Tuning knobs for the runtime (and the queue depth of
/// [`MemHub`](crate::MemHub)), built fluently:
///
/// ```
/// use wire::RuntimeConfig;
/// use std::time::Duration;
///
/// let cfg = RuntimeConfig::new()
///     .inbound_depth(8192)
///     .max_batch_bytes(32 * 1024)
///     .reconnect_backoff_base(Duration::from_millis(5));
/// assert_eq!(cfg.inbound_depth, 8192);
/// ```
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Inbound queue cap, in complete frames, per endpoint. When the
    /// queue is full the event loop stops reading sockets and TCP flow
    /// control backpressures the senders. Default **4096**.
    pub inbound_depth: usize,
    /// Outbound ring cap, in buffered bytes, per peer. A send that would
    /// exceed it reports backpressure instead of buffering unboundedly.
    /// Default **256 KiB**.
    pub outbound_bytes: usize,
    /// Flush threshold: a peer's ring is written to the kernel whenever
    /// at least this many bytes are pending (and always once per
    /// rotation). Default **64 KiB**.
    pub max_batch_bytes: usize,
    /// Per-connection read budget, in bytes, per rotation. Caps how much
    /// one chatty peer can consume before the loop services the next
    /// socket. Default **64 KiB**.
    pub read_budget: usize,
    /// First reconnect-backoff delay after a link failure; doubles per
    /// consecutive failure. Also how long a listener whose `accept`
    /// failed (descriptor exhaustion) is left alone. Default **10 ms**.
    pub reconnect_backoff_base: Duration,
    /// Reconnect-backoff ceiling. Default **2 s**.
    pub reconnect_backoff_max: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            inbound_depth: 4096,
            outbound_bytes: 256 * 1024,
            max_batch_bytes: 64 * 1024,
            read_budget: 64 * 1024,
            reconnect_backoff_base: Duration::from_millis(10),
            reconnect_backoff_max: Duration::from_secs(2),
        }
    }
}

impl RuntimeConfig {
    /// The documented defaults (see each field).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set [`RuntimeConfig::inbound_depth`].
    pub fn inbound_depth(mut self, frames: usize) -> Self {
        self.inbound_depth = frames.max(1);
        self
    }

    /// Set [`RuntimeConfig::outbound_bytes`].
    pub fn outbound_bytes(mut self, bytes: usize) -> Self {
        self.outbound_bytes = bytes.max(crate::frame::FRAME_HEADER_LEN);
        self
    }

    /// Set [`RuntimeConfig::max_batch_bytes`].
    pub fn max_batch_bytes(mut self, bytes: usize) -> Self {
        self.max_batch_bytes = bytes.max(1);
        self
    }

    /// Set [`RuntimeConfig::read_budget`].
    pub fn read_budget(mut self, bytes: usize) -> Self {
        self.read_budget = bytes.max(1);
        self
    }

    /// Set [`RuntimeConfig::reconnect_backoff_base`].
    pub fn reconnect_backoff_base(mut self, d: Duration) -> Self {
        self.reconnect_backoff_base = d;
        self
    }

    /// Set [`RuntimeConfig::reconnect_backoff_max`].
    pub fn reconnect_backoff_max(mut self, d: Duration) -> Self {
        self.reconnect_backoff_max = d;
        self
    }
}

type RtRegistry = Arc<Mutex<HashMap<NodeId, SocketAddr>>>;

/// Hub for the event-loop runtime: the shared `NodeId -> SocketAddr`
/// name service, the [`RuntimeConfig`] every endpoint inherits, the
/// readiness set a blocking [`Transport::poll`] parks on, and the client
/// path's connections.
#[derive(Clone, Default)]
pub struct RtHub {
    registry: RtRegistry,
    cfg: RuntimeConfig,
    /// The set of the endpoints' sets, made with the first endpoint.
    wake: Arc<OnceLock<Arc<Epoll>>>,
    /// Client-path streams ([`RtHub::send`]), one per destination, each
    /// with the address it was dialled at.
    clients: Arc<Mutex<HashMap<NodeId, (SocketAddr, TcpStream)>>>,
}

impl RtHub {
    /// Fresh hub with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh hub with explicit configuration.
    pub fn with_config(cfg: RuntimeConfig) -> Self {
        RtHub {
            cfg,
            ..Self::default()
        }
    }

    fn wake_set(&self) -> std::io::Result<Arc<Epoll>> {
        if let Some(set) = self.wake.get() {
            return Ok(set.clone());
        }
        let fresh = Arc::new(Epoll::new()?);
        Ok(self.wake.get_or_init(|| fresh).clone())
    }

    fn addr_of(&self, to: NodeId) -> Result<SocketAddr, TransportError> {
        let reg = self.registry.lock().expect("rt registry");
        reg.get(&to).copied().ok_or(TransportError::UnknownPeer(to))
    }

    /// Bind a non-blocking listener for `me` on `127.0.0.1:0`, register
    /// its address, and return the endpoint. No threads are spawned: the
    /// endpoint's I/O advances only inside [`Transport::poll`] /
    /// [`Transport::send_batch`].
    pub fn endpoint(&self, me: NodeId) -> std::io::Result<RtTransport> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let set = Epoll::new()?;
        set.add(&listener, LISTENER, Interest::Read)?;
        let wake = self.wake_set()?;
        wake.add(&set, u64::from(me.0), Interest::Read)?;
        self.registry.lock().expect("rt registry").insert(me, addr);
        Ok(RtTransport {
            hub: self.clone(),
            wake,
            set,
            ready: Vec::new(),
            listener,
            accept_retry_at: None,
            readers: HashMap::new(),
            next_reader: 0,
            writers: HashMap::new(),
            backoffs: HashMap::new(),
            inbound: VecDeque::new(),
            read_buf: vec![0u8; self.cfg.read_budget.clamp(4096, 64 * 1024)],
            stats: RtStats::default(),
        })
    }

    /// Client send (external injection) over one cached blocking
    /// connection per destination: dialled on first use, re-dialled when
    /// the destination has re-registered at another address, and evicted
    /// and re-dialled once when a write fails.
    pub fn send(&self, to: NodeId, frame: &[u8]) -> Result<(), TransportError> {
        let addr = self.addr_of(to)?;
        let mut clients = self.clients.lock().expect("rt clients");
        if let Some((dialled, stream)) = clients.get_mut(&to) {
            if *dialled == addr && stream.write_all(frame).is_ok() {
                return Ok(());
            }
            clients.remove(&to);
        }
        let io = |e: std::io::Error| TransportError::Io(e.to_string());
        let mut stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream.write_all(frame).map_err(io)?;
        clients.insert(to, (addr, stream));
        Ok(())
    }
}

/// What one endpoint did, counted where it happens: plain counters since
/// the endpoint was made, read with [`RtTransport::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RtStats {
    /// Blocking [`Transport::poll`] calls that parked in the kernel.
    pub parks: u64,
    /// Parks that ended because their timeout passed, not on readiness.
    pub park_timeouts: u64,
    /// I/O rotations (one readiness query each).
    pub rotations: u64,
    /// `read` calls on inbound connections.
    pub reads: u64,
    /// `read` calls that returned `WouldBlock`.
    pub reads_would_block: u64,
    /// `accept` calls on the listener.
    pub accepts: u64,
    /// `accept` calls that returned `WouldBlock` (one ends each burst).
    pub accepts_would_block: u64,
    /// `write` calls on outbound connections.
    pub writes: u64,
    /// `write` calls that returned `WouldBlock`.
    pub writes_would_block: u64,
    /// Frames accepted by [`Transport::send_batch`].
    pub frames_sent: u64,
    /// Bytes the kernel took from the outbound rings.
    pub bytes_written: u64,
    /// Most bytes ever pending in one outbound ring.
    pub ring_high_water: u64,
    /// Most frames ever queued inbound.
    pub inbound_high_water: u64,
    /// Outbound links dialled again after a failure.
    pub reconnects: u64,
}

/// Readiness token of the listener; inbound connections count up from 0.
const LISTENER: u64 = u64::MAX;
/// Readiness token of every outbound stream watched for writability (the
/// report only has to end a park: each rotation flushes every ring).
const WRITER: u64 = u64::MAX - 1;

/// One inbound connection: a non-blocking stream feeding a zero-copy
/// [`BytesAssembler`].
struct ReadConn {
    stream: TcpStream,
    asm: BytesAssembler,
}

impl ReadConn {
    /// Read what the connection has, up to the per-rotation budget and
    /// the inbound cap. `false` = the connection is finished (end of
    /// stream, error, or a hostile length prefix).
    fn read_ready(
        &mut self,
        inbound: &mut VecDeque<Bytes>,
        buf: &mut [u8],
        cfg: &RuntimeConfig,
        stats: &mut RtStats,
    ) -> bool {
        let mut budget = cfg.read_budget;
        while budget > 0 && inbound.len() < cfg.inbound_depth {
            let want = budget.min(buf.len());
            stats.reads += 1;
            match self.stream.read(&mut buf[..want]) {
                Ok(0) => return false,
                Ok(n) => {
                    budget -= n;
                    // One owned chunk per read; complete frames then
                    // come back as zero-copy slices of it.
                    self.asm.push(Bytes::from(buf[..n].to_vec()));
                    loop {
                        match self.asm.next_frame() {
                            Ok(Some(frame)) => inbound.push_back(frame),
                            Ok(None) => break,
                            Err(_) => return false,
                        }
                    }
                    if n < want {
                        // A short read drained the socket: asking again
                        // would only fetch a `WouldBlock`, and whatever
                        // arrives later is reported ready again.
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    stats.reads_would_block += 1;
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }
}

/// Reconnect throttle for one peer: after a failure the link may not be
/// re-dialled until `retry_at`, with the delay doubling per consecutive
/// failure up to the configured cap.
#[derive(Debug, Default)]
struct Backoff {
    fails: u32,
    retry_at: Option<Instant>,
}

impl Backoff {
    fn blocked(&self, now: Instant) -> bool {
        self.retry_at.is_some_and(|at| now < at)
    }

    fn record_failure(&mut self, now: Instant, cfg: &RuntimeConfig) {
        let delay = cfg
            .reconnect_backoff_base
            .saturating_mul(1u32 << self.fails.min(16))
            .min(cfg.reconnect_backoff_max);
        self.fails = self.fails.saturating_add(1);
        self.retry_at = Some(now + delay);
    }
}

/// One live outbound link: a non-blocking stream plus its byte ring of
/// not-yet-flushed frame bytes (`buf[start..]` is pending). Dead links
/// are tracked separately in `RtTransport::backoffs`.
struct WriteConn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    /// The stream is in the endpoint's set, watched for writability.
    watched: bool,
}

impl WriteConn {
    fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Write as much of the ring as the kernel will take right now.
    /// `Ok(true)` = ring fully drained.
    fn flush(&mut self, stats: &mut RtStats) -> std::io::Result<bool> {
        while self.start < self.buf.len() {
            stats.writes += 1;
            match self.stream.write(&self.buf[self.start..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.start += n;
                    stats.bytes_written += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    stats.writes_would_block += 1;
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.start >= self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 {
            // Compact so the ring stays bounded by pending bytes.
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(self.pending() == 0)
    }
}

/// Event-loop endpoint of the runtime. See the [module docs](crate::runtime)
/// for the threading, parking and backpressure model.
pub struct RtTransport {
    hub: RtHub,
    /// The hub's set of sets: what a blocking poll parks on.
    wake: Arc<Epoll>,
    /// This endpoint's descriptors: the listener, every inbound stream,
    /// and the outbound streams whose ring the kernel refused.
    set: Epoll,
    /// Ready tokens, reused every rotation.
    ready: Vec<u64>,
    listener: TcpListener,
    /// Set while the listener is out of `set` after a failed `accept`.
    accept_retry_at: Option<Instant>,
    readers: HashMap<u64, ReadConn>,
    next_reader: u64,
    writers: HashMap<NodeId, WriteConn>,
    /// Reconnect throttles for peers whose link failed.
    backoffs: HashMap<NodeId, Backoff>,
    /// Complete inbound frames, bounded at `cfg.inbound_depth`.
    inbound: VecDeque<Bytes>,
    /// Read scratch, reused every rotation.
    read_buf: Vec<u8>,
    stats: RtStats,
}

impl RtTransport {
    /// The endpoint's counters so far.
    pub fn stats(&self) -> RtStats {
        self.stats
    }

    /// Dial `to` (non-blocking after connect) or fail into backoff.
    fn ensure_writer(&mut self, to: NodeId, now: Instant) -> Result<(), TransportError> {
        if self.writers.contains_key(&to) {
            return Ok(());
        }
        if self.backoffs.get(&to).is_some_and(|b| b.blocked(now)) {
            return Err(TransportError::Disconnected(to));
        }
        let addr = self.hub.addr_of(to)?;
        match TcpStream::connect(addr).and_then(|s| {
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            Ok(s)
        }) {
            Ok(stream) => {
                if self.backoffs.remove(&to).is_some() {
                    self.stats.reconnects += 1;
                }
                self.writers.insert(
                    to,
                    WriteConn {
                        stream,
                        buf: Vec::new(),
                        start: 0,
                        watched: false,
                    },
                );
                Ok(())
            }
            Err(_) => {
                self.backoffs
                    .entry(to)
                    .or_default()
                    .record_failure(now, &self.hub.cfg);
                Err(TransportError::Disconnected(to))
            }
        }
    }

    /// Evict a failed link and arm its reconnect backoff (buffered bytes
    /// are lost with the connection, as on any TCP reset). Re-dial
    /// happens lazily on the next send after the window.
    fn evict_writer(&mut self, to: NodeId, now: Instant) {
        self.writers.remove(&to);
        self.backoffs
            .entry(to)
            .or_default()
            .record_failure(now, &self.hub.cfg);
    }

    /// Accept every pending inbound connection.
    fn accept_ready(&mut self) {
        loop {
            self.stats.accepts += 1;
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let token = self.next_reader;
                    if stream.set_nonblocking(true).is_ok()
                        && self.set.add(&stream, token, Interest::Read).is_ok()
                    {
                        self.next_reader += 1;
                        let asm = BytesAssembler::new();
                        self.readers.insert(token, ReadConn { stream, asm });
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.stats.accepts_would_block += 1;
                    break;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                    ) => {}
                Err(_) => {
                    // Out of descriptors or memory: the connection stays
                    // queued and the listener ready, so a park would
                    // spin. Stop watching it for one backoff step.
                    let _ = self.set.del(&self.listener);
                    self.accept_retry_at =
                        Some(Instant::now() + self.hub.cfg.reconnect_backoff_base);
                    break;
                }
            }
        }
    }

    /// One non-blocking rotation: ask the kernel what is ready, accept
    /// and read exactly that, then flush every ring that holds bytes.
    fn rotate(&mut self) {
        self.stats.rotations += 1;
        if self.accept_retry_at.is_some_and(|at| Instant::now() >= at)
            && self
                .set
                .add(&self.listener, LISTENER, Interest::Read)
                .is_ok()
        {
            self.accept_retry_at = None;
        }
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        self.set.ready(&mut ready);
        for &token in &ready {
            if token == LISTENER {
                self.accept_ready();
            } else if let Some(conn) = self.readers.get_mut(&token) {
                // Budgeted per connection, halted by a full inbound
                // queue (TCP then backpressures the senders).
                let alive = conn.read_ready(
                    &mut self.inbound,
                    &mut self.read_buf,
                    &self.hub.cfg,
                    &mut self.stats,
                );
                if !alive {
                    // Closing the stream takes it out of the set.
                    self.readers.remove(&token);
                }
            }
        }
        self.ready = ready;
        self.stats.inbound_high_water =
            self.stats.inbound_high_water.max(self.inbound.len() as u64);
        let mut failed: Vec<NodeId> = Vec::new();
        for (&to, w) in self.writers.iter_mut() {
            if w.pending() > 0 && w.flush(&mut self.stats).is_err() {
                failed.push(to);
                continue;
            }
            // A ring the kernel refused is watched until it can move
            // again, so a park ends then; a drained one must not be
            // (a writable stream is always ready — the park would spin).
            let refused = w.pending() > 0;
            if refused != w.watched {
                let changed = if refused {
                    self.set.add(&w.stream, WRITER, Interest::Write)
                } else {
                    self.set.del(&w.stream)
                };
                if changed.is_ok() {
                    w.watched = refused;
                }
            }
        }
        for to in failed {
            self.evict_writer(to, Instant::now());
        }
    }
}

impl Transport for RtTransport {
    fn send_batch(&mut self, to: NodeId, frames: &[Bytes]) -> Result<usize, TransportError> {
        let now = Instant::now();
        self.ensure_writer(to, now)?;
        let mut accepted = 0;
        for frame in frames {
            let w = match self.writers.get_mut(&to) {
                Some(w) => w,
                None => {
                    return if accepted == 0 {
                        Err(TransportError::Disconnected(to))
                    } else {
                        Ok(accepted)
                    };
                }
            };
            if w.pending() + frame.len() > self.hub.cfg.outbound_bytes {
                // Ring full: try to hand bytes to the kernel, then
                // re-check once.
                match w.flush(&mut self.stats) {
                    Ok(_) => {}
                    Err(_) => {
                        self.evict_writer(to, now);
                        return if accepted == 0 {
                            Err(TransportError::Disconnected(to))
                        } else {
                            Ok(accepted)
                        };
                    }
                }
                if w.pending() + frame.len() > self.hub.cfg.outbound_bytes {
                    return if accepted == 0 {
                        Err(TransportError::Backpressure)
                    } else {
                        Ok(accepted)
                    };
                }
            }
            w.buf.extend_from_slice(frame);
            accepted += 1;
            self.stats.frames_sent += 1;
            self.stats.ring_high_water = self.stats.ring_high_water.max(w.pending() as u64);
            if w.pending() >= self.hub.cfg.max_batch_bytes {
                if w.flush(&mut self.stats).is_err() {
                    self.evict_writer(to, now);
                    return Ok(accepted); // accepted >= 1 here
                }
            }
        }
        Ok(accepted)
    }

    fn recv_batch(&mut self, out: &mut Vec<Bytes>, max: usize) -> usize {
        let n = max.min(self.inbound.len());
        out.extend(self.inbound.drain(..n));
        n
    }

    fn poll(&mut self, timeout: Duration) -> Readiness {
        self.rotate();
        if self.inbound.is_empty() && !timeout.is_zero() {
            // One park, on the hub's set: it ends when the timeout does
            // or when any endpoint of the hub — this one or a sibling the
            // caller pumps next — has something ready.
            let wait = match self.accept_retry_at {
                Some(at) => timeout.min(at.saturating_duration_since(Instant::now())),
                None => timeout,
            };
            self.stats.parks += 1;
            self.ready.clear();
            if self.wake.wait(&mut self.ready, wait) == 0 {
                self.stats.park_timeouts += 1;
            } else {
                self.rotate();
            }
        }
        Readiness {
            readable: !self.inbound.is_empty(),
            writable: self
                .writers
                .values()
                .all(|w| w.pending() < self.hub.cfg.outbound_bytes)
                && (self.backoffs.is_empty() || {
                    let now = Instant::now();
                    self.backoffs.values().any(|b| !b.blocked(now))
                }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_frame, encode_frame};

    fn bframe(from: NodeId, v: &u64) -> Bytes {
        Bytes::from(encode_frame(from, v))
    }

    /// Pump both endpoints until `want` frames arrived at `b` or timeout.
    fn pump_until(
        a: &mut RtTransport,
        b: &mut RtTransport,
        got: &mut Vec<Bytes>,
        want: usize,
        ms: u64,
    ) {
        let deadline = Instant::now() + Duration::from_millis(ms);
        while got.len() < want && Instant::now() < deadline {
            a.poll(Duration::ZERO);
            b.poll(Duration::from_micros(100));
            b.recv_batch(got, usize::MAX.min(want - got.len()));
        }
    }

    #[test]
    fn runtime_delivers_batches_in_order() {
        let hub = RtHub::new();
        let mut a = hub.endpoint(NodeId(0)).unwrap();
        let mut b = hub.endpoint(NodeId(1)).unwrap();
        let frames: Vec<Bytes> = (0..500u64).map(|i| bframe(NodeId(0), &i)).collect();
        let mut sent = 0;
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while sent < frames.len() && Instant::now() < deadline {
            match a.send_batch(NodeId(1), &frames[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.retryable() => {
                    a.poll(Duration::ZERO);
                    b.poll(Duration::ZERO);
                    b.recv_batch(&mut got, usize::MAX);
                }
                Err(e) => panic!("send failed: {e}"),
            }
        }
        assert_eq!(sent, frames.len());
        pump_until(&mut a, &mut b, &mut got, frames.len(), 10_000);
        assert_eq!(got.len(), frames.len());
        for (i, f) in got.iter().enumerate() {
            let (from, v): (NodeId, u64) = decode_frame(f).unwrap();
            assert_eq!((from, v), (NodeId(0), i as u64));
        }
    }

    #[test]
    fn runtime_bidirectional_and_injection() {
        let hub = RtHub::new();
        let mut a = hub.endpoint(NodeId(0)).unwrap();
        let mut b = hub.endpoint(NodeId(1)).unwrap();
        assert_eq!(a.send_batch(NodeId(1), &[bframe(NodeId(0), &1u64)]), Ok(1));
        assert_eq!(b.send_batch(NodeId(0), &[bframe(NodeId(1), &2u64)]), Ok(1));
        let (mut at_a, mut at_b) = (Vec::new(), Vec::new());
        let deadline = Instant::now() + Duration::from_secs(5);
        while (at_a.is_empty() || at_b.is_empty()) && Instant::now() < deadline {
            a.poll(Duration::from_micros(100));
            b.poll(Duration::from_micros(100));
            a.recv_batch(&mut at_a, 8);
            b.recv_batch(&mut at_b, 8);
        }
        let (_, v): (NodeId, u64) = decode_frame(&at_b[0]).unwrap();
        assert_eq!(v, 1);
        let (_, v): (NodeId, u64) = decode_frame(&at_a[0]).unwrap();
        assert_eq!(v, 2);
        // Client-style injection.
        hub.send(NodeId(1), &encode_frame(NodeId(1), &9u64))
            .unwrap();
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.is_empty() && Instant::now() < deadline {
            b.poll(Duration::from_micros(100));
            b.recv_batch(&mut got, 1);
        }
        let (_, v): (NodeId, u64) = decode_frame(&got[0]).unwrap();
        assert_eq!(v, 9);
    }

    /// Poll `t` until `want` frames arrived, decoding each as a `u64`.
    fn recv_u64s(t: &mut RtTransport, want: usize) -> Vec<u64> {
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < want && Instant::now() < deadline {
            t.poll(Duration::from_millis(5));
            t.recv_batch(&mut got, usize::MAX);
        }
        got.iter()
            .map(|f| decode_frame::<u64>(f).expect("frame intact").1)
            .collect()
    }

    #[test]
    fn client_path_keeps_one_connection_and_redials_a_restarted_receiver() {
        let hub = RtHub::new();
        let mut b = hub.endpoint(NodeId(1)).unwrap();
        for i in 0..2_000u64 {
            hub.send(NodeId(1), &encode_frame(NodeId(1), &i)).unwrap();
        }
        assert_eq!(recv_u64s(&mut b, 2_000), (0..2_000).collect::<Vec<u64>>());
        let stats = b.stats();
        assert_eq!(
            stats.accepts - stats.accepts_would_block,
            1,
            "2 000 injections, one connection: {stats:?}"
        );
        // The receiver restarts: same name, new listener. The cached
        // stream points at the old address and is dialled again.
        drop(b);
        let mut b = hub.endpoint(NodeId(1)).unwrap();
        hub.send(NodeId(1), &encode_frame(NodeId(1), &7u64))
            .unwrap();
        assert_eq!(recv_u64s(&mut b, 1), [7]);
    }

    #[test]
    fn runtime_outbound_ring_backpressures() {
        // Tiny ring: the kernel socket buffer plus our ring fill up when
        // the receiver never polls.
        let cfg = RuntimeConfig::new()
            .outbound_bytes(2048)
            .max_batch_bytes(512);
        let hub = RtHub::with_config(cfg);
        let mut a = hub.endpoint(NodeId(0)).unwrap();
        let _b = hub.endpoint(NodeId(1)).unwrap();
        let big = Bytes::from(encode_frame(NodeId(0), &Bytes::from(vec![0u8; 1500])));
        let mut hit_backpressure = false;
        for _ in 0..10_000 {
            match a.send_batch(NodeId(1), &[big.clone()]) {
                Ok(_) => {}
                Err(TransportError::Backpressure) => {
                    hit_backpressure = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(hit_backpressure, "bounded ring must eventually push back");
    }

    #[test]
    fn refused_ring_is_watched_for_writability_not_spun_on() {
        let hub = RtHub::with_config(RuntimeConfig::new().outbound_bytes(64 * 1024));
        let mut a = hub.endpoint(NodeId(0)).unwrap();
        // The peer is a bare socket outside the hub, so nothing but the
        // endpoint's own descriptors can end its parks.
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = sink.local_addr().unwrap();
        hub.registry.lock().unwrap().insert(NodeId(1), addr);
        let big = Bytes::from(encode_frame(NodeId(0), &Bytes::from(vec![0u8; 16 * 1024])));
        // It accepts and does not read: the kernel's buffers fill, then
        // the ring does.
        let mut refused = false;
        for _ in 0..100_000 {
            let sent = a.send_batch(NodeId(1), &[big.clone()]);
            a.poll(Duration::ZERO);
            refused = sent == Err(TransportError::Backpressure) && a.stats().writes_would_block > 0;
            if refused {
                break;
            }
        }
        assert!(refused, "the kernel refused part of the ring");
        let (mut peer, _) = sink.accept().unwrap();

        // Nothing can move: each park sits out its timeout.
        let before = a.stats();
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(40) {
            a.poll(Duration::from_millis(10));
        }
        let stuck = a.stats();
        assert!(stuck.parks - before.parks <= 6, "{stuck:?}");
        assert_eq!(
            stuck.parks - before.parks,
            stuck.park_timeouts - before.park_timeouts
        );

        // The peer drains. What a park would wait on — the hub's set —
        // now reports the endpoint ready, and stays so until the ring is
        // flushed (the wait is made here, not through `poll`, which would
        // flush first and have nothing left to wait for).
        assert!(a.writers[&NodeId(1)].watched);
        peer.set_nonblocking(true).unwrap();
        let mut woken = Vec::new();
        let start = Instant::now();
        while woken.is_empty() && start.elapsed() < Duration::from_secs(10) {
            while peer.read(&mut [0u8; 64 * 1024]).is_ok_and(|n| n > 0) {}
            a.wake.wait(&mut woken, Duration::from_millis(50));
        }
        assert_eq!(woken, [0], "endpoint 0 reported ready for its writer");
        // Flushed and drained, the stream is no longer watched (a
        // writable socket is always ready): the next park waits again.
        while peer.read(&mut [0u8; 64 * 1024]).is_ok_and(|n| n > 0) {}
        a.poll(Duration::ZERO);
        assert_eq!(a.writers[&NodeId(1)].pending(), 0, "ring drained");
        assert!(!a.writers[&NodeId(1)].watched);
        let before = a.stats().park_timeouts;
        a.poll(Duration::from_millis(10));
        assert_eq!(a.stats().park_timeouts, before + 1);
    }

    #[test]
    fn runtime_dead_peer_backoff_fails_fast() {
        let cfg = RuntimeConfig::new()
            .reconnect_backoff_base(Duration::from_millis(50))
            .reconnect_backoff_max(Duration::from_millis(50));
        let hub = RtHub::with_config(cfg);
        let mut a = hub.endpoint(NodeId(0)).unwrap();
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);
        hub.registry.lock().unwrap().insert(NodeId(1), addr);
        let frame = bframe(NodeId(0), &1u64);
        assert_eq!(
            a.send_batch(NodeId(1), &[frame.clone()]),
            Err(TransportError::Disconnected(NodeId(1)))
        );
        let t0 = Instant::now();
        for _ in 0..50 {
            assert_eq!(
                a.send_batch(NodeId(1), &[frame.clone()]),
                Err(TransportError::Disconnected(NodeId(1)))
            );
        }
        assert!(
            t0.elapsed() < Duration::from_millis(40),
            "backoff window fails fast: {:?}",
            t0.elapsed()
        );
    }
}
