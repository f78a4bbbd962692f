//! [`WireNet`] — run the *same* protocol state machines that run on the
//! simulator over a real transport and real time.
//!
//! Each node is a [`simnet::Process`] exactly as in the simulator, and an
//! upcall runs as it does there: [`Ctx::detached`] over the node's own RNG
//! and metrics, the handler, then [`Ctx::take_effects`]. The runner
//! executes the returned [`Effects`](simnet::Effects) against the
//! transport (messages become encoded frames) and a real-time timer wheel
//! (sim [`Duration`](simnet::Duration)s map 1:1 to wall-clock). Timers
//! cannot be cancelled; a killed node's are discarded.
//!
//! The runner is single-threaded and cooperative — node state stays
//! inspectable between pumps. When a pump finds nothing to do it parks
//! **once**, in the first node's [`Transport::poll`], until the next
//! timer of any node is due: over the socket runtime that park ends as
//! soon as any node's socket has work (see [`runtime`](crate::runtime)),
//! and over in-process queues nothing can arrive while the one thread
//! that sends is parked.

#![expect(
    clippy::disallowed_methods,
    reason = "the real-time harness: wall time is its contract and never reaches simulator runs"
)]

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::time::Instant;

use bytes::Bytes;
use simnet::{CounterId, Ctx, Metrics, NodeId, ProcessAny, Rng64, Time};

use crate::codec::{Decode, Encode};
use crate::frame::{decode_frame_bytes, encode_frame};
use crate::transport::{Transport, TransportError};

/// One armed timer: fires at `at`, insertion-ordered within an instant.
type TimerEntry = Reverse<(Time, u64, u64)>; // (at, seq, tag)

/// Frames a slot may hold back for retry after backpressure before it
/// starts dropping (the loss model of a full NIC queue).
const PENDING_CAP: usize = 16 * 1024;

/// Max frames pulled per `recv_batch` call while pumping.
const RECV_CHUNK: usize = 256;

/// Longest single park of an idle runner: what bounds the delay of a
/// frame a transport cannot wake the first node's `poll` for.
const IDLE_BUDGET: std::time::Duration = std::time::Duration::from_micros(500);

/// Per-class transport send-failure counters, pre-registered at slot
/// creation: one `wire.send_err.<class>` counter per
/// [`TransportError`] class (see [`TransportError::class`]).
struct SendErrCounters {
    unknown_peer: CounterId,
    backpressure: CounterId,
    disconnected: CounterId,
    io: CounterId,
}

impl SendErrCounters {
    fn register(metrics: &mut Metrics) -> Self {
        SendErrCounters {
            unknown_peer: metrics.register_counter("wire.send_err.unknown_peer"),
            backpressure: metrics.register_counter("wire.send_err.backpressure"),
            disconnected: metrics.register_counter("wire.send_err.disconnected"),
            io: metrics.register_counter("wire.send_err.io"),
        }
    }

    fn id_for(&self, e: &TransportError) -> CounterId {
        match e {
            TransportError::UnknownPeer(_) => self.unknown_peer,
            TransportError::Backpressure => self.backpressure,
            TransportError::Disconnected(_) => self.disconnected,
            TransportError::Io(_) => self.io,
        }
    }
}

struct WireSlot<M> {
    me: NodeId,
    proc: Box<dyn ProcessAny<M>>,
    transport: Box<dyn Transport>,
    rng: Rng64,
    metrics: Metrics,
    /// Transport failure counters, pre-registered at slot creation.
    send_errors: SendErrCounters,
    decode_errors: CounterId,
    /// Encoded frames awaiting (re)delivery, in per-destination order.
    /// Backpressured destinations park their frames here until the next
    /// pump; non-retryable failures drop them (the sim's loss model).
    pending: VecDeque<(NodeId, Bytes)>,
    /// Reusable receive scratch for `recv_batch`.
    recv_buf: Vec<Bytes>,
    seq: u64,
    timers: BinaryHeap<TimerEntry>,
    halted: bool,
}

/// Delivers an external frame to a node: the client path of a [`WireNet`].
pub type Injector = Box<dyn Fn(NodeId, &[u8]) -> Result<(), crate::TransportError>>;

/// A set of protocol nodes running over a real transport in real time.
pub struct WireNet<M> {
    slots: Vec<WireSlot<M>>,
    /// Builds the endpoint of a newly added node.
    endpoint_for: Box<dyn FnMut(NodeId) -> Box<dyn Transport>>,
    /// Client-side injector (external commands).
    inject: Injector,
    start: Instant,
    seed: u64,
}

impl<M: Encode + Decode + 'static> WireNet<M> {
    /// Build over arbitrary endpoints: `endpoint_for` creates one per
    /// added node, `inject` delivers external frames (the client path).
    pub fn new(
        seed: u64,
        endpoint_for: Box<dyn FnMut(NodeId) -> Box<dyn Transport>>,
        inject: Injector,
    ) -> Self {
        WireNet {
            slots: Vec::new(),
            endpoint_for,
            inject,
            start: Instant::now(),
            seed,
        }
    }

    /// Build over in-process queues (the transport analogue of the
    /// simulator's delivery path).
    pub fn in_process(seed: u64) -> Self {
        let hub = crate::MemHub::new();
        let make = hub.clone();
        Self::new(
            seed,
            Box::new(move |me| Box::new(make.endpoint(me)) as Box<dyn Transport>),
            Box::new(move |to, frame| hub.send(to, frame)),
        )
    }

    /// Build over the non-blocking event-loop runtime
    /// ([`RtHub`](crate::RtHub)): one socket pair per talking peer pair,
    /// write batching, bounded queues — `cfg` tunes all of it.
    pub fn runtime_tcp(seed: u64, cfg: crate::RuntimeConfig) -> std::io::Result<Self> {
        let hub = crate::RtHub::with_config(cfg);
        let make = hub.clone();
        Ok(Self::new(
            seed,
            Box::new(move |me| {
                Box::new(make.endpoint(me).expect("bind loopback listener")) as Box<dyn Transport>
            }),
            Box::new(move |to, frame| hub.send(to, frame)),
        ))
    }

    /// Wall-clock time since construction, as the virtual clock the
    /// processes see.
    pub fn now(&self) -> Time {
        Time::from_micros(self.start.elapsed().as_micros().min(u64::MAX as u128) as u64)
    }

    /// Add a node; its `on_start` runs immediately. Addresses are assigned
    /// densely in add order, mirroring `Sim::add_node`.
    pub fn add_node<P: simnet::Process<M> + std::any::Any>(&mut self, proc: P) -> NodeId {
        let me = NodeId(self.slots.len() as u32);
        let transport = (self.endpoint_for)(me);
        let mut metrics = Metrics::new();
        let send_errors = SendErrCounters::register(&mut metrics);
        let decode_errors = metrics.register_counter("wire.decode_errors");
        self.slots.push(WireSlot {
            me,
            proc: Box::new(proc),
            transport,
            rng: Rng64::new(self.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(me.0 as u64 + 1))),
            metrics,
            send_errors,
            decode_errors,
            pending: VecDeque::new(),
            recv_buf: Vec::new(),
            seq: 0,
            timers: BinaryHeap::new(),
            halted: false,
        });
        let now = self.now();
        let slot = self.slots.last_mut().expect("just pushed");
        Self::upcall(slot, now, |p, ctx| p.on_start(ctx));
        Self::flush_pending(slot);
        me
    }

    /// Inject an external message to `to` (the client path; mirrors
    /// `Sim::send_external`, including the `from == to` convention).
    pub fn send_external(&self, to: NodeId, msg: M) -> Result<(), crate::TransportError> {
        (self.inject)(to, &encode_frame(to, &msg))
    }

    /// Downcast a node's process state for inspection.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.slots
            .get(id.0 as usize)
            .and_then(|s| s.proc.as_any().downcast_ref::<T>())
    }

    /// A node's private metrics registry.
    pub fn metrics(&self, id: NodeId) -> &Metrics {
        &self.slots[id.0 as usize].metrics
    }

    /// Kill a node's process: inbound frames are drained and dropped and
    /// its timers stop firing, while the transport endpoint (socket,
    /// queue) stays bound — the process-crash half of a recovery drill.
    pub fn kill(&mut self, id: NodeId) {
        self.slots[id.0 as usize].halted = true;
    }

    /// Replace a killed node's process with `proc` (typically rebuilt from
    /// the dead incarnation's on-disk store) and run its `on_start`. The
    /// dead process's pending timers are discarded; the transport endpoint
    /// — and therefore the node's address — is reused, so peers keep
    /// talking to the same socket. Panics if the node was not killed.
    pub fn restart_node<P: simnet::Process<M> + std::any::Any>(&mut self, id: NodeId, proc: P) {
        let now = self.now();
        let slot = &mut self.slots[id.0 as usize];
        assert!(slot.halted, "only killed nodes can be restarted");
        slot.proc = Box::new(proc);
        slot.halted = false;
        slot.timers.clear();
        Self::upcall(slot, now, |p, ctx| p.on_start(ctx));
        Self::flush_pending(slot);
    }

    /// Run one upcall on `slot`'s process at `now`, then queue what it
    /// produced: messages as frames for the next flush, timers on the
    /// wheel.
    fn upcall<F>(slot: &mut WireSlot<M>, now: Time, f: F)
    where
        F: FnOnce(&mut dyn ProcessAny<M>, &mut Ctx<'_, M>),
    {
        let mut ctx = Ctx::detached(now, slot.me, &mut slot.rng, &mut slot.metrics);
        f(slot.proc.as_mut(), &mut ctx);
        let eff = ctx.take_effects();
        for (to, msg) in eff.msgs {
            if slot.pending.len() >= PENDING_CAP {
                // The retry queue is the NIC queue: full means this frame
                // is a dropped packet — exactly the simulator's loss
                // model. Count it and move on.
                slot.metrics.incr_id(slot.send_errors.backpressure);
                continue;
            }
            slot.pending
                .push_back((to, Bytes::from(encode_frame(slot.me, &msg))));
        }
        for (delay, tag) in eff.timers {
            slot.seq += 1;
            slot.timers.push(Reverse((now + delay, slot.seq, tag)));
        }
        if eff.halt {
            slot.halted = true;
        }
    }

    /// Hand pending frames to the transport in per-destination batches.
    /// Backpressured remainders stay parked for the next pump;
    /// non-retryable failures drop their frames (dropped packets, the
    /// sim's loss model), each failure counted under its error class.
    fn flush_pending(slot: &mut WireSlot<M>) {
        if slot.pending.is_empty() {
            return;
        }
        let mut batches: BTreeMap<NodeId, Vec<Bytes>> = BTreeMap::new();
        for (to, frame) in slot.pending.drain(..) {
            batches.entry(to).or_default().push(frame);
        }
        for (to, mut frames) in batches {
            let mut sent = 0;
            while sent < frames.len() {
                match slot.transport.send_batch(to, &frames[sent..]) {
                    Ok(n) => {
                        sent += n;
                        if sent < frames.len() {
                            // Partial accept: the outbound ring filled.
                            slot.metrics.incr_id(slot.send_errors.backpressure);
                            break;
                        }
                    }
                    Err(e) => {
                        slot.metrics.incr_id(slot.send_errors.id_for(&e));
                        if !e.retryable() {
                            frames.truncate(sent); // Drop the remainder.
                        }
                        break;
                    }
                }
            }
            for frame in frames.drain(sent..) {
                slot.pending.push_back((to, frame));
            }
        }
    }

    /// Pump every node once: run one transport I/O rotation, retry parked
    /// frames, drain inbound frames, fire due timers, then flush what the
    /// handlers produced as batches.
    /// Returns the number of upcalls dispatched (0 = idle).
    pub fn pump(&mut self) -> usize {
        let now = self.now();
        let mut dispatched = 0;
        for slot in &mut self.slots {
            // One non-blocking I/O rotation (accept/read/flush for the
            // event-loop runtime), then retry anything parked by earlier
            // backpressure.
            slot.transport.poll(std::time::Duration::ZERO);
            Self::flush_pending(slot);
            // Inbound frames, drained in batches.
            loop {
                let mut buf = std::mem::take(&mut slot.recv_buf);
                buf.clear();
                let n = slot.transport.recv_batch(&mut buf, RECV_CHUNK);
                for frame in buf.drain(..) {
                    if slot.halted {
                        continue; // Departed nodes silently drop, as in the sim.
                    }
                    let Ok((from, msg)) = decode_frame_bytes::<M>(&frame) else {
                        // A malformed frame must never take the node down.
                        slot.metrics.incr_id(slot.decode_errors);
                        continue;
                    };
                    Self::upcall(slot, now, |p, ctx| p.on_message(ctx, from, msg));
                    dispatched += 1;
                }
                slot.recv_buf = buf;
                if n < RECV_CHUNK {
                    break;
                }
            }
            // Due timers.
            while let Some(&Reverse((at, _, tag))) = slot.timers.peek() {
                if at > now || slot.halted {
                    break;
                }
                slot.timers.pop();
                Self::upcall(slot, now, |p, ctx| p.on_timer(ctx, tag));
                dispatched += 1;
            }
            // Everything the handlers queued this pump goes out as one
            // batched flush per destination.
            Self::flush_pending(slot);
        }
        dispatched
    }

    /// Nothing to do: park once, until the caller's `deadline`, the next
    /// due timer of any node, or [`IDLE_BUDGET`] — whichever is first.
    /// The wait is the first node's [`Transport::poll`]; which arrivals
    /// can end it early is the transport's business (see the module
    /// docs).
    fn idle_wait(&mut self, deadline: Instant) {
        let mut wait = IDLE_BUDGET.min(deadline.saturating_duration_since(Instant::now()));
        let now = self.now();
        for slot in self.slots.iter().filter(|s| !s.halted) {
            if let Some(&Reverse((at, ..))) = slot.timers.peek() {
                wait = wait.min(std::time::Duration::from_micros(at.since(now).as_micros()));
            }
        }
        if wait.is_zero() {
            return;
        }
        match self.slots.first_mut() {
            Some(slot) => {
                slot.transport.poll(wait);
            }
            // No node, so no transport to park in and nothing that could
            // end the wait early.
            None => std::thread::sleep(wait),
        }
    }

    /// Pump for `d` wall-clock time, parking on transport readiness when
    /// idle.
    pub fn run_for(&mut self, d: std::time::Duration) {
        let deadline = Instant::now() + d;
        while Instant::now() < deadline {
            if self.pump() == 0 {
                self.idle_wait(deadline);
            }
        }
    }

    /// Pump until `pred(self)` holds, checking between pumps; `false` on
    /// timeout.
    pub fn run_until(
        &mut self,
        timeout: std::time::Duration,
        mut pred: impl FnMut(&WireNet<M>) -> bool,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if pred(self) {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            if self.pump() == 0 {
                self.idle_wait(deadline);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Duration;

    /// The sim.rs test process, re-used verbatim over real transports.
    #[derive(Debug)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    impl Encode for Msg {
        fn encode(&self, out: &mut Vec<u8>) {
            match self {
                Msg::Ping(n) => {
                    out.push(0);
                    n.encode(out);
                }
                Msg::Pong(n) => {
                    out.push(1);
                    n.encode(out);
                }
            }
        }
        fn encoded_len(&self) -> usize {
            1 + match self {
                Msg::Ping(n) | Msg::Pong(n) => n.encoded_len(),
            }
        }
    }

    impl Decode for Msg {
        fn decode(r: &mut crate::Reader<'_>) -> Result<Self, crate::WireError> {
            match r.read_u8()? {
                0 => Ok(Msg::Ping(u32::decode(r)?)),
                1 => Ok(Msg::Pong(u32::decode(r)?)),
                tag => Err(crate::WireError::BadTag { what: "Msg", tag }),
            }
        }
    }

    struct Echo {
        pongs: u32,
        ticks: u32,
        peer: Option<NodeId>,
    }

    impl simnet::Process<Msg> for Echo {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.set_timer(Duration::from_millis(10), 1);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
            match msg {
                Msg::Ping(n) => ctx.send(from, Msg::Pong(n)),
                Msg::Pong(_) => self.pongs += 1,
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
            if tag == 1 {
                self.ticks += 1;
                if let Some(peer) = self.peer {
                    ctx.send(peer, Msg::Ping(self.ticks));
                }
                if self.ticks < 5 {
                    ctx.set_timer(Duration::from_millis(10), 1);
                }
            }
        }
    }

    fn ping_pong_over(mut net: WireNet<Msg>) {
        let b = net.add_node(Echo {
            pongs: 0,
            ticks: 0,
            peer: None,
        });
        let a = net.add_node(Echo {
            pongs: 0,
            ticks: 0,
            peer: Some(b),
        });
        let ok = net.run_until(std::time::Duration::from_secs(10), |n| {
            n.node_as::<Echo>(a).is_some_and(|e| e.pongs == 5)
        });
        assert!(ok, "a received all 5 pongs over the transport");
        assert_eq!(net.node_as::<Echo>(a).unwrap().ticks, 5);
    }

    #[test]
    fn ping_pong_in_process() {
        ping_pong_over(WireNet::in_process(1));
    }

    #[test]
    fn ping_pong_runtime_tcp() {
        ping_pong_over(WireNet::runtime_tcp(1, crate::RuntimeConfig::new()).unwrap());
    }

    #[test]
    fn send_errors_are_counted_per_class() {
        let mut net = WireNet::<Msg>::in_process(3);
        // Echo pings a peer that was never added: every tick is an
        // UnknownPeer drop, counted under its own class.
        let a = net.add_node(Echo {
            pongs: 0,
            ticks: 0,
            peer: Some(NodeId(99)),
        });
        assert!(net.run_until(std::time::Duration::from_secs(10), |n| {
            n.metrics(a).counter("wire.send_err.unknown_peer") == 5
        }));
        assert_eq!(net.metrics(a).counter("wire.send_err.backpressure"), 0);
        assert_eq!(net.metrics(a).counter("wire.send_err.disconnected"), 0);
        assert_eq!(net.metrics(a).counter("wire.send_err.io"), 0);
    }

    /// Arms one timer in `on_start` and records every tag that fires.
    struct Alarm {
        delay: Duration,
        tag: u64,
        fired: Vec<u64>,
    }

    impl simnet::Process<Msg> for Alarm {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.set_timer(self.delay, self.tag);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, tag: u64) {
            self.fired.push(tag);
        }
    }

    #[test]
    fn restart_discards_the_dead_incarnations_timers() {
        let mut net = WireNet::<Msg>::in_process(4);
        let alarm = |delay, tag| Alarm {
            delay: Duration::from_millis(delay),
            tag,
            fired: Vec::new(),
        };
        let a = net.add_node(alarm(10, 1));
        net.kill(a);
        // The replacement's timer is due after the dead one's: had the
        // 10 ms timer survived the restart, it would fire first.
        net.restart_node(a, alarm(20, 2));
        assert!(net.run_until(std::time::Duration::from_secs(5), |n| {
            n.node_as::<Alarm>(a).is_some_and(|p| !p.fired.is_empty())
        }));
        net.run_for(std::time::Duration::from_millis(30));
        assert_eq!(net.node_as::<Alarm>(a).unwrap().fired, vec![2]);
    }

    #[test]
    fn external_injection_and_malformed_frames() {
        let mut net = WireNet::<Msg>::in_process(2);
        let b = net.add_node(Echo {
            pongs: 0,
            ticks: 0,
            peer: None,
        });
        net.send_external(b, Msg::Pong(1)).unwrap();
        assert!(net.run_until(std::time::Duration::from_secs(5), |n| {
            n.node_as::<Echo>(b).is_some_and(|e| e.pongs == 1)
        }));
        // A garbage frame is counted and survived, not a crash.
        (net.inject)(b, &crate::frame::encode_frame(b, &u64::MAX)).unwrap();
        net.run_for(std::time::Duration::from_millis(50));
        assert_eq!(net.metrics(b).counter("wire.decode_errors"), 1);
    }
}
