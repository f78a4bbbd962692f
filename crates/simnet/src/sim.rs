//! The discrete-event simulation driver.
//!
//! A [`Sim`] owns a set of nodes (each a boxed [`Process`]), a priority queue
//! of pending events (message deliveries, timer firings, scripted control
//! actions), a [`NetConfig`] deciding per-message latency/loss, a seeded
//! deterministic RNG, and a [`Metrics`] registry. Executions are totally
//! deterministic given the seed and the sequence of API calls: ties in the
//! event queue are broken by insertion sequence number.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::fault::{FaultPlan, FaultState, LinkFaults, Verdict};
use crate::fingerprint::{Event, Fingerprint, MsgEncoder};
use crate::metrics::{CounterId, Metrics};
use crate::net::{MsgMeta, NetConfig};
use crate::process::{Ctx, Effects, Process};
use crate::rng::Rng64;
use crate::time::{Duration, Time};
use crate::NodeId;

/// Lifecycle state of a simulated node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeState {
    /// Running: receives messages and timers.
    Up,
    /// Crash-stopped: silently drops everything (fail-stop model).
    Crashed,
    /// Left gracefully via [`Sim::remove`].
    Departed,
}

/// One scheduled control action (scripted churn, workload steps, …).
pub type ControlFn<M> = Box<dyn FnOnce(&mut Sim<M>)>;

enum EventKind<M> {
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: M,
    },
    Timer {
        node: NodeId,
        tag: u64,
        /// Incarnation of the node that armed the timer: a timer armed
        /// before a crash must not fire into a restarted process.
        epoch: u32,
    },
    Control(ControlFn<M>),
}

struct Entry<M> {
    at: Time,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Object-safe supertrait adding downcasting, so experiments can inspect
/// node state after a run. Blanket-implemented for every `Process + Any`.
pub trait ProcessAny<M>: Process<M> {
    /// Upcast to `&dyn Any` for downcasting.
    fn as_any(&self) -> &dyn Any;
}

impl<M, T: Process<M> + Any> ProcessAny<M> for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct Slot<M> {
    proc: Box<dyn ProcessAny<M>>,
    state: NodeState,
    /// Incarnation counter, bumped by [`Sim::restart_node`]. Timers are
    /// stamped with it so a restarted process never receives the previous
    /// incarnation's timers (messages still arrive: the network does not
    /// know the process behind an address was replaced).
    epoch: u32,
}

/// Pre-registered handles for the counters the event loop bumps on every
/// message and timer — resolved to array slots once at construction so the
/// hot path never does a by-name map lookup.
struct HotCounters {
    nodes_added: CounterId,
    crashes: CounterId,
    restarts: CounterId,
    departures: CounterId,
    msgs_sent: CounterId,
    msgs_delivered: CounterId,
    msgs_dropped: CounterId,
    msgs_to_dead: CounterId,
    timers_fired: CounterId,
}

impl HotCounters {
    fn register(m: &mut Metrics) -> Self {
        HotCounters {
            nodes_added: m.register_counter("sim.nodes_added"),
            crashes: m.register_counter("sim.crashes"),
            restarts: m.register_counter("sim.restarts"),
            departures: m.register_counter("sim.departures"),
            msgs_sent: m.register_counter("sim.msgs_sent"),
            msgs_delivered: m.register_counter("sim.msgs_delivered"),
            msgs_dropped: m.register_counter("sim.msgs_dropped"),
            msgs_to_dead: m.register_counter("sim.msgs_to_dead"),
            timers_fired: m.register_counter("sim.timers_fired"),
        }
    }
}

/// Sizes (and classifies) a message for wire accounting; typically
/// `|m| MsgMeta { bytes: wire-encoded frame length, class: ... }`.
pub type WireMeter<M> = Box<dyn Fn(&M) -> MsgMeta>;

/// Clones a message so the fault layer can duplicate deliveries
/// (installed with [`Sim::set_fault_plan`]; typically `|m| m.clone()`).
/// A function type rather than an `M: Clone` bound so fault injection
/// stays opt-in for message types that are not `Clone`.
pub type MsgCloner<M> = Box<dyn Fn(&M) -> M>;

/// Pre-registered counter pair of one wire message class.
struct WireClassSlot {
    class: &'static str,
    bytes: CounterId,
    msgs: CounterId,
}

/// Per-message wire accounting state (absent unless a meter is installed,
/// so un-metered simulations pay nothing and expose no extra counters).
struct WireAccounting<M> {
    meter: WireMeter<M>,
    total_bytes: CounterId,
    total_msgs: CounterId,
    /// Class -> counter handles; a handful of classes, linear scan.
    classes: Vec<WireClassSlot>,
}

/// The simulator. See the crate docs for the execution model.
pub struct Sim<M> {
    now: Time,
    seq: u64,
    queue: BinaryHeap<Entry<M>>,
    nodes: Vec<Slot<M>>,
    rng: Rng64,
    metrics: Metrics,
    hot: HotCounters,
    events_processed: u64,
    net: NetConfig,
    wire: Option<WireAccounting<M>>,
    /// Fault-injection state + message cloner (absent unless a
    /// [`FaultPlan`] is installed, so un-faulted simulations pay nothing
    /// and their event stream is untouched).
    fault: Option<(FaultState, MsgCloner<M>)>,
    /// The run fingerprint (absent unless [`Sim::set_fingerprint`] was
    /// called, so an unfingerprinted run pays one `None` check per event).
    fingerprint: Option<Fingerprint<M>>,
}

impl<M: 'static> Sim<M> {
    /// Create a simulator with the given RNG seed and network model.
    pub fn new(seed: u64, net: NetConfig) -> Self {
        let mut metrics = Metrics::new();
        let hot = HotCounters::register(&mut metrics);
        Sim {
            now: Time::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            nodes: Vec::new(),
            rng: Rng64::new(seed),
            metrics,
            hot,
            events_processed: 0,
            net,
            wire: None,
            fault: None,
            fingerprint: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Shared metrics registry (read).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Shared metrics registry (write, e.g. to pre-register or record
    /// workload-level metrics). Do not replace the registry wholesale: the
    /// simulator holds pre-registered [`CounterId`] handles into it.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Network configuration (mutable: loss and bandwidth can change
    /// mid-run).
    pub fn net_mut(&mut self) -> &mut NetConfig {
        &mut self.net
    }

    /// Install a wire meter: from now on every sent message is sized and
    /// classified through `meter`, its bytes counted into
    /// `wire.bytes.total` / `wire.bytes.<class>` (plus `wire.msgs.*`
    /// message counts), and — when [`NetConfig::bandwidth`] is set — its
    /// serialization delay charged on top of the sampled latency.
    ///
    /// Metering alone never changes behaviour: it draws no randomness and
    /// adds no delay unless a bandwidth limit is configured.
    pub fn set_wire_meter(&mut self, meter: WireMeter<M>) {
        let total_bytes = self.metrics.register_counter("wire.bytes.total");
        let total_msgs = self.metrics.register_counter("wire.msgs.total");
        self.wire = Some(WireAccounting {
            meter,
            total_bytes,
            total_msgs,
            classes: Vec::new(),
        });
    }

    /// Size `msg` through the installed meter (if any), bumping the byte
    /// counters; returns the encoded size for the bandwidth charge.
    fn meter_msg(&mut self, msg: &M) -> usize {
        let Some(wire) = &mut self.wire else {
            return 0;
        };
        let meta = (wire.meter)(msg);
        self.metrics.incr_id_by(wire.total_bytes, meta.bytes as u64);
        self.metrics.incr_id(wire.total_msgs);
        let slot = match wire.classes.iter().find(|s| s.class == meta.class) {
            Some(s) => s,
            None => {
                let bytes = self
                    .metrics
                    .register_counter(&format!("wire.bytes.{}", meta.class));
                let msgs = self
                    .metrics
                    .register_counter(&format!("wire.msgs.{}", meta.class));
                wire.classes.push(WireClassSlot {
                    class: meta.class,
                    bytes,
                    msgs,
                });
                wire.classes.last().expect("just pushed")
            }
        };
        let (b, m) = (slot.bytes, slot.msgs);
        self.metrics.incr_id_by(b, meta.bytes as u64);
        self.metrics.incr_id(m);
        meta.bytes
    }

    /// Install a seeded [`FaultPlan`]: from now on every deliverable
    /// remote message passes through the fault layer (drop / duplicate /
    /// reorder / jitter per link class, directional cuts), and the plan's
    /// scheduled cuts and crashes are queued as control events. `cloner`
    /// produces the second copy of duplicated messages.
    ///
    /// Fault decisions draw from a dedicated RNG seeded by the plan, so
    /// installing an inert plan (all rates zero, nothing scheduled)
    /// leaves the simulated event stream identical to not installing one
    /// at all — only the `faults.*` counters (all zero) appear.
    pub fn set_fault_plan(&mut self, plan: FaultPlan, cloner: MsgCloner<M>) {
        let state = FaultState::new(&plan, &mut self.metrics);
        self.fault = Some((state, cloner));
        for cut in &plan.cuts {
            let (a, b, oneway) = (cut.a.clone(), cut.b.clone(), cut.oneway);
            self.schedule_in(
                cut.at,
                Box::new(move |s: &mut Sim<M>| {
                    for &x in &a {
                        for &y in &b {
                            s.fault_cut(x, y, oneway);
                        }
                    }
                }),
            );
            if let Some(heal_after) = cut.heal_after {
                let (a, b) = (cut.a.clone(), cut.b.clone());
                self.schedule_in(
                    cut.at + heal_after,
                    Box::new(move |s: &mut Sim<M>| {
                        for &x in &a {
                            for &y in &b {
                                s.fault_heal(x, y);
                            }
                        }
                    }),
                );
            }
        }
        for crash in &plan.crashes {
            let node = crash.node;
            self.schedule_in(crash.at, Box::new(move |s: &mut Sim<M>| s.crash(node)));
        }
    }

    fn fault_state_mut(&mut self) -> &mut FaultState {
        &mut self
            .fault
            .as_mut()
            .expect("install a FaultPlan first (Sim::set_fault_plan)")
            .0
    }

    /// Cut the `a → b` link (and `b → a` unless `oneway`) at the fault
    /// layer, the simulator's only partition mechanism (`faults.cut` counts
    /// vetoed messages). Requires an installed plan.
    pub fn fault_cut(&mut self, a: NodeId, b: NodeId, oneway: bool) {
        self.fault_state_mut().cut_link(a, b, oneway);
    }

    /// Heal a fault-layer cut (both directions). Requires an installed plan.
    pub fn fault_heal(&mut self, a: NodeId, b: NodeId) {
        self.fault_state_mut().heal_link(a, b);
    }

    /// Heal every fault-layer cut. Requires an installed plan.
    pub fn fault_heal_all(&mut self) {
        self.fault_state_mut().heal_all();
    }

    /// Replace the fault class of one node (`Some`) or the default class
    /// (`None`) mid-run. Requires an installed plan.
    pub fn set_link_faults(&mut self, node: Option<NodeId>, faults: LinkFaults) {
        self.fault_state_mut().set_class(node, faults);
    }

    /// Start the run fingerprint: from now on every event [`Sim::step`]
    /// executes, every crash, restart and departure, and every fault
    /// verdict that changes a message is folded into one 64-bit digest,
    /// with message bytes from `encode`. Fingerprinting only observes: it
    /// draws no randomness and schedules nothing. Call it before the first
    /// step so the value covers the whole run.
    pub fn set_fingerprint(&mut self, encode: MsgEncoder<M>) {
        self.fingerprint = Some(Fingerprint::new(encode));
    }

    /// The run fingerprint so far, or `None` if it was never started.
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint.as_ref().map(Fingerprint::value)
    }

    fn fold(&mut self, kind: Event, fields: &[u64]) {
        if let Some(fp) = &mut self.fingerprint {
            fp.event(kind, self.now.as_micros(), fields);
        }
    }

    /// Total events executed so far (deliveries, timers, control actions,
    /// drops — everything popped by [`Sim::step`]). The perf harness
    /// divides this by wall-clock time for a sim-events/sec figure.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Add a node and invoke its `on_start` immediately (at the current time).
    pub fn add_node<P: Process<M> + Any>(&mut self, proc: P) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Slot {
            proc: Box::new(proc),
            state: NodeState::Up,
            epoch: 0,
        });
        self.metrics.incr_id(self.hot.nodes_added);
        self.dispatch(id, |p, ctx| p.on_start(ctx));
        id
    }

    /// Lifecycle state of a node.
    pub fn node_state(&self, id: NodeId) -> NodeState {
        self.nodes[id.0 as usize].state
    }

    /// Ids of all nodes currently `Up`.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&n| self.nodes[n.0 as usize].state == NodeState::Up)
            .collect()
    }

    /// Total number of node slots ever created.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Downcast a node's process state for inspection.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.nodes[id.0 as usize].proc.as_any().downcast_ref::<T>()
    }

    /// Crash-stop a node: it silently drops all future messages and timers.
    pub fn crash(&mut self, id: NodeId) {
        let slot = &mut self.nodes[id.0 as usize];
        if slot.state == NodeState::Up {
            slot.state = NodeState::Crashed;
            self.metrics.incr_id(self.hot.crashes);
            self.fold(Event::Crash, &[u64::from(id.0)]);
        }
    }

    /// Restart a crashed node with a replacement process at the same
    /// address — the crash-with-disk scenario: the caller builds `proc`
    /// from whatever the dead incarnation persisted (see the `store`
    /// crate) and the node rejoins the network locally instead of relying
    /// on peer-side takeover alone.
    ///
    /// The previous incarnation's pending timers are suppressed (they
    /// belong to the dead process); in-flight *messages* to the address
    /// are still delivered, exactly as a real network would. `on_start`
    /// runs at the current simulated time. Panics if the node is not
    /// crashed.
    pub fn restart_node<P: Process<M> + Any>(&mut self, id: NodeId, proc: P) {
        let slot = &mut self.nodes[id.0 as usize];
        assert_eq!(
            slot.state,
            NodeState::Crashed,
            "only crashed nodes can be restarted"
        );
        slot.proc = Box::new(proc);
        slot.state = NodeState::Up;
        slot.epoch += 1;
        self.metrics.incr_id(self.hot.restarts);
        self.fold(Event::Restart, &[u64::from(id.0)]);
        self.dispatch(id, |p, ctx| p.on_start(ctx));
    }

    /// Gracefully remove a node: `on_stop` runs first (its goodbye messages
    /// are delivered; timers it arms are discarded), then the node stops.
    pub fn remove(&mut self, id: NodeId) {
        if self.nodes[id.0 as usize].state != NodeState::Up {
            return;
        }
        // Goodbye messages fly; timers from a departing node are meaningless.
        self.dispatch(id, |p, ctx| {
            p.on_stop(ctx);
            ctx.out.timers.clear();
        });
        self.nodes[id.0 as usize].state = NodeState::Departed;
        self.metrics.incr_id(self.hot.departures);
        self.fold(Event::Departure, &[u64::from(id.0)]);
    }

    /// Inject a message "from outside the network" (e.g. a user action).
    /// Delivered after the local-delay latency.
    pub fn send_external(&mut self, to: NodeId, msg: M) {
        // Metered like any other traffic (a real client crosses the wire
        // too) but never bandwidth-charged: local dispatch.
        self.meter_msg(&msg);
        let at = self.now + self.net.local_delay;
        let seq = self.next_seq();
        self.queue.push(Entry {
            at,
            seq,
            kind: EventKind::Deliver { to, from: to, msg },
        });
    }

    /// Schedule a control closure to run at absolute time `at`.
    pub fn schedule_at(&mut self, at: Time, f: ControlFn<M>) {
        assert!(at >= self.now, "scheduling in the past");
        let seq = self.next_seq();
        self.queue.push(Entry {
            at,
            seq,
            kind: EventKind::Control(f),
        });
    }

    /// Schedule a control closure to run after `delay`.
    pub fn schedule_in(&mut self, delay: Duration, f: ControlFn<M>) {
        self.schedule_at(self.now + delay, f);
    }

    fn dispatch<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn ProcessAny<M>, &mut Ctx<'_, M>),
    {
        let proc = self.nodes[node.0 as usize].proc.as_mut();
        let mut ctx = Ctx::detached(self.now, node, &mut self.rng, &mut self.metrics);
        f(proc, &mut ctx);
        let effects = ctx.take_effects();
        self.flush(node, effects);
    }

    fn flush(&mut self, from: NodeId, out: Effects<M>) {
        for (to, msg) in out.msgs {
            self.metrics.incr_id(self.hot.msgs_sent);
            let bytes = self.meter_msg(&msg);
            match self.net.route(&mut self.rng, from, to, bytes) {
                Some(mut delay) => {
                    // Fault layer: may veto, delay or duplicate the
                    // deliverable message. Draws only from the plan's own
                    // RNG; absent a plan this is a single `None` check.
                    let mut duplicate: Option<(M, Duration)> = None;
                    if from != to {
                        if let Some((fault, cloner)) = self.fault.as_mut() {
                            let link = [u64::from(from.0), u64::from(to.0)];
                            match fault.judge(&mut self.metrics, from, to) {
                                Verdict::Cut => {
                                    self.metrics.incr_id(self.hot.msgs_dropped);
                                    self.fold(Event::FaultCut, &link);
                                    continue;
                                }
                                Verdict::Drop => {
                                    self.metrics.incr_id(self.hot.msgs_dropped);
                                    self.fold(Event::FaultDrop, &link);
                                    continue;
                                }
                                Verdict::Deliver {
                                    extra,
                                    duplicate_extra,
                                } => {
                                    delay += extra;
                                    if let Some(d) = duplicate_extra {
                                        duplicate = Some((cloner(&msg), delay + d));
                                    }
                                    if extra > Duration::ZERO || duplicate_extra.is_some() {
                                        let dup =
                                            duplicate_extra.map_or(u64::MAX, Duration::as_micros);
                                        self.fold(
                                            Event::FaultDelay,
                                            &[link[0], link[1], extra.as_micros(), dup],
                                        );
                                    }
                                }
                            }
                        }
                    }
                    let at = self.now + delay;
                    let seq = self.next_seq();
                    self.queue.push(Entry {
                        at,
                        seq,
                        kind: EventKind::Deliver { to, from, msg },
                    });
                    if let Some((copy, dup_delay)) = duplicate {
                        // The duplicate crosses the wire too: meter it and
                        // deliver it after its extra delay.
                        self.meter_msg(&copy);
                        let at = self.now + dup_delay;
                        let seq = self.next_seq();
                        self.queue.push(Entry {
                            at,
                            seq,
                            kind: EventKind::Deliver {
                                to,
                                from,
                                msg: copy,
                            },
                        });
                    }
                }
                None => {
                    self.metrics.incr_id(self.hot.msgs_dropped);
                }
            }
        }
        let epoch = self.nodes[from.0 as usize].epoch;
        for (delay, tag) in out.timers {
            let at = self.now + delay;
            let seq = self.next_seq();
            self.queue.push(Entry {
                at,
                seq,
                kind: EventKind::Timer {
                    node: from,
                    tag,
                    epoch,
                },
            });
        }
        if out.halt {
            // Node asked to stop itself (after a graceful handoff).
            let slot = &mut self.nodes[from.0 as usize];
            if slot.state == NodeState::Up {
                slot.state = NodeState::Departed;
                self.metrics.incr_id(self.hot.departures);
                self.fold(Event::Departure, &[u64::from(from.0)]);
            }
        }
    }

    /// Execute the single earliest pending event. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        let entry = match self.queue.pop() {
            Some(e) => e,
            None => return false,
        };
        debug_assert!(entry.at >= self.now, "time went backwards");
        self.now = entry.at;
        self.events_processed += 1;
        match entry.kind {
            EventKind::Deliver { to, from, msg } => {
                let up = self.nodes[to.0 as usize].state == NodeState::Up;
                if let Some(fp) = &mut self.fingerprint {
                    let kind = if up { Event::Delivered } else { Event::ToDead };
                    let link = [u64::from(to.0), u64::from(from.0)];
                    fp.message(kind, self.now.as_micros(), &link, &msg);
                }
                if up {
                    self.metrics.incr_id(self.hot.msgs_delivered);
                    self.dispatch(to, |p, ctx| p.on_message(ctx, from, msg));
                } else {
                    self.metrics.incr_id(self.hot.msgs_to_dead);
                }
            }
            EventKind::Timer { node, tag, epoch } => {
                let slot = &self.nodes[node.0 as usize];
                let fired = slot.state == NodeState::Up && slot.epoch == epoch;
                let kind = if fired {
                    Event::TimerFired
                } else {
                    Event::TimerStale
                };
                self.fold(kind, &[u64::from(node.0), tag]);
                if fired {
                    self.metrics.incr_id(self.hot.timers_fired);
                    self.dispatch(node, |p, ctx| p.on_timer(ctx, tag));
                }
            }
            EventKind::Control(f) => {
                f(self);
            }
        }
        true
    }

    /// Run all events with `time <= until`, then set the clock to `until`.
    pub fn run_until(&mut self, until: Time) {
        while let Some(head) = self.queue.peek() {
            if head.at > until {
                break;
            }
            self.step();
        }
        if until > self.now {
            self.now = until;
        }
    }

    /// Run for `d` more simulated time.
    pub fn run_for(&mut self, d: Duration) {
        let target = self.now + d;
        self.run_until(target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    /// Test process: replies to pings, counts pongs, re-arms a periodic
    /// timer; each tick pings every peer, in order.
    struct Echo {
        pongs: u32,
        ticks: u32,
        peers: Vec<NodeId>,
    }

    impl Echo {
        fn new(peers: &[NodeId]) -> Self {
            Echo {
                pongs: 0,
                ticks: 0,
                peers: peers.to_vec(),
            }
        }
    }

    impl Process<Msg> for Echo {
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
                for &peer in &self.peers {
                    ctx.send(peer, Msg::Ping(self.ticks));
                }
                if self.ticks < 5 {
                    ctx.set_timer(Duration::from_millis(10), 1);
                }
            }
        }
    }

    fn new_sim() -> Sim<Msg> {
        let mut net = NetConfig::lan();
        net.latency = crate::net::LatencyModel::Constant(Duration::from_millis(1));
        Sim::new(42, net)
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut sim = new_sim();
        let b = sim.add_node(Echo::new(&[]));
        let _a = sim.add_node(Echo::new(&[b]));
        // b has no peer so only a sends pings: 5 ticks -> 5 pongs back to a.
        sim.run_until(Time::from_secs(1));
        let a_state = sim.node_as::<Echo>(_a).unwrap();
        assert_eq!(a_state.pongs, 5);
        assert_eq!(a_state.ticks, 5);
        assert_eq!(sim.metrics().counter("sim.msgs_delivered"), 10);
    }

    #[test]
    fn crash_stops_message_and_timer_delivery() {
        let mut sim = new_sim();
        let b = sim.add_node(Echo::new(&[]));
        let a = sim.add_node(Echo::new(&[b]));
        sim.run_until(Time::from_millis(15)); // one tick happened
        sim.crash(b);
        sim.run_until(Time::from_secs(1));
        let a_state = sim.node_as::<Echo>(a).unwrap();
        assert_eq!(a_state.ticks, 5, "a keeps ticking");
        assert_eq!(a_state.pongs, 1, "only the pre-crash ping was answered");
        assert_eq!(sim.node_state(b), NodeState::Crashed);
        assert!(sim.metrics().counter("sim.msgs_to_dead") >= 4);
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let run = |seed: u64| {
            let mut net = NetConfig::lan();
            net.loss = 0.1;
            let mut sim: Sim<Msg> = Sim::new(seed, net);
            let b = sim.add_node(Echo::new(&[]));
            let _a = sim.add_node(Echo::new(&[b]));
            sim.run_until(Time::from_secs(2));
            (
                sim.metrics().counter("sim.msgs_delivered"),
                sim.metrics().counter("sim.msgs_dropped"),
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn restart_replaces_process_and_suppresses_stale_timers() {
        let mut sim = new_sim();
        let b = sim.add_node(Echo::new(&[]));
        let a = sim.add_node(Echo::new(&[b]));
        sim.run_until(Time::from_millis(15)); // one tick; next timer armed
        sim.crash(a);
        sim.restart_node(a, Echo::new(&[b]));
        sim.run_until(Time::from_secs(1));
        let st = sim.node_as::<Echo>(a).unwrap();
        // Exactly the fresh incarnation's 5 ticks/pings: a leaked timer
        // from the dead incarnation would produce a 6th ping.
        assert_eq!(st.ticks, 5);
        assert_eq!(st.pongs, 5);
        assert_eq!(sim.node_state(a), NodeState::Up);
        assert_eq!(sim.metrics().counter("sim.restarts"), 1);
        assert_eq!(sim.metrics().counter("sim.crashes"), 1);
    }

    #[test]
    #[should_panic(expected = "only crashed nodes")]
    fn restart_of_a_live_node_panics() {
        let mut sim = new_sim();
        let a = sim.add_node(Echo::new(&[]));
        sim.restart_node(a, Echo::new(&[]));
    }

    #[test]
    fn control_events_run_at_scheduled_time() {
        let mut sim = new_sim();
        let b = sim.add_node(Echo::new(&[]));
        sim.schedule_at(
            Time::from_millis(25),
            Box::new(move |s: &mut Sim<Msg>| {
                s.crash(b);
                assert_eq!(s.now().as_millis(), 25);
            }),
        );
        sim.run_until(Time::from_secs(1));
        assert_eq!(sim.node_state(b), NodeState::Crashed);
    }

    #[test]
    fn graceful_remove_delivers_goodbyes() {
        struct Goodbye {
            target: NodeId,
        }
        impl Process<Msg> for Goodbye {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {}
            fn on_stop(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.send(self.target, Msg::Ping(99));
            }
        }
        let mut sim = new_sim();
        let receiver = sim.add_node(Echo::new(&[]));
        let leaver = sim.add_node(Goodbye { target: receiver });
        sim.run_until(Time::from_millis(5));
        sim.remove(leaver);
        sim.run_until(Time::from_millis(100));
        assert_eq!(sim.node_state(leaver), NodeState::Departed);
        // The goodbye ping was delivered (receiver replied to a dead node).
        assert!(sim.metrics().counter("sim.msgs_to_dead") >= 1);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = new_sim();
        sim.run_until(Time::from_secs(5));
        assert_eq!(sim.now(), Time::from_secs(5));
    }

    #[test]
    fn wire_meter_counts_bytes_and_charges_bandwidth() {
        use crate::net::MsgMeta;
        let run = |metered: bool, bandwidth: Option<u64>| {
            let mut net = NetConfig::lan();
            net.latency = crate::net::LatencyModel::Constant(Duration::from_millis(1));
            net.bandwidth = bandwidth;
            let mut sim: Sim<Msg> = Sim::new(42, net);
            if metered {
                sim.set_wire_meter(Box::new(|m| match m {
                    Msg::Ping(_) => MsgMeta {
                        bytes: 100,
                        class: "ping",
                    },
                    Msg::Pong(_) => MsgMeta {
                        bytes: 10,
                        class: "pong",
                    },
                }));
            }
            let b = sim.add_node(Echo::new(&[]));
            let _a = sim.add_node(Echo::new(&[b]));
            sim.run_until(Time::from_secs(1));
            (
                sim.metrics().counter("wire.bytes.total"),
                sim.metrics().counter("wire.bytes.ping"),
                sim.metrics().counter("wire.msgs.pong"),
                sim.metrics().counter("sim.msgs_delivered"),
            )
        };
        // Metering alone: counters filled, behaviour identical.
        let (total, ping_bytes, pong_msgs, delivered) = run(true, None);
        assert_eq!(delivered, run(false, None).3);
        assert_eq!(total, 5 * 100 + 5 * 10);
        assert_eq!(ping_bytes, 500);
        assert_eq!(pong_msgs, 5);
        // A crawling link (100 bytes/s => 1 s per ping) delays pongs past
        // the horizon.
        let (_, _, _, delivered_slow) = run(true, Some(100));
        assert!(delivered_slow < delivered, "{delivered_slow} < {delivered}");
        // Un-metered simulations expose no wire counters at all.
        let mut names = Vec::new();
        {
            let mut sim: Sim<Msg> = Sim::new(1, NetConfig::lan());
            sim.add_node(Echo::new(&[]));
            sim.run_until(Time::from_millis(50));
            for (k, _) in sim.metrics().counters() {
                names.push(k.to_string());
            }
        }
        assert!(names.iter().all(|n| !n.starts_with("wire.")), "{names:?}");
    }

    #[test]
    fn timer_armed_in_the_kill_tick_never_fires_for_the_dead_incarnation() {
        // The fault engine schedules kills as control events, so a timer
        // armed by a delivery or timer upcall in the *same tick* as the
        // kill is common. Whatever the (time, seq) interleaving, a timer
        // armed by incarnation e must never fire into incarnation e+1.
        //
        // Interleaving A: the kill control was scheduled first (lower
        // seq), so at the shared tick it runs BEFORE the delivery that
        // would have armed a timer — the delivery hits a crashed node.
        // Interleaving B: the timer event fires first (lower seq), arms
        // its successor timer, and the kill+restart control runs second
        // in the same tick — the successor timer belongs to the dead
        // incarnation and must be suppressed.
        let mut sim = new_sim();
        let b = sim.add_node(Echo::new(&[]));
        let a = sim.add_node(Echo::new(&[b]));
        // Echo ticks at 10, 20, 30, … (armed in on_start / re-armed in
        // on_timer). Run past the first tick so the 20 ms timer is armed
        // with a seq LOWER than the control we schedule now.
        sim.run_until(Time::from_millis(15));
        sim.schedule_at(
            Time::from_millis(20),
            Box::new(move |s: &mut Sim<Msg>| {
                // Interleaving B: the 20 ms tick (seq below ours) already
                // fired in this very tick and re-armed the 30 ms timer.
                assert_eq!(s.node_as::<Echo>(a).unwrap().ticks, 2);
                s.crash(a);
                s.restart_node(a, Echo::new(&[b]));
            }),
        );
        sim.run_until(Time::from_secs(1));
        let st = sim.node_as::<Echo>(a).unwrap();
        // Exactly the fresh incarnation's 5 ticks: had the dead
        // incarnation's 30 ms timer leaked, a 6th tick would appear.
        assert_eq!(st.ticks, 5, "stale timer fired into the new incarnation");
        // 5 pongs answer the new incarnation's pings, plus exactly one
        // in-flight pong answering the ping the dead incarnation sent at
        // its final tick: messages (unlike timers) still arrive after a
        // restart — the network does not know the process was replaced.
        assert_eq!(st.pongs, 6);

        // Interleaving A: schedule the kill control BEFORE the node ever
        // runs, timed exactly on a tick boundary. The control (lower seq)
        // runs first, so the tick delivery lands on a crashed node and
        // the restarted incarnation starts from a clean slate.
        let mut sim = new_sim();
        let b = sim.add_node(Echo::new(&[]));
        sim.schedule_at(
            Time::from_millis(10),
            Box::new(move |s: &mut Sim<Msg>| {
                s.crash(b);
                s.restart_node(b, Echo::new(&[]));
            }),
        );
        let _a = sim.add_node(Echo::new(&[b]));
        sim.run_until(Time::from_secs(1));
        // b's first incarnation armed its 10 ms tick at t=0; the control
        // at t=10 ms (earlier seq) killed+restarted it first, so that
        // timer is epoch-suppressed and only the new incarnation ticks.
        assert_eq!(sim.node_as::<Echo>(b).unwrap().ticks, 5);
        assert_eq!(sim.metrics().counter("sim.restarts"), 1);
    }

    #[test]
    fn repeated_same_tick_kill_restart_cycles_keep_epochs_straight() {
        // The master-crash-storm scenario kills and restarts the same
        // node several times; each incarnation's timers must be isolated.
        let mut sim = new_sim();
        let b = sim.add_node(Echo::new(&[]));
        let a = sim.add_node(Echo::new(&[b]));
        for k in 1..=3u64 {
            sim.schedule_at(
                Time::from_millis(20 * k),
                Box::new(move |s: &mut Sim<Msg>| {
                    s.crash(a);
                    s.restart_node(a, Echo::new(&[b]));
                }),
            );
        }
        sim.run_until(Time::from_secs(1));
        // Only the final incarnation's 5 ticks survive; any epoch mixup
        // would add ticks from the three dead incarnations.
        assert_eq!(sim.node_as::<Echo>(a).unwrap().ticks, 5);
        assert_eq!(sim.metrics().counter("sim.restarts"), 3);
    }

    #[test]
    fn fault_plan_drops_and_duplicates_messages() {
        use crate::fault::{FaultPlan, LinkFaults};
        let run = |drop: f64, dup: f64| {
            let mut sim = new_sim();
            let mut lf = LinkFaults::none();
            lf.drop = drop;
            lf.duplicate = dup;
            sim.set_fault_plan(FaultPlan::new(99).with_default(lf), Box::new(Msg::clone));
            let b = sim.add_node(Echo::new(&[]));
            let _a = sim.add_node(Echo::new(&[b]));
            sim.run_until(Time::from_secs(1));
            (
                sim.metrics().counter("sim.msgs_delivered"),
                sim.metrics().counter("faults.dropped"),
                sim.metrics().counter("faults.duplicated"),
            )
        };
        // Certain drop: every remote ping vanishes (5 sent, 0 delivered).
        let (delivered, dropped, _) = run(1.0, 0.0);
        assert_eq!(delivered, 0);
        assert_eq!(dropped, 5);
        // Certain duplication: every remote message is delivered twice
        // (5 pings + their 10 pongs, each doubled → 10 pings, pongs vary
        // because each duplicated ping is answered too).
        let (delivered, _, duplicated) = run(0.0, 1.0);
        assert!(duplicated >= 10, "duplicated {duplicated}");
        assert_eq!(delivered, 2 * duplicated);
    }

    #[test]
    fn fault_cut_blocks_until_healed_and_oneway_is_asymmetric() {
        use crate::fault::FaultPlan;
        let mut sim = new_sim();
        sim.set_fault_plan(FaultPlan::new(5), Box::new(Msg::clone));
        let b = sim.add_node(Echo::new(&[]));
        let a = sim.add_node(Echo::new(&[b]));
        // Cut only a → b: pings vanish, so no pongs either.
        sim.fault_cut(a, b, true);
        sim.run_until(Time::from_millis(25));
        assert_eq!(sim.node_as::<Echo>(a).unwrap().pongs, 0);
        assert!(sim.metrics().counter("faults.cut") >= 2);
        // Heal: the remaining ticks' pings flow and are answered (the
        // b → a direction was never cut).
        sim.fault_heal(a, b);
        sim.run_until(Time::from_secs(1));
        assert_eq!(sim.node_as::<Echo>(a).unwrap().pongs, 3);
    }

    #[test]
    fn scheduled_plan_cut_heals_itself_and_crash_fires() {
        use crate::fault::{FaultPlan, ScheduledCut};
        let mut sim = new_sim();
        let b_id = NodeId(0);
        let a_id = NodeId(1);
        sim.set_fault_plan(
            FaultPlan::new(6)
                .with_cut(ScheduledCut {
                    at: Duration::from_millis(5),
                    heal_after: Some(Duration::from_millis(30)),
                    a: vec![a_id],
                    b: vec![b_id],
                    oneway: false,
                })
                .with_crash(Duration::from_millis(45), a_id),
            Box::new(Msg::clone),
        );
        let b = sim.add_node(Echo::new(&[]));
        let a = sim.add_node(Echo::new(&[b]));
        assert_eq!((a, b), (a_id, b_id));
        sim.run_until(Time::from_secs(1));
        // Ticks at 10/20/30 fell inside the cut window (5..35); the 40 ms
        // ping got through before the crash at 45 ms killed a.
        assert_eq!(sim.node_as::<Echo>(a).unwrap().pongs, 1);
        assert_eq!(sim.node_state(a), NodeState::Crashed);
        assert_eq!(sim.metrics().counter("sim.crashes"), 1);
        assert_eq!(sim.metrics().counter("faults.cut"), 3);
    }

    /// The fingerprint's message bytes: a tag, then the number.
    fn encode(m: &Msg, out: &mut Vec<u8>) {
        let (tag, n) = match m {
            Msg::Ping(n) => (0, n),
            Msg::Pong(n) => (1, n),
        };
        out.push(tag);
        out.extend_from_slice(&n.to_le_bytes());
    }

    fn lossy(seed: u64) -> Sim<Msg> {
        let mut net = NetConfig::lan();
        net.loss = 0.1;
        Sim::new(seed, net)
    }

    fn fingerprinted(mut sim: Sim<Msg>) -> Sim<Msg> {
        sim.set_fingerprint(Box::new(encode));
        sim
    }

    /// One pinger ticking into two peers, `swapped` reversing the order of
    /// its two sends per tick: the fingerprint, the event count and every
    /// counter after a second.
    fn echo_run(mut sim: Sim<Msg>, swapped: bool) -> (Option<u64>, u64, Vec<(String, u64)>) {
        let b = sim.add_node(Echo::new(&[]));
        let c = sim.add_node(Echo::new(&[]));
        let order = if swapped { [c, b] } else { [b, c] };
        sim.add_node(Echo::new(&order));
        sim.run_until(Time::from_secs(1));
        let counters = sim.metrics().counters();
        let counters = counters.map(|(k, v)| (k.to_string(), v)).collect();
        (sim.fingerprint(), sim.events_processed(), counters)
    }

    #[test]
    fn fingerprint_follows_the_seed() {
        let a = echo_run(fingerprinted(lossy(7)), false);
        assert!(a.0.is_some());
        assert_eq!(a, echo_run(fingerprinted(lossy(7)), false));
        assert_ne!(a.0, echo_run(fingerprinted(lossy(8)), false).0);
    }

    #[test]
    fn fingerprinting_changes_nothing_it_observes() {
        let on = echo_run(fingerprinted(lossy(7)), false);
        let off = echo_run(lossy(7), false);
        assert_eq!(off.0, None);
        assert_eq!((on.1, on.2), (off.1, off.2));
    }

    #[test]
    fn an_inert_fault_plan_leaves_the_fingerprint_alone() {
        use crate::fault::{FaultPlan, LinkFaults};
        let with_plan = |plan: FaultPlan| {
            let mut sim = fingerprinted(lossy(7));
            sim.set_fault_plan(plan, Box::new(Msg::clone));
            echo_run(sim, false).0
        };
        let none = echo_run(fingerprinted(lossy(7)), false).0;
        assert_eq!(with_plan(FaultPlan::new(3)), none);
        let mut lf = LinkFaults::none();
        lf.drop = 0.5;
        assert_ne!(with_plan(FaultPlan::new(3).with_default(lf)), none);
    }

    /// The mutation drill: one handler emits the same two sends in swapped
    /// order. Every counter, all that the drift gate compares, stays equal;
    /// the fingerprint moves.
    #[test]
    fn swapped_sends_keep_the_counters_and_move_the_fingerprint() {
        let straight = echo_run(fingerprinted(new_sim()), false);
        let swapped = echo_run(fingerprinted(new_sim()), true);
        assert_eq!((straight.1, &straight.2), (swapped.1, &swapped.2));
        assert_ne!(straight.0, swapped.0);
    }

    #[test]
    fn external_send_reaches_node() {
        let mut sim = new_sim();
        let b = sim.add_node(Echo::new(&[]));
        sim.send_external(b, Msg::Pong(1));
        sim.run_until(Time::from_millis(1));
        assert_eq!(sim.node_as::<Echo>(b).unwrap().pongs, 1);
    }
}
