//! A ready-made embedding of [`ChordNode`] into the simulator, for
//! chord-only tests, benchmarks and examples.
//!
//! The production embedding lives in the `p2p_ltr` crate (which multiplexes
//! Chord with the timestamping and log layers); this driver speaks a small
//! wrapper message type so external test code can inject client commands
//! with [`simnet::Sim::send_external`].

use bytes::Bytes;

use crate::config::ChordConfig;
use crate::events::{Action, ChordEvent, ChordTimer};
use crate::id::Id;
use crate::msg::{ChordMsg, NodeRef, OpId, PutMode};
use crate::node::ChordNode;
use simnet::{CounterId, Ctx, Duration, HistogramId, Metrics, NodeId, Process, Time};

/// Timer tag for a deferred ring join (outside the `ChordTimer` space).
const START_TAG: u64 = 5;

/// Client commands accepted by the driver (injected externally).
#[derive(Clone, Debug)]
pub enum Cmd {
    /// Resolve the owner of an id.
    Lookup(Id),
    /// Store a value.
    Put(Id, Bytes, PutMode),
    /// Fetch a value.
    Get(Id),
    /// Leave the ring gracefully and halt.
    Leave,
}

/// Wrapper payload: either protocol traffic or an injected command.
#[derive(Clone, Debug)]
pub enum DriverMsg {
    /// Chord protocol message.
    Chord(ChordMsg),
    /// Externally injected client command.
    Cmd(Cmd),
}

/// A completed client operation, kept for inspection by tests.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The operation handle.
    pub op: OpId,
    /// When it completed.
    pub at: Time,
    /// The event that completed it.
    pub event: ChordEvent,
}

/// Pre-registered handles for the per-completion counters and the hop
/// histogram — resolved once at `on_start` so the completion path never
/// does a by-name lookup.
#[derive(Clone, Copy)]
struct DriverCounters {
    lookups_ok: CounterId,
    lookups_failed: CounterId,
    puts_ok: CounterId,
    puts_failed: CounterId,
    gets_ok: CounterId,
    gets_failed: CounterId,
    lookup_hops: HistogramId,
}

impl DriverCounters {
    fn register(m: &mut Metrics) -> Self {
        DriverCounters {
            lookups_ok: m.register_counter("chord.lookups_ok"),
            lookups_failed: m.register_counter("chord.lookups_failed"),
            puts_ok: m.register_counter("chord.puts_ok"),
            puts_failed: m.register_counter("chord.puts_failed"),
            gets_ok: m.register_counter("chord.gets_ok"),
            gets_failed: m.register_counter("chord.gets_failed"),
            lookup_hops: m.register_histogram("chord.lookup_hops"),
        }
    }
}

/// Simulator process wrapping one Chord node.
pub struct ChordDriver {
    /// The wrapped state machine (public for post-run inspection).
    pub node: ChordNode,
    bootstrap: Option<NodeRef>,
    start_delay: Duration,
    /// Counter handles; registered on the first upcall (`on_start`).
    counters: Option<DriverCounters>,
    /// Every upcall event, in order.
    pub events: Vec<ChordEvent>,
    /// Completed client operations.
    pub completions: Vec<Completion>,
}

impl ChordDriver {
    /// Create a driver that joins immediately on start.
    pub fn new(me: NodeRef, cfg: ChordConfig, bootstrap: Option<NodeRef>) -> Self {
        Self::with_delay(me, cfg, bootstrap, Duration::ZERO)
    }

    /// Create a driver that waits `start_delay` before joining (staggered
    /// ring construction).
    pub fn with_delay(
        me: NodeRef,
        cfg: ChordConfig,
        bootstrap: Option<NodeRef>,
        start_delay: Duration,
    ) -> Self {
        ChordDriver {
            node: ChordNode::new(me, cfg),
            bootstrap,
            start_delay,
            counters: None,
            events: Vec::new(),
            completions: Vec::new(),
        }
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, DriverMsg>, actions: Vec<Action>) {
        let now = ctx.now();
        let counters = match self.counters {
            Some(c) => c,
            None => {
                let c = DriverCounters::register(ctx.metrics());
                self.counters = Some(c);
                c
            }
        };
        for act in actions {
            match act {
                Action::Send(to, msg) => ctx.send(to, DriverMsg::Chord(msg)),
                Action::SetTimer(delay, timer) => {
                    ctx.set_timer(delay, timer.encode());
                }
                Action::Event(ev) => {
                    match &ev {
                        ChordEvent::LookupDone { op, hops, .. } => {
                            ctx.metrics().incr_id(counters.lookups_ok);
                            ctx.metrics().record_id(counters.lookup_hops, *hops as f64);
                            self.completions.push(Completion {
                                op: *op,
                                at: now,
                                event: ev.clone(),
                            });
                        }
                        ChordEvent::LookupFailed { op } => {
                            ctx.metrics().incr_id(counters.lookups_failed);
                            self.completions.push(Completion {
                                op: *op,
                                at: now,
                                event: ev.clone(),
                            });
                        }
                        ChordEvent::PutDone { op, ok, .. } => {
                            ctx.metrics().incr_id(if *ok {
                                counters.puts_ok
                            } else {
                                counters.puts_failed
                            });
                            self.completions.push(Completion {
                                op: *op,
                                at: now,
                                event: ev.clone(),
                            });
                        }
                        ChordEvent::GetDone { op, ok, .. } => {
                            ctx.metrics().incr_id(if *ok {
                                counters.gets_ok
                            } else {
                                counters.gets_failed
                            });
                            self.completions.push(Completion {
                                op: *op,
                                at: now,
                                event: ev.clone(),
                            });
                        }
                        _ => {}
                    }
                    self.events.push(ev);
                }
            }
        }
    }
}

impl Process<DriverMsg> for ChordDriver {
    fn on_start(&mut self, ctx: &mut Ctx<'_, DriverMsg>) {
        if self.start_delay.is_zero() {
            let actions = self.node.start(ctx.now(), self.bootstrap);
            self.apply(ctx, actions);
        } else {
            ctx.set_timer(self.start_delay, START_TAG);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DriverMsg>, from: NodeId, msg: DriverMsg) {
        let now = ctx.now();
        let actions = match msg {
            DriverMsg::Chord(m) => self.node.handle(now, from, m),
            DriverMsg::Cmd(cmd) => match cmd {
                Cmd::Lookup(target) => self.node.lookup(now, target).1,
                Cmd::Put(key, value, mode) => self.node.put(now, key, value, mode).1,
                Cmd::Get(key) => self.node.get(now, key).1,
                Cmd::Leave => {
                    let acts = self.node.leave(now);
                    self.apply(ctx, acts);
                    ctx.halt_self();
                    return;
                }
            },
        };
        self.apply(ctx, actions);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DriverMsg>, tag: u64) {
        if tag == START_TAG {
            let actions = self.node.start(ctx.now(), self.bootstrap);
            self.apply(ctx, actions);
            return;
        }
        if let Some(timer) = ChordTimer::decode(tag) {
            let actions = self.node.on_timer(ctx.now(), timer);
            self.apply(ctx, actions);
        }
    }

    fn on_stop(&mut self, ctx: &mut Ctx<'_, DriverMsg>) {
        if self.node.is_joined() {
            let actions = self.node.leave(ctx.now());
            self.apply(ctx, actions);
        }
    }
}

/// Build a ring of `n` nodes with deterministic ids, joins staggered by
/// `join_gap`. Returns the `NodeRef` of every node (addresses match the
/// simulator's assignment order).
pub fn build_ring(
    sim: &mut simnet::Sim<DriverMsg>,
    n: usize,
    cfg: &ChordConfig,
    join_gap: Duration,
) -> Vec<NodeRef> {
    assert!(n >= 1);
    let mut refs: Vec<NodeRef> = Vec::with_capacity(n);
    let mut first: Option<NodeRef> = None;
    for i in 0..n {
        let id = Id::hash(format!("chord-node-{i}").as_bytes());
        let addr = NodeId(sim.node_count() as u32);
        let me = NodeRef::new(addr, id);
        let (bootstrap, delay) = match first {
            None => (None, Duration::ZERO),
            Some(f) => (Some(f), join_gap * i as u64),
        };
        let assigned = sim.add_node(ChordDriver::with_delay(me, cfg.clone(), bootstrap, delay));
        assert_eq!(assigned, addr, "address assignment raced");
        if first.is_none() {
            first = Some(me);
        }
        refs.push(me);
    }
    refs
}

/// The ground-truth owner of `key` among `members`: the first node at or
/// after `key` walking clockwise (minimal clockwise distance from the key).
/// Used by tests as an oracle against the routed answer.
pub fn oracle_owner(members: &[NodeRef], key: Id) -> NodeRef {
    assert!(!members.is_empty());
    *members
        .iter()
        .min_by_key(|m| key.distance_to(m.id))
        .unwrap()
}
