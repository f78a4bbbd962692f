//! Deterministic fault injection: seeded message-level faults
//! (drop / duplicate / reorder / delay), directional link cuts, and
//! scheduled crashes, layered *behind* the network model.
//!
//! Design constraints (the reason this is its own subsystem rather than
//! more knobs on [`NetConfig`](crate::NetConfig)):
//!
//! * **Determinism** — every fault decision draws from a dedicated
//!   [`Rng64`] seeded from the [`FaultPlan`], never from the simulator's
//!   RNG. Installing no plan (or a plan whose rates are all zero) leaves
//!   the zero-fault event stream **byte-identical** to a simulator built
//!   without this module: no extra RNG draws, no extra queue entries, no
//!   changed sequence numbers.
//! * **Replayability** — a plan is pure data; the same plan + the same
//!   simulator seed reproduce the same faulted execution bit for bit.
//! * **Classes, not links** — fault rates attach to *link classes*: a
//!   default class plus per-node overrides (a "laggy master" is a node
//!   override with heavy jitter; "dup-heavy links" is a default class
//!   with a duplicate probability). The override of the *sending* node
//!   wins, then the receiving node's, then the default.
//!
//! The hook sits in the simulator's routing path (`Sim::flush`): after
//! the network model has decided a message is deliverable and sampled its
//! latency, the fault layer may veto it (cut, drop), delay it (jitter,
//! reorder spike) or duplicate it. Timer faults are expressed through the
//! crash schedule instead: timers of a crashed incarnation are suppressed
//! by the epoch stamp (see `Sim::restart_node`), which the fault engine
//! exercises constantly.

use std::collections::{BTreeMap, BTreeSet};

use crate::metrics::{CounterId, Metrics};
use crate::rng::Rng64;
use crate::time::Duration;
use crate::NodeId;

/// Per-link-class fault rates. All probabilities are independent
/// per-message Bernoulli trials; `0.0` disables the corresponding draw
/// entirely (no RNG consumption), so an all-zero `LinkFaults` is inert.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability a deliverable message is silently dropped.
    pub drop: f64,
    /// Probability a deliverable message is delivered *twice* (the copy
    /// arrives after an extra delay in `(0, reorder_spike]`).
    pub duplicate: f64,
    /// Probability a message is held back by an extra delay in
    /// `(0, reorder_spike]`, letting later sends overtake it.
    pub reorder: f64,
    /// Scale of the reorder/duplicate extra delay.
    pub reorder_spike: Duration,
    /// Uniform extra delay `[min, max]` added to *every* message on the
    /// link class (a slow or congested path).
    pub jitter: Option<(Duration, Duration)>,
}

impl LinkFaults {
    /// The inert class: no drops, no duplicates, no reordering, no jitter.
    pub const fn none() -> Self {
        LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_spike: Duration::from_millis(50),
            jitter: None,
        }
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        Self::none()
    }
}

/// A scheduled link cut between two node groups (every pair `a×b`),
/// optionally healing itself after `heal_after`.
#[derive(Clone, Debug)]
pub struct ScheduledCut {
    /// When the cut starts, relative to plan installation.
    pub at: Duration,
    /// When (relative to `at`) the cut heals; `None` = stays cut until
    /// [`Sim::fault_heal_all`](crate::Sim::fault_heal_all).
    pub heal_after: Option<Duration>,
    /// One side of the cut.
    pub a: Vec<NodeId>,
    /// The other side.
    pub b: Vec<NodeId>,
    /// `true` cuts only `a → b` traffic (asymmetric partition); `false`
    /// cuts both directions.
    pub oneway: bool,
}

/// A scheduled crash-stop, relative to plan installation. Recovery (with
/// or without an on-disk store) is the harness/scenario layer's job — the
/// simulator cannot rebuild a process from a journal by itself.
#[derive(Clone, Debug)]
pub struct ScheduledCrash {
    /// When the node crash-stops.
    pub at: Duration,
    /// The victim.
    pub node: NodeId,
}

/// A complete, seeded fault schedule: pure data, replayable bit for bit.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed of the dedicated fault RNG (independent of the simulator seed).
    pub seed: u64,
    /// Fault rates of the default link class.
    pub default: LinkFaults,
    /// Per-node overrides: messages *sent by* (first) or *to* (second) an
    /// overridden node use that node's class instead of the default.
    pub node_overrides: BTreeMap<NodeId, LinkFaults>,
    /// Scheduled (and optionally self-healing) link cuts.
    pub cuts: Vec<ScheduledCut>,
    /// Scheduled crash-stops.
    pub crashes: Vec<ScheduledCrash>,
}

impl FaultPlan {
    /// An empty plan with the given fault-RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Set the default link class.
    pub fn with_default(mut self, faults: LinkFaults) -> Self {
        self.default = faults;
        self
    }

    /// Schedule a cut between every pair in `a × b`.
    pub fn with_cut(mut self, cut: ScheduledCut) -> Self {
        self.cuts.push(cut);
        self
    }

    /// Schedule a crash-stop.
    pub fn with_crash(mut self, at: Duration, node: NodeId) -> Self {
        self.crashes.push(ScheduledCrash { at, node });
        self
    }
}

/// Pre-registered counters for each fault kind (`faults.*`).
struct FaultCounters {
    dropped: CounterId,
    duplicated: CounterId,
    reordered: CounterId,
    delayed: CounterId,
    cut: CounterId,
}

/// What the fault layer decided for one deliverable message.
pub(crate) enum Verdict {
    /// The message crosses a cut link: never delivered.
    Cut,
    /// The message is dropped by the link class.
    Drop,
    /// Deliver after `extra` additional delay; `duplicate_extra` is
    /// `Some(d)` when a second copy must be enqueued `d` after the
    /// original's (already extra-delayed) arrival.
    Deliver {
        extra: Duration,
        duplicate_extra: Option<Duration>,
    },
}

/// Installed fault state: the plan's link classes, the dedicated RNG, and
/// the live cut set. Owned by the simulator; mutated through `Sim`
/// helpers and scheduled plan actions.
pub(crate) struct FaultState {
    default: LinkFaults,
    overrides: BTreeMap<NodeId, LinkFaults>,
    rng: Rng64,
    /// Directional cut edges `(from, to)`.
    cut: BTreeSet<(NodeId, NodeId)>,
    counters: FaultCounters,
}

impl FaultState {
    pub(crate) fn new(plan: &FaultPlan, metrics: &mut Metrics) -> Self {
        FaultState {
            default: plan.default.clone(),
            overrides: plan.node_overrides.clone(),
            rng: Rng64::new(plan.seed),
            cut: BTreeSet::new(),
            counters: FaultCounters {
                dropped: metrics.register_counter("faults.dropped"),
                duplicated: metrics.register_counter("faults.duplicated"),
                reordered: metrics.register_counter("faults.reordered"),
                delayed: metrics.register_counter("faults.delayed"),
                cut: metrics.register_counter("faults.cut"),
            },
        }
    }

    pub(crate) fn cut_link(&mut self, from: NodeId, to: NodeId, oneway: bool) {
        self.cut.insert((from, to));
        if !oneway {
            self.cut.insert((to, from));
        }
    }

    pub(crate) fn heal_link(&mut self, a: NodeId, b: NodeId) {
        self.cut.remove(&(a, b));
        self.cut.remove(&(b, a));
    }

    pub(crate) fn heal_all(&mut self) {
        self.cut.clear();
    }

    pub(crate) fn set_class(&mut self, node: Option<NodeId>, faults: LinkFaults) {
        match node {
            Some(n) => {
                self.overrides.insert(n, faults);
            }
            None => self.default = faults,
        }
    }

    /// The link class governing a `from → to` message.
    fn class(&self, from: NodeId, to: NodeId) -> &LinkFaults {
        self.overrides
            .get(&from)
            .or_else(|| self.overrides.get(&to))
            .unwrap_or(&self.default)
    }

    /// Extra delay uniform in `(0, spike]` — never zero, so the
    /// perturbation is guaranteed to move the message.
    fn spike(&mut self, spike: Duration) -> Duration {
        let us = spike.as_micros().max(1);
        Duration::from_micros(self.rng.gen_range(1, us))
    }

    /// Decide the fate of one deliverable remote message. Draws from the
    /// dedicated fault RNG only, and only for non-zero rates — an inert
    /// class consumes no randomness at all.
    pub(crate) fn judge(&mut self, metrics: &mut Metrics, from: NodeId, to: NodeId) -> Verdict {
        if self.cut.contains(&(from, to)) {
            metrics.incr_id(self.counters.cut);
            return Verdict::Cut;
        }
        let lf = self.class(from, to).clone();
        if lf.drop > 0.0 && self.rng.chance(lf.drop) {
            metrics.incr_id(self.counters.dropped);
            return Verdict::Drop;
        }
        let mut extra = Duration::ZERO;
        if let Some((lo, hi)) = lf.jitter {
            extra += Duration::from_micros(self.rng.gen_range(lo.as_micros(), hi.as_micros()));
            metrics.incr_id(self.counters.delayed);
        }
        if lf.reorder > 0.0 && self.rng.chance(lf.reorder) {
            extra += self.spike(lf.reorder_spike);
            metrics.incr_id(self.counters.reordered);
        }
        let duplicate_extra = if lf.duplicate > 0.0 && self.rng.chance(lf.duplicate) {
            metrics.incr_id(self.counters.duplicated);
            Some(self.spike(lf.reorder_spike))
        } else {
            None
        };
        Verdict::Deliver {
            extra,
            duplicate_extra,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_resolution_prefers_sender_then_receiver() {
        let mut plan = FaultPlan::new(1);
        let mut laggy = LinkFaults::none();
        laggy.reorder = 0.5;
        let mut lossy = LinkFaults::none();
        lossy.drop = 0.5;
        plan.node_overrides.insert(NodeId(1), laggy.clone());
        plan.node_overrides.insert(NodeId(2), lossy.clone());
        let mut m = Metrics::new();
        let st = FaultState::new(&plan, &mut m);
        assert_eq!(st.class(NodeId(1), NodeId(2)), &laggy);
        assert_eq!(st.class(NodeId(2), NodeId(1)), &lossy);
        assert_eq!(st.class(NodeId(0), NodeId(2)), &lossy);
        assert_eq!(st.class(NodeId(0), NodeId(3)), &LinkFaults::none());
    }

    #[test]
    fn directional_cut_blocks_one_way_only() {
        let mut m = Metrics::new();
        let mut st = FaultState::new(&FaultPlan::new(2), &mut m);
        st.cut_link(NodeId(1), NodeId(2), true);
        assert!(matches!(
            st.judge(&mut m, NodeId(1), NodeId(2)),
            Verdict::Cut
        ));
        assert!(matches!(
            st.judge(&mut m, NodeId(2), NodeId(1)),
            Verdict::Deliver { .. }
        ));
        st.heal_link(NodeId(1), NodeId(2));
        assert!(matches!(
            st.judge(&mut m, NodeId(1), NodeId(2)),
            Verdict::Deliver { .. }
        ));
        assert_eq!(m.counter("faults.cut"), 1);
    }

    #[test]
    fn symmetric_cut_blocks_both_ways_and_heal_all_clears() {
        let mut m = Metrics::new();
        let mut st = FaultState::new(&FaultPlan::new(3), &mut m);
        st.cut_link(NodeId(4), NodeId(5), false);
        assert!(matches!(
            st.judge(&mut m, NodeId(4), NodeId(5)),
            Verdict::Cut
        ));
        assert!(matches!(
            st.judge(&mut m, NodeId(5), NodeId(4)),
            Verdict::Cut
        ));
        st.heal_all();
        assert!(matches!(
            st.judge(&mut m, NodeId(4), NodeId(5)),
            Verdict::Deliver { .. }
        ));
    }

    #[test]
    fn inert_judgement_consumes_no_randomness() {
        let mut m = Metrics::new();
        let mut st = FaultState::new(&FaultPlan::new(7), &mut m);
        let before = st.rng.clone().next_u64();
        for _ in 0..100 {
            assert!(matches!(
                st.judge(&mut m, NodeId(0), NodeId(1)),
                Verdict::Deliver {
                    extra: Duration::ZERO,
                    duplicate_extra: None
                }
            ));
        }
        assert_eq!(st.rng.clone().next_u64(), before, "fault RNG advanced");
    }

    #[test]
    fn rates_fire_at_roughly_the_configured_frequency() {
        let mut plan = FaultPlan::new(11);
        plan.default.drop = 0.2;
        plan.default.duplicate = 0.3;
        let mut m = Metrics::new();
        let mut st = FaultState::new(&plan, &mut m);
        let mut drops = 0;
        let mut dups = 0;
        for _ in 0..10_000 {
            match st.judge(&mut m, NodeId(0), NodeId(1)) {
                Verdict::Drop => drops += 1,
                Verdict::Deliver {
                    duplicate_extra: Some(_),
                    ..
                } => dups += 1,
                _ => {}
            }
        }
        assert!((1700..2300).contains(&drops), "drops {drops}");
        // Duplicates are judged on the ~8000 non-dropped messages.
        assert!((2100..2700).contains(&dups), "dups {dups}");
        assert_eq!(m.counter("faults.dropped"), drops);
        assert_eq!(m.counter("faults.duplicated"), dups);
    }

    #[test]
    fn same_seed_same_verdict_stream() {
        let run = |seed| {
            let mut plan = FaultPlan::new(seed);
            plan.default.drop = 0.1;
            plan.default.reorder = 0.2;
            plan.default.jitter = Some((Duration::from_micros(10), Duration::from_millis(2)));
            let mut m = Metrics::new();
            let mut st = FaultState::new(&plan, &mut m);
            let mut log = Vec::new();
            for i in 0..500u32 {
                match st.judge(&mut m, NodeId(i % 5), NodeId((i + 1) % 5)) {
                    Verdict::Cut => log.push((i, 0, 0)),
                    Verdict::Drop => log.push((i, 1, 0)),
                    Verdict::Deliver { extra, .. } => log.push((i, 2, extra.as_micros())),
                }
            }
            log
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
