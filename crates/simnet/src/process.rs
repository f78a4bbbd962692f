//! The interface between protocol code and the simulator: [`Process`] is the
//! node behaviour, [`Ctx`] is the capability handle it receives on every
//! upcall (send messages, arm timers, read the clock, record metrics).
//!
//! `Ctx` buffers outputs; the simulator flushes them after the upcall
//! returns. This keeps protocol handlers free of simulator borrows and makes
//! them unit-testable with a synthetic `Ctx`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::indexing_slicing, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

use crate::metrics::Metrics;
use crate::rng::Rng64;
use crate::time::{Duration, Time};
use crate::NodeId;

/// Identifies an armed timer so it can be cancelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

/// Buffered effects produced by one upcall.
#[derive(Debug, Default)]
pub(crate) struct Outbox<M> {
    pub msgs: Vec<(NodeId, M)>,
    pub timers: Vec<(TimerId, Duration, u64)>,
    pub cancels: Vec<TimerId>,
    pub halt: bool,
}

impl<M> Outbox<M> {
    pub(crate) fn new() -> Self {
        Outbox {
            msgs: Vec::new(),
            timers: Vec::new(),
            cancels: Vec::new(),
            halt: false,
        }
    }
}

/// The buffered outputs of one upcall, handed back to an external driver.
///
/// Inside the simulator the [`Sim`](crate::Sim) event loop consumes these
/// directly; real transports (e.g. the `wire` crate's TCP runner) obtain
/// them via [`Ctx::detached`] + [`Ctx::take_effects`] and execute them
/// against sockets and a real-time timer wheel.
#[derive(Debug)]
pub struct Effects<M> {
    /// Messages to deliver, in send order.
    pub msgs: Vec<(NodeId, M)>,
    /// Timers armed: `(id, delay, tag)`.
    pub timers: Vec<(TimerId, Duration, u64)>,
    /// Timers cancelled.
    pub cancels: Vec<TimerId>,
    /// The node asked to stop itself.
    pub halt: bool,
}

/// Capability handle passed to every [`Process`] upcall.
pub struct Ctx<'a, M> {
    pub(crate) now: Time,
    pub(crate) self_id: NodeId,
    pub(crate) rng: &'a mut Rng64,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) timer_seq: &'a mut u64,
    pub(crate) out: Outbox<M>,
}

impl<'a, M> Ctx<'a, M> {
    /// Build a context detached from any simulator, for driving a
    /// [`Process`] over a real transport (see the `wire` crate). The caller
    /// owns the RNG, metrics registry and timer sequence per node and
    /// executes the buffered [`Effects`] after the upcall returns.
    pub fn detached(
        now: Time,
        self_id: NodeId,
        rng: &'a mut Rng64,
        metrics: &'a mut Metrics,
        timer_seq: &'a mut u64,
    ) -> Self {
        Ctx {
            now,
            self_id,
            rng,
            metrics,
            timer_seq,
            out: Outbox::new(),
        }
    }

    /// Consume the context, returning the effects buffered during the
    /// upcall (companion to [`Ctx::detached`]).
    pub fn take_effects(self) -> Effects<M> {
        Effects {
            msgs: self.out.msgs,
            timers: self.out.timers,
            cancels: self.out.cancels,
            halt: self.out.halt,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The node this upcall runs on.
    #[inline]
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Deterministic RNG (shared stream, stable given the event order).
    #[inline]
    pub fn rng(&mut self) -> &mut Rng64 {
        self.rng
    }

    /// Shared metrics registry.
    #[inline]
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// Send `msg` to `to` (may be `self`). Delivery time and loss are decided
    /// by the network model when the simulator flushes the outbox.
    #[inline]
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.out.msgs.push((to, msg));
    }

    /// Arm a one-shot timer firing after `delay`, carrying the opaque `tag`
    /// back to [`Process::on_timer`]. Returns an id usable with
    /// [`Ctx::cancel_timer`].
    pub fn set_timer(&mut self, delay: Duration, tag: u64) -> TimerId {
        *self.timer_seq += 1;
        let id = TimerId(*self.timer_seq);
        self.out.timers.push((id, delay, tag));
        id
    }

    /// Cancel a previously armed timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.out.cancels.push(id);
    }

    /// Request the simulator to stop this node after the upcall (used by
    /// graceful-leave logic once goodbyes are sent).
    pub fn halt_self(&mut self) {
        self.out.halt = true;
    }
}

/// A node behaviour: a deterministic state machine driven by messages and
/// timers.
///
/// All methods get a [`Ctx`] whose buffered effects are applied after the
/// call returns; re-entrancy is impossible by construction.
pub trait Process<M> {
    /// Called once when the node is added to the simulation.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// A message arrived.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// A timer armed via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// The node is being removed gracefully (leave, not crash): last chance
    /// to send goodbyes. Messages sent here are still delivered; timers armed
    /// here are discarded.
    fn on_stop(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_buffers_effects() {
        let mut rng = Rng64::new(1);
        let mut metrics = Metrics::new();
        let mut seq = 0u64;
        let mut ctx: Ctx<'_, &'static str> = Ctx {
            now: Time::from_millis(1),
            self_id: NodeId(3),
            rng: &mut rng,
            metrics: &mut metrics,
            timer_seq: &mut seq,
            out: Outbox::new(),
        };
        ctx.send(NodeId(4), "hello");
        let t1 = ctx.set_timer(Duration::from_millis(10), 7);
        let t2 = ctx.set_timer(Duration::from_millis(20), 8);
        ctx.cancel_timer(t1);
        assert_ne!(t1, t2);
        assert_eq!(ctx.out.msgs.len(), 1);
        assert_eq!(ctx.out.timers.len(), 2);
        assert_eq!(ctx.out.cancels, vec![t1]);
        assert_eq!(ctx.now().as_millis(), 1);
        assert_eq!(ctx.self_id(), NodeId(3));
    }

    #[test]
    fn detached_ctx_hands_back_effects() {
        let mut rng = Rng64::new(9);
        let mut metrics = Metrics::new();
        let mut seq = 0u64;
        let mut ctx: Ctx<'_, u32> = Ctx::detached(
            Time::from_millis(7),
            NodeId(1),
            &mut rng,
            &mut metrics,
            &mut seq,
        );
        ctx.send(NodeId(2), 42);
        let t = ctx.set_timer(Duration::from_millis(3), 5);
        ctx.cancel_timer(t);
        ctx.halt_self();
        let eff = ctx.take_effects();
        assert_eq!(eff.msgs, vec![(NodeId(2), 42)]);
        assert_eq!(eff.timers, vec![(t, Duration::from_millis(3), 5)]);
        assert_eq!(eff.cancels, vec![t]);
        assert!(eff.halt);
    }

    #[test]
    fn timer_ids_are_unique_across_ctxs() {
        let mut rng = Rng64::new(1);
        let mut metrics = Metrics::new();
        let mut seq = 0u64;
        let id_a = {
            let mut ctx: Ctx<'_, ()> = Ctx {
                now: Time::ZERO,
                self_id: NodeId(0),
                rng: &mut rng,
                metrics: &mut metrics,
                timer_seq: &mut seq,
                out: Outbox::new(),
            };
            ctx.set_timer(Duration::from_millis(1), 0)
        };
        let id_b = {
            let mut ctx: Ctx<'_, ()> = Ctx {
                now: Time::ZERO,
                self_id: NodeId(0),
                rng: &mut rng,
                metrics: &mut metrics,
                timer_seq: &mut seq,
                out: Outbox::new(),
            };
            ctx.set_timer(Duration::from_millis(1), 0)
        };
        assert_ne!(id_a, id_b);
    }
}
