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

/// The buffered outputs of one upcall.
///
/// Both drivers build a [`Ctx`] with [`Ctx::detached`], run the handler and
/// take these back with [`Ctx::take_effects`]: the [`Sim`](crate::Sim)
/// event loop queues them as events, the `wire` crate's runner executes
/// them against sockets and a real-time timer wheel.
#[derive(Debug)]
pub struct Effects<M> {
    /// Messages to deliver, in send order.
    pub msgs: Vec<(NodeId, M)>,
    /// Timers armed: `(delay, tag)`.
    pub timers: Vec<(Duration, u64)>,
    /// The node asked to stop itself.
    pub halt: bool,
}

/// Capability handle passed to every [`Process`] upcall.
pub struct Ctx<'a, M> {
    pub(crate) now: Time,
    pub(crate) self_id: NodeId,
    pub(crate) rng: &'a mut Rng64,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) out: Effects<M>,
}

impl<'a, M> Ctx<'a, M> {
    /// Build the context of one upcall on `self_id` at `now`. The driver
    /// owns the RNG and metrics registry and executes the buffered
    /// [`Effects`] after the upcall returns.
    pub fn detached(
        now: Time,
        self_id: NodeId,
        rng: &'a mut Rng64,
        metrics: &'a mut Metrics,
    ) -> Self {
        Ctx {
            now,
            self_id,
            rng,
            metrics,
            out: Effects {
                msgs: Vec::new(),
                timers: Vec::new(),
                halt: false,
            },
        }
    }

    /// Consume the context, returning the effects buffered during the
    /// upcall (companion to [`Ctx::detached`]).
    pub fn take_effects(self) -> Effects<M> {
        self.out
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
    /// back to [`Process::on_timer`]. Timers cannot be cancelled: a
    /// handler drops a stale one by its tag.
    pub fn set_timer(&mut self, delay: Duration, tag: u64) {
        self.out.timers.push((delay, tag));
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
    fn detached_ctx_hands_back_effects() {
        let mut rng = Rng64::new(9);
        let mut metrics = Metrics::new();
        let mut ctx: Ctx<'_, u32> =
            Ctx::detached(Time::from_millis(7), NodeId(1), &mut rng, &mut metrics);
        assert_eq!(ctx.now().as_millis(), 7);
        assert_eq!(ctx.self_id(), NodeId(1));
        ctx.send(NodeId(2), 42);
        ctx.set_timer(Duration::from_millis(3), 5);
        ctx.set_timer(Duration::from_millis(4), 6);
        ctx.halt_self();
        let eff = ctx.take_effects();
        assert_eq!(eff.msgs, vec![(NodeId(2), 42)]);
        assert_eq!(
            eff.timers,
            vec![(Duration::from_millis(3), 5), (Duration::from_millis(4), 6)]
        );
        assert!(eff.halt);
    }
}
