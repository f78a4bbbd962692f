//! # simnet — deterministic discrete-event network simulator
//!
//! The substrate under the P2P-LTR reproduction. The original prototype
//! (Tlili et al., RR-6497) ran Java objects over RMI and a GUI harness that
//! could "specify the number of peers or network latencies, or provoke
//! failures". This crate provides the same capabilities as a deterministic,
//! seedable discrete-event simulator:
//!
//! * **virtual time** ([`Time`], [`Duration`]) in microseconds;
//! * **nodes** implementing [`Process`]: message + timer driven state
//!   machines receiving a capability handle ([`Ctx`]);
//! * **network model** ([`NetConfig`]): constant / uniform / log-normal
//!   latency, Bernoulli loss, per-link bandwidth;
//! * **fault injection** ([`FaultPlan`], [`Sim::set_fault_plan`]): seeded
//!   per-link-class message drop / duplicate / reorder / delay,
//!   directional link cuts ([`Sim::fault_cut`], the only partition
//!   mechanism), scheduled crashes — decisions draw from a dedicated RNG,
//!   so the zero-fault event stream is untouched;
//! * **churn**: crash-stop ([`Sim::crash`]), crash-with-disk restart
//!   ([`Sim::restart_node`] — a replacement process, typically rebuilt
//!   from a durable store, resumes at the same address with the dead
//!   incarnation's timers suppressed), graceful departure
//!   ([`Sim::remove`]) and scripted control events ([`Sim::schedule_at`]);
//! * **observability**: a [`Metrics`] registry (counters + exact-quantile
//!   histograms) and an optional run fingerprint
//!   ([`Sim::set_fingerprint`]), one digest over every executed event;
//! * **determinism**: a self-contained xoshiro256++ RNG ([`Rng64`]) and a
//!   strictly ordered event queue, so every experiment is reproducible from
//!   its seed.
//!
//! ## Example
//!
//! ```
//! use simnet::{Ctx, NetConfig, NodeId, Process, Sim, Duration, Time};
//!
//! #[derive(Debug)]
//! struct Hello(&'static str);
//!
//! struct Greeter;
//! impl Process<Hello> for Greeter {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, Hello>, from: NodeId, msg: Hello) {
//!         if msg.0 == "hi" {
//!             ctx.send(from, Hello("hello back"));
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(1, NetConfig::lan());
//! let a = sim.add_node(Greeter);
//! sim.send_external(a, Hello("hi"));
//! sim.run_until(Time::from_millis(10));
//! assert_eq!(sim.metrics().counter("sim.msgs_delivered"), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::disallowed_types)]

pub mod fault;
mod fingerprint;
pub mod metrics;
pub mod net;
pub mod process;
pub mod rng;
pub mod sim;
pub mod time;

pub use fault::{FaultPlan, LinkFaults, ScheduledCrash, ScheduledCut};
pub use fingerprint::MsgEncoder;
pub use metrics::{CounterId, Histogram, HistogramId, Metrics, Summary};
pub use net::{LatencyModel, MsgMeta, NetConfig};
pub use process::{Ctx, Effects, Process};
pub use rng::{Rng64, Zipf};
pub use sim::{ControlFn, MsgCloner, NodeState, ProcessAny, Sim, WireMeter};
pub use time::{Duration, Time};

/// Identifies a node in the simulation (an index into the node table).
///
/// This is the *transport address*; protocol-level identities (e.g. Chord
/// ring positions) are layered on top by the protocol crates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}
