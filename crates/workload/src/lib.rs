//! # ltr-workload — workload generators for the P2P-LTR experiments
//!
//! The paper's prototype drove demonstrations by hand through a GUI
//! ("specify the number of peers or network latencies, or provoke
//! failures"); this crate scripts the same stimuli deterministically:
//!
//! * [`editors`] / [`driver`] — synthetic wiki editors: exponential think
//!   times, Zipf document popularity, insert/delete/change line mixes,
//!   unique attributable lines (so lost updates are detectable);
//! * [`churn`] — scripted and randomized joins, graceful leaves and
//!   crashes, with protected peers and a minimum-alive floor;
//! * [`scenario`] — named fault scenarios as data (partitions during
//!   handoff, master crash storms, duplicate-heavy links, …) executed by
//!   one driver over the `simnet` fault engine, every run ending in the
//!   invariant oracles.
//!
//! Everything is seeded and replayable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod churn;
pub mod driver;
pub mod editors;
pub mod scenario;

pub use churn::{drive_churn, schedule_crash, schedule_join, schedule_leave, ChurnSpec};
pub use driver::{drive_editors, EditorSpec};
pub use editors::{mutate_text, EditKind, EditMix};
pub use scenario::{
    named_scenarios, run_scenario, ChurnLoad, FaultAction, FaultEvent, Scenario, ScenarioOutcome,
    Who,
};
