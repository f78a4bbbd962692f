//! **Faults — the adversarial envelope, invariant-gated** (`faults`).
//!
//! Runs every named fault scenario (`workload::scenario::named_scenarios`:
//! partitions racing a master handoff, crash-with-disk storms, churn
//! under load, duplicate-heavy and lossy links, asymmetric partitions,
//! laggy masters) deterministically under fixed seeds, and requires all
//! five correctness oracles (timestamp continuity, per-replica total
//! order, replica convergence, equivocation freedom, epoch
//! monotonicity) to pass in **every** scenario — the paper's guarantees
//! only matter under faults. The deterministic fields are
//! baseline-compared by CI, and the table also goes to the CI step
//! summary. `--quick` runs smaller rings and windows.

use ltr_bench::table::{Col, Json, Section, Table};
use workload::scenario::{named_scenarios, run_scenario, ScenarioOutcome};

/// Fixed per-scenario seed: stable across runs and machines so the
/// deterministic fields in the JSON are baseline-comparable. Kept
/// aligned with `tests/tests/fault_matrix.rs` (`SEED_BASE`), which
/// documents why the base sits at `0xFA_0200`.
fn seed_for(index: usize) -> u64 {
    0xFA_0200 + index as u64
}

const SCENARIOS: Table<ScenarioOutcome> = Table {
    title: "fault matrix: invariants under the adversarial envelope",
    cols: &[
        Col::Text("name", |o| &o.name),
        Col::Int("peers", |o| o.peers as u64),
        Col::Fixed("sim_secs", 3, |o| o.sim_secs),
        Col::Fixed("wall_ms", 1, |o| o.wall_ms),
        Col::Int("edits", |o| o.edits),
        Col::Int("grants", |o| o.grants),
        Col::Int("msgs", |o| o.msgs),
        Col::Int("events", |o| o.events),
        Col::Int("crashes", |o| o.crashes),
        Col::Int("restarts", |o| o.restarts),
        Col::Int("faults_dropped", |o| o.faults_dropped),
        Col::Int("faults_duplicated", |o| o.faults_duplicated),
        Col::Int("faults_reordered", |o| o.faults_reordered),
        Col::Int("faults_cut", |o| o.faults_cut),
        Col::Check("continuity", |o| o.continuity),
        Col::Check("total_order", |o| o.total_order),
        Col::Check("converged", |o| o.converged),
        Col::Check("equivocation_free", |o| o.equivocation_free),
        Col::Check("epoch_monotonic", |o| o.epoch_monotonic),
        Col::Check("pass", ScenarioOutcome::ok),
    ],
};

/// The `faults` key.
pub fn section(quick: bool) -> Section {
    let outcomes: Vec<ScenarioOutcome> = named_scenarios(quick)
        .iter()
        .enumerate()
        .map(|(i, sc)| run_scenario(sc, seed_for(i)))
        .collect();
    let holds = SCENARIOS.holds(&outcomes);
    let faults = Json::obj([
        ("quick", Json::Bool(quick)),
        ("scenarios", SCENARIOS.json(&outcomes)),
        ("all_pass", Json::Bool(holds)),
    ]);
    let details: String = outcomes
        .iter()
        .filter(|o| !o.ok())
        .map(|o| format!("\n`{}` invariants: {}\n", o.name, o.detail))
        .collect();
    Section {
        keys: vec![("faults", faults)],
        text: SCENARIOS.text(&outcomes) + &details,
        markdown: SCENARIOS.markdown(&outcomes) + &details,
        holds,
    }
}
