//! The grant-fence seeded sweep: the delivery vehicle for master epochs.
//!
//! Fencing closes a probabilistic window (a partially published grant
//! re-granted, forking the log), so one pinned seed proves little. This
//! sweep runs the two scenarios that historically drove the window —
//! `lossy_links` (message loss reshuffles every publish fan-out) and
//! `partition_during_handoff` (master handoff under a cut) — across a
//! block of consecutive seeds, and asserts the two fencing invariants on
//! every run:
//!
//! * **no dual grant** — no `(doc, ts)` is ever stored with two payloads
//!   under one master epoch (`equivocation_free`), and
//! * **epoch monotonicity** — no replica ever integrates a record whose
//!   epoch regresses (`epoch_monotonic`).
//!
//! The full oracle set (continuity, total order, convergence) must hold
//! too — a seed that diverges is as red as one that forks.
//!
//! Each run prints one line (`cargo test -- --nocapture`, or the CI step
//! summary) so a red seed names itself: scenario, seed, verdict.
//! The sweep is wall-clock capped as a harness-health check: quick-mode
//! scenarios run in well under a second each, and a blowup here means
//! the simulator or the protocol regressed badly enough that the seed
//! verdicts are beside the point.
//!
//! **The wide sweep** (`--ignored`): the 32 pinned seeds are a gate, not a
//! rate. Any protocol change that adds or moves a message reshuffles the
//! fault RNG draws, so a red pinned seed after such a change may be the
//! change's fault or the pre-existing 5 %-loss defect (ROADMAP Known
//! issues) landing on a different seed. `wide_sweep_*` runs 1 024 seeds
//! from `WIDE_BASE`, catches panics, prints the red *rate* and
//! bounds it by what the defect's rate before grant hints allows — the
//! evidence to look at before touching `SEED_BASE`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use workload::scenario::{named_scenarios, run_scenario, Scenario};

/// Seeds swept per scenario. 32 consecutive seeds from the sweep
/// base give deterministic, disjoint-from-the-matrix coverage
/// (`fault_matrix.rs` pins `0xFA_0200 + index`; the sweep block starts
/// well above every matrix seed).
const SEEDS: u64 = 32;
const SEED_BASE: u64 = 0xFE_0000;

/// The wide sweep's block: disjoint from the matrix and the pinned sweep.
const WIDE_SEEDS: u64 = 1024;
const WIDE_BASE: u64 = 0xAB_0000;

/// Wall-clock budget for one scenario's full sweep. Far
/// above the observed cost (populations are quick-mode); a breach means
/// the harness itself regressed.
const BUDGET_SECS: u64 = 600;

/// Run `scenario` on `seeds` consecutive seeds from `base`; one verdict
/// line per run, the red runs (violated invariant or panic) returned by
/// name.
fn run_block(scenario: &str, base: u64, seeds: u64) -> Vec<String> {
    let sc: Scenario = named_scenarios(true)
        .into_iter()
        .find(|s| s.name == scenario)
        .unwrap_or_else(|| panic!("unknown scenario {scenario}"));
    let mut red: Vec<String> = Vec::new();
    for seed in base..base + seeds {
        let run = catch_unwind(AssertUnwindSafe(|| run_scenario(&sc, seed)));
        match run {
            Ok(out) => {
                println!(
                    "sweep {scenario} seed={seed:#x} ok={} dual-grant-free={} \
                     epoch-monotonic={} ({:.0} ms)",
                    out.ok(),
                    out.equivocation_free,
                    out.epoch_monotonic,
                    out.wall_ms
                );
                if !out.ok() {
                    red.push(format!("{scenario} seed={seed:#x}: {}", out.detail));
                }
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                println!("sweep {scenario} seed={seed:#x} PANIC {msg}");
                red.push(format!("{scenario} seed={seed:#x}: panic: {msg}"));
            }
        }
    }
    red
}

fn sweep(scenario: &str) {
    let wall = Instant::now();
    let red = run_block(scenario, SEED_BASE, SEEDS);
    assert!(
        red.is_empty(),
        "{} of {} sweep runs violated an invariant:\n{}",
        red.len(),
        SEEDS,
        red.join("\n")
    );
    let spent = wall.elapsed().as_secs();
    assert!(
        spent < BUDGET_SECS,
        "sweep of {scenario} took {spent}s (budget {BUDGET_SECS}s): harness regressed"
    );
}

/// Most red runs `lossy_links` may show in the wide block. At the commit
/// before grant hints the block had 3, and eight further blocks of 1 024
/// had 4, 1, 2, 4, 4, 3, 3, 4 — 28 in 9 216, the open 5 %-loss defect.
/// With grant hints the same nine blocks have 5, 3, 3, 2, 5, 4, 3, 3, 3 —
/// 31 in 9 216: which seeds are red moved, the rate did not. A count that
/// scatters like that cannot be held to the 3 of one block; it is held to
/// the 99th percentile of a Poisson count at the earlier rate (3.04 per
/// block). More than that is a regression, not a reshuffle. Those blocks
/// were 512 seeds × two replica-sync protocols; the block is now 1 024
/// seeds of the one protocol, so the bound keeps its rate per 1 024 runs.
const WIDE_RED_MAX_LOSSY: usize = 8;

/// The rate-reporting sweep: prints every red run by name, asserts
/// `red <= max_red`.
fn wide_sweep(scenario: &str, max_red: usize) {
    let red = run_block(scenario, WIDE_BASE, WIDE_SEEDS);
    println!(
        "wide sweep {scenario}: {} red of {} runs\n{}",
        red.len(),
        WIDE_SEEDS,
        red.join("\n")
    );
    assert!(
        red.len() <= max_red,
        "{scenario}: {} red runs of {}, bound {max_red}",
        red.len(),
        WIDE_SEEDS
    );
}

// The `_both_modes` suffix of the two gates below dates from when the
// sweep also ran the retired full-push replica sync; the test ids stay.
#[test]
fn sweep_lossy_links_both_modes() {
    sweep("lossy_links");
}

#[test]
fn sweep_partition_during_handoff_both_modes() {
    sweep("partition_during_handoff");
}

#[test]
#[ignore = "1024 runs, minutes; run with --release -- --ignored --nocapture"]
fn wide_sweep_lossy_links() {
    wide_sweep("lossy_links", WIDE_RED_MAX_LOSSY);
}

#[test]
#[ignore = "1024 runs, minutes; run with --release -- --ignored --nocapture"]
fn wide_sweep_partition_during_handoff() {
    // 0 of 1 024 before grant hints and with them.
    wide_sweep("partition_during_handoff", 0);
}
