//! The scenario matrix as individual integration tests: every named
//! fault scenario (quick sizing) must end with all three correctness
//! oracles green. One test per scenario so a violation names its
//! scenario directly in the test report, plus the zero-fault identity
//! pin (an inert fault plan must not perturb the event stream at all).

use workload::scenario::{named_scenarios, run_scenario, Scenario};

/// Fixed seeds, aligned with `exp_bench`'s faults section (`seed_for`).
///
/// The base moved from `0xFA_0000` when the default replication mode
/// became Merkle-diff: the new message pattern reshuffles the per-message
/// fault draws, and the old base landed `lossy_links` on a seed that
/// trips the dual-master grant window that grant fencing has since
/// closed. The once-red Merkle seed is pinned below
/// (`repro_dual_grant_seed_merkle`) as a regression, and the whole
/// seed-neighbourhood is swept by `grant_fence_sweep.rs`.
const SEED_BASE: u64 = 0xFA_0200;

fn find(name: &str) -> (usize, Scenario) {
    let scenarios = named_scenarios(true);
    let (i, sc): (usize, &Scenario) = scenarios
        .iter()
        .enumerate()
        .find(|(_, s)| s.name == name)
        .unwrap_or_else(|| panic!("unknown scenario {name}"));
    (i, sc.clone())
}

fn run_named(name: &str) -> workload::scenario::ScenarioOutcome {
    let (i, sc) = find(name);
    let out = run_scenario(&sc, SEED_BASE + i as u64);
    assert!(
        out.ok(),
        "scenario {name} violated an invariant: {}",
        out.detail
    );
    out
}

#[test]
fn scenario_partition_during_handoff() {
    let out = run_named("partition_during_handoff");
    assert!(out.faults_cut > 0, "the partition never bit: {out:?}");
    assert!(out.grants > 0);
}

#[test]
fn scenario_master_crash_storm() {
    let out = run_named("master_crash_storm");
    assert!(out.crashes >= 3, "storm too small: {out:?}");
    assert_eq!(out.restarts, out.crashes, "every crash restarts from disk");
}

#[test]
fn scenario_churn_under_load() {
    let out = run_named("churn_under_load");
    assert!(out.crashes > 0, "churn never crashed anyone: {out:?}");
    assert!(out.grants > 0);
}

#[test]
fn scenario_dup_heavy_links() {
    let out = run_named("dup_heavy_links");
    assert!(out.faults_duplicated > 100, "dup rate too low: {out:?}");
}

#[test]
fn scenario_asym_partition_master_users() {
    let out = run_named("asym_partition_master_users");
    assert!(out.faults_cut > 0, "one-way cut never bit: {out:?}");
}

#[test]
fn scenario_laggy_master() {
    let out = run_named("laggy_master");
    assert!(out.grants > 0);
}

#[test]
fn scenario_lossy_links() {
    let out = run_named("lossy_links");
    assert!(out.faults_dropped > 0, "loss never bit: {out:?}");
}

/// Before grant fencing, `lossy_links` at seed `0xFA_0006` ended with two
/// different payloads stored for one `(doc, ts)` — a master re-granted a
/// slot whose earlier publish had partially landed. The seed is pinned
/// red-to-green: every oracle (including the equivocation and
/// epoch-monotonicity detectors this seed used to trip) must now hold.
#[test]
fn repro_dual_grant_seed_merkle() {
    let (_, sc) = find("lossy_links");
    let out = run_scenario(&sc, 0xFA_0006);
    assert!(
        out.ok(),
        "historic dual-grant seed 0xFA_0006 regressed: {}",
        out.detail
    );
    assert!(out.equivocation_free && out.epoch_monotonic);
}

/// The open 5 %-loss defect (ROADMAP Known issues, "`lossy_links` safety
/// residue"): a few runs in 1 024 of `lossy_links` (3 to 8 per block so
/// far) end with a dual grant inside one epoch, OT divergence between
/// replicas at the same timestamp, replicas that never converge, or the
/// divergence panic. These are the runs of the wide sweep's block
/// (`grant_fence_sweep.rs`, `0xAB_0000`) that are red at this commit,
/// pinned so the fix has something to turn green. Which seeds of a block
/// are red moves with every change to the message pattern; the rate has
/// not (see CHANGES.md, PR 14).
#[test]
#[ignore = "open defect: red until the 5 %-loss residue is fixed"]
fn repro_lossy_links_loss_residue() {
    let (_, sc) = find("lossy_links");
    let mut red = Vec::new();
    for seed in [
        0xAB_0054u64, // replicas at one ts, two texts
        0xAB_0093,    // two payloads at (doc, ts) under one epoch
        0xAB_0145,    // same
        0xAB_01D2,    // "replica divergence" panic
        0xAB_023D,    // unconverged, 2 replicas busy
        0xAB_0271,    // "replica divergence" panic
        0xAB_0274,    // same
        0xAB_0378,    // same
    ] {
        let run = std::panic::catch_unwind(|| run_scenario(&sc, seed));
        match run {
            Ok(out) if out.ok() => {}
            Ok(out) => red.push(format!("{seed:#x}: {}", out.detail)),
            Err(_) => red.push(format!("{seed:#x}: panicked")),
        }
    }
    assert!(red.is_empty(), "still red:\n{}", red.join("\n"));
}

/// Several writers per document at 1 % loss, sized after
/// `ltrbench/README.md` defect 1: 16 peers, 32 documents each held and
/// edited by the same 4 peers, 40 saves/s in all (one per 100 ms per
/// editor, documents picked by Zipf), 30 s of 1 % loss plus 1–10 ms
/// jitter on every link (full-size `lossy_links` otherwise).
fn multi_writer_lossy() -> Scenario {
    let mut sc = named_scenarios(false)
        .into_iter()
        .find(|s| s.name == "lossy_links")
        .expect("lossy_links is in the matrix");
    sc.name = "multi_writer_lossy";
    sc.summary = "4 writers on each of 32 documents, 1% loss + 1-10 ms jitter on every link";
    sc.docs = 32;
    sc.mean_think_ms = 100;
    sc.drive_secs = 30;
    sc.base_faults.drop = 0.01;
    sc
}

/// Run `seed`; `None` when every oracle held, else what went wrong.
fn red_verdict(sc: &Scenario, seed: u64) -> Option<String> {
    let run = std::panic::catch_unwind(|| run_scenario(sc, seed));
    match run {
        Ok(out) if out.ok() => None,
        Ok(out) => Some(out.detail),
        Err(panic) => Some(format!(
            "panicked: {}",
            panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("?")
        )),
    }
}

/// The multi-writer divergence panic (ROADMAP Known issues): on this seed
/// two replicas of one document integrate different records at the same
/// timestamp and `integrate_record` panics with `replica divergence`.
/// Pinned red so the fix (ROADMAP item 1) has something to turn green;
/// which seeds are red moves with every change to the message pattern.
#[test]
#[ignore = "open defect: red until the multi-writer divergence is fixed"]
fn repro_multi_writer_divergence_panic() {
    let seed = MULTI_WRITER_RED_SEED;
    if let Some(why) = red_verdict(&multi_writer_lossy(), seed) {
        panic!("multi_writer_lossy seed {seed:#x} is red: {why}");
    }
}

/// First seed of the multi-writer sweep block, and the block's first
/// divergence panic (`fault/doc-30` ts 5).
const MULTI_WRITER_BASE: u64 = 0x3A_0000;
const MULTI_WRITER_RED_SEED: u64 = MULTI_WRITER_BASE + 5;

/// ROADMAP item 1's gate for this defect: 100 consecutive seeds of
/// `multi_writer_lossy`, every oracle green and no panic. Prints one
/// line per red seed and the red count: 17 of 100 when pinned (12
/// divergence panics, 5 runs unconverged at quiescence).
#[test]
#[ignore = "open defect: about one seed in six is red"]
fn multi_writer_sweep_is_green() {
    let sc = multi_writer_lossy();
    let red: Vec<String> = (MULTI_WRITER_BASE..MULTI_WRITER_BASE + 100)
        .filter_map(|seed| red_verdict(&sc, seed).map(|why| format!("{seed:#x}: {why}")))
        .collect();
    for line in &red {
        println!("{line}");
    }
    println!("multi_writer_lossy: {} of 100 seeds red", red.len());
    assert!(red.is_empty());
}
