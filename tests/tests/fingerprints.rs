//! The run-fingerprint lock. Each pinned deterministic run has one line in
//! `FINGERPRINTS.lock` holding its run fingerprint (`Sim::fingerprint`: one
//! digest over every executed event, message bytes and order included):
//! every quick fault-matrix scenario at its `fault_matrix.rs` seed, the 64
//! runs of the pinned grant-fence sweep, and `determinism.rs`'s editing
//! session. A change that keeps behaviour keeps every line. A change that
//! alters behaviour says which lines moved and why, and rewrites the lock:
//!
//! ```text
//! UPDATE_FINGERPRINTS=1 cargo test -p ltr_integration --test fingerprints
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use ltr_integration::{editing_session, MATRIX_SEED_BASE, SESSION_SEED};
use ltr_integration::{SWEEP_SCENARIOS, SWEEP_SEEDS, SWEEP_SEED_BASE};
use workload::scenario::{named_scenarios, run_scenario};

const LOCK: &str = "FINGERPRINTS.lock";

const HEADER: &str = "\
# Run fingerprints, checked by tests/tests/fingerprints.rs.
# One line per run: <run> <seed> <fingerprint>
# Rewrite after an intentional behaviour change with:
#   UPDATE_FINGERPRINTS=1 cargo test -p ltr_integration --test fingerprints
";

/// `(run, seed)` of one locked line.
type Key = (String, String);

/// Every pinned run as `(run, seed, fingerprint)`, in lock order. Each
/// sweep block runs on a thread of its own beside the rest.
fn fingerprints() -> Vec<(String, u64, u64)> {
    let sweep = |name: &str| {
        let sc = named_scenarios(true)
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("unknown scenario {name}"));
        (SWEEP_SEED_BASE..SWEEP_SEED_BASE + SWEEP_SEEDS)
            .map(|seed| {
                (
                    format!("sweep/{name}"),
                    seed,
                    run_scenario(&sc, seed).fingerprint,
                )
            })
            .collect::<Vec<_>>()
    };
    std::thread::scope(|s| {
        let sweeps = SWEEP_SCENARIOS.map(|name| s.spawn(move || sweep(name)));
        let mut out: Vec<_> = named_scenarios(true)
            .iter()
            .enumerate()
            .map(|(i, sc)| {
                let seed = MATRIX_SEED_BASE + i as u64;
                (
                    format!("matrix/{}", sc.name),
                    seed,
                    run_scenario(sc, seed).fingerprint,
                )
            })
            .collect();
        let session = editing_session(SESSION_SEED).sim.fingerprint();
        for block in sweeps {
            out.extend(block.join().expect("a sweep run panicked"));
        }
        out.push((
            "session".into(),
            SESSION_SEED,
            session.expect("fingerprinted"),
        ));
        out
    })
}

fn render(runs: &[(String, u64, u64)]) -> String {
    let mut out = HEADER.to_string();
    for (run, seed, fp) in runs {
        out.push_str(&format!("{run} {seed:#x} {fp:#018x}\n"));
    }
    out
}

/// Each locked line by key: its line number and fingerprint.
fn parse(lock: &str) -> BTreeMap<Key, (usize, String)> {
    let mut out = BTreeMap::new();
    for (i, line) in lock.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(
            f.len(),
            3,
            "{LOCK}:{}: not `<run> <seed> <fingerprint>`: {line}",
            i + 1
        );
        out.insert((f[0].into(), f[1].into()), (i + 1, f[2].into()));
    }
    out
}

/// Every difference between the runs and the lock, one line each, naming
/// the lock line where there is one.
fn drift(runs: &str, lock: &str) -> Vec<String> {
    let (runs, locked) = (parse(runs), parse(lock));
    let mut out = Vec::new();
    for ((run, seed), (_, fp)) in &runs {
        match locked.get(&(run.clone(), seed.clone())) {
            None => out.push(format!("{run} {seed} = {fp} is not in the lock")),
            Some((line, was)) if was != fp => out.push(format!(
                "{LOCK}:{line}: {run} {seed} is locked as {was} but runs as {fp}"
            )),
            Some(_) => {}
        }
    }
    for (key, (line, _)) in &locked {
        if !runs.contains_key(key) {
            out.push(format!(
                "{LOCK}:{line}: {} {} is locked but not run",
                key.0, key.1
            ));
        }
    }
    out
}

#[test]
fn every_pinned_run_matches_its_locked_fingerprint() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(LOCK);
    let runs = render(&fingerprints());
    if std::env::var_os("UPDATE_FINGERPRINTS").is_some() {
        fs::write(&path, runs).unwrap();
        return;
    }
    let lock = fs::read_to_string(&path).unwrap_or_default();
    let problems = drift(&runs, &lock);
    assert!(
        problems.is_empty(),
        "run fingerprints drifted from {LOCK}; if the behaviour change is \
         intended, say which lines moved and why, then rerun with \
         UPDATE_FINGERPRINTS=1:\n{}",
        problems.join("\n")
    );
    assert_eq!(runs, lock, "{LOCK} is not in canonical form");
}

#[test]
fn an_edited_line_is_named() {
    let runs = render(&[("a".into(), 1, 2), ("b".into(), 3, 4)]);
    let edited = runs.replace("b 0x3 0x0000000000000004", "b 0x3 0x0000000000000005");
    assert_eq!(
        drift(&runs, &edited),
        [format!(
            "{LOCK}:6: b 0x3 is locked as 0x0000000000000005 but runs as 0x0000000000000004"
        )]
    );
    let dropped = runs.replace("a 0x1 0x0000000000000002\n", "");
    assert_eq!(
        drift(&runs, &dropped),
        ["a 0x1 = 0x0000000000000002 is not in the lock"]
    );
}
