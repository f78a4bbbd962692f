//! Determinism survives fault injection: any seeded [`FaultPlan`]
//! replayed with the same seeds yields a **byte-identical** event log
//! (run fingerprint, every counter, every replica), and an inert plan
//! leaves the run indistinguishable from one with no plan installed at
//! all — the fault engine draws from its own RNG and never perturbs the
//! zero-fault stream.

use p2p_ltr::harness::LtrNet;
use p2p_ltr::{LtrConfig, LtrNode};
use proptest::prelude::*;
use simnet::{Duration, FaultPlan, LinkFaults, NetConfig};
use workload::{drive_editors, EditMix, EditorSpec};

const DOCS: usize = 2;

/// Run a small faulted collaborative session and serialize everything
/// observable: the run fingerprint (every executed event, message bytes
/// and order included), event count, all counters, and
/// per-replica document state. A run that panics (the protocol's loud
/// divergence detector can fire inside aggressive generated envelopes —
/// see the residual-races note in `workload::scenario`) serializes to
/// its deterministic panic message instead: replay determinism must hold
/// for failing executions exactly as for clean ones.
fn faulted_session_dump(sim_seed: u64, plan: Option<FaultPlan>) -> String {
    let plan2 = plan.clone();
    match std::panic::catch_unwind(move || faulted_session_dump_inner(sim_seed, plan2)) {
        Ok(dump) => dump,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            format!("PANIC: {msg}\n")
        }
    }
}

fn faulted_session_dump_inner(sim_seed: u64, plan: Option<FaultPlan>) -> String {
    let mut net = LtrNet::build_with_stores(
        sim_seed,
        NetConfig::lan(),
        6,
        LtrConfig::default(),
        Duration::from_millis(150),
        |_| Box::new(store::MemStore::new()),
    );
    net.enable_fingerprint();
    if let Some(plan) = plan {
        net.install_faults(plan);
    }
    net.settle(21);
    let peers = net.peers.clone();
    let docs: Vec<String> = (0..DOCS).map(|d| format!("det/doc-{d}")).collect();
    for d in &docs {
        net.open_doc(&peers[..3], d, "seed");
    }
    net.settle(2);
    let horizon = net.now() + Duration::from_secs(4);
    drive_editors(
        &mut net.sim,
        &peers[..3],
        &EditorSpec {
            docs: docs.clone(),
            zipf_skew: 0.5,
            mean_think: Duration::from_millis(300),
            mix: EditMix::default(),
            horizon,
        },
        sim_seed ^ 0xED17,
    );
    net.settle(10);

    use std::fmt::Write as _;
    let mut out = String::new();
    let fingerprint = net.sim.fingerprint().expect("enabled at build");
    writeln!(out, "fingerprint = {fingerprint:#018x}").unwrap();
    writeln!(out, "events_processed = {}", net.sim.events_processed()).unwrap();
    for (name, v) in net.sim.metrics().counters() {
        writeln!(out, "counter {name} = {v}").unwrap();
    }
    for p in &peers {
        let node = net.sim.node_as::<LtrNode>(p.addr).expect("alive");
        for doc in node.open_docs() {
            writeln!(
                out,
                "node {} doc {doc} ts={} text={:?}",
                p.addr,
                node.doc_ts(&doc).unwrap_or(0),
                node.doc_text(&doc)
            )
            .unwrap();
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Replaying any seeded fault plan is bit-reproducible — including
    /// executions where the protocol's divergence detector fires (those
    /// must panic identically on replay).
    #[test]
    fn seeded_fault_plan_replays_byte_identically(
        sim_seed in 1u64..1_000,
        fault_seed in 1u64..1_000,
        drop_pm in 0u32..80,       // ‰, up to 8%
        dup_pm in 0u32..200,       // ‰, up to 20%
        reorder_pm in 0u32..200,   // ‰, up to 20%
        jitter_ms in 0u64..8,
    ) {
        let plan = || {
            FaultPlan::new(fault_seed).with_default(LinkFaults {
                drop: drop_pm as f64 / 1_000.0,
                duplicate: dup_pm as f64 / 1_000.0,
                reorder: reorder_pm as f64 / 1_000.0,
                jitter: (jitter_ms > 0).then(|| {
                    (Duration::from_millis(1), Duration::from_millis(jitter_ms))
                }),
                ..LinkFaults::none()
            })
        };
        let a = faulted_session_dump(sim_seed, Some(plan()));
        let b = faulted_session_dump(sim_seed, Some(plan()));
        prop_assert!(!a.is_empty());
        // Line-by-line so a failure names the first divergence.
        for (la, lb) in a.lines().zip(b.lines()) {
            prop_assert_eq!(la, lb, "fault replay diverged");
        }
        prop_assert_eq!(a.len(), b.len(), "fault replay dumps differ in length");
        // A different fault seed must actually perturb the run (guards
        // against the dump — or the engine — being insensitive).
        if drop_pm + dup_pm + reorder_pm > 0 || jitter_ms > 0 {
            let c = faulted_session_dump(sim_seed, Some(FaultPlan {
                seed: fault_seed ^ 0x5EED,
                ..plan()
            }));
            // Distinct fault seeds must actually perturb the run.
            prop_assert_ne!(a, c);
        }
    }
}

#[test]
fn inert_plan_is_byte_identical_to_no_plan() {
    // Installing a plan with zero rates and nothing scheduled must not
    // move a single byte of the event stream: no RNG draws, no queue
    // entries, no behaviour change. Only the (all-zero) `faults.*`
    // counters betray its presence.
    let strip_faults = |dump: &str| -> String {
        let mut out = String::with_capacity(dump.len());
        for l in dump.lines() {
            if let Some(rest) = l.strip_prefix("counter faults.") {
                assert!(rest.ends_with("= 0"), "inert plan injected a fault: {l}");
            } else {
                out.push_str(l);
                out.push('\n');
            }
        }
        out
    };
    let without = faulted_session_dump(0xBEE, None);
    let with = faulted_session_dump(0xBEE, Some(FaultPlan::new(42)));
    assert!(!without.contains("counter faults."));
    assert_eq!(
        strip_faults(&with),
        without,
        "an inert fault plan perturbed the event stream"
    );
}
