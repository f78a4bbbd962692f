//! Workspace-level reproducibility guard: the simulator's headline claim is
//! that every experiment is a pure function of its seed. Two runs of the
//! same editing session with the same seed must produce the same run
//! fingerprint and **byte-identical** metrics output — every counter, every
//! histogram sample, every `Summary` line — while a different seed must
//! actually perturb the run. `FINGERPRINTS.lock` pins the session's value.

use ltr_integration::{assert_invariants, editing_session};
use ltr_integration::{SESSION_DOC as DOC, SESSION_SEED};
use p2p_ltr::harness::LtrNet;
use simnet::Summary;
use std::fmt::Write as _;

/// Serialize the complete metrics state: counters (every `CounterId` slot,
/// in name order), raw histogram samples (bit-exact via
/// `f64::to_bits`), the formatted `Summary` of each histogram, the event
/// count, and per-node document state (exercising the interned `DocName`
/// paths: open-doc listing, timestamps, grant records). Any nondeterminism
/// anywhere in the stack shows up here.
fn metrics_dump(net: &LtrNet) -> String {
    let m = net.sim.metrics();
    let mut out = String::new();
    writeln!(out, "events_processed = {}", net.sim.events_processed()).unwrap();
    for (name, v) in m.counters() {
        writeln!(out, "counter {name} = {v}").unwrap();
    }
    for (name, h) in m.histograms() {
        let bits: Vec<u64> = h.samples().iter().map(|s| s.to_bits()).collect();
        let s: Summary = h.summary();
        writeln!(
            out,
            "hist {name} n={} summary=[{s}] samples={bits:?}",
            h.count()
        )
        .unwrap();
    }
    for p in &net.peers {
        let node = net.node(*p);
        for doc in node.open_docs() {
            writeln!(
                out,
                "node {} doc {doc} ts={} busy={}",
                p.addr,
                node.doc_ts(&doc).unwrap_or(0),
                node.is_busy(&doc)
            )
            .unwrap();
        }
        for (doc, ts) in node.grants() {
            writeln!(out, "node {} granted {doc}@{ts}", p.addr).unwrap();
        }
    }
    out
}

#[test]
fn same_seed_produces_byte_identical_metrics() {
    let a = editing_session(SESSION_SEED);
    let b = editing_session(SESSION_SEED);
    assert_invariants(&a);
    assert_invariants(&b);
    assert!(a.sim.fingerprint().is_some());
    assert_eq!(a.sim.fingerprint(), b.sim.fingerprint());

    let dump_a = metrics_dump(&a);
    let dump_b = metrics_dump(&b);
    assert!(!dump_a.is_empty(), "expected a populated metrics registry");
    // The dump must cover the simulator's and the protocol's counters and
    // the DocName paths.
    assert!(dump_a.contains("counter sim.msgs_delivered"));
    assert!(dump_a.contains("counter ltr.publish_ok"));
    assert!(dump_a.contains(&format!("doc {DOC}")));
    assert!(dump_a.contains(&format!("granted {DOC}@")));
    if dump_a != dump_b {
        // Point at the first diverging line for a readable failure.
        for (la, lb) in dump_a.lines().zip(dump_b.lines()) {
            assert_eq!(la, lb, "first metrics divergence between identical seeds");
        }
        panic!(
            "metrics dumps differ in length: {} vs {} bytes",
            dump_a.len(),
            dump_b.len()
        );
    }

    // The documents themselves must match too, replica by replica.
    for (pa, pb) in a.peers.iter().zip(b.peers.iter()) {
        assert_eq!(
            a.node(*pa).doc_text(DOC),
            b.node(*pb).doc_text(DOC),
            "replica text diverged between identical seeds"
        );
        assert_eq!(a.node(*pa).doc_ts(DOC), b.node(*pb).doc_ts(DOC));
    }
}

#[test]
fn different_seed_perturbs_the_run() {
    // Guards against the oracle being vacuous (e.g. metrics_dump returning
    // a constant): a different seed must change latency samples somewhere.
    let a = editing_session(SESSION_SEED);
    let c = editing_session(0xC0FFEE);
    assert_ne!(a.sim.fingerprint(), c.sim.fingerprint());
    assert_ne!(
        metrics_dump(&a),
        metrics_dump(&c),
        "distinct seeds produced identical metrics — dump is not sensitive"
    );
}
