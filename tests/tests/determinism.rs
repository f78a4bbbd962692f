//! Workspace-level reproducibility guard: the simulator's headline claim is
//! that every experiment is a pure function of its seed. Two `LtrNet::build`
//! runs with the same seed and workload must produce **byte-identical**
//! metrics output — every counter, every histogram sample, every `Summary`
//! line — while a different seed must actually perturb the run.

use ltr_integration::{assert_invariants, stabilized};
use p2p_ltr::harness::LtrNet;
use p2p_ltr::LtrConfig;
use simnet::{NetConfig, Summary};
use std::fmt::Write as _;

const DOC: &str = "wiki/Determinism";

/// Run a fixed collaborative-editing session and return the network.
fn session(seed: u64) -> LtrNet {
    let mut net = stabilized(seed, NetConfig::lan(), 12, LtrConfig::default());
    let peers = net.peers.clone();
    net.open_doc(&peers[..4], DOC, "base");
    net.settle(1);
    for round in 0..6 {
        let editor = peers[round % 4];
        let cur = net.node(editor).doc_text(DOC).unwrap();
        net.edit(editor, DOC, &format!("{cur}\nedit-{round}"));
        net.run_until_quiet(&[DOC], 30);
    }
    // A late reader joins the document and catches up from the log.
    net.open_doc(&[peers[5]], DOC, "base");
    net.settle(10);
    net
}

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
    let a = session(0xDE7E_12);
    let b = session(0xDE7E_12);
    assert_invariants(&a);
    assert_invariants(&b);

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
    let a = session(0xDE7E_12);
    let c = session(0xC0FFEE);
    assert_ne!(
        metrics_dump(&a),
        metrics_dump(&c),
        "distinct seeds produced identical metrics — dump is not sensitive"
    );
}
