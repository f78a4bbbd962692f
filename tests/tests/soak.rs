//! Flagship soak test: a full collaborative-editing session with editors
//! *and* randomized churn running concurrently, audited by all three
//! oracles. This is the paper's whole demonstration compressed into one
//! assertion.

use ltr_integration::{assert_invariants, stabilized};
use p2p_ltr::LtrConfig;
use simnet::{Duration, NetConfig};
use workload::{drive_churn, drive_editors, ChurnSpec, EditMix, EditorSpec};

#[test]
fn editors_plus_churn_soak() {
    let cfg = LtrConfig::default();
    let mut net = stabilized(0x50AC, NetConfig::lan(), 20, cfg.clone());
    let peers = net.peers.clone();
    let editors: Vec<_> = peers[..4].to_vec();
    let docs: Vec<String> = (0..6).map(|i| format!("doc-{i}")).collect();
    for d in &docs {
        net.open_doc(&editors, d, "origin");
    }
    net.settle(2);

    let horizon = net.now() + Duration::from_secs(45);
    drive_editors(
        &mut net.sim,
        &editors,
        &EditorSpec {
            docs: docs.clone(),
            zipf_skew: 0.8,
            mean_think: Duration::from_millis(700),
            mix: EditMix::default(),
            horizon,
        },
        0xED17,
    );
    drive_churn(
        &mut net.sim,
        ChurnSpec {
            mean_interval: Duration::from_secs(4),
            crash_weight: 2,
            leave_weight: 1,
            join_weight: 2,
            protected: editors.clone(),
            min_alive: 10,
            horizon,
        },
        cfg,
        0xC4C4,
    );

    net.settle(55);
    let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
    assert!(net.run_until_quiet(&doc_refs, 240), "system never quiesced");
    net.settle(20);
    assert!(net.run_until_quiet(&doc_refs, 60));
    net.settle(10);

    // Real work happened.
    let grants = net.sim.metrics().counter("kts.grants");
    assert!(grants >= 30, "only {grants} grants in a 45s session");
    let churn = net.sim.metrics().counter("churn.crashes")
        + net.sim.metrics().counter("churn.leaves")
        + net.sim.metrics().counter("churn.joins");
    assert!(
        churn >= 5,
        "churn did not exercise the system ({churn} events)"
    );

    assert_invariants(&net);
}

#[test]
fn message_loss_is_survivable() {
    // 2% independent message loss: timeouts and retries must still drive
    // the system to a consistent quiescent state.
    let mut net_cfg = NetConfig::lan();
    net_cfg.loss = 0.02;
    let mut net = stabilized(0x105E, net_cfg, 12, LtrConfig::default());
    let peers = net.peers.clone();
    net.open_doc(&peers, "doc", "base");
    net.settle(1);
    for (i, &editor) in peers.iter().enumerate().take(4) {
        let cur = net.node(editor).doc_text("doc").unwrap();
        net.edit(editor, "doc", &format!("{cur}\nedit-{i}"));
        assert!(
            net.run_until_quiet(&["doc"], 120),
            "edit {i} stuck under loss"
        );
        net.settle(3);
    }
    net.settle(15);
    net.run_until_quiet(&["doc"], 60);
    net.settle(10);
    assert!(
        net.sim.metrics().counter("sim.msgs_dropped") > 0,
        "loss model inactive"
    );
    assert_invariants(&net);
}

#[test]
fn wan_latency_profile_converges() {
    // WAN model: 40ms median one-way, log-normal tail. Timeouts scaled.
    let mut cfg = LtrConfig::default();
    cfg.chord.op_timeout = Duration::from_millis(2_000);
    cfg.chord.suspect_ttl = Duration::from_secs(20);
    cfg.validate_timeout = Duration::from_secs(6);
    cfg.retry_backoff = Duration::from_secs(2);
    let mut net = stabilized(0x3A11, NetConfig::wan(), 10, cfg);
    let peers = net.peers.clone();
    net.open_doc(&peers, "doc", "base");
    net.settle(2);
    net.edit(peers[0], "doc", "base\nfrom-zero");
    net.edit(peers[7], "doc", "from-seven\nbase");
    net.settle(30);
    assert!(net.run_until_quiet(&["doc"], 180), "WAN run stuck");
    net.settle(30);
    assert_invariants(&net);
    let lat = net.sim.metrics().summary("ltr.publish_latency_ms");
    assert!(
        lat.mean > 100.0,
        "WAN publish should cost hundreds of ms, got {}",
        lat.mean
    );
}
