//! Edge-case end-to-end tests: overload shedding, network partitions,
//! rapid edit bursts, masters without local replicas, and sync-on-demand.

use p2p_ltr::consistency::{check_continuity, check_convergence};
use p2p_ltr::harness::LtrNet;
use p2p_ltr::LtrConfig;
use simnet::{Duration, FaultPlan, NetConfig};

const DOC: &str = "wiki/Main";

fn build(seed: u64, n: usize, cfg: LtrConfig) -> LtrNet {
    let mut net = LtrNet::build(seed, NetConfig::lan(), n, cfg, Duration::from_millis(150));
    net.settle(25);
    net
}

#[test]
fn master_need_not_hold_a_replica() {
    // Only two peers open the document; the master (placed by ht) is very
    // likely neither — and must still timestamp and log correctly.
    let mut net = build(0xE001, 12, LtrConfig::default());
    let peers = net.peers.clone();
    let editors = [peers[0], peers[1]];
    net.open_doc(&editors, DOC, "base");
    net.settle(1);
    let master = net.master_of(DOC);

    net.edit(editors[0], DOC, "base\nalpha");
    assert!(net.run_until_quiet(&[DOC], 60));
    net.settle(3);
    net.edit(editors[1], DOC, "base\nalpha\nbeta");
    assert!(net.run_until_quiet(&[DOC], 60));
    net.settle(5);

    let cont = check_continuity(&net.sim);
    assert!(cont.is_clean());
    assert_eq!(cont.last_ts(DOC), 2);
    // The master peer granted without having the document open.
    let m = net.node(master);
    assert!(m.doc_text(DOC).is_none() || editors.iter().any(|e| e.addr == master.addr));
    assert!(check_convergence(&net.sim).is_converged());
}

#[test]
fn rapid_edit_burst_from_one_peer_loses_nothing() {
    let mut net = build(0xE002, 8, LtrConfig::default());
    let peers = net.peers.clone();
    net.open_doc(&peers, DOC, "start");
    net.settle(1);

    // Fire 8 saves in rapid succession, each building on the *current*
    // working text (so later saves subsume queued ones).
    let editor = peers[2];
    for i in 0..8 {
        let cur = net.node(editor).doc_text(DOC).unwrap();
        net.edit(editor, DOC, &format!("{cur}\nburst-{i}"));
        net.run_for(Duration::from_millis(5)); // far faster than a cycle
    }
    assert!(net.run_until_quiet(&[DOC], 90), "burst never drained");
    net.settle(10);

    let text = net.node(editor).doc_text(DOC).unwrap();
    for i in 0..8 {
        assert!(
            text.contains(&format!("burst-{i}")),
            "lost burst-{i}: {text}"
        );
    }
    // Bursts coalesce: fewer grants than saves is expected and fine.
    let cont = check_continuity(&net.sim);
    assert!(cont.is_clean());
    assert!(cont.last_ts(DOC) >= 1 && cont.last_ts(DOC) <= 8);
    assert!(check_convergence(&net.sim).is_converged());
}

#[test]
fn partition_between_user_and_master_heals() {
    let mut net = build(0xE003, 10, LtrConfig::default());
    let peers = net.peers.clone();
    net.open_doc(&peers, DOC, "base");
    net.settle(1);

    let master = net.master_of(DOC);
    let editor = peers
        .iter()
        .copied()
        .find(|p| p.addr != master.addr)
        .unwrap();

    // Cut the editor off from the master only (lookups may still route).
    net.install_faults(FaultPlan::new(0xE003));
    net.sim.fault_cut(editor.addr, master.addr, false);
    let cur = net.node(editor).doc_text(DOC).unwrap();
    net.edit(editor, DOC, &format!("{cur}\nthrough-the-wall"));
    net.settle(5);
    // Not published yet (either timing out or backed off).
    assert!(net.node(editor).is_busy(DOC), "publish should be blocked");

    net.sim.fault_heal_all();
    assert!(
        net.run_until_quiet(&[DOC], 90),
        "did not recover after heal"
    );
    net.settle(10);

    let cont = check_continuity(&net.sim);
    assert!(cont.is_clean());
    assert_eq!(cont.last_ts(DOC), 1);
    assert!(check_convergence(&net.sim).is_converged());
}

#[test]
fn overloaded_master_sheds_and_everyone_eventually_publishes() {
    let mut cfg = LtrConfig::default();
    cfg.kts.max_queue_per_key = 2; // tiny queue → shedding under burst
    cfg.retry_backoff = Duration::from_millis(300);
    let mut net = build(0xE004, 10, cfg);
    let peers = net.peers.clone();
    net.open_doc(&peers, DOC, "base");
    net.settle(1);

    // Six concurrent editors slam the same key.
    for (i, p) in peers.iter().enumerate().take(6) {
        net.edit(*p, DOC, &format!("editor-{i}\nbase"));
    }
    assert!(net.run_until_quiet(&[DOC], 180), "shedding deadlocked");
    net.settle(15);
    net.run_until_quiet(&[DOC], 60);
    net.settle(10);

    let cont = check_continuity(&net.sim);
    assert!(cont.is_clean(), "{cont:?}");
    assert_eq!(cont.last_ts(DOC), 6, "all six edits published");
    assert!(check_convergence(&net.sim).is_converged());
}

#[test]
fn explicit_sync_pulls_without_waiting_for_anti_entropy() {
    let cfg = LtrConfig {
        sync_every: None, // no background anti-entropy at all
        ..LtrConfig::default()
    };
    let mut net = build(0xE005, 8, cfg);
    let peers = net.peers.clone();
    net.open_doc(&peers, DOC, "base");
    net.settle(1);

    net.edit(peers[0], DOC, "base\nnews");
    assert!(net.run_until_quiet(&[DOC], 60));
    net.settle(5);

    // Without anti-entropy, a passive replica stays stale…
    assert_eq!(net.node(peers[4]).doc_ts(DOC), Some(0));
    // …until it syncs explicitly.
    net.sync(peers[4], DOC);
    net.settle(5);
    assert_eq!(net.node(peers[4]).doc_ts(DOC), Some(1));
    assert_eq!(net.node(peers[4]).doc_text(DOC).unwrap(), "base\nnews");
}

#[test]
fn two_documents_same_master_are_independent_queues() {
    // Force two docs onto the same master by picking doc names whose ht
    // falls in the same arc; then check edits interleave without blocking
    // each other (sequential service is per key, not per master).
    let mut net = build(0xE006, 6, LtrConfig::default());
    let peers = net.peers.clone();
    // Find two docs with the same oracle master.
    let mut pair: Option<(String, String)> = None;
    'outer: for i in 0..200 {
        for j in (i + 1)..200 {
            let a = format!("doc-a{i}");
            let b = format!("doc-b{j}");
            if net.master_of(&a).id == net.master_of(&b).id {
                pair = Some((a, b));
                break 'outer;
            }
        }
    }
    let (doc_a, doc_b) = pair.expect("two docs share a master");
    net.open_doc(&peers, &doc_a, "A");
    net.open_doc(&peers, &doc_b, "B");
    net.settle(1);
    net.edit(peers[0], &doc_a, "A\na1");
    net.edit(peers[1], &doc_b, "B\nb1");
    net.edit(peers[2], &doc_a, "a2\nA");
    net.edit(peers[3], &doc_b, "b2\nB");
    assert!(net.run_until_quiet(&[&doc_a, &doc_b], 90));
    net.settle(10);

    let cont = check_continuity(&net.sim);
    assert!(cont.is_clean());
    assert_eq!(cont.last_ts(&doc_a), 2);
    assert_eq!(cont.last_ts(&doc_b), 2);
    assert!(check_convergence(&net.sim).is_converged());
}
