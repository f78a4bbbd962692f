//! Hard failure-recovery paths: double failure (master *and* Master-Succ),
//! lost acks recovered from the log, watermark GC — and, since the durable
//! store landed, crash-with-disk restarts where a peer recovers its key
//! table, timestamp state and logs *locally* instead of relying on
//! Master-Succ takeover.

use ltr_integration::{assert_invariants, stabilized};
use p2p_ltr::harness::LtrNet;
use p2p_ltr::{GcConfig, LtrConfig};
use simnet::{Duration, NetConfig};
use store::{FileStore, MemStore, StoreConfig};

const DOC: &str = "wiki/Main";

/// The current master and its ring successor, per the sorted-ring oracle.
fn master_and_succ(net: &p2p_ltr::harness::LtrNet, doc: &str) -> (chord::NodeRef, chord::NodeRef) {
    let key = p2plog::ht(doc);
    let mut alive = net.alive_peers();
    alive.sort_by_key(|r| key.distance_to(r.id));
    (alive[0], alive[1])
}

#[test]
fn double_failure_recovers_last_ts_from_the_log() {
    // Kill the master AND its successor simultaneously: the last-ts state
    // and its backup are both gone. The next master must recover last_ts by
    // probing the log (the gallop/binary-search extension) — continuity
    // must survive.
    let mut net = stabilized(0xD0B1, NetConfig::lan(), 14, LtrConfig::default());
    let peers = net.peers.clone();
    net.open_doc(&peers, DOC, "base");
    net.settle(1);

    for (i, &editor) in peers.iter().enumerate().take(4) {
        let cur = net.node(editor).doc_text(DOC).unwrap();
        net.edit(editor, DOC, &format!("{cur}\nedit-{i}"));
        assert!(net.run_until_quiet(&[DOC], 60));
        net.settle(2);
    }
    let (master, succ) = master_and_succ(&net, DOC);
    net.crash(master);
    net.crash(succ);
    net.settle(20); // detection + stabilization

    // A surviving editor publishes: the new master has no entry and no
    // backup for the key, so it must probe the log and grant ts=5.
    let editor = peers
        .iter()
        .copied()
        .find(|p| p.addr != master.addr && p.addr != succ.addr)
        .unwrap();
    let cur = net.node(editor).doc_text(DOC).unwrap();
    net.edit(editor, DOC, &format!("{cur}\nafter-double-failure"));
    assert!(
        net.run_until_quiet(&[DOC], 120),
        "stuck after double failure"
    );
    net.settle(15);

    let cont = p2p_ltr::check_continuity(&net.sim);
    assert!(cont.is_clean(), "{cont:?}");
    assert_eq!(cont.last_ts(DOC), 5, "grants: {:?}", cont.granted);
    assert!(
        net.sim.metrics().counter("kts.probes_started") > 0,
        "log probe never ran"
    );
    assert_invariants(&net);
}

#[test]
fn lost_ack_recovered_via_own_record_detection() {
    // Crash the master right after publishing completes but (potentially)
    // before the ack arrives; the editor re-validates, gets Retry from the
    // new master, retrieves — and must recognise its own record instead of
    // double-applying it.
    let mut net = stabilized(0xACED, NetConfig::lan(), 12, LtrConfig::default());
    let peers = net.peers.clone();
    net.open_doc(&peers, DOC, "base");
    net.settle(1);

    // Establish ts=1.
    net.edit(peers[0], DOC, "base\nfirst");
    assert!(net.run_until_quiet(&[DOC], 60));
    net.settle(3);

    // Many rapid edits while we crash the master mid-stream: some acks are
    // bound to be in flight.
    let (master, _) = master_and_succ(&net, DOC);
    let editor = peers
        .iter()
        .copied()
        .find(|p| p.addr != master.addr)
        .unwrap();
    let cur = net.node(editor).doc_text(DOC).unwrap();
    net.edit(editor, DOC, &format!("{cur}\nracing"));
    // Crash quickly — the publish may or may not have been acked.
    net.run_for(Duration::from_millis(8));
    net.crash(master);

    assert!(net.run_until_quiet(&[DOC], 120), "stuck after racing crash");
    net.settle(15);
    net.run_until_quiet(&[DOC], 60);
    net.settle(10);

    let cont = p2p_ltr::check_continuity(&net.sim);
    assert!(cont.is_clean(), "{cont:?}");
    // The racing edit must exist exactly once in every replica.
    for p in net.alive_peers() {
        let text = net.node(p).doc_text(DOC).unwrap();
        let occurrences = text.matches("racing").count();
        assert_eq!(occurrences, 1, "edit duplicated or lost at {p:?}: {text}");
    }
    assert_invariants(&net);
}

#[test]
fn master_crash_with_disk_restart_recovers_locally() {
    // Every peer journals to an in-memory store (the crash-with-disk
    // scenario inside the deterministic simulator). The document's master
    // crashes after four grants and restarts from its own journal: key
    // table, timestamp state, stored log records and the open document all
    // come back locally, the peer rejoins through a survivor, and the
    // timestamp sequence continues without a gap.
    let mut net = LtrNet::build_with_stores(
        0x0D15C,
        NetConfig::lan(),
        10,
        LtrConfig::default(),
        Duration::from_millis(150),
        |_| Box::new(MemStore::new()),
    );
    net.settle(23);
    let peers = net.peers.clone();
    net.open_doc(&peers, DOC, "base");
    net.settle(1);

    for (i, &editor) in peers.iter().enumerate().take(4) {
        let cur = net.node(editor).doc_text(DOC).unwrap();
        net.edit(editor, DOC, &format!("{cur}\nedit-{i}"));
        assert!(net.run_until_quiet(&[DOC], 60));
        net.settle(2);
    }
    let (master, _) = master_and_succ(&net, DOC);
    assert!(
        net.node(master).is_journaling(),
        "master journals to its store"
    );
    net.crash(master);
    net.settle(6); // outage: failure detection + stabilization run

    let report = net.restart_from_store(master).expect("journal replays");
    assert!(report.entries > 0, "{report:?}");
    assert!(
        report.kts_entries >= 1,
        "timestamp table recovered: {report:?}"
    );
    assert!(report.docs >= 1, "open document recovered: {report:?}");
    assert!(
        report.log_items > 0,
        "stored log records recovered: {report:?}"
    );
    assert_eq!(net.sim.metrics().counter("sim.restarts"), 1);
    net.settle(20); // rejoin, stabilize, anti-entropy catch-up

    // The restarted master serves the next grant; its restored entry is
    // re-verified against the log before first use, so continuity holds.
    let editor = peers
        .iter()
        .copied()
        .find(|p| p.addr != master.addr)
        .unwrap();
    let cur = net.node(editor).doc_text(DOC).unwrap();
    net.edit(editor, DOC, &format!("{cur}\nafter-restart"));
    assert!(net.run_until_quiet(&[DOC], 120), "stuck after restart");
    net.settle(15);
    net.run_until_quiet(&[DOC], 60);

    let cont = p2p_ltr::check_continuity(&net.sim);
    assert!(cont.is_clean(), "{cont:?}");
    assert_eq!(cont.last_ts(DOC), 5, "grants: {:?}", cont.granted);
    // The restarted replica itself converged (caught up via retrieval).
    assert_eq!(net.node(master).doc_ts(DOC), Some(5));
    assert_invariants(&net);
}

#[test]
fn file_store_survives_repeated_crashes() {
    // The same scenario against the real file backend, twice: a second
    // crash must replay the journal written across *both* incarnations
    // (verified Merkle checkpoint included).
    let base = std::env::temp_dir().join(format!("p2pltr-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cfg = StoreConfig {
        segment_max_bytes: 16 * 1024,
        // Checkpoint every append: small journals (a master may hold only
        // a handful of entries) still get Merkle-verified recovery.
        checkpoint_every: 1,
    };
    let dirs: Vec<_> = (0..8).map(|i| base.join(format!("peer-{i}"))).collect();
    let mut net = LtrNet::build_with_stores(
        0xF11E,
        NetConfig::lan(),
        8,
        LtrConfig::default(),
        Duration::from_millis(150),
        |i| {
            let (store, _) = FileStore::open(&dirs[i], cfg).expect("open store dir");
            Box::new(store)
        },
    );
    net.settle(22);
    let peers = net.peers.clone();
    net.open_doc(&peers, DOC, "base");
    net.settle(1);

    let mut expected_ts = 0;
    for round in 0..2 {
        for (i, &editor) in peers.iter().enumerate().take(2) {
            let cur = net.node(editor).doc_text(DOC).unwrap();
            net.edit(editor, DOC, &format!("{cur}\nround-{round}-edit-{i}"));
            assert!(net.run_until_quiet(&[DOC], 60));
            net.settle(2);
            expected_ts += 1;
        }
        let (master, _) = master_and_succ(&net, DOC);
        net.crash(master);
        net.settle(6);
        let report = net
            .restart_from_store(master)
            .expect("file journal replays");
        assert!(report.entries > 0, "{report:?}");
        assert_eq!(report.torn_bytes, 0, "clean segments: {report:?}");
        assert!(
            report.verified_entries.is_some(),
            "merkle checkpoint verified: {report:?}"
        );
        net.settle(20);
    }

    let editor = peers[2];
    let cur = net.node(editor).doc_text(DOC).unwrap();
    net.edit(editor, DOC, &format!("{cur}\nfinal"));
    assert!(net.run_until_quiet(&[DOC], 120));
    net.settle(15);
    net.run_until_quiet(&[DOC], 60);
    expected_ts += 1;

    let cont = p2p_ltr::check_continuity(&net.sim);
    assert!(cont.is_clean(), "{cont:?}");
    assert_eq!(cont.last_ts(DOC), expected_ts, "grants: {:?}", cont.granted);
    assert_invariants(&net);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn gc_prunes_old_records_but_keeps_retention_window() {
    let cfg = LtrConfig {
        gc: Some(GcConfig {
            every: Duration::from_secs(2),
            retain: 5,
        }),
        ..LtrConfig::default()
    };
    let mut net = stabilized(0x6C6C, NetConfig::lan(), 8, cfg);
    let peers = net.peers.clone();
    let editor = peers[0];
    net.open_doc(&[editor], DOC, "base");
    net.settle(1);
    for i in 0..15 {
        let cur = net.node(editor).doc_text(DOC).unwrap();
        net.edit(editor, DOC, &format!("{cur}\np{i}"));
        assert!(net.run_until_quiet(&[DOC], 60));
    }
    net.settle(10); // a few GC sweeps

    assert!(
        net.sim.metrics().counter("log.gc_removed") > 0,
        "GC never removed anything"
    );

    // A reader can still catch up if it is within the retention window:
    // prime it at ts=10 (i.e. 5 behind), then sync.
    // Simplest check: the *editor itself* continues cleanly, and a late
    // reader beyond the window stalls rather than corrupting state.
    let reader = peers[1];
    net.open_doc(&[reader], DOC, "base");
    net.settle(20);
    net.run_until_quiet(&[DOC], 60);
    let reader_ts = net.node(reader).doc_ts(DOC).unwrap_or(0);
    // With history pruned below ts 10, a from-scratch reader cannot fully
    // catch up (documented GC trade-off): it must either stall cleanly at 0
    // or have found enough surviving records to reach 15.
    assert!(
        reader_ts == 0 || reader_ts == 15,
        "reader at inconsistent ts {reader_ts}"
    );
    // The editor's own view remains fully consistent.
    let cont = p2p_ltr::check_continuity(&net.sim);
    assert!(cont.is_clean(), "{cont:?}");
    assert_eq!(net.node(editor).doc_ts(DOC), Some(15));
}
