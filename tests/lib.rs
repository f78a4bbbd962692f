//! Shared helpers for the workspace-level integration tests.

use p2p_ltr::harness::LtrNet;
use p2p_ltr::LtrConfig;
use simnet::{Duration, NetConfig};

/// First seed of the fault matrix: quick scenario `i` of
/// `named_scenarios(true)` runs at `MATRIX_SEED_BASE + i`, as in
/// `exp_bench`'s faults section (`fault_matrix.rs`, `fingerprints.rs`).
///
/// The base moved from `0xFA_0000` when the default replication mode
/// became Merkle-diff: the new message pattern reshuffles the per-message
/// fault draws, and the old base landed `lossy_links` on a seed that
/// trips the dual-master grant window that grant fencing has since
/// closed. The once-red Merkle seed is pinned in `fault_matrix.rs`
/// (`repro_dual_grant_seed_merkle`) as a regression, and the whole
/// seed-neighbourhood is swept by `grant_fence_sweep.rs`.
pub const MATRIX_SEED_BASE: u64 = 0xFA_0200;

/// The pinned grant-fence sweep (`grant_fence_sweep.rs`,
/// `fingerprints.rs`): each of these scenarios on `SWEEP_SEEDS`
/// consecutive seeds from `SWEEP_SEED_BASE`, a block disjoint from the
/// matrix seeds.
pub const SWEEP_SCENARIOS: [&str; 2] = ["lossy_links", "partition_during_handoff"];
/// First seed of the pinned sweep block.
pub const SWEEP_SEED_BASE: u64 = 0xFE_0000;
/// Seeds per scenario in the pinned sweep.
pub const SWEEP_SEEDS: u64 = 32;

/// The seed `determinism.rs` replays [`editing_session`] on.
pub const SESSION_SEED: u64 = 0x00DE_7E12;
/// The document [`editing_session`] edits.
pub const SESSION_DOC: &str = "wiki/Determinism";

/// A fixed collaborative-editing session, fingerprinted from its first
/// event: 12 peers stabilize, four editors take turns on one document for
/// six edits, then a late reader joins it and catches up from the log.
pub fn editing_session(seed: u64) -> LtrNet {
    let n = 12;
    let mut net = LtrNet::build(
        seed,
        NetConfig::lan(),
        n,
        LtrConfig::default(),
        Duration::from_millis(150),
    );
    net.enable_fingerprint();
    net.settle(20 + n as u64 / 4);
    let peers = net.peers.clone();
    net.open_doc(&peers[..4], SESSION_DOC, "base");
    net.settle(1);
    for round in 0..6 {
        let editor = peers[round % 4];
        let cur = net.node(editor).doc_text(SESSION_DOC).unwrap();
        net.edit(editor, SESSION_DOC, &format!("{cur}\nedit-{round}"));
        net.run_until_quiet(&[SESSION_DOC], 30);
    }
    net.open_doc(&[peers[5]], SESSION_DOC, "base");
    net.settle(10);
    net
}

/// Build a network over the given net model and let it stabilize.
pub fn stabilized(seed: u64, net_cfg: NetConfig, peers: usize, cfg: LtrConfig) -> LtrNet {
    let mut net = LtrNet::build(seed, net_cfg, peers, cfg, Duration::from_millis(150));
    net.settle(20 + peers as u64 / 4);
    net
}

/// Assert the three correctness oracles all pass, with readable diagnostics.
pub fn assert_invariants(net: &LtrNet) {
    let cont = p2p_ltr::check_continuity(&net.sim);
    assert!(
        cont.is_clean(),
        "continuity violated: dups={:?} gaps={:?}",
        cont.duplicates,
        cont.gaps
    );
    let order = p2p_ltr::check_total_order(&net.sim);
    assert!(
        order.is_clean(),
        "total order violated: {:?}",
        order.violations
    );
    let conv = p2p_ltr::check_convergence(&net.sim);
    assert!(
        conv.is_converged(),
        "diverged: busy={} variants={:?}",
        conv.busy_replicas,
        conv.variants
    );
}
