//! The scenario layer: named fault scenarios as *data*, executed by one
//! deterministic driver that always ends in the invariant oracles.
//!
//! A [`Scenario`] describes a population (peers, editors, documents), a
//! base fault envelope ([`LinkFaults`] for every link), and a timeline of
//! [`FaultAction`]s aimed at *roles* ([`Who`]: the current master of a
//! document, its successor, the editors…) rather than concrete node ids —
//! roles are resolved live, when the action fires, so "crash the master"
//! means whoever holds the key at that moment. [`run_scenario`] builds a
//! durable network (every peer journals to a `MemStore`), injects the
//! faults, heals everything after the drive window, waits for quiescence
//! and returns a [`ScenarioOutcome`] with the three correctness oracles
//! (continuity, total order, convergence) plus the fault/perf counters.
//!
//! [`named_scenarios`] is the committed matrix: the adversarial envelope
//! CI runs on every push (`exp_fault`, the `fault-matrix` job, and the
//! per-scenario integration tests in `tests/tests/fault_matrix.rs`).
//!
//! ## What the engine has caught
//!
//! Building this matrix surfaced (and led to fixes for) seven real bugs:
//! spurious replica fallback and master log-probe under-estimation when a
//! DHT get failed *operationally* (unreachable ≠ absent — the probe
//! variant let a master re-grant a used timestamp and fork the log),
//! single-message-loss neighbour eviction in the chord failure detector
//! (a split ring view let two nodes accept writes for one key range),
//! stale `last_ts` reads from a restored-but-unverified master entry
//! (idle replicas never pulled post-takeover grants), orphaned
//! primary records stranded at nodes whose transient ring view collapsed
//! (now re-homed by the replicate tick's orphan sweep), an orphan
//! re-home resolving back to its own holder and demoting the ring's only
//! primary copy (the once-per-~50-churn-runs "idle replicas one patch
//! stale" residual — readers now also send their own `known_ts` with
//! `LastTs` so a stale-but-verified master entry re-probes instead of
//! answering from memory), and a master re-granting a slot whose
//! earlier publish died *partially written* — closed by grant fencing:
//! every re-grant of a suspect slot happens under a strictly higher
//! master epoch behind a quorum-acknowledged fence (see the
//! `equivocation_free` / `epoch_monotonic` oracles and
//! `tests/tests/grant_fence_sweep.rs`).

use std::time::Instant;

use p2p_ltr::harness::LtrNet;
use p2p_ltr::{check_all, LtrConfig, Payload};
use simnet::{Duration, FaultPlan, LinkFaults, NodeState, Time};

use chord::NodeRef;

use crate::churn::{drive_churn, ChurnSpec};
use crate::driver::{drive_editors, EditorSpec};
use crate::editors::EditMix;

/// A role a fault action targets, resolved against the live network at
/// the moment the action fires.
#[derive(Clone, Copy, Debug)]
pub enum Who {
    /// The `i`-th initially created peer.
    Peer(usize),
    /// The current Master-key peer of document `i` (sorted-ring oracle).
    Master(usize),
    /// The ring successor of document `i`'s master (the backup holder).
    MasterSucc(usize),
    /// Every editor peer.
    Editors,
    /// Every initial non-editor peer.
    Others,
}

/// One fault to inject.
#[derive(Clone, Debug)]
pub enum FaultAction {
    /// Cut every link in `a × b` at the fault layer; `oneway` cuts only
    /// the `a → b` direction (asymmetric partition). Heals after
    /// `heal_after_secs` (always healed at the end of the drive window).
    Cut {
        /// One side of the cut.
        a: Who,
        /// The other side.
        b: Who,
        /// Cut only `a → b`.
        oneway: bool,
        /// Self-heal delay, in seconds after the cut.
        heal_after_secs: Option<u64>,
    },
    /// Crash-stop the target; when `recover_after_secs` is set the peer
    /// later restarts *from its own journal* (`LtrNet::restart_from_store`
    /// — the crash-with-disk path), otherwise survivors must take over.
    Crash {
        /// The victim role.
        who: Who,
        /// Restart-from-store delay, in seconds after the crash.
        recover_after_secs: Option<u64>,
    },
    /// Graceful leave (timestamp + key handoff, ring splice).
    Leave {
        /// The leaver role.
        who: Who,
    },
    /// Replace the fault class of the targets (`None` = the default
    /// class of every link).
    SetLinkFaults {
        /// Target nodes, or `None` for the default class.
        who: Option<Who>,
        /// The new class.
        faults: LinkFaults,
    },
}

/// A timed fault: fires `at_secs` after the editors start.
#[derive(Clone, Debug)]
pub struct FaultEvent {
    /// Offset from the start of the drive window, in seconds.
    pub at_secs: u64,
    /// What happens.
    pub action: FaultAction,
}

/// Randomized background churn running alongside the fault timeline
/// (editor peers are protected).
#[derive(Clone, Debug)]
pub struct ChurnLoad {
    /// Mean time between churn events, ms (exponential).
    pub mean_interval_ms: u64,
    /// Relative crash weight.
    pub crash_weight: u32,
    /// Relative graceful-leave weight.
    pub leave_weight: u32,
    /// Relative join weight.
    pub join_weight: u32,
    /// Never drop below this many live peers.
    pub min_alive: usize,
}

/// A named fault scenario, pure data.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable scenario name (CI step summaries, JSON, test names).
    pub name: &'static str,
    /// One-line description for tables and docs.
    pub summary: &'static str,
    /// Initial ring size.
    pub peers: usize,
    /// Log replication degree `n = |Hr|`.
    pub replication: usize,
    /// Documents opened (editors pick by Zipf).
    pub docs: usize,
    /// Editing peers (peers `0..editors`).
    pub editors: usize,
    /// Mean editor think time, ms.
    pub mean_think_ms: u64,
    /// Drive window: editors and faults are active this long.
    pub drive_secs: u64,
    /// Settle time after every fault is healed, before quiescence checks.
    pub heal_secs: u64,
    /// Base fault class applied to every link for the whole drive window.
    pub base_faults: LinkFaults,
    /// The fault timeline.
    pub events: Vec<FaultEvent>,
    /// Optional background churn.
    pub churn: Option<ChurnLoad>,
}

/// What one scenario run produced. `ok()` is the CI gate.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Ring size.
    pub peers: usize,
    /// Simulated seconds covered.
    pub sim_secs: f64,
    /// Wall-clock cost of the run, ms.
    pub wall_ms: f64,
    /// Edits issued by the workload.
    pub edits: u64,
    /// Validated publishes (`ltr.publish_ok`).
    pub grants: u64,
    /// Simnet messages sent.
    pub msgs: u64,
    /// Simulator events executed.
    pub events: u64,
    /// Crash-stops (scripted + churn).
    pub crashes: u64,
    /// Restarts from a journal.
    pub restarts: u64,
    /// Messages dropped by the fault layer.
    pub faults_dropped: u64,
    /// Messages duplicated by the fault layer.
    pub faults_duplicated: u64,
    /// Messages delayed past later sends (reorder spikes).
    pub faults_reordered: u64,
    /// Messages vetoed by a cut link.
    pub faults_cut: u64,
    /// Continuity oracle (no duplicate or missing timestamps).
    pub continuity: bool,
    /// Total-order oracle (+1 integration steps everywhere).
    pub total_order: bool,
    /// Convergence oracle (identical replicas at quiescence).
    pub converged: bool,
    /// Equivocation oracle (no `(doc, ts)` slot holds two payloads
    /// anywhere in the network — the dual-master detector).
    pub equivocation_free: bool,
    /// Epoch-monotonicity oracle (per replica, integrated master epochs
    /// never regress).
    pub epoch_monotonic: bool,
    /// Human-readable invariant detail line.
    pub detail: String,
}

impl ScenarioOutcome {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.continuity
            && self.total_order
            && self.converged
            && self.equivocation_free
            && self.epoch_monotonic
    }
}

/// Resolve a role to concrete peers against the live network.
fn resolve(net: &LtrNet, sc: &Scenario, docs: &[String], who: Who) -> Vec<NodeRef> {
    match who {
        Who::Peer(i) => vec![net.peers[i]],
        Who::Master(d) => vec![net.master_of(&docs[d])],
        Who::MasterSucc(d) => vec![net.master_and_succ(&docs[d]).1],
        Who::Editors => net.peers[..sc.editors].to_vec(),
        Who::Others => net.peers[sc.editors..].to_vec(),
    }
}

/// A recovery owed to a crashed peer at an absolute simulated time.
struct PendingRecovery {
    at: Time,
    peer: NodeRef,
}

/// Execute one scenario deterministically. Same `sc` + same `seed` ⇒
/// bit-identical run (the byte-identity property test pins this).
pub fn run_scenario(sc: &Scenario, seed: u64) -> ScenarioOutcome {
    // detlint::allow(DET-CLOCK, wall-clock duration is reported alongside the outcome; it never feeds the simulation)
    let wall = Instant::now();
    let mut cfg = LtrConfig::default();
    cfg.log.replication = sc.replication;

    // Every peer journals: crashes scripted with `recover_after_secs`
    // restart from the journal (crash-with-disk), the rest rely on
    // takeover (crash-without-disk).
    let mut net = LtrNet::build_with_stores(
        seed,
        simnet::NetConfig::lan(),
        sc.peers,
        cfg.clone(),
        Duration::from_millis(150),
        |_| Box::new(store::MemStore::new()),
    );
    net.install_faults(FaultPlan::new(seed ^ 0xFA17_FA17).with_default(LinkFaults::none()));
    net.settle(20 + sc.peers as u64 / 4);
    let t0 = net.now();

    let peers = net.peers.clone();
    let docs: Vec<String> = (0..sc.docs).map(|d| format!("fault/doc-{d}")).collect();
    let openers = &peers[..sc.editors.max(2).min(peers.len())];
    for d in &docs {
        net.open_doc(openers, d, "seed");
    }
    net.settle(2);

    // The fault window opens only now: stabilization and doc opening run
    // clean so every scenario starts from the same healthy baseline.
    net.sim.set_link_faults(None, sc.base_faults.clone());

    let start = net.now();
    let horizon = start + Duration::from_secs(sc.drive_secs);
    drive_editors(
        &mut net.sim,
        &peers[..sc.editors],
        &EditorSpec {
            docs: docs.clone(),
            zipf_skew: 0.8,
            mean_think: Duration::from_millis(sc.mean_think_ms),
            mix: EditMix::default(),
            horizon,
        },
        seed ^ 0xED17,
    );
    if let Some(churn) = &sc.churn {
        drive_churn(
            &mut net.sim,
            ChurnSpec {
                mean_interval: Duration::from_millis(churn.mean_interval_ms),
                crash_weight: churn.crash_weight,
                leave_weight: churn.leave_weight,
                join_weight: churn.join_weight,
                protected: peers[..sc.editors].to_vec(),
                min_alive: churn.min_alive,
                horizon,
            },
            cfg,
            seed ^ 0xC4BA,
        );
    }

    // Walk the fault timeline: run to each action's time, resolve its
    // role against the *live* network, apply. Recoveries owed by
    // `Crash { recover_after_secs }` interleave in time order.
    let mut events: Vec<&FaultEvent> = sc.events.iter().collect();
    events.sort_by_key(|e| e.at_secs);
    let mut recoveries: Vec<PendingRecovery> = Vec::new();
    let mut overridden: Vec<NodeRef> = Vec::new();
    for ev in events {
        let at = start + Duration::from_secs(ev.at_secs);
        run_recovering_until(&mut net, &mut recoveries, at);
        match &ev.action {
            FaultAction::Cut {
                a,
                b,
                oneway,
                heal_after_secs,
            } => {
                let left = resolve(&net, sc, &docs, *a);
                let right = resolve(&net, sc, &docs, *b);
                for x in &left {
                    for y in &right {
                        if x.addr != y.addr {
                            net.sim.fault_cut(x.addr, y.addr, *oneway);
                        }
                    }
                }
                if let Some(h) = heal_after_secs {
                    let heal_at = net.now() + Duration::from_secs(*h);
                    net.sim.schedule_at(
                        heal_at,
                        Box::new(move |s: &mut simnet::Sim<Payload>| {
                            for x in &left {
                                for y in &right {
                                    if x.addr != y.addr {
                                        s.fault_heal(x.addr, y.addr);
                                    }
                                }
                            }
                        }),
                    );
                }
            }
            FaultAction::Crash {
                who,
                recover_after_secs,
            } => {
                for p in resolve(&net, sc, &docs, *who) {
                    if net.sim.node_state(p.addr) == NodeState::Up {
                        net.crash(p);
                        if let Some(r) = recover_after_secs {
                            recoveries.push(PendingRecovery {
                                at: net.now() + Duration::from_secs(*r),
                                peer: p,
                            });
                        }
                    }
                }
            }
            FaultAction::Leave { who } => {
                for p in resolve(&net, sc, &docs, *who) {
                    if net.sim.node_state(p.addr) == NodeState::Up {
                        net.leave(p);
                    }
                }
            }
            FaultAction::SetLinkFaults { who, faults } => match who {
                Some(w) => {
                    for p in resolve(&net, sc, &docs, *w) {
                        net.sim.set_link_faults(Some(p.addr), faults.clone());
                        overridden.push(p);
                    }
                }
                None => net.sim.set_link_faults(None, faults.clone()),
            },
        }
    }

    // Close the fault window: run out the drive horizon, heal every cut,
    // restore inert link classes, pay every recovery still owed.
    run_recovering_until(&mut net, &mut recoveries, horizon);
    net.sim.fault_heal_all();
    net.sim.set_link_faults(None, LinkFaults::none());
    for p in overridden {
        net.sim.set_link_faults(Some(p.addr), LinkFaults::none());
    }
    for pr in recoveries {
        recover_now(&mut net, pr.peer);
    }

    // Quiesce: anti-entropy catches stragglers up; publishes in flight
    // complete or retry through the healed network.
    net.settle(sc.heal_secs);
    let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
    net.run_until_quiet(&doc_refs, 60);
    net.settle(5);
    net.run_until_quiet(&doc_refs, 60);

    let report = check_all(&net.sim);
    let m = net.sim.metrics();
    ScenarioOutcome {
        name: sc.name.to_string(),
        peers: sc.peers,
        sim_secs: net.now().since(t0).as_millis_f64() / 1e3,
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
        edits: m.counter("workload.edits_issued"),
        grants: m.counter("ltr.publish_ok"),
        msgs: m.counter("sim.msgs_sent"),
        events: net.sim.events_processed(),
        crashes: m.counter("sim.crashes"),
        restarts: m.counter("sim.restarts"),
        faults_dropped: m.counter("faults.dropped"),
        faults_duplicated: m.counter("faults.duplicated"),
        faults_reordered: m.counter("faults.reordered"),
        faults_cut: m.counter("faults.cut"),
        continuity: report.continuity.is_clean(),
        total_order: report.order.is_clean(),
        converged: report.convergence.is_converged(),
        equivocation_free: report.equivocation.is_clean(),
        epoch_monotonic: report.epochs.is_clean(),
        detail: report.summary(),
    }
}

/// Run the simulation to `until`, paying any recovery that falls due on
/// the way (in time order, ties broken by insertion order).
fn run_recovering_until(net: &mut LtrNet, recoveries: &mut Vec<PendingRecovery>, until: Time) {
    loop {
        let next = recoveries
            .iter()
            .enumerate()
            .filter(|(_, r)| r.at <= until)
            .min_by_key(|(i, r)| (r.at, *i))
            .map(|(i, _)| i);
        match next {
            Some(i) => {
                let pr = recoveries.remove(i);
                let at = pr.at.max(net.now());
                net.sim.run_until(at);
                recover_now(net, pr.peer);
            }
            None => break,
        }
    }
    net.sim.run_until(until);
}

/// Restart a crashed peer from its journal; a peer that already
/// recovered (or was never crashed, e.g. resolved twice) is skipped.
fn recover_now(net: &mut LtrNet, peer: NodeRef) {
    if net.sim.node_state(peer.addr) == NodeState::Crashed {
        net.restart_from_store(peer)
            .expect("journal of a crashed peer replays");
    }
}

/// Scale a full-size scenario down for CI quick mode / integration tests.
fn quicken(mut sc: Scenario, quick: bool) -> Scenario {
    if quick {
        sc.peers = (sc.peers / 2).max(8);
        sc.docs = sc.docs.min(2);
        sc.drive_secs = sc.drive_secs.min(12);
        if let Some(churn) = &mut sc.churn {
            churn.min_alive = churn.min_alive.min(sc.peers.saturating_sub(2));
        }
    }
    sc
}

/// The committed scenario matrix: every entry runs deterministically
/// under a fixed seed and must end with all three oracles green.
pub fn named_scenarios(quick: bool) -> Vec<Scenario> {
    let base = |name, summary| Scenario {
        name,
        summary,
        peers: 16,
        replication: 3,
        docs: 4,
        editors: 4,
        mean_think_ms: 400,
        drive_secs: 20,
        heal_secs: 12,
        base_faults: LinkFaults::none(),
        events: Vec::new(),
        churn: None,
    };

    let mut out = Vec::new();

    // 1. The master of doc 0 leaves gracefully while cut off from the
    // editors: the timestamp handoff races a partition, and the editors
    // keep publishing into whatever half they can reach.
    let mut sc = base(
        "partition_during_handoff",
        "graceful master handoff while the old master is partitioned from the editors",
    );
    sc.events = vec![
        FaultEvent {
            at_secs: 4,
            action: FaultAction::Cut {
                a: Who::Master(0),
                b: Who::Editors,
                oneway: false,
                heal_after_secs: Some(6),
            },
        },
        FaultEvent {
            at_secs: 5,
            action: FaultAction::Leave {
                who: Who::Master(0),
            },
        },
    ];
    out.push(sc);

    // 2. Repeated kill + journal-restart of whoever currently masters
    // doc 0 — the crash-with-disk storm (each incarnation replays its
    // store, rejoins, and must not re-grant a timestamp).
    let mut sc = base(
        "master_crash_storm",
        "the current master of a hot doc crashes and restarts from its journal, three times",
    );
    sc.events = (0..3)
        .map(|k| FaultEvent {
            at_secs: 4 + 5 * k,
            action: FaultAction::Crash {
                who: Who::Master(0),
                recover_after_secs: Some(3),
            },
        })
        .collect();
    out.push(sc);

    // 3. Randomized joins / leaves / crashes under editing load, plus a
    // scripted no-recovery crash of a master mid-run (takeover only).
    let mut sc = base(
        "churn_under_load",
        "random joins, graceful leaves and crashes while the editors keep publishing",
    );
    sc.churn = Some(ChurnLoad {
        mean_interval_ms: 1_500,
        crash_weight: 1,
        leave_weight: 1,
        join_weight: 2,
        min_alive: 10,
    });
    sc.events = vec![FaultEvent {
        at_secs: 8,
        action: FaultAction::Crash {
            who: Who::Master(1),
            recover_after_secs: None,
        },
    }];
    out.push(sc);

    // 4. Every link duplicates and reorders aggressively: at-least-once
    // delivery with no ordering guarantee — grants, acks and retrievals
    // all arrive twice and out of order.
    let mut sc = base(
        "dup_heavy_links",
        "25% duplicated + 25% reordered delivery on every link",
    );
    sc.base_faults = LinkFaults {
        duplicate: 0.25,
        reorder: 0.25,
        ..LinkFaults::none()
    };
    out.push(sc);

    // 5. Asymmetric partition: the master of doc 0 can hear its users
    // but none of its replies reach them — validations disappear into a
    // one-way hole until the link heals.
    let mut sc = base(
        "asym_partition_master_users",
        "one-way cut: the master's replies to the editors vanish for 6 s",
    );
    sc.events = vec![FaultEvent {
        at_secs: 4,
        action: FaultAction::Cut {
            a: Who::Master(0),
            b: Who::Editors,
            oneway: true,
            heal_after_secs: Some(6),
        },
    }];
    out.push(sc);

    // 6. A laggy (but correct) master: every message it sends or
    // receives pays 20–80 ms extra — timeouts, retries and redirects
    // fire constantly against a node that is merely slow, not dead.
    let mut sc = base(
        "laggy_master",
        "the master of doc 0 runs 20-80 ms slower than everyone else",
    );
    sc.events = vec![FaultEvent {
        at_secs: 2,
        action: FaultAction::SetLinkFaults {
            who: Some(Who::Master(0)),
            faults: LinkFaults {
                jitter: Some((Duration::from_millis(20), Duration::from_millis(80))),
                ..LinkFaults::none()
            },
        },
    }];
    out.push(sc);

    // 7. Uniform 5% loss with jitter on every link — the WAN-gone-bad
    // envelope every retry path must survive.
    let mut sc = base(
        "lossy_links",
        "5% loss + 1-10 ms jitter on every link for the whole window",
    );
    sc.base_faults = LinkFaults {
        drop: 0.05,
        jitter: Some((Duration::from_millis(1), Duration::from_millis(10))),
        ..LinkFaults::none()
    };
    out.push(sc);

    out.into_iter().map(|sc| quicken(sc, quick)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_the_committed_names() {
        let names: Vec<&str> = named_scenarios(true).iter().map(|s| s.name).collect();
        assert!(names.len() >= 6, "matrix shrank: {names:?}");
        for expect in [
            "partition_during_handoff",
            "master_crash_storm",
            "churn_under_load",
            "dup_heavy_links",
            "asym_partition_master_users",
            "laggy_master",
            "lossy_links",
        ] {
            assert!(names.contains(&expect), "missing scenario {expect}");
        }
    }

    #[test]
    fn quick_mode_shrinks_but_keeps_structure() {
        let full = named_scenarios(false);
        let quick = named_scenarios(true);
        assert_eq!(full.len(), quick.len());
        for (f, q) in full.iter().zip(&quick) {
            assert_eq!(f.name, q.name);
            assert!(q.peers <= f.peers);
            assert!(q.drive_secs <= f.drive_secs);
            assert_eq!(f.events.len(), q.events.len());
        }
    }

    #[test]
    fn clean_scenario_runs_green() {
        // A no-fault scenario through the whole driver: the pipeline
        // itself (build, drive, heal, quiesce, oracles) must be sound.
        let mut sc = named_scenarios(true).remove(0);
        sc.name = "clean";
        sc.events.clear();
        sc.drive_secs = 6;
        sc.peers = 8;
        let out = run_scenario(&sc, 0xC1EA);
        assert!(out.ok(), "{} failed: {}", out.name, out.detail);
        assert!(out.grants > 0, "no publishes happened: {out:?}");
        assert_eq!(out.faults_dropped + out.faults_cut, 0);
    }
}
