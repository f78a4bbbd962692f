//! **Experiment B1 — P2P-LTR vs. the centralized reconciler.**
//!
//! The paper motivates P2P reconciliation because single-node engines
//! "may introduce bottlenecks and single point of failures" (§1). This
//! experiment quantifies both effects against the `baseline` module:
//!
//! 1. **throughput/latency scaling**: editors spread over more and more
//!    documents — the coordinator's single FIFO queue saturates, P2P-LTR's
//!    per-document masters scale out;
//! 2. **availability**: the coordinator crashes vs. one P2P-LTR master
//!    crashes — the baseline stops globally, P2P-LTR recovers after
//!    takeover and only for the affected keys.
//!
//! Run: `cargo run -p ltr_bench --release --bin exp_b1`

use ltr_bench::{fmt_latency, print_table, settled_net};
use p2p_ltr::baseline::{BaseCmd, BaseMsg, BaselineUser, Coordinator};
use p2p_ltr::{check_continuity, LtrConfig};
use simnet::{CounterId, Duration, NetConfig, NodeId, NodeState, Rng64, Sim, Time, Zipf};
use workload::{drive_editors, mutate_text, EditMix, EditorSpec};

const EDITORS: usize = 12;
const RUN_SECS: u64 = 25;
/// Coordinator per-request service time (journal write + bookkeeping of a
/// single-threaded reconciler).
const SERVICE: Duration = Duration::from_millis(2);

/// Drive the baseline: same editor model as the P2P run, implemented as
/// self-scheduling control events over the baseline sim.
fn drive_base_editors(
    sim: &mut Sim<BaseMsg>,
    users: &[NodeId],
    docs: &[String],
    mean_think: Duration,
    horizon: Time,
    seed: u64,
) {
    let mut seeder = Rng64::new(seed);
    for (i, &u) in users.iter().enumerate() {
        let rng = seeder.fork();
        let docs = docs.to_vec();
        let issued = sim.metrics_mut().register_counter("workload.edits_issued");
        schedule_base_step(
            sim,
            sim.now() + mean_think / 2,
            u,
            i as u64 + 1,
            docs,
            mean_think,
            horizon,
            rng,
            0,
            issued,
        );
    }
}

#[expect(
    clippy::too_many_arguments,
    reason = "one scheduled step's whole context"
)]
fn schedule_base_step(
    sim: &mut Sim<BaseMsg>,
    at: Time,
    user: NodeId,
    site: u64,
    docs: Vec<String>,
    mean_think: Duration,
    horizon: Time,
    mut rng: Rng64,
    counter: u64,
    issued: CounterId,
) {
    if at > horizon {
        return;
    }
    let at = at.max(sim.now());
    sim.schedule_at(
        at,
        Box::new(move |s: &mut Sim<BaseMsg>| {
            if s.node_state(user) == NodeState::Up {
                let zipf = Zipf::new(docs.len(), 0.0);
                let doc = docs[zipf.sample(&mut rng)].clone();
                let edit = s.node_as::<BaselineUser>(user).and_then(|n| {
                    if n.is_busy(&doc) {
                        None
                    } else {
                        n.doc_text(&doc).map(|text| {
                            let kind = EditMix::default().sample(&mut rng);
                            mutate_text(&text, kind, site, counter, &mut rng)
                        })
                    }
                });
                if let Some(new_text) = edit {
                    s.send_external(user, BaseMsg::Cmd(BaseCmd::Edit { doc, new_text }));
                    s.metrics_mut().incr_id(issued);
                }
            }
            let gap =
                Duration::from_micros(rng.exp_mean(mean_think.as_micros() as f64).max(1.0) as u64);
            let next = s.now() + gap;
            schedule_base_step(
                s,
                next,
                user,
                site,
                docs,
                mean_think,
                horizon,
                rng,
                counter + 1,
                issued,
            );
        }),
    );
}

fn run_baseline(docs_n: usize, seed: u64, crash_coord_at: Option<u64>) -> (u64, String, u64) {
    let mut sim: Sim<BaseMsg> = Sim::new(seed, NetConfig::lan());
    let coord = sim.add_node(Coordinator::new(SERVICE));
    let users: Vec<NodeId> = (0..EDITORS)
        .map(|i| {
            sim.add_node(BaselineUser::new(
                i as u64 + 1,
                coord,
                Duration::from_millis(500),
                Some(Duration::from_secs(1)),
            ))
        })
        .collect();
    let docs: Vec<String> = (0..docs_n).map(|d| format!("doc-{d}")).collect();
    for &u in &users {
        for d in &docs {
            sim.send_external(
                u,
                BaseMsg::Cmd(BaseCmd::OpenDoc {
                    doc: d.clone(),
                    initial: "seed".into(),
                }),
            );
        }
    }
    sim.run_for(Duration::from_millis(200));
    let horizon = sim.now() + Duration::from_secs(RUN_SECS);
    drive_base_editors(
        &mut sim,
        &users,
        &docs,
        Duration::from_millis(400),
        horizon,
        seed ^ 0x11,
    );
    if let Some(t) = crash_coord_at {
        let at = sim.now() + Duration::from_secs(t);
        sim.schedule_at(at, Box::new(move |s: &mut Sim<BaseMsg>| s.crash(coord)));
    }
    sim.run_for(Duration::from_secs(RUN_SECS + 10));
    let grants = sim.metrics().counter("base.grants");
    let lat = fmt_latency(&sim.metrics().summary("base.publish_latency_ms"));
    let timeouts = sim.metrics().counter("base.validate_timeout");
    (grants, lat, timeouts)
}

fn run_ltr(docs_n: usize, seed: u64, crash_master_at: Option<u64>) -> (u64, String, u64) {
    let mut net = settled_net(seed, NetConfig::lan(), 24, LtrConfig::default());
    let peers = net.peers.clone();
    let editors: Vec<_> = peers[..EDITORS].to_vec();
    let docs: Vec<String> = (0..docs_n).map(|d| format!("doc-{d}")).collect();
    for d in &docs {
        net.open_doc(&editors, d, "seed");
    }
    net.settle(2);
    let horizon = net.now() + Duration::from_secs(RUN_SECS);
    drive_editors(
        &mut net.sim,
        &editors,
        &EditorSpec {
            docs: docs.clone(),
            zipf_skew: 0.0,
            mean_think: Duration::from_millis(400),
            mix: EditMix::default(),
            horizon,
        },
        seed ^ 0x22,
    );
    if let Some(t) = crash_master_at {
        // Crash the master of doc-0 (a non-editor) at t.
        let master = net.master_of("doc-0");
        let at = net.now() + Duration::from_secs(t);
        if !editors.iter().any(|e| e.addr == master.addr) {
            workload::schedule_crash(&mut net.sim, at, master);
        }
    }
    net.settle(RUN_SECS + 10);
    let grants = net.sim.metrics().counter("kts.grants");
    let lat = fmt_latency(&net.sim.metrics().summary("ltr.publish_latency_ms"));
    let cont = check_continuity(&net.sim);
    let violations = (cont.duplicates.len() + cont.gaps.len()) as u64;
    (grants, lat, violations)
}

fn main() {
    // Part 1: throughput/latency scaling with document count.
    let mut rows = Vec::new();
    for (i, docs_n) in [1usize, 4, 16, 48].into_iter().enumerate() {
        let (bg, bl, _) = run_baseline(docs_n, 0xB100 + i as u64, None);
        let (lg, ll, lv) = run_ltr(docs_n, 0xB200 + i as u64, None);
        rows.push(vec![
            docs_n.to_string(),
            bg.to_string(),
            bl,
            lg.to_string(),
            ll,
            lv.to_string(),
        ]);
    }
    print_table(
        &format!(
            "B1a: centralized reconciler vs P2P-LTR — {EDITORS} editors, {RUN_SECS}s \
             (coordinator service time {SERVICE})"
        ),
        &[
            "docs",
            "baseline grants",
            "baseline ms (mean/p95/p99)",
            "LTR grants",
            "LTR ms (mean/p95/p99)",
            "LTR violations",
        ],
        &rows,
    );

    // Part 2: availability under coordinator/master failure.
    let (bg, bl, bto) = run_baseline(8, 0xB301, Some(8));
    let (lg, ll, lv) = run_ltr(8, 0xB302, Some(8));
    print_table(
        "B1b: crash at t=8s — coordinator (baseline) vs one master (P2P-LTR)",
        &[
            "system",
            "grants (40s window)",
            "publish ms (mean/p95/p99)",
            "timeouts / violations",
        ],
        &[
            vec![
                "centralized".into(),
                bg.to_string(),
                bl,
                format!("{bto} timeouts (all editing stopped)"),
            ],
            vec![
                "P2P-LTR".into(),
                lg.to_string(),
                ll,
                format!("{lv} continuity violations (takeover for 1 doc)"),
            ],
        ],
    );
    println!(
        "\nExpected shape: with few documents the centralized engine wins on \
         latency (no DHT hops); as load spreads over documents it saturates at \
         1/service_time while P2P-LTR scales out; and a coordinator crash \
         halts the baseline entirely, while P2P-LTR only stalls the crashed \
         master's keys until the Master-Succ takes over."
    );
}
