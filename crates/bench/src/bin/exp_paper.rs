//! **The paper's claims, checked.** Each row of [`CLAIMS`] is one claim of
//! *P2P Logging and Timestamping for Reconciliation* (Figures 4–5, the
//! Master-key departure and join scenarios, §6 response times, §5 log
//! availability, §1 no single point of failure): its paper anchor, the
//! scenario that measures it on the deterministic simulator, the measured
//! fields and a predicate over them. The binary prints one table and exits
//! non-zero when any claim fails. It takes no flags; every scenario is
//! fixed by its seeds, so two runs print the same bytes.
//!
//! Run: `cargo run -p ltr_bench --release --bin exp_paper`

use std::process::ExitCode;

use chord::stabilize::CHECK_PRED_EVERY;
use chord::NodeRef;
use ltr_bench::table::{Col, Table};
use ltr_bench::{emit, ok, settled_net};
use p2p_ltr::harness::LtrNet;
use p2p_ltr::{
    check_continuity, check_convergence, check_total_order, LtrConfig, LtrEvent, LtrEventKind,
};
use p2plog::AckPolicy;
use simnet::{Duration, NetConfig, Rng64, Time};
use workload::{drive_churn, drive_editors, ChurnSpec, EditMix, EditorSpec};

const DOC: &str = "wiki/Main";

/// One claim: where the paper makes it, the scenario that measures it,
/// how the measurement reads and the predicate that decides it.
struct Claim<M> {
    id: &'static str,
    anchor: &'static str,
    /// The predicate, in words.
    predicate: &'static str,
    scenario: fn() -> M,
    fields: fn(&M) -> String,
    holds: fn(&M) -> bool,
}

/// A claim's row in the report.
struct Verdict {
    claim: &'static str,
    anchor: &'static str,
    predicate: &'static str,
    measured: String,
    holds: bool,
}

const REPORT: Table<Verdict> = Table {
    title: "P2P-LTR: the paper's claims",
    cols: &[
        Col::Text("claim", |v| v.claim),
        Col::Text("anchor", |v| v.anchor),
        Col::Text("predicate", |v| v.predicate),
        Col::Text("measured", |v| &v.measured),
        Col::Check("verdict", |v| v.holds),
    ],
};

/// A claim with its measurement type erased, so one table holds them all.
trait Check {
    /// Run the scenario: the claim's row in the report.
    fn check(&self) -> Verdict;
}

impl<M> Check for Claim<M> {
    fn check(&self) -> Verdict {
        let m = (self.scenario)();
        Verdict {
            claim: self.id,
            anchor: self.anchor,
            predicate: self.predicate,
            measured: (self.fields)(&m),
            holds: (self.holds)(&m),
        }
    }
}

const CLAIMS: &[&dyn Check] = &[&F4, &F5, &S3, &S4, &P1, &P2, &P3, &A1, &A2, &B1];

/// Check `claims` in order and print them as one table; true when every
/// claim holds.
fn run(claims: &[&dyn Check]) -> bool {
    let verdicts: Vec<Verdict> = claims.iter().map(|c| c.check()).collect();
    emit(&REPORT.text(&verdicts));
    REPORT.holds(&verdicts)
}

fn main() -> ExitCode {
    if run(CLAIMS) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Shared scenario steps
// ---------------------------------------------------------------------------

/// The editing session most scenarios share: `docs` opened with the text
/// "seed", editors saving uniformly over them for `secs`, then a drain.
struct Session {
    docs: Vec<String>,
    /// Settle after opening, in seconds.
    opened: u64,
    secs: u64,
    think_ms: u64,
    seed: u64,
    /// Settle, run until quiet (at most), settle; in seconds.
    drain: [u64; 3],
}

impl Session {
    /// Open the documents at `open_at`, settle, and start `editors`;
    /// returns the editing horizon.
    fn start(&self, net: &mut LtrNet, open_at: &[NodeRef], editors: &[NodeRef]) -> Time {
        for d in &self.docs {
            net.open_doc(open_at, d, "seed");
        }
        net.settle(self.opened);
        let horizon = net.now() + Duration::from_secs(self.secs);
        let spec = EditorSpec {
            docs: self.docs.clone(),
            zipf_skew: 0.0,
            mean_think: Duration::from_millis(self.think_ms),
            mix: EditMix::default(),
            horizon,
        };
        drive_editors(&mut net.sim, editors, &spec, self.seed);
        horizon
    }

    fn drain(&self, net: &mut LtrNet) {
        let [before, quiet, after] = self.drain;
        net.settle(before);
        let docs: Vec<&str> = self.docs.iter().map(String::as_str).collect();
        net.run_until_quiet(&docs, quiet);
        net.settle(after);
    }

    fn run(&self, net: &mut LtrNet, open_at: &[NodeRef], editors: &[NodeRef]) {
        self.start(net, open_at, editors);
        self.drain(net);
    }
}

fn docs(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

/// One `; `-separated entry per cell.
fn each<T>(cells: &[T], entry: impl Fn(&T) -> String) -> String {
    cells.iter().map(entry).collect::<Vec<_>>().join("; ")
}

/// `doc`'s master, and the first `n` peers other than it: editors that
/// survive the master's crash or departure.
fn master_and_editors(net: &LtrNet, doc: &str, n: usize) -> (NodeRef, Vec<NodeRef>) {
    let master = net.master_of(doc);
    let others = net.peers.iter().filter(|p| p.addr != master.addr);
    (master, others.copied().take(n).collect())
}

/// Continuity, total order and convergence over the whole run.
fn oracles(net: &LtrNet) -> bool {
    check_continuity(&net.sim).is_clean()
        && check_total_order(&net.sim).is_clean()
        && check_convergence(&net.sim).is_converged()
}

/// A peer's event log: the one place this binary reads `LtrNode::events`.
fn events(net: &LtrNet, peer: NodeRef) -> &[LtrEvent] {
    &net.node(peer).events
}

/// When the live peers granted timestamps for `doc` after `t`.
fn grants_after(net: &LtrNet, doc: &str, t: Time) -> Vec<Time> {
    net.alive_peers()
        .into_iter()
        .flat_map(|p| events(net, p))
        .filter(|e| matches!(&e.kind, LtrEventKind::MasterGranted { doc: d, .. } if d == doc))
        .map(|e| e.at)
        .filter(|&at| at > t)
        .collect()
}

fn counter(net: &LtrNet, name: &str) -> u64 {
    net.sim.metrics().counter(name)
}

// ---------------------------------------------------------------------------
// Figure 4: timestamping is distributed
// ---------------------------------------------------------------------------

struct Masters {
    /// Keys mastered by each peer that masters or granted anything.
    keys: Vec<usize>,
    issued: u64,
    grants: u64,
    by_master: bool,
    oracles: bool,
}

const F4: Claim<Masters> = Claim {
    id: "f4",
    anchor: "Fig. 4, timestamp generation",
    predicate: "more than one master; every grant made by its key's master",
    scenario: || {
        let mut net = settled_net(0xF4, NetConfig::lan(), 32, LtrConfig::default());
        let editors = net.peers[..8].to_vec();
        Session {
            docs: docs("wiki/page-", 64),
            opened: 2,
            secs: 20,
            think_ms: 400,
            seed: 0xF4F4,
            drain: [25, 120, 10],
        }
        .run(&mut net, &editors, &editors);
        let mut keys = Vec::new();
        let mut by_master = true;
        for p in net.alive_peers() {
            let node = net.node(p);
            let grants = node.grants();
            if node.kts().mastered_count() > 0 || !grants.is_empty() {
                keys.push(node.kts().mastered_count());
            }
            by_master &= grants
                .iter()
                .all(|(doc, _)| net.master_of(doc).addr == p.addr);
        }
        Masters {
            keys,
            issued: counter(&net, "workload.edits_issued"),
            grants: counter(&net, "kts.grants"),
            by_master,
            oracles: oracles(&net),
        }
    },
    fields: |m| {
        format!(
            "64 docs over {} masters of 32 peers (keys/master {}–{}); {}/{} edits granted; \
             by the key's master: {}; oracles {}",
            m.keys.len(),
            m.keys.iter().min().unwrap_or(&0),
            m.keys.iter().max().unwrap_or(&0),
            m.grants,
            m.issued,
            ok(m.by_master),
            ok(m.oracles)
        )
    },
    holds: |m| m.keys.len() > 1 && m.by_master && m.oracles,
};

// ---------------------------------------------------------------------------
// Figure 5: concurrent publishing, continuous retrieval
// ---------------------------------------------------------------------------

struct LateReader {
    /// Timestamps the late reader integrated, in order.
    integrated: Vec<u64>,
    grants: u64,
    replicas: usize,
    identical: bool,
    oracles: bool,
}

const F5: Claim<LateReader> = Claim {
    id: "f5",
    anchor: "Fig. 5, concurrent patch publishing",
    predicate: "the late reader integrates ts 1..m in order (m = grants); every replica converges",
    scenario: || {
        // The late reader syncs rarely, so it retrieves a long run of
        // patches in one retrieval: the Figure 5 view.
        let cfg = LtrConfig {
            sync_every: Some(Duration::from_secs(8)),
            ..LtrConfig::default()
        };
        let mut net = settled_net(0xF5, NetConfig::lan(), 16, cfg);
        let peers = net.peers.clone();
        Session {
            docs: vec![DOC.into()],
            opened: 1,
            secs: 12,
            think_ms: 600,
            seed: 0xF5F5,
            drain: [20, 120, 20],
        }
        .run(&mut net, &peers, &peers[..5]);
        let integrated = events(&net, peers[10])
            .iter()
            .filter_map(|e| match &e.kind {
                LtrEventKind::Integrated { doc, ts, .. } if doc == DOC => Some(*ts),
                _ => None,
            })
            .collect();
        let reference = net.node(peers[0]).doc_text(DOC);
        let alive = net.alive_peers();
        LateReader {
            integrated,
            grants: counter(&net, "kts.grants"),
            replicas: alive.len(),
            identical: alive
                .iter()
                .all(|p| net.node(*p).doc_text(DOC) == reference),
            oracles: oracles(&net),
        }
    },
    fields: |m| {
        format!(
            "the late reader integrated {} patches, in order 1..m: {}; {} grants; \
             {} replicas identical: {}; oracles {}",
            m.integrated.len(),
            ok(m.integrated.iter().copied().eq(1..=m.grants)),
            m.grants,
            m.replicas,
            ok(m.identical),
            ok(m.oracles)
        )
    },
    holds: |m| m.integrated.iter().copied().eq(1..=m.grants) && m.identical && m.oracles,
};

// ---------------------------------------------------------------------------
// Master-key departures and joins
// ---------------------------------------------------------------------------

/// The longest a crashed master's key may go without a grant, from the
/// configured timeouts: the Master-Succ declares its predecessor dead after
/// `fail_threshold` lost pings sent every `CHECK_PRED_EVERY`, the last one
/// timing out after `op_timeout`; the validation in flight at that moment
/// times out after `validate_timeout`; the re-lookup of the master takes
/// one `op_timeout`; and the re-sent validation is answered within one
/// more `validate_timeout`, or it too would time out.
fn takeover_bound(cfg: &LtrConfig) -> Duration {
    let c = &cfg.chord;
    CHECK_PRED_EVERY * u64::from(c.fail_threshold) + c.op_timeout * 2 + cfg.validate_timeout * 2
}

struct Departure {
    ts_at_kill: u64,
    ts_at_end: u64,
    /// Kill to the key's first grant after it.
    takeover: Option<Duration>,
    handed_off: u64,
    promoted: u64,
    oracles: bool,
}

fn depart(leave: bool, seed: u64) -> Departure {
    let mut net = settled_net(seed, NetConfig::lan(), 12, LtrConfig::default());
    let peers = net.peers.clone();
    let (master, editors) = master_and_editors(&net, DOC, 2);
    let session = Session {
        docs: vec![DOC.into()],
        opened: 1,
        secs: 40,
        think_ms: 700,
        seed: seed ^ 0xAB,
        drain: [30, 120, 10],
    };
    session.start(&mut net, &peers, &editors);
    net.settle(10);
    let ts_at_kill = check_continuity(&net.sim).last_ts(DOC);
    let t_kill = net.now();
    if leave {
        net.leave(master);
    } else {
        net.crash(master);
    }
    session.drain(&mut net);
    Departure {
        ts_at_kill,
        ts_at_end: check_continuity(&net.sim).last_ts(DOC),
        takeover: grants_after(&net, DOC, t_kill)
            .into_iter()
            .min()
            .map(|t| t.since(t_kill)),
        handed_off: counter(&net, "kts.entries_handed_off"),
        promoted: counter(&net, "kts.backups_promoted"),
        oracles: oracles(&net),
    }
}

fn takeover_ms(d: &Departure) -> f64 {
    d.takeover.map_or(f64::NAN, Duration::as_millis_f64)
}

const S3: Claim<[Departure; 2]> = Claim {
    id: "s3",
    anchor: "Master-key departures",
    predicate: "continuity through a graceful leave (handed off) and a crash (promoted); \
                first grant after ≤ 3×check_pred + 2×op_timeout + 2×validate_timeout",
    scenario: || [depart(true, 0x53A), depart(false, 0x53B)],
    fields: |[leave, crash]| {
        format!(
            "leave: ts {}→{}, first grant after {:.0} ms, {} handed off; \
             crash: ts {}→{}, first grant after {:.0} ms, {} promoted; bound {:.0} ms; oracles {}",
            leave.ts_at_kill,
            leave.ts_at_end,
            takeover_ms(leave),
            leave.handed_off,
            crash.ts_at_kill,
            crash.ts_at_end,
            takeover_ms(crash),
            crash.promoted,
            takeover_bound(&LtrConfig::default()).as_millis_f64(),
            ok(leave.oracles && crash.oracles)
        )
    },
    holds: |[leave, crash]| {
        let bound = takeover_bound(&LtrConfig::default());
        let quick = |d: &Departure| d.takeover.is_some_and(|t| t <= bound);
        leave.handed_off >= 1
            && crash.promoted >= 1
            && quick(leave)
            && quick(crash)
            && leave.oracles
            && crash.oracles
    },
};

struct Join {
    old: NodeRef,
    new: NodeRef,
    joiner: NodeRef,
    ts_before: u64,
    ts_after: u64,
    handed_off: u64,
    received: u64,
    joiner_grants: usize,
    oracles: bool,
}

const S4: Claim<Join> = Claim {
    id: "s4",
    anchor: "New Master-key peer joining",
    predicate: "a joiner splitting the key's arc becomes its master, takes the timestamps \
                over and grants the next; continuity holds",
    scenario: || {
        let mut net = settled_net(0x54, NetConfig::lan(), 10, LtrConfig::default());
        let peers = net.peers.clone();
        net.open_doc(&peers, DOC, "v0");
        net.settle(1);
        // Timestamps 1..=3 under the original master.
        for (i, p) in peers.iter().take(3).enumerate() {
            let cur = net.node(*p).doc_text(DOC).expect("open at every peer");
            net.edit(*p, DOC, &format!("{cur}\nedit-{i}"));
            net.run_until_quiet(&[DOC], 60);
            net.settle(3);
        }
        let old = net.master_of(DOC);
        let ts_before = check_continuity(&net.sim).last_ts(DOC);
        // A name hashing between the doc key and the old master.
        let key = p2plog::ht(DOC);
        let joiner_name = (0..200_000)
            .map(|i| format!("joiner-{i}"))
            .find(|name| {
                let id = chord::Id::hash(name.as_bytes());
                id.in_half_open(key, old.id) && id != old.id
            })
            .expect("splitting id exists");
        let joiner = net.add_peer(&joiner_name);
        net.settle(20);
        let new = net.master_of(DOC);
        let editor = peers[5];
        let cur = net.node(editor).doc_text(DOC).expect("open at every peer");
        net.edit(editor, DOC, &format!("{cur}\nafter-join"));
        net.run_until_quiet(&[DOC], 60);
        net.settle(10);
        Join {
            old,
            new,
            joiner,
            ts_before,
            ts_after: check_continuity(&net.sim).last_ts(DOC),
            handed_off: counter(&net, "kts.entries_handed_off"),
            received: counter(&net, "kts.entries_handoff_received"),
            joiner_grants: net.node(joiner).grants().len(),
            oracles: oracles(&net),
        }
    },
    fields: |m| {
        format!(
            "master {} → {} (joiner {}); {} handed off, {} received; ts {}→{}, \
             {} granted by the joiner; oracles {}",
            m.old.addr,
            m.new.addr,
            m.joiner.addr,
            m.handed_off,
            m.received,
            m.ts_before,
            m.ts_after,
            m.joiner_grants,
            ok(m.oracles)
        )
    },
    holds: |m| {
        m.new.addr == m.joiner.addr
            && m.received >= 1
            && m.joiner_grants >= 1
            && m.ts_after == m.ts_before + 1
            && m.oracles
    },
};

// ---------------------------------------------------------------------------
// §6: response times
// ---------------------------------------------------------------------------

struct Cell {
    /// Peers (p1), replication degree (p2).
    n: usize,
    grants: u64,
    publish_ms: f64,
    hops: f64,
    oracles: bool,
}

/// Four editors over `docs` on a LAN ring of `peers`; one [`Cell`].
fn response_time(n: usize, seed: u64, peers: usize, cfg: LtrConfig, session: Session) -> Cell {
    let mut net = settled_net(seed, NetConfig::lan(), peers, cfg);
    let editors = net.peers[..4].to_vec();
    session.run(&mut net, &editors, &editors);
    let m = net.sim.metrics();
    Cell {
        n,
        grants: m.counter("kts.grants"),
        publish_ms: m.summary("ltr.publish_latency_ms").mean,
        hops: m.summary("chord.lookup_hops").mean,
        oracles: oracles(&net),
    }
}

fn hops_bound(n: usize) -> f64 {
    0.5 * (n as f64).log2() + 1.0
}

const P1: Claim<Vec<Cell>> = Claim {
    id: "p1",
    anchor: "§6, response times vs. N",
    predicate: "mean lookup hops ≤ ½·log₂N + 1 at N ∈ {8, 16, 32, 64, 128}",
    scenario: || {
        [8, 16, 32, 64, 128]
            .into_iter()
            .enumerate()
            .map(|(i, n)| {
                let session = Session {
                    docs: docs("doc-", 8),
                    opened: 2,
                    secs: 20,
                    think_ms: 500,
                    seed: 0x91AB,
                    drain: [25, 120, 10],
                };
                response_time(n, 0x9100 + i as u64, n, LtrConfig::default(), session)
            })
            .collect()
    },
    fields: |cells| {
        let per_n = each(cells, |c| {
            let bound = hops_bound(c.n);
            format!(
                "N={}: {:.2} ≤ {bound:.2} hops, {:.1} ms, {} grants",
                c.n, c.hops, c.publish_ms, c.grants
            )
        });
        format!("{per_n}; oracles {}", ok(cells.iter().all(|c| c.oracles)))
    },
    holds: |cells| cells.iter().all(|c| c.hops <= hops_bound(c.n) && c.oracles),
};

const P2: Claim<Vec<Cell>> = Claim {
    id: "p2",
    anchor: "§6, response time vs. n",
    predicate: "all-ack publish latency grows sub-linearly in the replication degree n: \
                mean(n) < n·mean(1)",
    scenario: || {
        [1, 2, 3, 4, 6, 8]
            .into_iter()
            .enumerate()
            .map(|(i, n)| {
                let mut cfg = LtrConfig::default();
                cfg.log.replication = n;
                let seed = 0x9200 + i as u64;
                let session = Session {
                    docs: docs("doc-", 6),
                    opened: 2,
                    secs: 15,
                    think_ms: 600,
                    seed: seed ^ 0x77,
                    drain: [20, 180, 10],
                };
                response_time(n, seed, 24, cfg, session)
            })
            .collect()
    },
    fields: |cells| {
        let per_n = each(cells, |c| {
            format!("n={}: {:.1} ms, {} grants", c.n, c.publish_ms, c.grants)
        });
        format!("{per_n}; oracles {}", ok(cells.iter().all(|c| c.oracles)))
    },
    holds: |cells| {
        let base = cells[0].publish_ms;
        cells
            .iter()
            .all(|c| (c.n == 1 || c.publish_ms < c.n as f64 * base) && c.oracles)
    },
};

struct Churn {
    level: &'static str,
    crashes: u64,
    leaves: u64,
    joins: u64,
    grants: u64,
    promotions: u64,
    publish_ms: f64,
    oracles: bool,
}

const P3: Claim<Vec<Churn>> = Claim {
    id: "p3",
    anchor: "§1/§6, dynamic peers",
    predicate: "continuity, total order and convergence hold at every churn level",
    scenario: || {
        let levels = [
            ("none", None),
            ("1/8s", Some(Duration::from_secs(8))),
            ("1/3s", Some(Duration::from_secs(3))),
            ("1/1.5s", Some(Duration::from_millis(1500))),
        ];
        let mut out = Vec::new();
        for (i, (level, interval)) in levels.into_iter().enumerate() {
            let cfg = LtrConfig::default();
            let mut net = settled_net(0x9500 + i as u64, NetConfig::lan(), 20, cfg.clone());
            let editors = net.peers[..3].to_vec();
            let session = Session {
                docs: docs("doc-", 4),
                opened: 2,
                secs: 40,
                think_ms: 800,
                seed: 0x3333 + i as u64,
                drain: [50, 240, 20],
            };
            let horizon = session.start(&mut net, &editors, &editors);
            if let Some(mean_interval) = interval {
                let spec = ChurnSpec {
                    mean_interval,
                    crash_weight: 2,
                    leave_weight: 1,
                    join_weight: 2,
                    protected: editors.clone(),
                    min_alive: 10,
                    horizon,
                };
                drive_churn(&mut net.sim, spec, cfg, 0x4444 + i as u64);
            }
            session.drain(&mut net);
            let docs: Vec<&str> = session.docs.iter().map(String::as_str).collect();
            net.run_until_quiet(&docs, 60);
            net.settle(10);
            out.push(Churn {
                level,
                crashes: counter(&net, "churn.crashes"),
                leaves: counter(&net, "churn.leaves"),
                joins: counter(&net, "churn.joins"),
                grants: counter(&net, "kts.grants"),
                promotions: counter(&net, "kts.backups_promoted"),
                publish_ms: net.sim.metrics().summary("ltr.publish_latency_ms").mean,
                oracles: oracles(&net),
            });
        }
        out
    },
    fields: |levels| {
        each(levels, |c| {
            format!(
                "{}: {}c/{}l/{}j, {} grants, {} promoted, {:.1} ms, oracles {}",
                c.level,
                c.crashes,
                c.leaves,
                c.joins,
                c.grants,
                c.promotions,
                c.publish_ms,
                ok(c.oracles)
            )
        })
    },
    holds: |levels| levels.iter().all(|c| c.oracles),
};

// ---------------------------------------------------------------------------
// §5: log availability
// ---------------------------------------------------------------------------

/// What a fresh reader retrieved after `k` peers crashed.
struct Retrieval {
    /// The crash set held the document's Master-key / Master-Succ.
    master_hit: bool,
    succ_hit: bool,
    /// Highest timestamp the reader reached.
    got: u64,
    /// Retrievals started network-wide after the reader opened.
    retrievals: u64,
}

/// §5's retrieval scenario: `peers[0]` publishes `patches` edits one at a
/// time, then `settle` seconds pass.
fn publish(net: &mut LtrNet, patches: usize, settle: u64) {
    let editor = net.peers[0];
    net.open_doc(&[editor], DOC, "seed");
    net.settle(1);
    for i in 0..patches {
        let cur = net.node(editor).doc_text(DOC).expect("open at the editor");
        net.edit(editor, DOC, &format!("{cur}\npatch-{i}"));
        net.run_until_quiet(&[DOC], 60);
    }
    net.settle(settle);
}

/// Crash `k` peers other than the editor and the reader (`peers[0..2]`),
/// drawn with `crash_seed`; then `peers[1]` opens the document and
/// retrieves.
fn crash_and_retrieve(net: &mut LtrNet, k: usize, crash_seed: u64) -> Retrieval {
    let (editor, reader) = (net.peers[0], net.peers[1]);
    let (master, succ) = net.master_and_succ(DOC);
    let mut rng = Rng64::new(crash_seed);
    let mut crashed: Vec<NodeRef> = net
        .alive_peers()
        .into_iter()
        .filter(|p| p.addr != editor.addr && p.addr != reader.addr)
        .collect();
    rng.shuffle(&mut crashed);
    crashed.truncate(k);
    for p in &crashed {
        net.crash(*p);
    }
    net.settle(15);
    let before = counter(net, "ltr.retrievals");
    net.open_doc(&[reader], DOC, "seed");
    net.settle(30);
    net.run_until_quiet(&[DOC], 120);
    net.settle(10);
    let hit = |x: NodeRef| crashed.iter().any(|p| p.addr == x.addr);
    Retrieval {
        master_hit: hit(master),
        succ_hit: hit(succ),
        got: net.node(reader).doc_ts(DOC).unwrap_or(0),
        retrievals: counter(net, "ltr.retrievals") - before,
    }
}

fn crash_set(r: &Retrieval) -> &'static str {
    match (r.master_hit, r.succ_hit) {
        (true, true) => "master+succ crashed",
        (true, false) => "master crashed",
        (false, true) => "succ crashed",
        (false, false) => "master, succ up",
    }
}

const A1_PATCHES: u64 = 20;

struct Availability {
    hr_n: usize,
    succ_replicas: usize,
    k: usize,
    r: Retrieval,
}

const A1: Claim<Vec<Availability>> = Claim {
    id: "a1",
    anchor: "§5, log availability",
    predicate: "with k of 20 peers crashed (one crash set per k), availability does not \
                decrease as n (the hash family Hr) grows, and is 1.0 for n > k",
    scenario: || {
        let mut out = Vec::new();
        for (i, k) in [0, 3, 6].into_iter().enumerate() {
            let seed = 0xA100 + i as u64;
            for (hr_n, succ_replicas) in [(1, 0), (3, 0), (1, 2), (3, 2)] {
                let mut cfg = LtrConfig::default();
                cfg.log.replication = hr_n;
                cfg.chord.storage_replicas = succ_replicas;
                let mut net = settled_net(seed, NetConfig::lan(), 20, cfg);
                publish(&mut net, A1_PATCHES as usize, 8);
                let r = crash_and_retrieve(&mut net, k, seed ^ 0xDEAD);
                out.push(Availability {
                    hr_n,
                    succ_replicas,
                    k,
                    r,
                });
            }
        }
        out
    },
    fields: |cells| {
        each(cells, |c| {
            format!(
                "k={} n={} s={}: {}/{A1_PATCHES} ({} retrievals, {})",
                c.k,
                c.hr_n,
                c.succ_replicas,
                c.r.got,
                c.r.retrievals,
                crash_set(&c.r)
            )
        })
    },
    holds: |cells| {
        let monotone = cells.iter().all(|a| {
            cells.iter().all(|b| {
                a.k != b.k
                    || a.succ_replicas != b.succ_replicas
                    || a.hr_n >= b.hr_n
                    || a.r.got <= b.r.got
            })
        });
        monotone && cells.iter().all(|c| c.hr_n <= c.k || c.r.got == A1_PATCHES)
    },
};

const A2_PATCHES: u64 = 15;

struct AckRun {
    policy: &'static str,
    publish_p50_ms: f64,
    publish_mean_ms: f64,
    r: Retrieval,
}

const A2: Claim<Vec<AckRun>> = Claim {
    id: "a2",
    anchor: "§5, publish acknowledgement",
    predicate: "quorum publish p50 ≤ all-n p50 (n = 3); the durability cost is stated",
    scenario: || {
        let policies = [
            ("all", AckPolicy::All),
            ("w=2", AckPolicy::Quorum(2)),
            ("w=1", AckPolicy::Quorum(1)),
        ];
        policies
            .into_iter()
            .map(|(policy, ack_policy)| {
                let seed = 0xA201;
                let mut cfg = LtrConfig::default();
                cfg.log.replication = 3;
                cfg.log.ack_policy = ack_policy;
                // Isolate the Hr mechanism: no DHT successor replicas.
                cfg.chord.storage_replicas = 0;
                let mut net = settled_net(seed, NetConfig::lan(), 16, cfg);
                publish(&mut net, A2_PATCHES as usize, 0);
                let latency = net.sim.metrics().summary("ltr.publish_latency_ms");
                AckRun {
                    policy,
                    publish_p50_ms: latency.p50,
                    publish_mean_ms: latency.mean,
                    r: crash_and_retrieve(&mut net, 4, seed ^ 0xBEEF),
                }
            })
            .collect()
    },
    fields: |runs| {
        each(runs, |a| {
            format!(
                "{}: p50 {:.1} ms (mean {:.1}), after 4/16 crashed {}/{A2_PATCHES} retrieved \
                 ({} retrievals, {})",
                a.policy,
                a.publish_p50_ms,
                a.publish_mean_ms,
                a.r.got,
                a.r.retrievals,
                crash_set(&a.r)
            )
        })
    },
    holds: |runs| {
        runs.iter()
            .all(|a| a.publish_p50_ms <= runs[0].publish_p50_ms)
    },
};

// ---------------------------------------------------------------------------
// §1: no single point of failure
// ---------------------------------------------------------------------------

const B1_CRASH_AFTER: Duration = Duration::from_secs(8);
const B1_RUN: Duration = Duration::from_secs(35);

/// A loaded master crash: grants before and after it.
struct Takeover {
    before: u64,
    after: u64,
    /// Grants of the crashed master's key after the crash.
    key_after: usize,
    promoted: u64,
    continuity: bool,
}

const B1: Claim<Takeover> = Claim {
    id: "b1",
    anchor: "§1, no single point of failure",
    predicate: "after its master crashes, a backup is promoted and the key is granted again, \
                with continuity",
    scenario: || {
        let mut net = settled_net(0xB302, NetConfig::lan(), 24, LtrConfig::default());
        let (master, editors) = master_and_editors(&net, "doc-0", 12);
        let session = Session {
            docs: docs("doc-", 8),
            opened: 2,
            secs: 25,
            think_ms: 400,
            seed: 0xB302 ^ 0x22,
            drain: [0; 3],
        };
        session.start(&mut net, &editors, &editors);
        net.run_for(B1_CRASH_AFTER);
        let before = counter(&net, "kts.grants");
        let t_crash = net.now();
        net.crash(master);
        net.run_for(B1_RUN - B1_CRASH_AFTER);
        Takeover {
            before,
            after: counter(&net, "kts.grants") - before,
            key_after: grants_after(&net, "doc-0", t_crash).len(),
            promoted: counter(&net, "kts.backups_promoted"),
            continuity: check_continuity(&net.sim).is_clean(),
        }
    },
    fields: |m| {
        format!(
            "{} grants before the crash, {} after ({} for the crashed master's key), \
             {} promoted; continuity {}",
            m.before,
            m.after,
            m.key_after,
            m.promoted,
            ok(m.continuity)
        )
    },
    holds: |m| m.promoted >= 1 && m.key_after > 0 && m.continuity,
};

#[cfg(test)]
mod tests {
    use super::*;

    const HOLDS: Claim<u32> = Claim {
        id: "t",
        anchor: "-",
        predicate: "the measurement is 7",
        scenario: || 7,
        fields: |m| m.to_string(),
        holds: |m| *m == 7,
    };
    const FAILS: Claim<u32> = Claim {
        holds: |m| *m == 8,
        ..HOLDS
    };

    #[test]
    fn a_failing_claim_fails_the_run() {
        assert!(run(&[&HOLDS, &HOLDS]));
        assert!(!run(&[&HOLDS, &FAILS]));
        assert!(!run(&[&FAILS]));
        let verdict = FAILS.check();
        assert!(!verdict.holds);
        assert_eq!(
            REPORT.cells(&verdict),
            ["t", "-", "the measurement is 7", "7", "FAIL"]
        );
    }

    /// `b1`'s measurement at seed `0xB302`.
    const TAKEOVER: Takeover = Takeover {
        before: 236,
        after: 394,
        key_after: 56,
        promoted: 3,
        continuity: true,
    };

    #[test]
    fn the_takeover_claim_needs_promotion_key_grants_and_continuity() {
        const HELD: Claim<Takeover> = Claim {
            scenario: || TAKEOVER,
            ..B1
        };
        const NOT_PROMOTED: Claim<Takeover> = Claim {
            scenario: || Takeover {
                promoted: 0,
                ..TAKEOVER
            },
            ..B1
        };
        const KEY_UNGRANTED: Claim<Takeover> = Claim {
            scenario: || Takeover {
                key_after: 0,
                ..TAKEOVER
            },
            ..B1
        };
        const DISCONTINUOUS: Claim<Takeover> = Claim {
            scenario: || Takeover {
                continuity: false,
                ..TAKEOVER
            },
            ..B1
        };
        assert_eq!(
            REPORT.cells(&HELD.check())[3..],
            [
                "236 grants before the crash, 394 after (56 for the crashed master's key), \
                 3 promoted; continuity yes",
                "PASS"
            ]
        );
        for broken in [NOT_PROMOTED, KEY_UNGRANTED, DISCONTINUOUS] {
            assert!(!run(&[&HELD, &broken]));
        }
    }

    #[test]
    fn the_join_claim_reports_the_same_bytes_twice() {
        let first = REPORT.cells(&S4.check());
        assert_eq!(first.last().map(String::as_str), Some("PASS"), "{first:?}");
        assert_eq!(first, REPORT.cells(&S4.check()));
    }
}
