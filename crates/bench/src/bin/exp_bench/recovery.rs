//! **Recovery — crash-restart cost over the durable store** (`recovery`).
//!
//! 1. **Sweep** — synthetic journals of realistic entries (encoded
//!    `LogRecord` puts + KTS table updates) are written through the file
//!    backend at several sizes × checkpoint intervals; for each we time
//!    the three recovery phases separately: `open_ms` (segment replay +
//!    CRC + Merkle verification), `rebuild_ms` (journal → final tables),
//!    and report replayed entries/sec. This is the figure that answers
//!    "how long is a master-key peer down after a crash, as a function of
//!    its log size and checkpoint cadence?". `--quick` runs a smaller
//!    sweep.
//! 2. **End-to-end** — a 10-peer simulated network where every peer
//!    journals to an in-memory store; the document's master crashes after
//!    four grants and restarts from its own journal. The run must pass
//!    the standard invariant footer (continuity / total order /
//!    convergence) — a recovery number from a broken run is worthless.

use std::time::Instant;

use bytes::Bytes;
use ltr_bench::per_sec;
use ltr_bench::table::{Col, Json, Section, Table};
use p2p_ltr::harness::LtrNet;
use p2p_ltr::LtrConfig;
use simnet::{Duration, NetConfig, Rng64};
use store::{FileStore, RecoveredState, Store, StoreConfig, StoreEntry};

struct SweepPoint {
    entries: u64,
    checkpoint_every: u64,
    bytes: u64,
    segments: u64,
    write_ms: f64,
    open_ms: f64,
    rebuild_ms: f64,
    verified: bool,
}

/// The end-to-end run's ring size, and the grants before its crash.
const E2E_PEERS: usize = 10;
const GRANTS_BEFORE: u64 = 4;

struct E2e {
    grants_total: u64,
    restart_entries: u64,
    recover_ms: f64,
    continuity: bool,
    converged: bool,
}

/// A realistic journal: every "grant" contributes one stored log record
/// (`h1..h3` placement means a peer holds ~the record once) plus a KTS
/// table update; a document opens every ~2k entries.
fn synth_entries(n: u64, seed: u64) -> Vec<StoreEntry> {
    let mut rng = Rng64::new(seed);
    let mut out = Vec::with_capacity(n as usize);
    let mut ts = 0u64;
    for i in 0..n {
        let doc = format!("bench/doc-{}", i / 2048);
        if i % 2048 == 0 {
            out.push(StoreEntry::DocOpen {
                doc: chord::DocName::new(&doc),
                initial: "seed text for the benchmark document".into(),
            });
            continue;
        }
        ts += 1;
        if i % 2 == 0 {
            let patch: Vec<u8> = (0..120 + rng.gen_below(80))
                .map(|_| rng.gen_below(256) as u8)
                .collect();
            let rec =
                p2plog::LogRecord::new(doc.as_str(), ts, 1 + rng.gen_below(8), Bytes::from(patch));
            out.push(StoreEntry::PutPrimary {
                key: p2plog::log_locations(3, &chord::DocName::new(&doc), ts)[0],
                value: rec.encode(),
            });
        } else {
            out.push(StoreEntry::KtsAuth {
                entry: kts::HandoffEntry {
                    key: p2plog::ht(&doc),
                    key_name: chord::DocName::new(&doc),
                    last_ts: ts,
                    epoch: 1,
                },
            });
        }
    }
    out
}

fn run_sweep_point(entries: u64, checkpoint_every: u64, seed: u64) -> SweepPoint {
    let dir = std::env::temp_dir().join(format!(
        "p2pltr-exprec-{}-{entries}-{checkpoint_every}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        segment_max_bytes: 256 * 1024,
        checkpoint_every,
    };
    let journal = synth_entries(entries, seed);

    let t = Instant::now();
    let (mut s, _) = FileStore::open(&dir, cfg).expect("create store");
    for e in &journal {
        s.append(e).expect("append");
    }
    s.checkpoint().expect("final checkpoint");
    drop(s);
    let write_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let (s2, replay) = FileStore::open(&dir, cfg).expect("recovery open");
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(replay.stats.entries, entries, "all entries replayed");

    let t = Instant::now();
    let state = RecoveredState::rebuild(&replay.entries);
    let rebuild_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(state.item_count() > 0);

    let point = SweepPoint {
        entries,
        checkpoint_every,
        bytes: replay.stats.bytes,
        segments: replay.stats.segments,
        write_ms,
        open_ms,
        rebuild_ms,
        verified: replay.stats.verified_entries == Some(entries),
    };
    drop(s2);
    let _ = std::fs::remove_dir_all(&dir);
    point
}

fn run_e2e(seed: u64) -> E2e {
    const DOC: &str = "wiki/Main";
    let mut net = LtrNet::build_with_stores(
        seed,
        NetConfig::lan(),
        E2E_PEERS,
        LtrConfig::default(),
        Duration::from_millis(150),
        |_| Box::new(store::MemStore::new()),
    );
    net.settle(23);
    let peers = net.peers.clone();
    net.open_doc(&peers, DOC, "base");
    net.settle(1);
    for i in 0..GRANTS_BEFORE {
        let editor = peers[i as usize];
        let cur = net.node(editor).doc_text(DOC).unwrap();
        net.edit(editor, DOC, &format!("{cur}\nedit-{i}"));
        assert!(net.run_until_quiet(&[DOC], 60));
        net.settle(2);
    }
    let master = net.master_of(DOC);
    net.crash(master);
    net.settle(6);
    let t = Instant::now();
    let report = net.restart_from_store(master).expect("journal replays");
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    net.settle(20);
    let editor = peers
        .iter()
        .copied()
        .find(|p| p.addr != master.addr)
        .unwrap();
    let cur = net.node(editor).doc_text(DOC).unwrap();
    net.edit(editor, DOC, &format!("{cur}\nafter-restart"));
    net.run_until_quiet(&[DOC], 120);
    net.settle(15);
    net.run_until_quiet(&[DOC], 60);
    let cont = p2p_ltr::check_continuity(&net.sim);
    let conv = p2p_ltr::check_convergence(&net.sim);
    E2e {
        grants_total: cont.last_ts(DOC),
        restart_entries: report.entries,
        recover_ms,
        continuity: cont.is_clean() && cont.last_ts(DOC) == GRANTS_BEFORE + 1,
        converged: conv.is_converged(),
    }
}

const SWEEP: Table<SweepPoint> = Table {
    title: "recovery sweep: replay+verify cost vs journal size and checkpoint interval",
    cols: &[
        Col::Int("entries", |p| p.entries),
        Col::Int("checkpoint_every", |p| p.checkpoint_every),
        Col::Int("bytes", |p| p.bytes),
        Col::Int("segments", |p| p.segments),
        Col::Fixed("write_ms", 2, |p| p.write_ms),
        Col::Fixed("open_ms", 2, |p| p.open_ms),
        Col::Fixed("rebuild_ms", 2, |p| p.rebuild_ms),
        Col::Fixed("replay_entries_per_sec", 0, |p| {
            per_sec(p.entries, p.open_ms)
        }),
        Col::Check("verified", |p| p.verified),
    ],
};

const E2E: Table<E2e> = Table {
    title: "recovery e2e: the master crashes after four grants and restarts from its journal",
    cols: &[
        Col::Int("peers", |_| E2E_PEERS as u64),
        Col::Int("grants_before_crash", |_| GRANTS_BEFORE),
        Col::Int("grants_total", |e| e.grants_total),
        Col::Int("restart_entries", |e| e.restart_entries),
        Col::Fixed("recover_ms", 2, |e| e.recover_ms),
        Col::Check("continuity", |e| e.continuity),
        Col::Check("converged", |e| e.converged),
    ],
};

/// The `recovery` key.
pub fn section(quick: bool) -> Section {
    let matrix: &[(u64, u64)] = if quick {
        &[(500, 64), (2_000, 64)]
    } else {
        &[
            (1_000, 16),
            (1_000, 256),
            (4_000, 16),
            (4_000, 256),
            (16_000, 16),
            (16_000, 256),
        ]
    };
    let sweep: Vec<SweepPoint> = (0x2EC0..)
        .zip(matrix)
        .map(|(seed, &(entries, every))| run_sweep_point(entries, every, seed))
        .collect();
    let e2e = run_e2e(0xE2E);
    let recovery = Json::obj([("sweep", SWEEP.json(&sweep)), ("e2e", E2E.json_row(&e2e))]);
    Section {
        keys: vec![("recovery", recovery)],
        text: SWEEP.text(&sweep) + &E2E.text(std::slice::from_ref(&e2e)),
        markdown: String::new(),
        holds: SWEEP.holds(&sweep) && E2E.holds(std::slice::from_ref(&e2e)),
    }
}
