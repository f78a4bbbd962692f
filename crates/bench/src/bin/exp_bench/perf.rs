//! **Perf — the hot-path throughput trajectory** (`scenarios` and
//! `totals`).
//!
//! Runs a fixed scenario matrix (ring size × replication degree ×
//! workload) and measures the *wall-clock* cost of simulating each
//! scenario. Simulated behaviour is deterministic (fixed seeds), so two
//! runs differ only in wall-clock speed — which is exactly what this
//! section tracks: a regression in the simulator/protocol hot paths
//! (event loop, key derivation, message handling) shows up as a drop in
//! `events_per_sec` / `ops_per_sec`. The correctness oracles are check
//! columns: a perf number from a broken run is worthless. `--quick` runs
//! one small scenario. EXPERIMENTS.md, "`BENCH_hotpath.json` schema",
//! defines every field.
//!
//! Every scenario runs with wire accounting on (purely observational);
//! the `*_bw*` scenario additionally sets `NetConfig::bandwidth`, so the
//! simulator charges per-message serialization delay from the actual
//! encoded sizes.

use std::time::Instant;

use ltr_bench::table::{Col, Section, Table};
use ltr_bench::{per_sec, settled_net_with};
use p2p_ltr::{check_continuity, check_convergence, LtrConfig};
use simnet::{Duration, NetConfig};
use workload::{drive_editors, EditMix, EditorSpec};

struct Scenario {
    name: &'static str,
    peers: usize,
    replication: usize,
    /// "collab" (think-time editors) or "syncheavy" (anti-entropy dominated).
    workload: &'static str,
    editors: usize,
    docs: usize,
    /// Editor workload horizon, simulated seconds.
    drive_secs: u64,
    /// Per-link bandwidth in bytes/sec (None = unlimited, the default).
    bandwidth: Option<u64>,
    /// Explicit per-row seed, so a row's workload never depends on its
    /// position in the matrix.
    seed: u64,
}

struct Outcome {
    sc: &'static Scenario,
    sim_secs: f64,
    wall_ms: f64,
    ops: u64,
    msgs: u64,
    events: u64,
    stamp_p50_ms: f64,
    stamp_p99_ms: f64,
    wire_bytes: u64,
    /// `(class, bytes)` in descending byte order.
    wire_classes: Vec<(String, u64)>,
    continuity: bool,
    converged: bool,
}

/// The full matrix's common row: a 16-peer ring, n = 3, four editors
/// over eight documents for 20 s.
const RING16: Scenario = Scenario {
    name: "",
    peers: 16,
    replication: 3,
    workload: "collab",
    editors: 4,
    docs: 8,
    drive_secs: 20,
    bandwidth: None,
    seed: 0xBEAC_0000,
};

const QUICK: &[Scenario] = &[Scenario {
    name: "quick_ring8_n3_collab",
    peers: 8,
    editors: 3,
    docs: 4,
    drive_secs: 8,
    ..RING16
}];

const FULL: &[Scenario] = &[
    Scenario {
        name: "ring16_n1_collab",
        replication: 1,
        ..RING16
    },
    Scenario {
        name: "ring16_n3_collab",
        seed: 0xBEAC_0001,
        ..RING16
    },
    Scenario {
        name: "ring48_n3_collab",
        peers: 48,
        editors: 8,
        docs: 16,
        seed: 0xBEAC_0002,
        ..RING16
    },
    Scenario {
        name: "ring16_n3_syncheavy",
        workload: "syncheavy",
        editors: 2,
        seed: 0xBEAC_0003,
        ..RING16
    },
    // Bandwidth-constrained: 256 kB/s per link, so every message pays
    // its encoded size as serialization delay (a ~300-byte frame costs
    // ~1.2 ms per hop on top of the LAN latency).
    Scenario {
        name: "ring16_n3_collab_bw256k",
        bandwidth: Some(256 * 1024),
        seed: 0xBEAC_0004,
        ..RING16
    },
];

fn run_scenario(sc: &'static Scenario) -> Outcome {
    let seed = sc.seed;
    let mut cfg = LtrConfig::default();
    cfg.log.replication = sc.replication;
    if sc.workload == "syncheavy" {
        // Aggressive anti-entropy: every open replica probes its master 5×
        // per second, so the run is dominated by LastTs traffic + lookups.
        cfg.sync_every = Some(Duration::from_millis(200));
    }

    let wall = Instant::now();
    let mut lan = NetConfig::lan();
    lan.bandwidth = sc.bandwidth;
    let mut net = settled_net_with(seed, lan, sc.peers, cfg, |net| net.enable_wire_accounting());
    let t0 = net.now();
    let peers = net.peers.clone();
    let docs: Vec<String> = (0..sc.docs).map(|d| format!("perf/doc-{d}")).collect();
    for d in &docs {
        net.open_doc(&peers[..sc.editors.max(2)], d, "seed");
    }
    net.settle(2);
    let horizon = net.now() + Duration::from_secs(sc.drive_secs);
    drive_editors(
        &mut net.sim,
        &peers[..sc.editors],
        &EditorSpec {
            docs: docs.clone(),
            zipf_skew: 0.8,
            mean_think: Duration::from_millis(400),
            mix: EditMix::default(),
            horizon,
        },
        seed ^ 0xED17,
    );
    net.settle(sc.drive_secs + 5);
    let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
    net.run_until_quiet(&doc_refs, 60);
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    let m = net.sim.metrics();
    let stamp = m.summary("ltr.publish_latency_ms");
    let mut wire_classes: Vec<(String, u64)> = m
        .counters()
        .filter_map(|(k, v)| {
            k.strip_prefix("wire.bytes.")
                .filter(|c| *c != "total")
                .map(|c| (c.to_string(), v))
        })
        .collect();
    wire_classes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let cont = check_continuity(&net.sim);
    let conv = check_convergence(&net.sim);
    Outcome {
        sc,
        sim_secs: net.now().since(t0).as_millis_f64() / 1e3,
        wall_ms,
        ops: m.counter("ltr.publish_ok"),
        msgs: m.counter("sim.msgs_sent"),
        events: net.sim.events_processed(),
        stamp_p50_ms: stamp.p50,
        stamp_p99_ms: stamp.p99,
        wire_bytes: m.counter("wire.bytes.total"),
        wire_classes,
        continuity: cont.is_clean(),
        converged: conv.is_converged(),
    }
}

const SCENARIOS: Table<Outcome> = Table {
    title: "perf: wall-clock cost of the scenario matrix",
    cols: &[
        Col::Text("name", |o| o.sc.name),
        Col::Int("peers", |o| o.sc.peers as u64),
        Col::Int("replication", |o| o.sc.replication as u64),
        Col::Text("workload", |o| o.sc.workload),
        Col::Fixed("sim_secs", 3, |o| o.sim_secs),
        Col::Fixed("wall_ms", 1, |o| o.wall_ms),
        Col::Int("ops", |o| o.ops),
        Col::Fixed("ops_per_sec", 1, |o| per_sec(o.ops, o.wall_ms)),
        Col::Int("msgs", |o| o.msgs),
        Col::Fixed("msgs_per_sec", 1, |o| per_sec(o.msgs, o.wall_ms)),
        Col::Int("events", |o| o.events),
        Col::Fixed("events_per_sec", 1, |o| per_sec(o.events, o.wall_ms)),
        Col::Fixed("stamp_p50_ms", 3, |o| o.stamp_p50_ms),
        Col::Fixed("stamp_p99_ms", 3, |o| o.stamp_p99_ms),
        Col::Int("wire_bytes", |o| o.wire_bytes),
        Col::Map("wire_bytes_per_class", |o| &o.wire_classes),
        Col::Check("continuity", |o| o.continuity),
        Col::Check("converged", |o| o.converged),
    ],
};

/// The matrix summed: one row.
struct Totals {
    wall_ms: f64,
    ops: u64,
    msgs: u64,
    events: u64,
    wire_bytes: u64,
}

const TOTALS: Table<Totals> = Table {
    title: "perf: totals",
    cols: &[
        Col::Fixed("wall_ms", 1, |t| t.wall_ms),
        Col::Int("ops", |t| t.ops),
        Col::Fixed("ops_per_sec", 1, |t| per_sec(t.ops, t.wall_ms)),
        Col::Int("msgs", |t| t.msgs),
        Col::Fixed("msgs_per_sec", 1, |t| per_sec(t.msgs, t.wall_ms)),
        Col::Int("events", |t| t.events),
        Col::Fixed("events_per_sec", 1, |t| per_sec(t.events, t.wall_ms)),
        Col::Int("wire_bytes", |t| t.wire_bytes),
    ],
};

/// The `scenarios` and `totals` keys.
pub fn section(quick: bool) -> Section {
    let matrix = if quick { QUICK } else { FULL };
    let outcomes: Vec<Outcome> = matrix.iter().map(run_scenario).collect();
    let totals = Totals {
        wall_ms: outcomes.iter().map(|o| o.wall_ms).sum(),
        ops: outcomes.iter().map(|o| o.ops).sum(),
        msgs: outcomes.iter().map(|o| o.msgs).sum(),
        events: outcomes.iter().map(|o| o.events).sum(),
        wire_bytes: outcomes.iter().map(|o| o.wire_bytes).sum(),
    };
    Section {
        keys: vec![
            ("scenarios", SCENARIOS.json(&outcomes)),
            ("totals", TOTALS.json_row(&totals)),
        ],
        text: SCENARIOS.text(&outcomes) + &TOTALS.text(std::slice::from_ref(&totals)),
        markdown: String::new(),
        holds: SCENARIOS.holds(&outcomes),
    }
}
