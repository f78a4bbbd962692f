//! **Perf harness — the hot-path throughput trajectory.**
//!
//! Runs a fixed scenario matrix (ring size × replication degree ×
//! workload), measures the *wall-clock* cost of simulating each scenario,
//! and writes `BENCH_hotpath.json`. Simulated behaviour is deterministic
//! (fixed seeds), so two runs differ only in wall-clock speed — which is
//! exactly what this harness tracks: every future PR has a committed
//! baseline to beat, and a regression in the simulator/protocol hot paths
//! (event loop, key derivation, message handling) shows up as a drop in
//! `events_per_sec` / `ops_per_sec`.
//!
//! Run: `cargo run -p ltr_bench --release --bin exp_perf`
//! Flags: `--quick` (one small scenario, CI smoke), `--out PATH`
//! (default `BENCH_hotpath.json` in the current directory).
//!
//! JSON fields per scenario: `ops` (validated publishes) and `ops_per_sec`,
//! `msgs`/`msgs_per_sec` (simnet messages sent), `events`/`events_per_sec`
//! (simulator events executed), `stamp_p50_ms`/`stamp_p99_ms` (end-to-end
//! save→ack latency in **simulated** milliseconds), `wall_ms`,
//! `wire_bytes` (total bytes-on-wire through the real binary codec, frame
//! overhead included) with a `wire_bytes_per_class` breakdown, and the
//! correctness oracles (`continuity`, `converged`) — a perf number from a
//! broken run is worthless.
//!
//! `scripts/check_bench.py` holds each `*_n3_collab` row's replication
//! bytes (`chord.replicate` plus `chord.sync.*`) under a fixed budget: half
//! of what the retired full-push replica sync spent on the same workload.
//!
//! Every scenario runs with wire accounting on (purely observational);
//! the `*_bw*` scenario additionally sets `NetConfig::bandwidth`, so the
//! simulator charges per-message serialization delay from the actual
//! encoded sizes — the bandwidth-constrained workload the sim could not
//! previously express.

use std::fmt::Write as _;
use std::time::Instant;

use ltr_bench::settled_net_with;
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
    name: String,
    peers: usize,
    replication: usize,
    workload: &'static str,
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

fn scenario_matrix(quick: bool) -> Vec<Scenario> {
    if quick {
        return vec![Scenario {
            name: "quick_ring8_n3_collab",
            peers: 8,
            replication: 3,
            workload: "collab",
            editors: 3,
            docs: 4,
            drive_secs: 8,
            bandwidth: None,
            seed: 0xBEAC_0000,
        }];
    }
    vec![
        Scenario {
            name: "ring16_n1_collab",
            peers: 16,
            replication: 1,
            workload: "collab",
            editors: 4,
            docs: 8,
            drive_secs: 20,
            bandwidth: None,
            seed: 0xBEAC_0000,
        },
        Scenario {
            name: "ring16_n3_collab",
            peers: 16,
            replication: 3,
            workload: "collab",
            editors: 4,
            docs: 8,
            drive_secs: 20,
            bandwidth: None,
            seed: 0xBEAC_0001,
        },
        Scenario {
            name: "ring48_n3_collab",
            peers: 48,
            replication: 3,
            workload: "collab",
            editors: 8,
            docs: 16,
            drive_secs: 20,
            bandwidth: None,
            seed: 0xBEAC_0002,
        },
        Scenario {
            name: "ring16_n3_syncheavy",
            peers: 16,
            replication: 3,
            workload: "syncheavy",
            editors: 2,
            docs: 8,
            drive_secs: 20,
            bandwidth: None,
            seed: 0xBEAC_0003,
        },
        // Bandwidth-constrained: 256 kB/s per link, so every message pays
        // its encoded size as serialization delay (a ~300-byte frame costs
        // ~1.2 ms per hop on top of the LAN latency).
        Scenario {
            name: "ring16_n3_collab_bw256k",
            peers: 16,
            replication: 3,
            workload: "collab",
            editors: 4,
            docs: 8,
            drive_secs: 20,
            bandwidth: Some(256 * 1024),
            seed: 0xBEAC_0004,
        },
    ]
}

fn run_scenario(sc: &Scenario) -> Outcome {
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
        name: sc.name.to_string(),
        peers: sc.peers,
        replication: sc.replication,
        workload: sc.workload,
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

fn per_sec(count: u64, wall_ms: f64) -> f64 {
    if wall_ms <= 0.0 {
        0.0
    } else {
        count as f64 / (wall_ms / 1e3)
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render_json(quick: bool, outcomes: &[Outcome]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"p2p-ltr/bench-hotpath/v1\",\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"scenarios\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        let comma = if i + 1 < outcomes.len() { "," } else { "" };
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"peers\": {}, \"replication\": {}, \
             \"workload\": \"{}\", \
             \"sim_secs\": {:.3}, \"wall_ms\": {:.1}, \
             \"ops\": {}, \"ops_per_sec\": {:.1}, \
             \"msgs\": {}, \"msgs_per_sec\": {:.1}, \
             \"events\": {}, \"events_per_sec\": {:.1}, \
             \"stamp_p50_ms\": {:.3}, \"stamp_p99_ms\": {:.3}, \
             \"wire_bytes\": {}, \"wire_bytes_per_class\": {{{}}}, \
             \"continuity\": {}, \"converged\": {}}}{}\n",
            json_escape(&o.name),
            o.peers,
            o.replication,
            o.workload,
            o.sim_secs,
            o.wall_ms,
            o.ops,
            per_sec(o.ops, o.wall_ms),
            o.msgs,
            per_sec(o.msgs, o.wall_ms),
            o.events,
            per_sec(o.events, o.wall_ms),
            o.stamp_p50_ms,
            o.stamp_p99_ms,
            o.wire_bytes,
            o.wire_classes
                .iter()
                .map(|(c, b)| format!("\"{}\": {}", json_escape(c), b))
                .collect::<Vec<_>>()
                .join(", "),
            o.continuity,
            o.converged,
            comma,
        );
    }
    out.push_str("  ],\n");
    let wall: f64 = outcomes.iter().map(|o| o.wall_ms).sum();
    let events: u64 = outcomes.iter().map(|o| o.events).sum();
    let msgs: u64 = outcomes.iter().map(|o| o.msgs).sum();
    let ops: u64 = outcomes.iter().map(|o| o.ops).sum();
    let wire_bytes: u64 = outcomes.iter().map(|o| o.wire_bytes).sum();
    let _ = write!(
        out,
        "  \"totals\": {{\"wall_ms\": {:.1}, \"ops\": {}, \"ops_per_sec\": {:.1}, \
         \"msgs\": {}, \"msgs_per_sec\": {:.1}, \"events\": {}, \"events_per_sec\": {:.1}, \
         \"wire_bytes\": {}}}\n",
        wall,
        ops,
        per_sec(ops, wall),
        msgs,
        per_sec(msgs, wall),
        events,
        per_sec(events, wall),
        wire_bytes,
    );
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_hotpath.json")
        .to_string();

    let scenarios = scenario_matrix(quick);
    let mut outcomes = Vec::with_capacity(scenarios.len());
    for sc in &scenarios {
        let o = run_scenario(sc);
        ltr_bench::emit(&format!(
            "{:<30} wall {:>8.1} ms | {:>7.0} events/s | {:>6.0} msgs/s | {:>5.0} ops/s | \
             stamp p50/p99 {:.1}/{:.1} ms | {:>6.2} MB wire | continuity={} converged={}",
            o.name,
            o.wall_ms,
            per_sec(o.events, o.wall_ms),
            per_sec(o.msgs, o.wall_ms),
            per_sec(o.ops, o.wall_ms),
            o.stamp_p50_ms,
            o.stamp_p99_ms,
            o.wire_bytes as f64 / 1e6,
            o.continuity,
            o.converged,
        ));
        outcomes.push(o);
    }

    let json = render_json(quick, &outcomes);
    std::fs::write(&out_path, &json).expect("write BENCH json");
    ltr_bench::emit(&format!("\nwrote {out_path}"));
    if outcomes.iter().any(|o| !o.continuity || !o.converged) {
        eprintln!("WARNING: an invariant failed — perf numbers are not trustworthy");
        std::process::exit(1);
    }
}
