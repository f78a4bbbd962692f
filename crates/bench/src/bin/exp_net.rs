//! **Network runtime harness — sustained open-loop load over real
//! sockets.**
//!
//! Drives the socket transport — the non-blocking event-loop runtime
//! (`wire::RtHub`, one write syscall per *batch*) — through the batch
//! [`Transport`] API with a fixed frame mix and reports:
//!
//! 1. **Rated phases** (open loop): arrivals follow a fixed schedule that
//!    does *not* wait for the system — exactly how offered load behaves
//!    in production. Per phase we report achieved msgs/s, **send** p50/p99
//!    (arrival → accepted by the transport, i.e. queueing + backpressure
//!    stalls) and **recv** p50/p99 (arrival → decoded at the receiver,
//!    the end-to-end number), plus an SLO verdict (achieved ≥ 75% of
//!    offered, recv p99 ≤ 100 ms).
//! 2. **Saturation**: senders are kept permanently backlogged and we
//!    measure the drain rate — the throughput ceiling.
//!
//! CI gates on the runtime meeting the rated-phase SLOs and sustaining a
//! saturation throughput of at least [`SATURATION_FLOOR`] msgs/s.
//!
//! Results are merged into `BENCH_hotpath.json` under the `net` key
//! (excluded from the determinism drift gate — it is wall-clock data).
//!
//! Run: `cargo run -p ltr_bench --release --bin exp_net`
//! Flags: `--quick` (short phases, CI smoke), `--out PATH` (default
//! `BENCH_hotpath.json`).

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ltr_bench::{ok, print_table};
use simnet::NodeId;
use wire::{
    decode_frame_bytes, encode_frame, Decode, Encode, Reader, RtHub, RuntimeConfig, Transport,
    TransportError, WireError,
};

/// Payload sizes cycled through the offered stream (small control
/// message / typical stamped edit / large patch).
const FRAME_MIX: [usize; 3] = [64, 256, 1024];
const PEERS: usize = 4;
/// Frames handed to `send_batch` per call.
const SEND_BATCH: usize = 64;
const RECV_BATCH: usize = 256;
/// The saturation gate, msgs/s: twice the 375 961 msgs/s the threaded
/// one-write-per-frame TCP transport last committed, which the runtime
/// replaced.
const SATURATION_FLOOR: f64 = 750_000.0;

/// The benchmark message: arrival timestamp (nanos since run start) and
/// sequence number up front, padding to the mixed size behind.
struct NetMsg {
    arrival_nanos: u64,
    seq: u64,
    pad: Bytes,
}

impl Encode for NetMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.arrival_nanos.encode(out);
        self.seq.encode(out);
        self.pad.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.arrival_nanos.encoded_len() + self.seq.encoded_len() + self.pad.encoded_len()
    }
}

impl Decode for NetMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NetMsg {
            arrival_nanos: u64::decode(r)?,
            seq: u64::decode(r)?,
            pad: Bytes::decode(r)?,
        })
    }
}

struct Endpoint {
    me: NodeId,
    dest: NodeId,
    transport: Box<dyn Transport>,
    /// Open-loop arrivals waiting for the transport: (arrival, frame).
    outq: VecDeque<(Instant, Bytes)>,
    scratch: Vec<Bytes>,
}

/// One measurement window's latency samples and counters.
#[derive(Default)]
struct Window {
    send_us: Vec<u64>,
    recv_us: Vec<u64>,
    delivered: u64,
    backpressure_stalls: u64,
}

struct PhaseRow {
    offered_rate: u64,
    secs: f64,
    achieved_rate: f64,
    send_p50_us: u64,
    send_p99_us: u64,
    recv_p50_us: u64,
    recv_p99_us: u64,
    stalls: u64,
    slo_ok: bool,
}

struct TransportRun {
    name: &'static str,
    phases: Vec<PhaseRow>,
    saturation_msgs_per_sec: f64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}

/// Pump one endpoint: flush its backlog in batches, drain its inbound
/// frames, record latencies against `start`.
fn pump(ep: &mut Endpoint, start: Instant, win: &mut Window) {
    ep.transport.poll(Duration::ZERO);
    while !ep.outq.is_empty() {
        let batch: Vec<Bytes> = ep
            .outq
            .iter()
            .take(SEND_BATCH)
            .map(|(_, f)| f.clone())
            .collect();
        match ep.transport.send_batch(ep.dest, &batch) {
            Ok(n) => {
                let now = Instant::now();
                for (arrival, _) in ep.outq.drain(..n) {
                    win.send_us
                        .push(now.duration_since(arrival).as_micros() as u64);
                }
                if n < batch.len() {
                    win.backpressure_stalls += 1;
                    break;
                }
            }
            Err(TransportError::Backpressure) => {
                win.backpressure_stalls += 1;
                break;
            }
            Err(e) => panic!("transport failed under load: {e}"),
        }
    }
    loop {
        ep.scratch.clear();
        let n = ep.transport.recv_batch(&mut ep.scratch, RECV_BATCH);
        let now_nanos = start.elapsed().as_nanos() as u64;
        for frame in ep.scratch.drain(..) {
            let (_, msg) = decode_frame_bytes::<NetMsg>(&frame).expect("benchmark frame decodes");
            win.recv_us
                .push(now_nanos.saturating_sub(msg.arrival_nanos) / 1_000);
            win.delivered += 1;
        }
        if n < RECV_BATCH {
            break;
        }
    }
}

fn make_frame(me: NodeId, start: Instant, seq: u64) -> Bytes {
    let msg = NetMsg {
        arrival_nanos: start.elapsed().as_nanos() as u64,
        seq,
        pad: Bytes::from(vec![0xA5u8; FRAME_MIX[seq as usize % FRAME_MIX.len()]]),
    };
    Bytes::from(encode_frame(me, &msg))
}

/// One rated open-loop phase: arrivals at `rate` msgs/s (round-robin
/// across senders) for `secs`, then drain.
fn run_phase(eps: &mut [Endpoint], start: Instant, rate: u64, secs: f64) -> PhaseRow {
    let mut win = Window::default();
    let phase_start = Instant::now();
    let phase_len = Duration::from_secs_f64(secs);
    let interval_nanos = 1_000_000_000f64 / rate as f64;
    let mut offered = 0u64;
    while phase_start.elapsed() < phase_len {
        // Open loop: everything scheduled up to now arrives *now*,
        // whether or not the transport kept up.
        let due = (phase_start.elapsed().as_nanos() as f64 / interval_nanos) as u64;
        while offered < due {
            let sender = (offered as usize) % eps.len();
            let frame = make_frame(eps[sender].me, start, offered);
            eps[sender].outq.push_back((Instant::now(), frame));
            offered += 1;
        }
        for ep in eps.iter_mut() {
            pump(ep, start, &mut win);
        }
    }
    // Drain the tail so phases do not contaminate each other.
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    while win.delivered < offered && Instant::now() < drain_deadline {
        for ep in eps.iter_mut() {
            pump(ep, start, &mut win);
        }
    }
    let elapsed = phase_start.elapsed().as_secs_f64();
    win.send_us.sort_unstable();
    win.recv_us.sort_unstable();
    let achieved_rate = win.delivered as f64 / elapsed;
    let recv_p99 = percentile(&win.recv_us, 99.0);
    PhaseRow {
        offered_rate: rate,
        secs: elapsed,
        achieved_rate,
        send_p50_us: percentile(&win.send_us, 50.0),
        send_p99_us: percentile(&win.send_us, 99.0),
        recv_p50_us: percentile(&win.recv_us, 50.0),
        recv_p99_us: recv_p99,
        stalls: win.backpressure_stalls,
        slo_ok: achieved_rate >= 0.75 * rate as f64 && recv_p99 <= 100_000,
    }
}

/// Saturation: keep every sender backlogged for `secs`, report the drain
/// rate.
fn run_saturation(eps: &mut [Endpoint], start: Instant, secs: f64) -> f64 {
    let mut win = Window::default();
    let sat_start = Instant::now();
    let sat_len = Duration::from_secs_f64(secs);
    let mut seq = 0u64;
    while sat_start.elapsed() < sat_len {
        for ep in eps.iter_mut() {
            while ep.outq.len() < 4 * SEND_BATCH {
                let frame = make_frame(ep.me, start, seq);
                ep.outq.push_back((Instant::now(), frame));
                seq += 1;
            }
            pump(ep, start, &mut win);
        }
    }
    let measured = win.delivered;
    let elapsed = sat_start.elapsed().as_secs_f64();
    // Drain leftovers outside the measurement window so the next run
    // starts clean.
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    while eps.iter().any(|e| !e.outq.is_empty()) && Instant::now() < drain_deadline {
        for ep in eps.iter_mut() {
            pump(ep, start, &mut win);
        }
    }
    measured as f64 / elapsed
}

fn run_transport(
    name: &'static str,
    mut make: impl FnMut(NodeId) -> Box<dyn Transport>,
    rates: &[(u64, f64)],
    sat_secs: f64,
) -> TransportRun {
    let mut eps: Vec<Endpoint> = (0..PEERS)
        .map(|i| Endpoint {
            me: NodeId(i as u32),
            dest: NodeId(((i + 1) % PEERS) as u32),
            transport: make(NodeId(i as u32)),
            outq: VecDeque::new(),
            scratch: Vec::new(),
        })
        .collect();
    let start = Instant::now();
    // Warm the connections (first dial, TCP slow start) off the record.
    let _ = run_phase(&mut eps, start, 2_000, 0.2);
    let phases: Vec<PhaseRow> = rates
        .iter()
        .map(|&(rate, secs)| run_phase(&mut eps, start, rate, secs))
        .collect();
    let saturation_msgs_per_sec = run_saturation(&mut eps, start, sat_secs);
    TransportRun {
        name,
        phases,
        saturation_msgs_per_sec,
    }
}

fn render_net_json(runs: &[TransportRun], slo_ok: bool) -> String {
    let mut out = String::new();
    out.push_str("  \"net\": {\n");
    let _ = writeln!(
        out,
        "    \"peers\": {PEERS},\n    \"frame_mix_bytes\": [{}],",
        FRAME_MIX.map(|s| s.to_string()).join(", ")
    );
    out.push_str("    \"transports\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"transport\": \"{}\", \"saturation_msgs_per_sec\": {:.0}, \"phases\": [",
            run.name, run.saturation_msgs_per_sec
        );
        for (j, p) in run.phases.iter().enumerate() {
            let pcomma = if j + 1 < run.phases.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "        {{\"offered_rate\": {}, \"secs\": {:.2}, \"achieved_rate\": {:.0}, \
                 \"send_p50_us\": {}, \"send_p99_us\": {}, \"recv_p50_us\": {}, \
                 \"recv_p99_us\": {}, \"backpressure_stalls\": {}, \"slo_ok\": {}}}{}",
                p.offered_rate,
                p.secs,
                p.achieved_rate,
                p.send_p50_us,
                p.send_p99_us,
                p.recv_p50_us,
                p.recv_p99_us,
                p.stalls,
                p.slo_ok,
                pcomma,
            );
        }
        let _ = writeln!(out, "      ]}}{comma}");
    }
    out.push_str("    ],\n");
    let _ = writeln!(out, "    \"slo_ok\": {slo_ok}");
    out.push_str("  }\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = PathBuf::from(
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .unwrap_or("BENCH_hotpath.json"),
    );
    let (rates, sat_secs): (Vec<(u64, f64)>, f64) = if quick {
        (vec![(20_000, 0.8)], 1.5)
    } else {
        (vec![(20_000, 2.0), (50_000, 2.0)], 3.0)
    };

    let rt_hub = RtHub::with_config(RuntimeConfig::new());
    let rt = run_transport(
        "runtime",
        |me| Box::new(rt_hub.endpoint(me).expect("bind runtime listener")),
        &rates,
        sat_secs,
    );
    print_table(
        &format!(
            "{}: open-loop phases ({} peers, frame mix {:?}B)",
            rt.name, PEERS, FRAME_MIX
        ),
        &[
            "offered/s",
            "achieved/s",
            "send p50 us",
            "send p99 us",
            "recv p50 us",
            "recv p99 us",
            "stalls",
            "SLO",
        ],
        &rt.phases
            .iter()
            .map(|p| {
                vec![
                    p.offered_rate.to_string(),
                    format!("{:.0}", p.achieved_rate),
                    p.send_p50_us.to_string(),
                    p.send_p99_us.to_string(),
                    p.recv_p50_us.to_string(),
                    p.recv_p99_us.to_string(),
                    p.stalls.to_string(),
                    ok(p.slo_ok),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let saturated = rt.saturation_msgs_per_sec >= SATURATION_FLOOR;
    let slo_ok = rt.phases.iter().all(|p| p.slo_ok);
    println!(
        "\nruntime saturation {:.0} msgs/s (gate: >= {SATURATION_FLOOR:.0}): {}; runtime SLO: {}",
        rt.saturation_msgs_per_sec,
        ok(saturated),
        ok(slo_ok)
    );

    let net = render_net_json(&[rt], slo_ok);
    ltr_bench::merge_bench_section(&out_path, "net", &net);
    println!("merged net metrics into {}", out_path.display());

    if !saturated || !slo_ok {
        eprintln!("WARNING: network runtime gate failed (saturated {saturated}, slo {slo_ok})");
        std::process::exit(1);
    }
}
