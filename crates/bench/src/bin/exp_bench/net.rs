//! **Net — sustained open-loop load over real sockets** (`net`).
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
//! The section fails unless the runtime meets the rated-phase SLOs and
//! sustains a saturation throughput of at least [`SATURATION_FLOOR`]
//! msgs/s. It is wall-clock data, so the determinism drift gate skips
//! it. `--quick` runs short phases.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ltr_bench::table::{Col, Json, Section, Table};
use simnet::NodeId;
use wire::{decode_frame_bytes, encode_frame, RtHub, RuntimeConfig, Transport, TransportError};

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

wire::wire_struct! { NetMsg { arrival_nanos, seq, pad } }

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

/// A rated phase: its offered rate, how long it ran, and its window
/// with the latency samples sorted.
struct PhaseRow {
    offered_rate: u64,
    secs: f64,
    win: Window,
}

impl PhaseRow {
    fn achieved_rate(&self) -> f64 {
        self.win.delivered as f64 / self.secs
    }

    /// Achieved ≥ 75 % of offered, and recv p99 ≤ 100 ms.
    fn slo_ok(&self) -> bool {
        self.achieved_rate() >= 0.75 * self.offered_rate as f64
            && percentile(&self.win.recv_us, 99.0) <= 100_000
    }
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
    let secs = phase_start.elapsed().as_secs_f64();
    win.send_us.sort_unstable();
    win.recv_us.sort_unstable();
    PhaseRow {
        offered_rate: rate,
        secs,
        win,
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

const PHASES: Table<PhaseRow> = Table {
    title: "net: the runtime's open-loop phases",
    cols: &[
        Col::Int("offered_rate", |p| p.offered_rate),
        Col::Fixed("secs", 2, |p| p.secs),
        Col::Fixed("achieved_rate", 0, PhaseRow::achieved_rate),
        Col::Int("send_p50_us", |p| percentile(&p.win.send_us, 50.0)),
        Col::Int("send_p99_us", |p| percentile(&p.win.send_us, 99.0)),
        Col::Int("recv_p50_us", |p| percentile(&p.win.recv_us, 50.0)),
        Col::Int("recv_p99_us", |p| percentile(&p.win.recv_us, 99.0)),
        Col::Int("backpressure_stalls", |p| p.win.backpressure_stalls),
        Col::Check("slo_ok", PhaseRow::slo_ok),
    ],
};

/// The `net` key.
pub fn section(quick: bool) -> Section {
    let (rates, sat_secs): (&[(u64, f64)], f64) = if quick {
        (&[(20_000, 0.8)], 1.5)
    } else {
        (&[(20_000, 2.0), (50_000, 2.0)], 3.0)
    };
    let hub = RtHub::with_config(RuntimeConfig::new());
    let mut eps: Vec<Endpoint> = (0..PEERS)
        .map(|i| Endpoint {
            me: NodeId(i as u32),
            dest: NodeId(((i + 1) % PEERS) as u32),
            transport: Box::new(
                hub.endpoint(NodeId(i as u32))
                    .expect("bind runtime listener"),
            ),
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
    let saturation = run_saturation(&mut eps, start, sat_secs);
    let saturated = saturation >= SATURATION_FLOOR;
    let slo_ok = PHASES.holds(&phases);
    let transport = Json::obj([
        ("transport", Json::Str("runtime".into())),
        ("saturation_msgs_per_sec", Json::Fixed(saturation, 0)),
        ("phases", PHASES.json(&phases)),
    ]);
    let net = Json::obj([
        ("peers", Json::Int(PEERS as u64)),
        (
            "frame_mix_bytes",
            Json::List(FRAME_MIX.map(|b| Json::Int(b as u64)).to_vec()),
        ),
        ("transports", Json::List(vec![transport])),
        ("slo_ok", Json::Bool(slo_ok)),
    ]);
    let verdict = if saturated { "PASS" } else { "FAIL" };
    Section {
        keys: vec![("net", net)],
        text: PHASES.text(&phases)
            + &format!(
                "{PEERS} peers, frame mix {FRAME_MIX:?} B; saturation {saturation:.0} msgs/s \
                 (floor {SATURATION_FLOOR:.0}): {verdict}\n"
            ),
        markdown: String::new(),
        holds: saturated && slo_ok,
    }
}
