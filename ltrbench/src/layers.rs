//! Per-layer metrics of the traced run. A layer is a crate.
//!
//! Three sources, all outside the product crates: the program's own
//! counters read at the start and end of the window; a wire meter that
//! tallies every message by class and keeps a corpus of real `Payload`s;
//! and timed probes that call one layer's public functions on inputs
//! taken from that corpus. A layer that is not on a workload's path
//! reports 0 there — every traced run prints the same list.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration as WallDuration, Instant};

use bytes::Bytes;
use chord::harness::{build_ring, ChordDriver, Cmd, DriverMsg};
use chord::{ChordConfig, Id, PutMode};
use p2p_ltr::Payload;
use simnet::{Ctx, Duration, NetConfig, NodeId, Process, Rng64, Sim};
use store::{FileStore, Store, StoreConfig};
use wire::{decode_frame_bytes, encode_frame, RtHub, Transport};
use workload::{mutate_text, EditMix};

use crate::report::WindowSummary;
use crate::stats::{metric, percentile, ratio, Counters, Metric};
use crate::trace::Trace;

/// Every per-layer metric, in print order, with its unit. `BENCHMARK.json`
/// lists exactly these names.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("simnet.events_per_edit", "count"),
    ("simnet.timers_per_edit", "count"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.null_event_ns", "ns"),
    ("chord.msgs_per_edit", "count"),
    ("chord.lookups_per_edit", "count"),
    ("chord.lookup_hops_mean", "count"),
    ("chord.lookup_fail_ratio", "ratio"),
    ("chord.maint_bytes_share", "ratio"),
    ("chord.repl_bytes_per_edit", "B"),
    ("chord.records_per_node", "count"),
    ("chord.ring_us_per_node_s_1k", "us"),
    ("chord.ring_us_per_node_s_10k", "us"),
    ("kts.validates_per_grant", "count"),
    ("kts.retry_ratio", "ratio"),
    ("kts.redirect_ratio", "ratio"),
    ("kts.timeout_ratio", "ratio"),
    ("kts.fences_per_grant", "count"),
    ("kts.probes_per_grant", "count"),
    ("kts.queue_depth_max", "count"),
    ("p2plog.publishes_per_grant", "count"),
    ("p2plog.fetches_per_integration", "count"),
    ("p2plog.fetch_fallback_ratio", "ratio"),
    ("p2plog.refetch_ratio", "ratio"),
    ("p2plog.retrieval_stalls", "count"),
    ("p2plog.locations_ns", "ns"),
    ("p2plog.record_bytes_mean", "B"),
    ("ot.diff_us", "us"),
    ("ot.integrate_us", "us"),
    ("ot.patch_ops_mean", "count"),
    ("ot.absorbed_ratio", "ratio"),
    ("wire.bytes_per_edit", "B"),
    ("wire.msgs_per_edit", "count"),
    ("wire.frame_bytes_mean", "B"),
    ("wire.encode_ns_per_frame", "ns"),
    ("wire.decode_ns_per_frame", "ns"),
    ("wire.rt_frames_per_s", "1/s"),
    ("wire.send_err_per_kedit", "count"),
    ("wire.decode_errors", "count"),
    ("store.appends_per_edit", "count"),
    ("store.append_errors", "count"),
    ("store.append_us", "us"),
    ("store.sys_cpu_us", "us"),
    ("store.append_us_nock", "us"),
    ("store.checkpoint_ms_at_end", "ms"),
    ("store.replay_entries_per_s", "1/s"),
    ("store.recover_ms", "ms"),
    ("store.segments", "count"),
    ("store.bytes_per_entry", "B"),
    ("core.to_grant_ms_p50", "ms"),
    ("core.to_grant_ms_p99", "ms"),
    ("core.grant_delivery_ms_p50", "ms"),
    ("core.grant_delivery_ms_p99", "ms"),
    ("core.propagation_ms_p50", "ms"),
    ("core.propagation_ms_p99", "ms"),
    ("core.stamp_p99_ms", "ms"),
    ("core.converge_p99_ms", "ms"),
    ("core.integrations_per_edit", "count"),
    ("core.cycle_backoffs", "count"),
    ("core.own_record_recovered", "count"),
    ("workload.late_ms_max", "ms"),
    ("workload.held_ratio", "ratio"),
    ("workload.refused_ratio", "ratio"),
    ("workload.fail_ratio", "ratio"),
    ("workload.driver_cpu_share", "ratio"),
    ("trace.cpu_us_per_edit", "us"),
    ("trace.overhead_ratio", "ratio"),
];

/// Values gathered so far, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Turn gathered values into the full, ordered list (absent = 0).
pub fn finish(values: &Values) -> Vec<Metric> {
    debug_assert!(values
        .keys()
        .all(|k| LAYER_METRICS.iter().any(|(n, _)| n == k)));
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| metric(name, values.get(name).copied().unwrap_or(0.0), unit, 0))
        .collect()
}

/// Messages and bytes seen on the wire, per class.
pub type Tally = BTreeMap<&'static str, (u64, u64)>;

/// What the wire meter keeps: a tally of every message by class and a
/// bounded sample of the messages themselves, in their class mix.
#[derive(Default)]
pub struct Corpus {
    /// Per-class `(messages, bytes)`.
    pub tally: Tally,
    /// Keep samples (switched on for the measured windows only, so the
    /// sample has the steady-state class mix, not the join traffic's).
    pub sampling: bool,
    seen: u64,
    /// Every 16th message seen while sampling, up to [`Corpus::CAP`].
    pub sample: Vec<Payload>,
}

impl Corpus {
    /// Most payloads kept.
    pub const CAP: usize = 8192;

    /// Account one message of `bytes` framed bytes.
    pub fn offer(&mut self, p: &Payload, bytes: usize) {
        let slot = self.tally.entry(p.wire_class()).or_default();
        slot.0 += 1;
        slot.1 += bytes as u64;
        if self.sampling && self.sample.len() < Self::CAP {
            self.seen += 1;
            if self.seen.is_multiple_of(16) {
                self.sample.push(p.clone());
            }
        }
    }
}

/// Add `other` into `into`.
pub fn tally_add(into: &mut Tally, other: &Tally) {
    for (k, &(m, b)) in other {
        let slot = into.entry(k).or_default();
        slot.0 += m;
        slot.1 += b;
    }
}

fn tally_since(now: &Tally, before: &Tally) -> Tally {
    now.iter()
        .map(|(k, &(m, b))| {
            let (m0, b0) = before.get(k).copied().unwrap_or((0, 0));
            (*k, (m - m0, b - b0))
        })
        .collect()
}

fn tally_sum(t: &Tally, pick: impl Fn(&str) -> bool) -> (f64, f64) {
    t.iter()
        .filter(|(k, _)| pick(k))
        .fold((0.0, 0.0), |(m, b), (_, &(dm, db))| {
            (m + dm as f64, b + db as f64)
        })
}

/// Everything the counter-derived metrics of a protocol window need.
pub struct WindowFacts<'a> {
    /// Counter deltas over window + drain.
    pub counters: &'a Counters,
    /// Wire tally at window start and after the drain.
    pub tally: (&'a Tally, &'a Tally),
    /// The reduced beats.
    pub summary: &'a WindowSummary,
    /// Largest master queue depth sampled at the beats.
    pub queue_depth_max: usize,
    /// Process CPU µs over the window.
    pub cpu_us: f64,
    /// Share of the window's wall time spent in the driver.
    pub driver_share: f64,
    /// Simulator events over the window (0 on the socket bed).
    pub sim_events: u64,
    /// Mean DHT records per live peer after the drain.
    pub records_per_node: f64,
}

/// Counter- and event-derived metrics of a protocol window.
pub fn protocol(f: &WindowFacts<'_>, v: &mut Values) {
    let c = f.counters;
    let w = f.summary;
    let edits = w.stamped as f64;
    let grants = c.get("kts.grants");
    let t = tally_since(f.tally.1, f.tally.0);
    let (msgs, bytes) = tally_sum(&t, |_| true);
    let (chord_msgs, _) = tally_sum(&t, |k| k.starts_with("chord."));
    let (_, maint) = tally_sum(&t, |k| {
        matches!(
            k,
            "chord.predecessor_is"
                | "chord.notify"
                | "chord.get_predecessor"
                | "chord.ping"
                | "chord.pong"
        )
    });
    let (_, repl) = tally_sum(&t, |k| {
        k == "chord.replicate" || k.starts_with("chord.sync.")
    });
    let (puts, put_bytes) = tally_sum(&t, |k| k == "chord.put");
    let (gets, _) = tally_sum(&t, |k| k == "chord.get");

    v.insert("simnet.events_per_edit", ratio(f.sim_events as f64, edits));
    v.insert(
        "simnet.timers_per_edit",
        ratio(c.get("sim.timers_fired"), edits),
    );
    v.insert(
        "simnet.ns_per_event",
        ratio(f.cpu_us * 1e3, f.sim_events as f64),
    );

    v.insert("chord.msgs_per_edit", ratio(chord_msgs, edits));
    v.insert("chord.lookups_per_edit", ratio(c.lookups as f64, edits));
    v.insert(
        "chord.lookup_hops_mean",
        ratio(c.lookup_hops, c.lookups as f64),
    );
    v.insert(
        "chord.lookup_fail_ratio",
        ratio(
            c.get("ltr.lookup_failed"),
            c.lookups as f64 + c.get("ltr.lookup_failed"),
        ),
    );
    v.insert("chord.maint_bytes_share", ratio(maint, bytes));
    v.insert("chord.repl_bytes_per_edit", ratio(repl, edits));
    v.insert("chord.records_per_node", f.records_per_node);

    let sent = c.get("ltr.validate_sent");
    v.insert("kts.validates_per_grant", ratio(sent, grants));
    v.insert("kts.retry_ratio", ratio(c.get("ltr.validate_retry"), sent));
    v.insert(
        "kts.redirect_ratio",
        ratio(c.get("ltr.validate_redirect"), sent),
    );
    v.insert(
        "kts.timeout_ratio",
        ratio(c.get("ltr.validate_timeout"), sent),
    );
    v.insert(
        "kts.fences_per_grant",
        ratio(c.get("kts.fences_started"), grants),
    );
    v.insert(
        "kts.probes_per_grant",
        ratio(c.get("kts.probes_started"), grants),
    );
    v.insert("kts.queue_depth_max", f.queue_depth_max as f64);

    let integrated = c.get("ltr.integrated");
    v.insert(
        "p2plog.publishes_per_grant",
        ratio(c.get("log.publishes"), grants),
    );
    v.insert("p2plog.fetches_per_integration", ratio(gets, integrated));
    v.insert(
        "p2plog.fetch_fallback_ratio",
        ratio(c.get("ltr.fetch_fallbacks"), gets),
    );
    v.insert(
        "p2plog.refetch_ratio",
        ratio(c.get("ltr.fetch_refetches"), gets),
    );
    v.insert("p2plog.retrieval_stalls", c.get("ltr.retrieval_stalled"));
    v.insert("p2plog.record_bytes_mean", ratio(put_bytes, puts));

    v.insert(
        "ot.absorbed_ratio",
        ratio(w.absorbed as f64, (w.due - w.refused) as f64),
    );

    v.insert("wire.bytes_per_edit", ratio(bytes, edits));
    v.insert("wire.msgs_per_edit", ratio(msgs, edits));
    v.insert("wire.frame_bytes_mean", ratio(bytes, msgs));
    v.insert(
        "wire.send_err_per_kedit",
        ratio(c.sum_prefix("wire.send_err.") * 1e3, edits),
    );
    v.insert("wire.decode_errors", c.get("wire.decode_errors"));

    v.insert(
        "store.appends_per_edit",
        ratio(c.get("store.appends"), edits),
    );
    v.insert("store.append_errors", c.get("store.append_errors"));

    for (p50, p99, xs) in [
        (
            "core.to_grant_ms_p50",
            "core.to_grant_ms_p99",
            &w.to_grant_ms,
        ),
        (
            "core.grant_delivery_ms_p50",
            "core.grant_delivery_ms_p99",
            &w.grant_delivery_ms,
        ),
        (
            "core.propagation_ms_p50",
            "core.propagation_ms_p99",
            &w.propagation_ms,
        ),
    ] {
        v.insert(p50, percentile(xs, 0.50));
        v.insert(p99, percentile(xs, 0.99));
    }
    v.insert("core.stamp_p99_ms", percentile(&w.stamp_ms, 0.99));
    v.insert("core.converge_p99_ms", percentile(&w.converge_ms, 0.99));
    v.insert(
        "core.integrations_per_edit",
        ratio(w.integrations as f64, edits),
    );
    v.insert("core.cycle_backoffs", c.get("ltr.cycle_backoff"));
    v.insert(
        "core.own_record_recovered",
        c.get("ltr.own_record_recovered"),
    );

    let due = w.due as f64;
    v.insert("workload.late_ms_max", w.late_ms_max);
    v.insert("workload.held_ratio", ratio(w.held as f64, due));
    v.insert("workload.refused_ratio", ratio(w.refused as f64, due));
    v.insert(
        "workload.fail_ratio",
        1.0 - ratio((w.stamped + w.absorbed) as f64, due),
    );
    v.insert("workload.driver_cpu_share", f.driver_share);
    v.insert("trace.cpu_us_per_edit", ratio(f.cpu_us, edits));
}

/// Repeat `f` until `budget` has passed; returns nanoseconds per call of
/// `f` divided by `per_call` (the items one call handles).
fn time_ns(budget: WallDuration, per_call: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    while t.elapsed() < budget || calls == 0 {
        f();
        calls += 1;
    }
    t.elapsed().as_nanos() as f64 / (calls as f64 * per_call.max(1) as f64)
}

const PROBE_BUDGET: WallDuration = WallDuration::from_millis(150);

/// A process that does nothing but keep the event loop busy.
struct Nop {
    next: NodeId,
}

impl Process<u8> for Nop {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
        ctx.set_timer(Duration::from_millis(1), 0);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, u8>, _from: NodeId, _msg: u8) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u8>, _tag: u64) {
        ctx.send(self.next, 0);
        ctx.set_timer(Duration::from_millis(1), 0);
    }
}

/// simnet: cost of one event when the handlers do nothing.
fn probe_simnet(v: &mut Values, trace: &mut Trace) {
    let mut sim: Sim<u8> = Sim::new(1, NetConfig::lan());
    for i in 0..16u32 {
        sim.add_node(Nop {
            next: NodeId((i + 1) % 16),
        });
    }
    let (_, took) = trace.probe("simnet.run_for", || sim.run_for(Duration::from_secs(10)));
    v.insert(
        "simnet.null_event_ns",
        ratio(took.as_nanos() as f64, sim.events_processed() as f64),
    );
}

/// chord: CPU cost of one simulated second of a settled, idle 4-node ring
/// per node, when each node holds `n` primary records (plus its
/// predecessors' replicas) — ring maintenance and anti-entropy with
/// nothing to do.
fn probe_chord_ring(n: usize, trace: &mut Trace) -> f64 {
    const NODES: usize = 4;
    let mut sim: Sim<DriverMsg> = Sim::new(7, NetConfig::lan());
    let refs = build_ring(
        &mut sim,
        NODES,
        &ChordConfig::default(),
        Duration::from_millis(100),
    );
    sim.run_for(Duration::from_secs(10));
    let value = Bytes::from(vec![0x5a; 300]);
    for i in 0..n * NODES {
        let key = Id::hash(format!("ltrbench-probe-{i}").as_bytes());
        sim.send_external(
            refs[i % NODES].addr,
            DriverMsg::Cmd(Cmd::Put(key, value.clone(), PutMode::Overwrite)),
        );
        if i % 64 == 63 {
            sim.run_for(Duration::from_millis(5));
        }
    }
    sim.run_for(Duration::from_secs(10));
    let stored: usize = refs
        .iter()
        .map(|r| {
            sim.node_as::<ChordDriver>(r.addr)
                .map_or(0, |d| d.node.storage().primary_len())
        })
        .sum();
    assert!(
        stored >= n * NODES * 9 / 10,
        "probe ring stored its records"
    );
    let secs = 10;
    let (_, took) = trace.probe(&format!("chord.idle_ring_{n}"), || {
        sim.run_for(Duration::from_secs(secs))
    });
    took.as_micros() as f64 / (NODES as u64 * secs) as f64
}

/// p2plog: the replication hash family.
fn probe_p2plog(docs: &[String], v: &mut Values, trace: &mut Trace) {
    if docs.is_empty() {
        return;
    }
    let (ns, _) = trace.probe("p2plog.log_locations", || {
        let mut ts = 0u64;
        time_ns(PROBE_BUDGET, docs.len(), || {
            ts += 1;
            for d in docs {
                black_box(p2plog::log_locations(3, black_box(d), ts));
            }
        })
    });
    v.insert("p2plog.locations_ns", ns);
}

/// ot: diff of a save against the working copy, and integration of a
/// remote patch, on 100-line documents under the run's edit mix.
fn probe_ot(v: &mut Values, trace: &mut Trace) {
    let mix = EditMix {
        insert: 4,
        delete: 4,
        change: 2,
    };
    let mut rng = Rng64::new(99);
    let mut texts = vec![crate::simrun::initial_text()];
    for i in 0..256u64 {
        let kind = mix.sample(&mut rng);
        let next = mutate_text(texts.last().expect("seeded"), kind, 1, i, &mut rng);
        texts.push(next);
    }
    let docs: Vec<ot::Document> = texts.iter().map(|t| ot::Document::from_text(t)).collect();
    let (ns, _) = trace.probe("ot.diff", || {
        time_ns(PROBE_BUDGET, docs.len() - 1, || {
            for w in docs.windows(2) {
                black_box(ot::diff(black_box(&w[0]), black_box(&w[1]), 1));
            }
        })
    });
    v.insert("ot.diff_us", ns / 1e3);
    let patches: Vec<ot::Patch> = docs
        .windows(2)
        .map(|w| ot::Patch::new(1, ot::diff(&w[0], &w[1], 1)))
        .collect();
    let (ns, _) = trace.probe("ot.integrate_remote", || {
        time_ns(PROBE_BUDGET, patches.len(), || {
            let mut replica = ot::Replica::new(2, docs[0].clone());
            for (i, p) in patches.iter().enumerate() {
                replica
                    .integrate_remote(i as u64 + 1, p)
                    .expect("a chain of diffs integrates");
            }
            black_box(replica.ts);
        })
    });
    v.insert("ot.integrate_us", ns / 1e3);
}

/// wire: codec cost per frame over the corpus, in its class mix, and the
/// frame rate two runtime endpoints sustain on loopback.
fn probe_wire(corpus: &Corpus, v: &mut Values, trace: &mut Trace) {
    let sample = &corpus.sample;
    if sample.is_empty() {
        return;
    }
    let mut ops = 0usize;
    let mut patches = 0usize;
    for p in sample {
        if let Payload::Kts(kts::KtsMsg::Validate { patch, .. }) = p {
            if let Ok(patch) = ot::decode_patch(patch) {
                ops += patch.len();
                patches += 1;
            }
        }
    }
    v.insert("ot.patch_ops_mean", ratio(ops as f64, patches as f64));

    let (ns, _) = trace.probe("wire.encode_frame", || {
        time_ns(PROBE_BUDGET, sample.len(), || {
            for p in sample {
                black_box(encode_frame(NodeId(1), black_box(p)));
            }
        })
    });
    v.insert("wire.encode_ns_per_frame", ns);
    let frames: Vec<Bytes> = sample
        .iter()
        .map(|p| Bytes::from(encode_frame(NodeId(1), p)))
        .collect();
    let (ns, _) = trace.probe("wire.decode_frame_bytes", || {
        time_ns(PROBE_BUDGET, frames.len(), || {
            for f in &frames {
                black_box(decode_frame_bytes::<Payload>(black_box(f)).is_ok());
            }
        })
    });
    v.insert("wire.decode_ns_per_frame", ns);

    let hub = RtHub::new();
    let (Ok(mut a), Ok(mut b)) = (hub.endpoint(NodeId(1)), hub.endpoint(NodeId(2))) else {
        return;
    };
    let (received, took) = trace.probe("wire.rt_transport", || {
        let mut received = 0usize;
        let mut inbox = Vec::new();
        let mut next = 0usize;
        let t = Instant::now();
        while t.elapsed() < WallDuration::from_millis(400) {
            let end = (next + 256).min(frames.len());
            if let Ok(n) = a.send_batch(NodeId(2), &frames[next..end]) {
                next = (next + n) % frames.len();
            }
            a.poll(WallDuration::ZERO);
            b.poll(WallDuration::ZERO);
            inbox.clear();
            received += b.recv_batch(&mut inbox, 4096);
        }
        received
    });
    v.insert(
        "wire.rt_frames_per_s",
        ratio(received as f64, took.as_secs_f64()),
    );
}

/// Journal entries in the mix a peer writes: mostly log items with
/// 200–400 byte values, now and then a timestamp-table upsert.
pub fn journal_entries(seed: u64, n: usize) -> Vec<store::StoreEntry> {
    let mut rng = Rng64::new(seed ^ 0x73746f7265);
    (0..n as u64)
        .map(|i| {
            let len = 200 + rng.gen_below(201) as usize;
            let value = Bytes::from(
                (0..len)
                    .map(|j| (i as usize + j) as u8)
                    .collect::<Vec<u8>>(),
            );
            let key = Id(rng.next_u64());
            match i % 8 {
                0..=3 => store::StoreEntry::PutPrimary { key, value },
                4..=6 => store::StoreEntry::PutReplica { key, value },
                _ => store::StoreEntry::DocOpen {
                    doc: format!("wiki/{seed:x}/{i}").into(),
                    initial: String::from_utf8_lossy(&value[..64]).into_owned(),
                },
            }
        })
        .collect()
}

/// store: append without periodic checkpoints, one checkpoint over the
/// result, and a replay of it.
fn probe_store(v: &mut Values, trace: &mut Trace) {
    let dir = crate::scratch_dir().join("probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        checkpoint_every: 0,
        ..StoreConfig::default()
    };
    let Ok((mut store, _)) = FileStore::open(&dir, cfg) else {
        return;
    };
    let entries = journal_entries(5, 20_000);
    let (ok, took) = trace.probe("store.append", || {
        entries.iter().all(|e| store.append(e).is_ok())
    });
    if !ok {
        return;
    }
    v.insert(
        "store.append_us_nock",
        took.as_micros() as f64 / entries.len() as f64,
    );
    let (_, took) = trace.probe("store.checkpoint", || store.checkpoint().is_ok());
    v.insert("store.checkpoint_ms_at_end", took.as_secs_f64() * 1e3);
    let (n, took) = trace.probe("store.replay", || {
        store.replay().map_or(0, |r| r.entries.len())
    });
    v.insert(
        "store.replay_entries_per_s",
        ratio(n as f64, took.as_secs_f64()),
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run every probe. `docs` are the run's document names.
pub fn probes(corpus: &Corpus, docs: &[String], v: &mut Values, trace: &mut Trace) {
    probe_simnet(v, trace);
    v.insert(
        "chord.ring_us_per_node_s_1k",
        probe_chord_ring(1_000, trace),
    );
    v.insert(
        "chord.ring_us_per_node_s_10k",
        probe_chord_ring(10_000, trace),
    );
    probe_p2plog(docs, v, trace);
    probe_ot(v, trace);
    probe_wire(corpus, v, trace);
    probe_store(v, trace);
}
