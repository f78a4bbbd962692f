//! Criterion micro-benchmarks of the computational substrates: hashing,
//! checksums, ring arithmetic, OT transformation, diffing, codecs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use bytes::Bytes;
use chord::sha1::{sha1, sha1_u64};
use chord::Id;
use ot::{decode_patch, diff, encode_patch, transform_seqs, Document, Patch, TextOp};
use p2plog::{LogRecord, Retriever};

fn bench_sha1(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha1");
    for size in [64usize, 1024, 16384] {
        let data = vec![0xabu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("digest_{size}B"), |b| {
            b.iter(|| sha1(black_box(&data)))
        });
    }
    g.bench_function("id_hash_docname", |b| {
        b.iter(|| sha1_u64(black_box(b"wiki/Main/Some/Long/Page/Name")))
    });
    g.finish();
}

fn bench_crc32(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32");
    for (label, size) in [("64B", 64usize), ("1KiB", 1024), ("16KiB", 16384)] {
        let data = vec![0xabu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(label, |b| {
            b.iter(|| store::segment::crc32(black_box(&data)))
        });
    }
    g.finish();
}

fn bench_id_math(c: &mut Criterion) {
    let a = Id(0x1234_5678_9abc_def0);
    let lo = Id(0x1111_1111_1111_1111);
    let hi = Id(0xeeee_eeee_eeee_eeee);
    c.bench_function("id_in_half_open", |b| {
        b.iter(|| black_box(a).in_half_open(black_box(lo), black_box(hi)))
    });
    c.bench_function("log_locations_n3", |b| {
        b.iter(|| p2plog::log_locations(3, black_box("wiki/Main"), black_box(42)))
    });
    // The cached path: per-document midstates amortize the doc-name hashing
    // across timestamps (retrieval windows, publish fan-outs).
    let dh = p2plog::DocHashes::new("wiki/Main", 3);
    c.bench_function("dochashes_locations_n3", |b| {
        b.iter(|| {
            dh.locations(black_box(42))
                .fold(0u64, |acc, id| acc ^ id.raw())
        })
    });
}

fn make_doc(lines: usize) -> Document {
    Document::from_lines((0..lines).map(|i| format!("line number {i}")).collect())
}

fn bench_ot(c: &mut Criterion) {
    let mut g = c.benchmark_group("ot");
    // Transform two 20-op concurrent patches.
    let base = make_doc(100);
    let mk_ops = |site: u64| -> Vec<TextOp> {
        let mut d = base.clone();
        let mut ops = Vec::new();
        for i in 0..20 {
            let op = TextOp::ins((i * 3) % (d.len() + 1), format!("s{site}-{i}"), site);
            d.apply(&op).unwrap();
            ops.push(op);
        }
        ops
    };
    let a = mk_ops(1);
    let b2 = mk_ops(2);
    g.bench_function("transform_seqs_20x20", |bch| {
        bch.iter(|| transform_seqs(black_box(&a), black_box(&b2)))
    });

    // Diff with a localized edit in a 1000-line document.
    let old = make_doc(1000);
    let mut new_lines = old.lines().to_vec();
    new_lines[500] = "edited line".to_string();
    new_lines.insert(501, "inserted line".to_string());
    let new = Document::from_lines(new_lines);
    g.bench_function("diff_1000_lines_local_edit", |bch| {
        bch.iter(|| diff(black_box(&old), black_box(&new), 1))
    });

    // Apply a 50-op patch.
    let ops: Vec<TextOp> = (0..50)
        .map(|i| TextOp::ins(i, format!("l{i}"), 1))
        .collect();
    g.bench_function("apply_50_ops", |bch| {
        bch.iter_batched(
            Document::new,
            |mut d| {
                d.apply_all(black_box(&ops)).unwrap();
                d
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_codecs(c: &mut Criterion) {
    let patch = Patch::new(
        7,
        (0..30)
            .map(|i| TextOp::ins(i, format!("content line {i}"), 7))
            .collect(),
    );
    let encoded = encode_patch(&patch);
    c.bench_function("encode_patch_30_ops", |b| {
        b.iter(|| encode_patch(black_box(&patch)))
    });
    c.bench_function("decode_patch_30_ops", |b| {
        b.iter(|| decode_patch(black_box(&encoded)).unwrap())
    });

    let rec = LogRecord::new("wiki/Main", 42, 7, Bytes::from(encoded.clone()));
    let rec_bytes = rec.encode();
    c.bench_function("log_record_encode", |b| b.iter(|| rec.encode()));
    c.bench_function("log_record_decode_verify", |b| {
        b.iter(|| LogRecord::decode(black_box(&rec_bytes)).unwrap())
    });
}

fn bench_master_stamping(c: &mut Criterion) {
    // The master's grant hot path: validate → fence the next slot →
    // stamp → derive the n log locations (the puts the embedding layer
    // would issue) → publish ack. Fencing is the default mode and each
    // slot's fence is consumed by its publish, so every stamp pays one
    // fence round; the key's first validate also pays its one birth
    // probe. 100 sequential stamps on one key, replication n=3.
    use kts::{FenceOutcome, KtsConfig, KtsMaster, MasterAction, PublishOutcome, ReqId};
    use simnet::NodeId;
    let cfg = KtsConfig::default();
    let user = chord::NodeRef::new(NodeId(1), Id(1000));
    let patch = Bytes::from_static(b"a smallish encoded patch body");
    let doc = p2plog::DocName::new("wiki/Main");
    let publish_req = |acts: &[MasterAction]| {
        acts.iter().find_map(|a| match a {
            MasterAction::BeginPublish { token, ts, .. } => Some((*token, *ts)),
            _ => None,
        })
    };
    c.bench_function("master_stamp_loop_100_n3", |b| {
        b.iter_batched(
            || KtsMaster::new(cfg.clone()),
            |mut m| {
                let key = Id(0x42);
                for i in 0..100u64 {
                    let mut acts = m.on_validate(key, &doc, ReqId(i), i, patch.clone(), user, true);
                    if let Some(pt) = acts.iter().find_map(|a| match a {
                        MasterAction::BeginProbe { token, .. } => Some(*token),
                        _ => None,
                    }) {
                        acts = m.probe_done(pt, 0, 0);
                    }
                    if let Some(ft) = acts.iter().find_map(|a| match a {
                        MasterAction::BeginFence { token, .. } => Some(*token),
                        _ => None,
                    }) {
                        acts = m.fence_done(ft, FenceOutcome::Acked { occupied: false });
                    }
                    let (token, ts) = publish_req(&acts).expect("fenced grant must publish");
                    for loc in p2plog::log_locations_iter(3, "wiki/Main", ts) {
                        black_box(loc);
                    }
                    m.publish_done(token, PublishOutcome::Ok);
                }
                m
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_sim_event_loop(c: &mut Criterion) {
    // Raw event-loop throughput: two echo processes ping-ponging with
    // constant latency — every iteration is send+deliver bookkeeping only.
    use simnet::{Ctx, Duration, LatencyModel, NetConfig, NodeId, Process, Sim, Time};
    #[derive(Debug)]
    struct Ball(u64);
    struct Paddle;
    impl Process<Ball> for Paddle {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Ball>, from: NodeId, msg: Ball) {
            ctx.send(from, Ball(msg.0 + 1));
        }
    }
    c.bench_function("sim_event_loop_20k_events", |b| {
        b.iter_batched(
            || {
                let mut net = NetConfig::lan();
                net.latency = LatencyModel::Constant(Duration::from_micros(100));
                let mut sim = Sim::new(7, net);
                let a = sim.add_node(Paddle);
                let bb = sim.add_node(Paddle);
                // Four concurrent rallies.
                for _ in 0..4 {
                    sim.send_external(a, Ball(0));
                    sim.send_external(bb, Ball(0));
                }
                sim
            },
            |mut sim| {
                // 8 balls × one hop per 100 µs × 250 ms ≈ 20k deliveries.
                sim.run_until(Time::from_millis(250));
                sim
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_retriever(c: &mut Criterion) {
    // Pure state-machine cost of a 100-ts retrieval (no network).
    let payload = Bytes::from_static(b"some record bytes");
    c.bench_function("retriever_100_ts_in_order", |b| {
        b.iter_batched(
            || Retriever::new("doc", 0, 100, 3, 8),
            |mut r| {
                let mut pending: Vec<p2plog::FetchCmd> = r.start();
                while let Some(cmd) = pending.pop() {
                    let (more, _ev) =
                        r.on_fetch_result(cmd.ts, cmd.hash_idx, Some(payload.clone()));
                    pending.extend(more);
                }
                r
            },
            BatchSize::SmallInput,
        )
    });

    // Window-throughput variant: a wide pipeline over a long range, with
    // every third fetch missing replica h1 (forcing fallback derivation).
    let mut g = c.benchmark_group("retriever");
    g.throughput(Throughput::Elements(512));
    g.bench_function("window32_512_ts", |b| {
        b.iter_batched(
            || Retriever::new("wiki/Main", 0, 512, 3, 32),
            |mut r| {
                let mut pending: Vec<p2plog::FetchCmd> = r.start();
                while let Some(cmd) = pending.pop() {
                    let miss = cmd.ts % 3 == 0 && cmd.hash_idx == 1;
                    let found = if miss { None } else { Some(payload.clone()) };
                    let (more, _ev) = r.on_fetch_result(cmd.ts, cmd.hash_idx, found);
                    pending.extend(more);
                }
                r
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_sync_round(c: &mut Criterion) {
    // One steady-state anti-entropy round at a peer of a 32-node ring
    // holding `n` primary records (its own 1/32 arc) and `n` replicas (its
    // predecessor's arc), after one put on each side: the owner-tick
    // summary (primary view) plus the `SyncRoot` comparison (union view).
    // Arcs are not bucket-aligned, so each has two partial edge buckets.
    use chord::{Storage, SyncView};
    const ARC: u64 = 1 << 59;
    let from = Id(0x40a0_0000_0000_0000);
    let (pred, me) = (Id(from.0 - ARC), Id(from.0 + ARC));
    let key_in = |start: Id, i: u64| Id(start.0 + 1 + sha1_u64(&i.to_le_bytes()) % ARC);
    let value = |round: u64| {
        let mut v = vec![0x5au8; 200];
        v[..8].copy_from_slice(&round.to_le_bytes());
        Bytes::from(v)
    };
    let mut g = c.benchmark_group("sync_round");
    for (label, n) in [("1k", 1_000u64), ("10k", 10_000), ("100k", 100_000)] {
        let mut store = Storage::new();
        for i in 0..n {
            store.put_primary(key_in(from, i), value(0));
            store.put_replica(key_in(pred, i), value(0));
        }
        let mut round = 0u64;
        g.bench_function(label, |b| {
            b.iter(|| {
                round += 1;
                store.put_primary(key_in(from, round % n), value(round));
                let own = store.sync_bucket_digests(SyncView::Primary, from, me);
                store.put_replica(key_in(pred, round % n), value(round));
                let held = store.sync_bucket_digests(SyncView::Union, pred, from);
                (own, held)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_sha1,
    bench_crc32,
    bench_id_math,
    bench_ot,
    bench_codecs,
    bench_master_stamping,
    bench_sim_event_loop,
    bench_retriever,
    bench_sync_round
);
criterion_main!(benches);
