//! Codec correctness properties:
//!
//! 1. **Round-trip**: `decode(encode(m)) == m` for every protocol message
//!    type, over randomized message structures;
//! 2. **Exact sizing**: `encoded_len(m) == encode(m).len()` always (the
//!    simulator charges latency from `encoded_len`, so a drift would skew
//!    every bandwidth model);
//! 3. **Totality**: the decoder returns `Err` — never panics, never
//!    over-allocates — on truncated and corrupted frames (a fuzz-style
//!    corpus of cuts, bit flips and random byte smashes);
//! 4. **Canonical form**: a corrupted frame that does decode re-encodes
//!    to the same bytes, so no value has a second encoding.
//!
//! Messages are generated structurally from a seeded [`Rng64`] so the
//! corpus covers every variant and the awkward sizes (empty vecs, huge
//! ids, unicode names), and `proptest!` sweeps the seeds.

use bytes::Bytes;
use chord::{ChordMsg, DocName, Id, NodeRef, OpId, PutMode};
use kts::{HandoffEntry, KtsMsg, ReqId, ValidateFailure};
use p2plog::LogRecord;
use proptest::prelude::*;
use simnet::{NodeId, Rng64};
use wire::{decode_frame, encode_frame, frame_len, BytesAssembler, Decode, Encode};

// ---- structural generators ------------------------------------------------

fn arb_id(rng: &mut Rng64) -> Id {
    // Mix extremes with uniform draws.
    match rng.gen_below(8) {
        0 => Id(0),
        1 => Id(u64::MAX),
        _ => Id(rng.next_u64()),
    }
}

fn arb_u64(rng: &mut Rng64) -> u64 {
    match rng.gen_below(4) {
        0 => rng.gen_below(128),            // 1-byte varints
        1 => rng.gen_below(1 << 20),        // mid-size
        2 => u64::MAX - rng.gen_below(128), // force 10-byte varints
        _ => rng.next_u64(),
    }
}

fn arb_node_ref(rng: &mut Rng64) -> NodeRef {
    NodeRef::new(NodeId(rng.gen_below(1 << 20) as u32), arb_id(rng))
}

fn arb_bytes(rng: &mut Rng64) -> Bytes {
    let len = rng.gen_below(200) as usize;
    Bytes::from(
        (0..len)
            .map(|_| rng.gen_below(256) as u8)
            .collect::<Vec<u8>>(),
    )
}

fn arb_doc_name(rng: &mut Rng64) -> DocName {
    let names = [
        "wiki/Main",
        "",
        "a",
        "página/Ωλ⇄🎈",
        "deeply/nested/path/with/many/segments",
        "doc#1",
    ];
    DocName::new(*rng.pick(&names))
}

fn arb_items(rng: &mut Rng64) -> Vec<(Id, Bytes)> {
    let n = rng.gen_below(5) as usize;
    (0..n).map(|_| (arb_id(rng), arb_bytes(rng))).collect()
}

fn arb_chord_msg(rng: &mut Rng64) -> ChordMsg {
    match rng.gen_below(17) {
        0 => ChordMsg::FindSuccessor {
            op: OpId(arb_u64(rng)),
            target: arb_id(rng),
            origin: arb_node_ref(rng),
            hops: rng.gen_below(200) as u32,
        },
        1 => ChordMsg::FoundSuccessor {
            op: OpId(arb_u64(rng)),
            owner: arb_node_ref(rng),
            hops: rng.gen_below(200) as u32,
        },
        2 => ChordMsg::GetPredecessor {
            op: OpId(arb_u64(rng)),
        },
        3 => {
            let n = rng.gen_below(6) as usize;
            ChordMsg::PredecessorIs {
                op: OpId(arb_u64(rng)),
                pred: rng.chance(0.5).then(|| arb_node_ref(rng)),
                succ_list: (0..n).map(|_| arb_node_ref(rng)).collect(),
            }
        }
        4 => ChordMsg::Notify {
            candidate: arb_node_ref(rng),
        },
        5 => ChordMsg::Ping {
            op: OpId(arb_u64(rng)),
        },
        6 => ChordMsg::Pong {
            op: OpId(arb_u64(rng)),
        },
        7 => ChordMsg::Put {
            op: OpId(arb_u64(rng)),
            key: arb_id(rng),
            value: arb_bytes(rng),
            mode: *rng.pick(&[PutMode::Overwrite, PutMode::FirstWriter, PutMode::Ranked]),
            origin: arb_node_ref(rng),
        },
        8 => ChordMsg::PutAck {
            op: OpId(arb_u64(rng)),
            ok: rng.chance(0.5),
            existing: rng.chance(0.5).then(|| arb_bytes(rng)),
        },
        9 => ChordMsg::Get {
            op: OpId(arb_u64(rng)),
            key: arb_id(rng),
            origin: arb_node_ref(rng),
        },
        10 => ChordMsg::GetReply {
            op: OpId(arb_u64(rng)),
            value: rng.chance(0.5).then(|| arb_bytes(rng)),
            authoritative: rng.chance(0.5),
        },
        11 => ChordMsg::Replicate {
            items: arb_items(rng),
        },
        12 => ChordMsg::TransferKeys {
            items: arb_items(rng),
        },
        13 => ChordMsg::LeaveToSucc {
            pred_of_leaver: rng.chance(0.5).then(|| arb_node_ref(rng)),
            items: arb_items(rng),
        },
        14 => ChordMsg::LeaveToPred {
            succ_of_leaver: arb_node_ref(rng),
        },
        15 => ChordMsg::Fence {
            op: OpId(arb_u64(rng)),
            key: arb_id(rng),
            floor: arb_u64(rng),
            origin: arb_node_ref(rng),
        },
        _ => ChordMsg::FenceAck {
            op: OpId(arb_u64(rng)),
            ok: rng.chance(0.5),
            current: arb_u64(rng),
            occupied: rng.chance(0.5),
        },
    }
}

fn arb_kts_msg(rng: &mut Rng64) -> KtsMsg {
    match rng.gen_below(10) {
        0 => KtsMsg::Validate {
            op: ReqId(arb_u64(rng)),
            key: arb_id(rng),
            key_name: arb_doc_name(rng),
            proposed_ts: arb_u64(rng),
            patch: arb_bytes(rng),
            user: arb_node_ref(rng),
        },
        1 => KtsMsg::Granted {
            op: ReqId(arb_u64(rng)),
            ts: arb_u64(rng),
            // Optional trailing field: exercise absent (0) and present.
            epoch: if rng.chance(0.5) { 0 } else { arb_u64(rng) },
        },
        2 => KtsMsg::Retry {
            op: ReqId(arb_u64(rng)),
            last_ts: arb_u64(rng),
        },
        3 => KtsMsg::Redirect {
            op: ReqId(arb_u64(rng)),
        },
        4 => KtsMsg::Failed {
            op: ReqId(arb_u64(rng)),
            reason: *rng.pick(&[
                ValidateFailure::LogUnreachable,
                ValidateFailure::Overloaded,
                ValidateFailure::AheadOfLog,
            ]),
        },
        5 => KtsMsg::LastTs {
            op: ReqId(arb_u64(rng)),
            key: arb_id(rng),
            user: arb_node_ref(rng),
            known_ts: if rng.chance(0.5) { 0 } else { arb_u64(rng) },
        },
        6 => KtsMsg::LastTsReply {
            op: ReqId(arb_u64(rng)),
            key: arb_id(rng),
            last_ts: arb_u64(rng),
        },
        7 => KtsMsg::ReplicateEntry {
            key: arb_id(rng),
            key_name: arb_doc_name(rng),
            last_ts: arb_u64(rng),
            epoch: arb_u64(rng),
        },
        8 => KtsMsg::Published {
            key: arb_id(rng),
            ts: arb_u64(rng),
        },
        _ => {
            let n = rng.gen_below(4) as usize;
            KtsMsg::TableHandoff {
                entries: (0..n)
                    .map(|_| HandoffEntry {
                        key: arb_id(rng),
                        key_name: arb_doc_name(rng),
                        last_ts: arb_u64(rng),
                        epoch: arb_u64(rng),
                    })
                    .collect(),
            }
        }
    }
}

fn arb_log_record(rng: &mut Rng64) -> LogRecord {
    let epoch = if rng.chance(0.5) { 0 } else { arb_u64(rng) };
    LogRecord::new(
        arb_doc_name(rng).as_str(),
        arb_u64(rng),
        arb_u64(rng),
        arb_bytes(rng),
    )
    .with_epoch(epoch)
}

// Debug output is a faithful structural rendering for these types, so it
// serves as the equality witness where PartialEq is not derived.
fn assert_roundtrip<M: Encode + Decode + std::fmt::Debug>(m: &M) {
    let buf = m.to_wire();
    assert_eq!(buf.len(), m.encoded_len(), "encoded_len drift for {m:?}");
    let back = M::from_wire(&buf).expect("own encoding decodes");
    assert_eq!(format!("{back:?}"), format!("{m:?}"));
    // Framed form too, with a sender address in the header.
    let from = NodeId(7);
    let framed = encode_frame(from, m);
    assert_eq!(framed.len(), frame_len(m));
    let (f, back): (NodeId, M) = decode_frame(&framed).expect("frame decodes");
    assert_eq!(f, from);
    assert_eq!(format!("{back:?}"), format!("{m:?}"));
}

/// A frame that decodes must be the one encoding of what it decodes to:
/// re-encoding gives back the same bytes.
fn assert_canonical<M: Encode + Decode + std::fmt::Debug>(frame: &[u8]) {
    if let Ok((from, m)) = decode_frame::<M>(frame) {
        assert_eq!(
            encode_frame(from, &m),
            frame,
            "{m:?} decoded from a non-canonical frame"
        );
    }
}

/// Every truncation and a barrage of corruptions must yield `Ok` or `Err`
/// — any panic fails the test. (Corruptions *may* decode to a different
/// valid message — e.g. a flipped bit inside a payload byte — totality is
/// the property here, not detection; detection belongs to the checksummed
/// `LogRecord` storage encoding.) A corruption that decodes must still be
/// canonical: one value, one encoding.
fn assert_total<M: Encode + Decode + std::fmt::Debug>(m: &M, rng: &mut Rng64) {
    let frame = encode_frame(NodeId(3), m);
    for cut in 0..frame.len() {
        assert!(
            decode_frame::<M>(&frame[..cut]).is_err(),
            "truncated frame (cut {cut}) must not decode"
        );
    }
    // Single bit flips at every position of small frames, sampled for big.
    let positions: Vec<usize> = if frame.len() <= 128 {
        (0..frame.len()).collect()
    } else {
        (0..128).map(|_| rng.index(frame.len())).collect()
    };
    for pos in positions {
        for bit in [0x01u8, 0x80u8] {
            let mut bad = frame.clone();
            bad[pos] ^= bit;
            assert_canonical::<M>(&bad); // must return, not panic
        }
    }
    // Random byte smashes.
    for _ in 0..32 {
        let mut bad = frame.clone();
        let n = 1 + rng.index(4);
        for _ in 0..n {
            let pos = rng.index(bad.len());
            bad[pos] = rng.gen_below(256) as u8;
        }
        assert_canonical::<M>(&bad);
    }
    // Garbage from scratch.
    let len = rng.gen_below(64) as usize;
    let garbage: Vec<u8> = (0..len).map(|_| rng.gen_below(256) as u8).collect();
    assert_canonical::<M>(&garbage);
}

/// 64 seeds per property; `PROPTEST_CASES` deepens the sweep (CI runs
/// 4096).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn chord_msgs_roundtrip_and_decode_totally(seed in 0u64..1_000_000) {
        let mut rng = Rng64::new(seed ^ 0xC0DEC);
        for _ in 0..16 {
            let m = arb_chord_msg(&mut rng);
            assert_roundtrip(&m);
            assert_total(&m, &mut rng);
        }
    }

    #[test]
    fn kts_msgs_roundtrip_and_decode_totally(seed in 0u64..1_000_000) {
        let mut rng = Rng64::new(seed ^ 0x2B15);
        for _ in 0..16 {
            let m = arb_kts_msg(&mut rng);
            assert_roundtrip(&m);
            assert_total(&m, &mut rng);
        }
    }

    #[test]
    fn log_records_roundtrip_and_decode_totally(seed in 0u64..1_000_000) {
        let mut rng = Rng64::new(seed ^ 0x10C);
        for _ in 0..16 {
            let r = arb_log_record(&mut rng);
            assert_roundtrip(&r);
            assert_total(&r, &mut rng);
        }
    }

    #[test]
    fn assembler_is_chunking_invariant(seed in 0u64..1_000_000) {
        let mut rng = Rng64::new(seed ^ 0xA55);
        let frames: Vec<Vec<u8>> = (0..8)
            .map(|_| encode_frame(NodeId(1), &arb_chord_msg(&mut rng)))
            .collect();
        let stream: Vec<u8> = frames.iter().flatten().copied().collect();
        let mut asm = BytesAssembler::new();
        let mut got = Vec::new();
        let mut pos = 0;
        while pos < stream.len() {
            let chunk = 1 + rng.index(40.min(stream.len() - pos));
            asm.push(Bytes::copy_from_slice(&stream[pos..pos + chunk]));
            pos += chunk;
            while let Some(f) = asm.next_frame().unwrap() {
                got.push(f.to_vec());
            }
        }
        prop_assert_eq!(got, frames);
    }
}

/// A pathological prefix every decoder must survive: maximal length
/// prefixes claiming gigabytes. Run once (not seed-swept).
#[test]
fn hostile_length_prefixes_never_allocate() {
    // Frame header declaring u32::MAX bytes.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&u32::MAX.to_le_bytes());
    hostile.extend_from_slice(&[1, 0, 0, 0, 0]);
    assert!(decode_frame::<ChordMsg>(&hostile).is_err());
    // Body-level: a Replicate whose item count claims u64::MAX.
    let mut body = vec![
        30, 0, 0, 0, // frame len = 30
        1, // version
        0, 0, 0, 0,  // from
        11, // Replicate tag
    ];
    body.extend_from_slice(&[0xff; 10]); // varint count ~ u64::MAX
    body.extend_from_slice(&[0; 11]);
    body[0] = (body.len() - 4) as u8;
    assert!(decode_frame::<ChordMsg>(&body).is_err());
}
