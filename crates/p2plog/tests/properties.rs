//! Property-based tests of the log machinery: the retriever against random
//! replica-availability matrices, the probe against random log depths, and
//! codec robustness.

use bytes::Bytes;
use p2plog::{FetchCmd, LogProbe, LogRecord, RetrieveEvent, Retriever};
use proptest::prelude::*;

/// Drive a retriever to completion against an availability oracle:
/// `available(ts, hash_idx) -> bool`. Returns the delivered timestamps (in
/// delivery order) and whether retrieval failed.
fn drive_retriever(
    from: u64,
    to: u64,
    n: usize,
    window: usize,
    available: impl Fn(u64, usize) -> bool,
) -> (Vec<u64>, bool) {
    let mut r = Retriever::new("doc", from, to, n, window);
    let mut queue: Vec<FetchCmd> = r.start();
    let mut delivered = Vec::new();
    let mut failed = false;
    let mut guard = 0;
    while let Some(cmd) = queue.pop() {
        guard += 1;
        assert!(guard < 100_000, "retriever diverged");
        let found = if available(cmd.ts, cmd.hash_idx) {
            Some(Bytes::from(format!("rec-{}", cmd.ts).into_bytes()))
        } else {
            None
        };
        let (more, events) = r.on_fetch_result(cmd.ts, cmd.hash_idx, found);
        queue.extend(more);
        for ev in events {
            match ev {
                RetrieveEvent::Deliver { ts, bytes } => {
                    assert_eq!(bytes, Bytes::from(format!("rec-{ts}").into_bytes()));
                    delivered.push(ts);
                }
                RetrieveEvent::Failed { .. } => failed = true,
                RetrieveEvent::Done => {}
            }
        }
    }
    (delivered, failed)
}

proptest! {
    /// If every timestamp survives on at least one replica, retrieval
    /// delivers the entire range strictly in order, regardless of which
    /// replicas are missing and of the pipeline window.
    #[test]
    fn full_delivery_when_one_replica_survives(
        to in 1u64..60,
        n in 1usize..5,
        window in 1usize..8,
        seed in 0u64..10_000,
    ) {
        // Deterministic availability: each (ts, idx) flips a hash-based
        // coin, but the designated survivor index for each ts always hits.
        let survivor = |ts: u64| -> usize { ((ts.wrapping_mul(seed | 1)) % n as u64) as usize + 1 };
        let available = move |ts: u64, idx: usize| -> bool {
            idx == survivor(ts)
                || (ts.wrapping_mul(0x9E37).wrapping_add(idx as u64).wrapping_mul(seed | 1))
                    .is_multiple_of(3)
        };
        let (delivered, failed) = drive_retriever(0, to, n, window, available);
        prop_assert!(!failed);
        prop_assert_eq!(delivered, (1..=to).collect::<Vec<_>>());
    }

    /// If some timestamp is lost on *all* replicas, retrieval fails at
    /// exactly the first lost timestamp and never delivers past it.
    #[test]
    fn failure_stops_exactly_at_first_hole(
        to in 2u64..40,
        n in 1usize..4,
        window in 1usize..6,
        hole_seed in 0u64..1000,
    ) {
        let hole = (hole_seed % to) + 1;
        let available = move |ts: u64, _idx: usize| ts != hole;
        let (delivered, failed) = drive_retriever(0, to, n, window, available);
        prop_assert!(failed);
        prop_assert_eq!(delivered, (1..hole).collect::<Vec<_>>());
    }

    /// The probe recovers the exact log depth for any depth/base/replica
    /// count, when replica 1 answers truthfully.
    #[test]
    fn probe_recovers_exact_depth(actual in 0u64..5000, base_frac in 0u64..100, n in 1usize..4) {
        let base = actual * base_frac / 100;
        let mut probe = LogProbe::new("doc", base, n);
        let mut steps = 0;
        while let Some(cmd) = probe.next_cmd() {
            steps += 1;
            prop_assert!(steps < 500, "too many probes");
            probe.on_result(cmd.hash_idx == 1 && cmd.ts <= actual);
        }
        prop_assert_eq!(probe.result(), Some(actual));
    }

    /// Probe correctness when an adversarial subset of replicas lost their
    /// records (any record still lives on its designated survivor).
    #[test]
    fn probe_with_partial_replica_loss(actual in 0u64..500, seed in 0u64..1000) {
        let n = 3usize;
        let survivor = |ts: u64| ((ts.wrapping_mul(seed | 1)) % n as u64) as usize + 1;
        let mut probe = LogProbe::new("doc", 0, n);
        let mut steps = 0;
        while let Some(cmd) = probe.next_cmd() {
            steps += 1;
            prop_assert!(steps < 2000);
            let present = cmd.ts <= actual && cmd.hash_idx == survivor(cmd.ts);
            probe.on_result(present);
        }
        prop_assert_eq!(probe.result(), Some(actual));
    }

    /// Log-record codec: roundtrip for arbitrary contents; any single-byte
    /// corruption is detected.
    #[test]
    fn record_roundtrip_and_corruption_detection(
        doc in "[a-zA-Z0-9/_-]{1,40}",
        ts in 0u64..u64::MAX,
        author in 0u64..u64::MAX,
        patch in prop::collection::vec(any::<u8>(), 0..200),
        flip in 0usize..1000,
    ) {
        let rec = LogRecord::new(doc, ts, author, Bytes::from(patch));
        let bytes = rec.encode();
        prop_assert_eq!(LogRecord::decode(&bytes).unwrap(), rec);
        let pos = flip % bytes.len();
        let mut bad = bytes.to_vec();
        bad[pos] ^= 0x40;
        prop_assert!(LogRecord::decode(&bad).is_err(), "corruption at {} undetected", pos);
    }
}

#[test]
fn retriever_window_never_exceeded() {
    // Count in-flight fetches at every step; they must respect the window.
    let window = 3usize;
    let mut r = Retriever::new("doc", 0, 30, 2, window);
    let mut queue: Vec<FetchCmd> = r.start();
    let mut outstanding: std::collections::HashSet<u64> = queue.iter().map(|c| c.ts).collect();
    assert!(outstanding.len() <= window);
    while let Some(cmd) = queue.pop() {
        let (more, events) =
            r.on_fetch_result(cmd.ts, cmd.hash_idx, Some(Bytes::from_static(b"x")));
        for ev in &events {
            if let RetrieveEvent::Deliver { ts, .. } = ev {
                outstanding.remove(ts);
            }
        }
        for c in &more {
            outstanding.insert(c.ts);
        }
        assert!(
            outstanding.len() <= window,
            "window violated: {outstanding:?}"
        );
        queue.extend(more);
    }
}
