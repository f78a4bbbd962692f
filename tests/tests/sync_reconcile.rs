//! Property test for the Merkle-diff anti-entropy protocol: two nodes
//! whose stores diverged arbitrarily must reconcile to byte-identical
//! contents, with the wire cost of the round logged per message class.
//!
//! The harness embeds two raw [`chord::ChordNode`] state machines with a
//! deterministic in-memory shuttle (no simulator): messages are delivered
//! FIFO and timers fire in deadline order, so every proptest case is
//! exactly reproducible from its generated inputs. Bytes are counted by
//! encoding each shuttled message with the production `wire` codec — the
//! same accounting the benches report.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use chord::{ChordConfig, Id, NodeRef};
use proptest::prelude::*;
use simnet::{NodeId, Time};
use wire::{chord_class, Encode};

/// Owner ring id: top of the ring, so its primary arc is the upper half.
const OWNER_ID: u64 = u64::MAX;
/// Replica ring id: halfway point.
const REPLICA_ID: u64 = u64::MAX / 2;

/// Map an arbitrary u64 into the owner's primary arc `(REPLICA_ID, OWNER_ID]`.
fn owner_key(k: u64) -> Id {
    Id(REPLICA_ID + 1 + (k >> 1))
}

/// Per-entry divergence the replica starts from.
#[derive(Clone, Copy, Debug)]
enum Drift {
    /// Replica already holds the owner's exact bytes.
    InSync,
    /// Replica holds different bytes under the same key.
    Stale,
    /// Replica does not hold the key at all.
    Missing,
}

fn drift_of(sel: u8) -> Drift {
    match sel % 3 {
        0 => Drift::InSync,
        1 => Drift::Stale,
        _ => Drift::Missing,
    }
}

/// Deterministic two-node shuttle around raw Chord state machines.
struct TwoNodes {
    owner: chord::ChordNode,
    replica: chord::ChordNode,
    now: Time,
    /// FIFO message queue: (to, from, msg).
    msgs: VecDeque<(NodeId, NodeId, chord::ChordMsg)>,
    /// Pending timers keyed by (deadline, insertion seq, node).
    timers: BTreeMap<(Time, u64, NodeId), chord::ChordTimer>,
    seq: u64,
    msg_count: u64,
    byte_count: u64,
    bytes_by_class: BTreeMap<&'static str, u64>,
}

const OWNER_ADDR: NodeId = NodeId(1);
const REPLICA_ADDR: NodeId = NodeId(2);

impl TwoNodes {
    fn new() -> Self {
        let cfg = ChordConfig::default();
        let owner_ref = NodeRef {
            addr: OWNER_ADDR,
            id: Id(OWNER_ID),
        };
        let replica_ref = NodeRef {
            addr: REPLICA_ADDR,
            id: Id(REPLICA_ID),
        };
        let mut h = TwoNodes {
            owner: chord::ChordNode::new(owner_ref, cfg.clone()),
            replica: chord::ChordNode::new(replica_ref, cfg),
            now: Time::ZERO,
            msgs: VecDeque::new(),
            timers: BTreeMap::new(),
            seq: 0,
            msg_count: 0,
            byte_count: 0,
            bytes_by_class: BTreeMap::new(),
        };
        let acts = h.owner.start(h.now, None);
        h.absorb(OWNER_ADDR, acts);
        let acts = h.replica.start(h.now, Some(owner_ref));
        h.absorb(REPLICA_ADDR, acts);
        h
    }

    fn absorb(&mut self, from: NodeId, acts: Vec<chord::Action>) {
        for a in acts {
            match a {
                chord::Action::Send(to, msg) => {
                    self.msg_count += 1;
                    let len = msg.encoded_len() as u64;
                    self.byte_count += len;
                    *self.bytes_by_class.entry(chord_class(&msg)).or_insert(0) += len;
                    self.msgs.push_back((to, from, msg));
                }
                chord::Action::SetTimer(d, t) => {
                    self.seq += 1;
                    self.timers
                        .insert((self.now.saturating_add(d), self.seq, from), t);
                }
                chord::Action::Event(_) => {}
            }
        }
    }

    fn deliver_all(&mut self) {
        let mut steps = 0u32;
        while let Some((to, from, msg)) = self.msgs.pop_front() {
            steps += 1;
            assert!(steps < 100_000, "message shuttle diverged (protocol loop)");
            let acts = match to {
                OWNER_ADDR => self.owner.handle(self.now, from, msg),
                REPLICA_ADDR => self.replica.handle(self.now, from, msg),
                _ => continue,
            };
            self.absorb(to, acts);
        }
    }

    /// Drive messages + timers until the two-node ring is fully linked.
    fn form_ring(&mut self) {
        for _ in 0..10_000 {
            self.deliver_all();
            if self.ring_formed() {
                return;
            }
            let Some((&(at, s, node), _)) = self.timers.iter().next() else {
                break;
            };
            let t = self.timers.remove(&(at, s, node)).expect("timer just seen");
            self.now = self.now.max(at);
            let acts = match node {
                OWNER_ADDR => self.owner.on_timer(self.now, t),
                _ => self.replica.on_timer(self.now, t),
            };
            self.absorb(node, acts);
        }
        panic!("two-node ring failed to form");
    }

    fn ring_formed(&self) -> bool {
        self.owner.is_joined()
            && self.replica.is_joined()
            && self.owner.successor().id == Id(REPLICA_ID)
            && self.replica.successor().id == Id(OWNER_ID)
            && self.owner.predecessor().map(|p| p.id) == Some(Id(REPLICA_ID))
            && self.replica.predecessor().map(|p| p.id) == Some(Id(OWNER_ID))
    }

    /// Zero the wire accounting (ring formation traffic is not the
    /// replication round under measurement).
    fn reset_accounting(&mut self) {
        self.msg_count = 0;
        self.byte_count = 0;
        self.bytes_by_class.clear();
    }

    /// Fire one replicate tick on the owner and drain the exchange.
    /// Timers armed during the round are deliberately not fired: a
    /// healthy round must complete on message flow alone.
    fn run_replicate_round(&mut self) {
        let acts = self.owner.on_timer(self.now, chord::ChordTimer::Replicate);
        self.absorb(OWNER_ADDR, acts);
        self.deliver_all();
    }
}

/// Seed both stores from the generated divergence plan. Returns the
/// owner's expected in-range contents.
fn seed_stores(
    h: &mut TwoNodes,
    items: &BTreeMap<u64, Vec<u8>>,
    selectors: &[u8],
    extras: &BTreeMap<u64, Vec<u8>>,
) -> BTreeMap<Id, Bytes> {
    let mut expect = BTreeMap::new();
    for (i, (k, v)) in items.iter().enumerate() {
        let key = owner_key(*k);
        let val = Bytes::from(v.clone());
        h.owner.storage_mut().put_primary(key, val.clone());
        match drift_of(selectors[i % selectors.len()]) {
            Drift::InSync => h.replica.storage_mut().put_replica(key, val.clone()),
            Drift::Stale => {
                let mut stale = v.clone();
                stale.push(0xFF);
                h.replica.storage_mut().put_replica(key, Bytes::from(stale));
            }
            Drift::Missing => {}
        }
        expect.insert(key, val);
    }
    for (k, v) in extras {
        // A collision with an owner key is just another stale entry;
        // a true extra must be pruned by the round.
        h.replica
            .storage_mut()
            .put_replica(owner_key(*k), Bytes::from(v.clone()));
    }
    expect
}

fn check_converged(h: &mut TwoNodes, expect: &BTreeMap<Id, Bytes>) {
    for (k, v) in expect {
        assert_eq!(
            h.replica.storage().get(*k),
            Some(v),
            "replica missing or stale at {k:?} after reconciliation"
        );
    }
    let replica_keys: Vec<Id> = h
        .replica
        .storage()
        .iter_replica()
        .map(|(k, _)| *k)
        .collect();
    for k in replica_keys {
        assert!(
            expect.contains_key(&k),
            "replica kept {k:?}, which the owner no longer holds"
        );
    }
    // The strongest form: the replica's union summary now reproduces
    // the owner's primary root over the synced range.
    let from = Id(REPLICA_ID);
    let to = Id(OWNER_ID);
    let owner_pairs = h
        .owner
        .storage_mut()
        .sync_bucket_digests(chord::SyncView::Primary, from, to);
    let replica_pairs =
        h.replica
            .storage_mut()
            .sync_bucket_digests(chord::SyncView::Union, from, to);
    assert_eq!(
        chord::sync::range_root(&owner_pairs),
        chord::sync::range_root(&replica_pairs),
        "summaries disagree after reconciliation"
    );
}

/// Strategy for a keyed byte-value map (the vendored proptest has no
/// `btree_map` combinator, so build one from `vec` + `prop_map`).
fn kv_map(size: std::ops::Range<usize>) -> impl Strategy<Value = BTreeMap<u64, Vec<u8>>> {
    proptest::collection::vec(
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..24)),
        size,
    )
    .prop_map(|pairs| pairs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary divergence (stale values, missing records, deleted
    /// records) reconciles to byte-identical contents in one Merkle
    /// round, and the replica holds nothing the owner dropped.
    #[test]
    fn merkle_round_reconciles_any_divergence(
        items in kv_map(1..40),
        selectors in proptest::collection::vec(any::<u8>(), 1..40),
        extras in kv_map(0..8),
    ) {
        let mut h = TwoNodes::new();
        h.form_ring();
        let expect = seed_stores(&mut h, &items, &selectors, &extras);
        h.reset_accounting();
        h.run_replicate_round();
        check_converged(&mut h, &expect);

        // A second round over already-identical stores is root-exchange
        // only: one SyncRoot, one SyncAck, no descent, no records.
        h.reset_accounting();
        h.run_replicate_round();
        prop_assert!(h.msg_count <= 2, "steady-state round sent {} messages", h.msg_count);
        prop_assert_eq!(h.bytes_by_class.get("chord.replicate").copied().unwrap_or(0), 0,
            "steady-state round shipped records");
    }

    /// Wire cost of a Merkle round on the same divergence, logged per
    /// class next to what a full push of the owner's store (one
    /// `Replicate` carrying every primary record) would have cost. (No
    /// universal `merkle < full` assertion: for tiny stores the descent
    /// overhead can exceed one small push — the crossover is what the
    /// benches quantify.)
    #[test]
    fn merkle_and_full_push_costs_logged(
        items in kv_map(1..40),
        selectors in proptest::collection::vec(any::<u8>(), 1..40),
    ) {
        let extras = BTreeMap::new();

        let mut m = TwoNodes::new();
        m.form_ring();
        let expect = seed_stores(&mut m, &items, &selectors, &extras);
        let full_push = chord::ChordMsg::Replicate {
            items: m.owner.storage().primary_items(),
        }
        .encoded_len();
        m.reset_accounting();
        m.run_replicate_round();
        check_converged(&mut m, &expect);

        println!(
            "reconcile {} items: merkle {} msgs / {} bytes {:?} vs full push 1 msg / {} bytes",
            items.len(), m.msg_count, m.byte_count, m.bytes_by_class, full_push,
        );
    }
}

/// Non-proptest pin of the steady-state cost: an in-sync pair exchanges
/// exactly `SyncRoot` + `SyncAck` per round.
#[test]
fn steady_state_is_two_small_messages() {
    let mut h = TwoNodes::new();
    h.form_ring();
    let items: BTreeMap<u64, Vec<u8>> = (0u64..32).map(|i| (i << 32, vec![i as u8; 16])).collect();
    let expect = seed_stores(&mut h, &items, &[0], &BTreeMap::new());
    h.run_replicate_round();
    check_converged(&mut h, &expect);

    h.reset_accounting();
    h.run_replicate_round();
    assert_eq!(
        h.msg_count, 2,
        "steady state: root + ack, got {:?}",
        h.bytes_by_class
    );
    assert!(h.bytes_by_class.contains_key("chord.sync.root"));
    assert!(h.bytes_by_class.contains_key("chord.sync.ack"));
    assert!(
        h.byte_count < 100,
        "steady-state round cost {} bytes",
        h.byte_count
    );
}
