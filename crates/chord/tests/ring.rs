//! Integration tests: Chord rings over the discrete-event simulator.
//!
//! These drive whole rings through joins, lookups, storage, crashes and
//! graceful departures, checking the protocol against a sorted-ring oracle.

use bytes::Bytes;
use chord::harness::{build_ring, oracle_owner, ChordDriver, Cmd, DriverMsg};
use chord::{ChordConfig, ChordEvent, Id, NodeRef, PutMode};
use simnet::{Duration, NetConfig, NodeId, Sim};

fn lan_sim(seed: u64) -> Sim<DriverMsg> {
    Sim::new(seed, NetConfig::lan())
}

fn settle(sim: &mut Sim<DriverMsg>, secs: u64) {
    sim.run_for(Duration::from_secs(secs));
}

/// All alive drivers as (addr, ring ref), sorted by ring id.
fn alive_ring(sim: &Sim<DriverMsg>) -> Vec<NodeRef> {
    let mut v: Vec<NodeRef> = sim
        .alive_nodes()
        .into_iter()
        .filter_map(|a| sim.node_as::<ChordDriver>(a).map(|d| d.node.me()))
        .collect();
    v.sort_by_key(|r| r.id);
    v
}

/// Assert every alive node's successor/predecessor pointers match the
/// sorted ring.
fn assert_ring_consistent(sim: &Sim<DriverMsg>) {
    let ring = alive_ring(sim);
    let n = ring.len();
    assert!(n >= 1);
    for (i, r) in ring.iter().enumerate() {
        let d = sim.node_as::<ChordDriver>(r.addr).unwrap();
        let expect_succ = ring[(i + 1) % n];
        let expect_pred = ring[(i + n - 1) % n];
        if n == 1 {
            assert_eq!(d.node.successor().id, r.id, "singleton successor");
        } else {
            assert_eq!(
                d.node.successor().id,
                expect_succ.id,
                "successor of {:?} (node {i} of {n})",
                r
            );
            let pred = d.node.predecessor().expect("predecessor unknown");
            assert_eq!(pred.id, expect_pred.id, "predecessor of {:?}", r);
        }
    }
}

#[test]
fn ring_of_16_converges() {
    let mut sim = lan_sim(1);
    let cfg = ChordConfig::default();
    let refs = build_ring(&mut sim, 16, &cfg, Duration::from_millis(200));
    assert_eq!(refs.len(), 16);
    settle(&mut sim, 30);
    assert_ring_consistent(&sim);
    // Everyone reports joined.
    for r in &refs {
        let d = sim.node_as::<ChordDriver>(r.addr).unwrap();
        assert!(d.node.is_joined(), "{:?} not joined", r);
        assert!(d.events.iter().any(|e| matches!(e, ChordEvent::Joined)));
    }
}

#[test]
fn two_node_bootstrap() {
    let mut sim = lan_sim(2);
    let cfg = ChordConfig::default();
    build_ring(&mut sim, 2, &cfg, Duration::from_millis(100));
    settle(&mut sim, 10);
    assert_ring_consistent(&sim);
}

#[test]
fn lookups_match_sorted_ring_oracle() {
    let mut sim = lan_sim(3);
    let cfg = ChordConfig::default();
    let refs = build_ring(&mut sim, 24, &cfg, Duration::from_millis(150));
    settle(&mut sim, 30);
    assert_ring_consistent(&sim);

    // Issue 60 lookups from varied origins.
    let keys: Vec<Id> = (0..60)
        .map(|i| Id::hash(format!("key-{i}").as_bytes()))
        .collect();
    for (i, &key) in keys.iter().enumerate() {
        let origin = refs[i % refs.len()].addr;
        sim.send_external(origin, DriverMsg::Cmd(Cmd::Lookup(key)));
    }
    settle(&mut sim, 10);

    let ring = alive_ring(&sim);
    let mut checked = 0;
    for r in &ring {
        let d = sim.node_as::<ChordDriver>(r.addr).unwrap();
        for c in &d.completions {
            if let ChordEvent::LookupDone { owner, .. } = &c.event {
                // Find which key this was: we can't recover it from the op,
                // so instead check the owner is *some* oracle owner — i.e.
                // the owner owns the key range it claims. Stronger check
                // below via per-key lookups.
                let _ = owner;
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 60, "all lookups completed");

    // Stronger per-key check: issue one lookup per key from a single node
    // and verify against the oracle.
    let probe = refs[0].addr;
    for &key in &keys {
        sim.send_external(probe, DriverMsg::Cmd(Cmd::Lookup(key)));
    }
    let before = sim.node_as::<ChordDriver>(probe).unwrap().completions.len();
    let _ = before;
    settle(&mut sim, 10);
    let d = sim.node_as::<ChordDriver>(probe).unwrap();
    let ring = alive_ring(&sim);
    let tail: Vec<_> = d.completions.iter().rev().take(keys.len()).collect();
    assert_eq!(tail.len(), keys.len());
    // Completions come back in some order; verify each claimed owner is the
    // oracle owner of *some* key and collect per-op targets by re-deriving:
    // lookups were issued in key order and ops are monotonic, so sort by op.
    let mut with_ops: Vec<_> = tail
        .iter()
        .map(|c| {
            let owner = match &c.event {
                ChordEvent::LookupDone { owner, .. } => *owner,
                other => panic!("lookup failed: {other:?}"),
            };
            (c.op, owner)
        })
        .collect();
    with_ops.sort_by_key(|(op, _)| *op);
    for ((_, owner), &key) in with_ops.iter().zip(keys.iter()) {
        let expect = oracle_owner(&ring, key);
        assert_eq!(
            owner.id, expect.id,
            "owner mismatch for key {key:?}: got {owner:?} want {expect:?}"
        );
    }
}

#[test]
fn put_then_get_from_other_node() {
    let mut sim = lan_sim(4);
    let cfg = ChordConfig::default();
    let refs = build_ring(&mut sim, 8, &cfg, Duration::from_millis(150));
    settle(&mut sim, 20);

    let key = Id::hash(b"document-alpha");
    let val = Bytes::from_static(b"patch contents");
    sim.send_external(
        refs[1].addr,
        DriverMsg::Cmd(Cmd::Put(key, val.clone(), PutMode::Overwrite)),
    );
    settle(&mut sim, 5);
    sim.send_external(refs[5].addr, DriverMsg::Cmd(Cmd::Get(key)));
    settle(&mut sim, 5);

    let d = sim.node_as::<ChordDriver>(refs[5].addr).unwrap();
    let got = d
        .completions
        .iter()
        .rev()
        .find_map(|c| match &c.event {
            ChordEvent::GetDone { value, ok, .. } => Some((value.clone(), *ok)),
            _ => None,
        })
        .expect("no get completion");
    assert!(got.1);
    assert_eq!(got.0, Some(val));
}

#[test]
fn get_of_absent_key_is_authoritative_miss() {
    let mut sim = lan_sim(5);
    let cfg = ChordConfig::default();
    let refs = build_ring(&mut sim, 6, &cfg, Duration::from_millis(150));
    settle(&mut sim, 20);
    sim.send_external(
        refs[2].addr,
        DriverMsg::Cmd(Cmd::Get(Id::hash(b"never-written"))),
    );
    settle(&mut sim, 5);
    let d = sim.node_as::<ChordDriver>(refs[2].addr).unwrap();
    let (value, ok) = d
        .completions
        .iter()
        .rev()
        .find_map(|c| match &c.event {
            ChordEvent::GetDone { value, ok, .. } => Some((value.clone(), *ok)),
            _ => None,
        })
        .expect("no completion");
    assert!(ok, "authoritative miss should not be an error");
    assert_eq!(value, None);
}

#[test]
fn first_writer_wins_reports_conflict() {
    let mut sim = lan_sim(6);
    let cfg = ChordConfig::default();
    let refs = build_ring(&mut sim, 6, &cfg, Duration::from_millis(100));
    settle(&mut sim, 20);

    let key = Id::hash(b"contested");
    sim.send_external(
        refs[0].addr,
        DriverMsg::Cmd(Cmd::Put(
            key,
            Bytes::from_static(b"A"),
            PutMode::FirstWriter,
        )),
    );
    settle(&mut sim, 5);
    sim.send_external(
        refs[3].addr,
        DriverMsg::Cmd(Cmd::Put(
            key,
            Bytes::from_static(b"B"),
            PutMode::FirstWriter,
        )),
    );
    settle(&mut sim, 5);

    let loser = sim.node_as::<ChordDriver>(refs[3].addr).unwrap();
    let conflict = loser
        .completions
        .iter()
        .rev()
        .find_map(|c| match &c.event {
            ChordEvent::PutDone { ok, conflict, .. } => Some((*ok, conflict.clone())),
            _ => None,
        })
        .expect("no put completion");
    assert!(!conflict.0, "second writer must lose");
    assert_eq!(conflict.1, Some(Bytes::from_static(b"A")));
}

#[test]
fn data_survives_owner_crash_via_replicas() {
    let mut sim = lan_sim(7);
    let cfg = ChordConfig {
        storage_replicas: 2,
        ..ChordConfig::default()
    };
    let refs = build_ring(&mut sim, 10, &cfg, Duration::from_millis(150));
    settle(&mut sim, 25);

    // Store 20 items.
    let keys: Vec<Id> = (0..20)
        .map(|i| Id::hash(format!("survivor-{i}").as_bytes()))
        .collect();
    for (i, &k) in keys.iter().enumerate() {
        sim.send_external(
            refs[i % refs.len()].addr,
            DriverMsg::Cmd(Cmd::Put(
                k,
                Bytes::copy_from_slice(format!("value-{i}").as_bytes()),
                PutMode::Overwrite,
            )),
        );
    }
    settle(&mut sim, 10);

    // Crash the owners of the first five keys (distinct nodes only).
    let ring = alive_ring(&sim);
    let mut crashed: Vec<NodeId> = Vec::new();
    for &k in keys.iter().take(5) {
        let owner = oracle_owner(&ring, k);
        if !crashed.contains(&owner.addr) {
            crashed.push(owner.addr);
            sim.crash(owner.addr);
        }
        if crashed.len() >= 2 {
            break; // keep a healthy majority
        }
    }
    assert!(!crashed.is_empty());
    settle(&mut sim, 30); // stabilization + suspect expiry + repair

    // Every key is still retrievable from a surviving node.
    let probe = alive_ring(&sim)[0].addr;
    for &k in &keys {
        sim.send_external(probe, DriverMsg::Cmd(Cmd::Get(k)));
    }
    settle(&mut sim, 20);
    let d = sim.node_as::<ChordDriver>(probe).unwrap();
    let gets: Vec<_> = d
        .completions
        .iter()
        .filter_map(|c| match &c.event {
            ChordEvent::GetDone { value, ok, .. } => Some((value.clone(), *ok)),
            _ => None,
        })
        .collect();
    assert_eq!(gets.len(), keys.len());
    let missing = gets.iter().filter(|(v, _)| v.is_none()).count();
    assert_eq!(
        missing,
        0,
        "{missing} of {} keys lost after crash",
        keys.len()
    );
}

#[test]
fn graceful_leave_hands_over_keys_and_relinks_ring() {
    let mut sim = lan_sim(8);
    let cfg = ChordConfig::default();
    let refs = build_ring(&mut sim, 8, &cfg, Duration::from_millis(150));
    settle(&mut sim, 20);

    let keys: Vec<Id> = (0..12)
        .map(|i| Id::hash(format!("leave-{i}").as_bytes()))
        .collect();
    for &k in &keys {
        sim.send_external(
            refs[0].addr,
            DriverMsg::Cmd(Cmd::Put(k, Bytes::from_static(b"v"), PutMode::Overwrite)),
        );
    }
    settle(&mut sim, 10);

    // Gracefully remove two nodes (not the probe node).
    sim.send_external(refs[3].addr, DriverMsg::Cmd(Cmd::Leave));
    settle(&mut sim, 5);
    sim.send_external(refs[6].addr, DriverMsg::Cmd(Cmd::Leave));
    settle(&mut sim, 20);

    assert_ring_consistent(&sim);
    for &k in &keys {
        sim.send_external(refs[0].addr, DriverMsg::Cmd(Cmd::Get(k)));
    }
    settle(&mut sim, 10);
    let d = sim.node_as::<ChordDriver>(refs[0].addr).unwrap();
    let gets: Vec<_> = d
        .completions
        .iter()
        .filter_map(|c| match &c.event {
            ChordEvent::GetDone { value, .. } => Some(value.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(gets.len(), keys.len());
    assert!(
        gets.iter().all(|v| v.is_some()),
        "keys lost on graceful leave"
    );
}

#[test]
fn late_joiner_takes_over_its_range() {
    let mut sim = lan_sim(9);
    let cfg = ChordConfig::default();
    let refs = build_ring(&mut sim, 8, &cfg, Duration::from_millis(150));
    settle(&mut sim, 20);

    let keys: Vec<Id> = (0..30)
        .map(|i| Id::hash(format!("join-{i}").as_bytes()))
        .collect();
    for &k in &keys {
        sim.send_external(
            refs[0].addr,
            DriverMsg::Cmd(Cmd::Put(k, Bytes::from_static(b"v"), PutMode::Overwrite)),
        );
    }
    settle(&mut sim, 10);

    // Add a brand-new node.
    let new_id = Id::hash(b"late-joiner");
    let addr = NodeId(sim.node_count() as u32);
    let me = NodeRef::new(addr, new_id);
    let assigned = sim.add_node(ChordDriver::new(me, cfg.clone(), Some(refs[0])));
    assert_eq!(assigned, addr);
    settle(&mut sim, 30);

    assert_ring_consistent(&sim);
    // The joiner is now the oracle owner for part of the space; data must
    // have moved to it for any of our keys it owns.
    let ring = alive_ring(&sim);
    let joiner = sim.node_as::<ChordDriver>(addr).unwrap();
    let owned: Vec<Id> = keys
        .iter()
        .copied()
        .filter(|&k| oracle_owner(&ring, k).id == new_id)
        .collect();
    for k in &owned {
        assert!(
            joiner.node.storage().get_primary(*k).is_some(),
            "joiner missing primary for {k:?}"
        );
    }
    // And everything is still retrievable.
    for &k in &keys {
        sim.send_external(refs[1].addr, DriverMsg::Cmd(Cmd::Get(k)));
    }
    settle(&mut sim, 10);
    let d = sim.node_as::<ChordDriver>(refs[1].addr).unwrap();
    let ok = d
        .completions
        .iter()
        .filter(|c| matches!(&c.event, ChordEvent::GetDone { value: Some(_), .. }))
        .count();
    assert_eq!(ok, keys.len());
}

#[test]
fn lookup_hops_scale_logarithmically() {
    let mut sim = lan_sim(10);
    let cfg = ChordConfig::default();
    let refs = build_ring(&mut sim, 64, &cfg, Duration::from_millis(100));
    settle(&mut sim, 60); // let fingers converge

    for i in 0..200 {
        let key = Id::hash(format!("hopkey-{i}").as_bytes());
        sim.send_external(refs[i % refs.len()].addr, DriverMsg::Cmd(Cmd::Lookup(key)));
    }
    settle(&mut sim, 10);
    let hops = sim.metrics().summary("chord.lookup_hops");
    assert_eq!(hops.count, 200, "all lookups completed");
    // log2(64) = 6; allow generous slack for imperfect fingers.
    assert!(hops.mean <= 8.0, "mean hops {:.2} too high", hops.mean);
    assert_eq!(sim.metrics().counter("chord.lookups_failed"), 0);
}

#[test]
fn determinism_full_ring_run() {
    let run = |seed: u64| -> (u64, u64, u64) {
        let mut sim = lan_sim(seed);
        let cfg = ChordConfig::default();
        let refs = build_ring(&mut sim, 12, &cfg, Duration::from_millis(150));
        settle(&mut sim, 15);
        for i in 0..20 {
            let key = Id::hash(format!("det-{i}").as_bytes());
            sim.send_external(
                refs[i % refs.len()].addr,
                DriverMsg::Cmd(Cmd::Put(key, Bytes::from_static(b"x"), PutMode::Overwrite)),
            );
        }
        settle(&mut sim, 10);
        (
            sim.metrics().counter("sim.msgs_delivered"),
            sim.metrics().counter("chord.puts_ok"),
            sim.metrics().counter("sim.timers_fired"),
        )
    };
    assert_eq!(run(42), run(42));
}
