//! Grant hints end to end: the master tells the holders that poll it
//! about every grant, and a holder that is told nothing — or nonsense —
//! behaves exactly like one that only polls.

use chord::NodeRef;
use kts::KtsMsg;
use p2p_ltr::harness::LtrNet;
use p2p_ltr::{check_all, LtrConfig, LtrEventKind, Payload};
use simnet::{Duration, FaultPlan, NetConfig, Time};

const DOC: &str = "wiki/Main";

/// A reader on the LAN model (0.5–2 ms one way) needs the hint, a DHT
/// lookup and a fetch per record; 60 ms is several times that and a
/// sixteenth of the poll period a hint-less reader waits out.
const HINT_LAG: Duration = Duration::from_millis(60);

fn build(seed: u64, n: usize, cfg: LtrConfig) -> LtrNet {
    let mut net = LtrNet::build(seed, NetConfig::lan(), n, cfg, Duration::from_millis(150));
    net.settle(25);
    net
}

/// Default configuration without the anti-entropy tick: nobody polls, so
/// nobody subscribes, and a replica learns only what the test tells it.
fn no_polls() -> LtrConfig {
    LtrConfig {
        sync_every: None,
        ..LtrConfig::default()
    }
}

/// `n` peers that are not the document's master, so that crashing,
/// cutting or retiring the master never takes a replica with it.
fn holders_off_master(net: &LtrNet, n: usize) -> Vec<NodeRef> {
    let master = net.master_of(DOC);
    net.peers
        .iter()
        .copied()
        .filter(|p| p.addr != master.addr)
        .take(n)
        .collect()
}

/// When `peer` first logged an event `pick` accepts.
fn when(net: &LtrNet, peer: NodeRef, pick: impl Fn(&LtrEventKind) -> bool) -> Option<Time> {
    net.node(peer)
        .events
        .iter()
        .find(|e| pick(&e.kind))
        .map(|e| e.at)
}

fn integrated_at(net: &LtrNet, peer: NodeRef, want: u64) -> Option<Time> {
    when(
        net,
        peer,
        |k| matches!(k, LtrEventKind::Integrated { ts, .. } if *ts == want),
    )
}

fn count(net: &LtrNet, peer: NodeRef, pick: impl Fn(&LtrEventKind) -> bool) -> usize {
    net.node(peer)
        .events
        .iter()
        .filter(|e| pick(&e.kind))
        .count()
}

/// Save one more line at `writer` on top of whatever it shows now.
fn save(net: &mut LtrNet, writer: NodeRef, line: &str) {
    let cur = net.node(writer).doc_text(DOC).expect("doc open at writer");
    net.edit(writer, DOC, &format!("{cur}\n{line}"));
}

fn hint(ts: u64) -> Payload {
    Payload::Kts(KtsMsg::Published {
        key: p2plog::ht(DOC),
        ts,
    })
}

fn assert_oracles_clean(net: &LtrNet) {
    let report = check_all(&net.sim);
    assert!(report.is_clean(), "{}", report.summary());
}

#[test]
fn idle_readers_integrate_within_60ms_of_the_grant() {
    let mut net = build(0x41_01, 8, LtrConfig::default());
    net.enable_wire_accounting();
    let holders = net.peers[..4].to_vec();
    let (writer, readers) = (holders[0], &holders[1..]);
    net.open_doc(&holders, DOC, "v0");
    net.settle(3); // every holder has polled at least twice: subscribed

    // 1.3 s apart, so the grants drift across the readers' 1 s poll phase.
    for round in 1..=5 {
        save(&mut net, writer, &format!("round-{round}"));
        net.run_for(Duration::from_millis(1_300));
    }

    for ts in 1..=5 {
        let granted = when(
            &net,
            writer,
            |k| matches!(k, LtrEventKind::OwnPublished { ts: t, .. } if *t == ts),
        )
        .unwrap_or_else(|| panic!("ts {ts} never granted"));
        for r in readers {
            let at = integrated_at(&net, *r, ts)
                .unwrap_or_else(|| panic!("{r:?} never integrated ts {ts}"));
            let lag = at.since(granted);
            assert!(
                lag <= HINT_LAG,
                "{r:?} integrated ts {ts} {lag} after the grant"
            );
        }
    }
    assert_oracles_clean(&net);

    // Hints, not patches: one per grant and reader (the writer is told
    // by `Granted`; the master may or may not hold a replica), in their
    // own wire class, around thirty bytes framed.
    let m = net.sim.metrics();
    let sent = m.counter("kts.hints_sent");
    assert!((15..=20).contains(&sent), "{sent} hints for 5 grants");
    assert_eq!(m.counter("wire.msgs.kts.published"), sent);
    assert!(m.counter("wire.bytes.kts.published") <= 32 * sent);
    assert_eq!(m.counter("ltr.hints_followed"), sent);
}

#[test]
fn duplicate_reordered_and_stale_hints_are_no_ops() {
    let mut net = build(0x41_02, 8, no_polls());
    let (writer, reader) = (net.peers[0], net.peers[1]);
    net.open_doc(&[writer, reader], DOC, "v0");
    net.settle(1);
    for line in ["one", "two"] {
        save(&mut net, writer, line);
        assert!(net.run_until_quiet(&[DOC], 30));
    }
    assert_eq!(net.node(reader).doc_ts(DOC), Some(0), "nobody told it");

    // Newest first, then the older one it overtook, then a duplicate.
    for ts in [2, 1, 2] {
        net.sim.send_external(reader.addr, hint(ts));
    }
    net.run_for(Duration::from_millis(500));
    assert_eq!(net.node(reader).doc_ts(DOC), Some(2));
    // And again once everything is integrated.
    for ts in [2, 1] {
        net.sim.send_external(reader.addr, hint(ts));
    }
    net.run_for(Duration::from_millis(500));

    let m = net.sim.metrics();
    assert_eq!(m.counter("ltr.hints_followed"), 1);
    assert_eq!(m.counter("ltr.hints_deferred"), 0);
    assert_eq!(m.counter("ltr.hints_stale"), 4);
    assert_eq!(m.counter("ltr.retrievals"), 1, "one retrieval, to ts 2");
    let hinted = |k: &LtrEventKind| matches!(k, LtrEventKind::Hinted { ts: 2, .. });
    assert_eq!(count(&net, reader, hinted), 1);
    let integrated = |k: &LtrEventKind| matches!(k, LtrEventKind::Integrated { .. });
    assert_eq!(count(&net, reader, integrated), 2);
    assert_eq!(
        net.node(reader).doc_text(DOC),
        net.node(writer).doc_text(DOC)
    );
    assert_oracles_clean(&net);
}

#[test]
fn hint_beyond_the_log_stalls_cleanly_and_is_forgotten() {
    let mut net = build(0x41_03, 8, no_polls());
    let (writer, reader) = (net.peers[0], net.peers[1]);
    net.open_doc(&[writer, reader], DOC, "v0");
    net.settle(1);
    for line in ["one", "two"] {
        save(&mut net, writer, line);
        assert!(net.run_until_quiet(&[DOC], 30));
    }

    // A deposed master's word: the log ends at 2.
    net.sim.send_external(reader.addr, hint(5));
    net.settle(5);

    // What the log holds was integrated, in order; the rest stalled once,
    // backed off once, and was not chased again.
    assert_eq!(net.node(reader).doc_ts(DOC), Some(2));
    assert!(!net.node(reader).is_busy(DOC));
    let stalled = |k: &LtrEventKind| matches!(k, LtrEventKind::RetrievalStalled { ts: 3, .. });
    assert_eq!(count(&net, reader, stalled), 1);
    let backed_off = |k: &LtrEventKind| matches!(k, LtrEventKind::CycleBackedOff { .. });
    assert_eq!(count(&net, reader, backed_off), 1);
    assert_eq!(net.sim.metrics().counter("ltr.retrievals"), 1);
    assert_eq!(
        net.node(reader).doc_text(DOC),
        net.node(writer).doc_text(DOC)
    );
    assert_oracles_clean(&net);

    // The replica is not wedged: the next real grant reaches it.
    save(&mut net, writer, "three");
    assert!(net.run_until_quiet(&[DOC], 30));
    net.sim.send_external(reader.addr, hint(3));
    net.run_for(Duration::from_millis(500));
    assert_eq!(net.node(reader).doc_ts(DOC), Some(3));
    assert_oracles_clean(&net);
}

#[test]
fn new_master_hints_again_within_one_poll_period() {
    let mut net = build(0x41_04, 10, LtrConfig::default());
    let period = net.cfg.sync_every.expect("default polls");
    let old_master = net.master_of(DOC);
    let holders = holders_off_master(&net, 4);
    let (writer, readers) = (holders[0], &holders[1..]);
    net.open_doc(&holders, DOC, "v0");
    net.settle(3);
    for i in 0..3 {
        save(&mut net, writer, &format!("before-{i}"));
        net.run_for(Duration::from_millis(400));
    }

    net.crash(old_master);
    let crashed = net.now();
    for i in 0..40 {
        save(&mut net, writer, &format!("after-{i}"));
        net.run_for(Duration::from_millis(400));
    }
    assert!(net.run_until_quiet(&[DOC], 60));
    net.settle(3);
    assert_oracles_clean(&net);

    // Grants of the successor, in time order.
    let new_master = net.master_of(DOC);
    let grants: Vec<(Time, u64)> = net
        .node(new_master)
        .events
        .iter()
        .filter(|e| e.at > crashed)
        .filter_map(|e| match &e.kind {
            LtrEventKind::MasterGranted { ts, .. } => Some((e.at, *ts)),
            _ => None,
        })
        .collect();
    let (first, _) = *grants.first().expect("the successor took over");
    let hinted_again: Vec<_> = grants
        .iter()
        .filter(|(at, _)| *at >= first + period)
        .collect();
    assert!(hinted_again.len() >= 5, "too few grants to judge");
    for (at, ts) in hinted_again {
        for r in readers {
            let seen = integrated_at(&net, *r, *ts)
                .unwrap_or_else(|| panic!("{r:?} never integrated ts {ts}"));
            let lag = seen.since(*at);
            assert!(
                lag <= HINT_LAG,
                "{r:?} integrated ts {ts} {lag} after the new master granted it"
            );
        }
    }
}

#[test]
fn reader_cut_off_from_the_master_converges_by_poll_alone() {
    let mut net = build(0x41_05, 8, LtrConfig::default());
    net.install_faults(FaultPlan::new(0x41_05));
    let period = net.cfg.sync_every.expect("default polls");
    let master = net.master_of(DOC);
    let holders = holders_off_master(&net, 4);
    let (writer, victim) = (holders[0], holders[1]);
    net.open_doc(&holders, DOC, "v0");
    net.settle(3);

    // master → victim only: the victim's polls still arrive and keep its
    // subscription alive; every hint (and poll reply) sent to it is lost.
    // (So is the master's log traffic to it: a grant whose slot the victim
    // serves waits for the heal, which is why the count is read, not set.)
    net.sim.fault_cut(master.addr, victim.addr, true);
    for i in 0..3 {
        save(&mut net, writer, &format!("cut-{i}"));
        net.run_for(Duration::from_millis(400));
    }
    let in_the_dark = net.node(writer).doc_ts(DOC).expect("open");
    assert!(in_the_dark >= 1, "no grant during the cut");
    assert_eq!(net.node(victim).doc_ts(DOC), Some(0));

    net.sim.fault_heal(master.addr, victim.addr);
    net.run_for(period + Duration::from_millis(200));

    // The hints for those grants are gone for good; one poll did it.
    assert!(net.node(victim).doc_ts(DOC) >= Some(in_the_dark));
    let hinted =
        |k: &LtrEventKind| matches!(k, LtrEventKind::Hinted { ts, .. } if *ts <= in_the_dark);
    assert_eq!(count(&net, victim, hinted), 0);
    assert!(net.run_until_quiet(&[DOC], 30));
    net.settle(2);
    assert_eq!(net.node(victim).doc_ts(DOC), Some(3));
    assert_oracles_clean(&net);
}

#[test]
fn registry_is_bounded_soft_state() {
    let mut net = build(0x41_06, 8, LtrConfig::default());
    let master = net.master_of(DOC);
    let holders = holders_off_master(&net, 4);
    net.open_doc(&holders, DOC, "v0");
    net.settle(3);
    save(
        &mut net,
        holders[0],
        "so the key has a table entry to hand off",
    );
    assert!(net.run_until_quiet(&[DOC], 30));
    assert_eq!(net.node(master).hint_subscriptions(), 4);

    // A thousand more polls renew, they do not add.
    net.settle(250);
    assert_eq!(net.node(master).hint_subscriptions(), 4);

    // A holder that stops polling lapses after three periods (and the
    // master's next tick sweeps it).
    net.crash(holders[2]);
    net.crash(holders[3]);
    net.settle(5);
    assert_eq!(net.node(master).hint_subscriptions(), 2);

    // Handoff: a peer joins between the key and its master. The old
    // master's subscriptions go with the key the moment it hands it over
    // — not three periods later — and the new master's fill by polls.
    let key = p2plog::ht(DOC);
    let name = (0..)
        .map(|i| format!("joiner-{i}"))
        .find(|n| {
            let id = chord::Id::hash(n.as_bytes());
            key.distance_to(id) < key.distance_to(master.id)
        })
        .expect("some name hashes into the arc");
    let joiner = net.add_peer(&name);
    let handed_off = |k: &LtrEventKind| matches!(k, LtrEventKind::TableHandedOff { .. });
    let deadline = net.now() + Duration::from_secs(60);
    while count(&net, master, handed_off) == 0 {
        assert!(net.now() < deadline, "the joiner never took the key over");
        net.run_for(Duration::from_millis(10));
    }
    assert_eq!(net.node(master).hint_subscriptions(), 0);
    net.settle(10);
    assert_eq!(net.master_of(DOC).addr, joiner.addr);
    assert_eq!(net.node(joiner).hint_subscriptions(), 2);
    assert_eq!(net.node(master).hint_subscriptions(), 0);

    // Graceful leave: same rule.
    net.leave(joiner);
    net.settle(10);
    assert_eq!(net.node(joiner).hint_subscriptions(), 0);
    assert_eq!(net.master_of(DOC).addr, master.addr);
    assert_eq!(net.node(master).hint_subscriptions(), 2);
}

#[test]
fn no_poll_period_means_no_hints() {
    let mut net = build(0x41_07, 8, no_polls());
    net.enable_wire_accounting();
    let master = net.master_of(DOC);
    let holders = net.peers[..4].to_vec();
    net.open_doc(&holders, DOC, "v0");
    net.settle(1);
    for i in 0..3 {
        save(&mut net, holders[0], &format!("line-{i}"));
        assert!(net.run_until_quiet(&[DOC], 30));
        // On-demand pulls still work, and still are not subscriptions.
        for r in &holders[1..] {
            net.sync(*r, DOC);
        }
        assert!(net.run_until_quiet(&[DOC], 30));
    }
    for r in &holders {
        assert_eq!(net.node(*r).doc_ts(DOC), Some(3));
    }
    let m = net.sim.metrics();
    assert!(
        m.counter("wire.msgs.kts.last_ts") >= 9,
        "the pulls happened"
    );
    assert_eq!(m.counter("kts.hints_sent"), 0);
    assert_eq!(m.counter("wire.msgs.kts.published"), 0);
    assert_eq!(net.node(master).hint_subscriptions(), 0);
    assert_oracles_clean(&net);
}
