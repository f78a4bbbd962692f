//! Simulator-level guarantees the protocol stack relies on: deterministic
//! event ordering, FIFO-per-latency behaviour, partition semantics under
//! in-flight traffic, and timer/crash interactions.

use simnet::{Ctx, Duration, FaultPlan, LatencyModel, NetConfig, NodeId, Process, Sim, Time};

/// Records every delivery with its arrival time.
struct Recorder {
    log: Vec<(Time, u32)>,
}

#[derive(Debug)]
struct Tagged(u32);

impl Process<Tagged> for Recorder {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Tagged>, _from: NodeId, msg: Tagged) {
        self.log.push((ctx.now(), msg.0));
    }
}

/// Emits a burst of tagged messages to a target on start.
struct Burst {
    target: NodeId,
    count: u32,
}

impl Process<Tagged> for Burst {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Tagged>) {
        for i in 0..self.count {
            ctx.send(self.target, Tagged(i));
        }
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Tagged>, _from: NodeId, _msg: Tagged) {}
}

#[test]
fn constant_latency_preserves_send_order() {
    let mut net = NetConfig::lan();
    net.latency = LatencyModel::Constant(Duration::from_millis(5));
    let mut sim: Sim<Tagged> = Sim::new(1, net);
    let rec = sim.add_node(Recorder { log: Vec::new() });
    sim.add_node(Burst {
        target: rec,
        count: 50,
    });
    sim.run_until(Time::from_secs(1));
    let log = &sim.node_as::<Recorder>(rec).unwrap().log;
    assert_eq!(log.len(), 50);
    // Same send time + same latency ⇒ delivery in send order (seq ties).
    let tags: Vec<u32> = log.iter().map(|(_, t)| *t).collect();
    assert_eq!(tags, (0..50).collect::<Vec<_>>());
    // All delivered at the same instant.
    assert!(log.iter().all(|(at, _)| *at == log[0].0));
}

#[test]
fn variable_latency_can_reorder_but_is_deterministic() {
    let run = |seed: u64| -> Vec<u32> {
        let mut net = NetConfig::lan();
        net.latency = LatencyModel::Uniform(Duration::from_millis(1), Duration::from_millis(50));
        let mut sim: Sim<Tagged> = Sim::new(seed, net);
        let rec = sim.add_node(Recorder { log: Vec::new() });
        sim.add_node(Burst {
            target: rec,
            count: 30,
        });
        sim.run_until(Time::from_secs(1));
        sim.node_as::<Recorder>(rec)
            .unwrap()
            .log
            .iter()
            .map(|(_, t)| *t)
            .collect()
    };
    let a = run(7);
    assert_eq!(a, run(7), "same seed must replay identically");
    assert_ne!(a, (0..30).collect::<Vec<_>>(), "uniform latency reorders");
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..30).collect::<Vec<_>>(), "nothing lost");
}

#[test]
fn partition_mid_flight_only_blocks_future_sends() {
    // Messages already in flight when a partition appears still arrive
    // (the cut blocks the *link decision* at send time, as in real routers
    // dropping subsequent packets).
    let mut net = NetConfig::lan();
    net.latency = LatencyModel::Constant(Duration::from_millis(20));
    let mut sim: Sim<Tagged> = Sim::new(3, net);
    let rec = sim.add_node(Recorder { log: Vec::new() });
    let burst = sim.add_node(Burst {
        target: rec,
        count: 5,
    });
    // The burst was sent at t≈0 with 20ms latency; cut the link at 10ms.
    sim.run_until(Time::from_millis(10));
    sim.set_fault_plan(FaultPlan::new(3), Box::new(|m: &Tagged| Tagged(m.0)));
    sim.fault_cut(burst, rec, false);
    sim.run_until(Time::from_millis(100));
    assert_eq!(
        sim.node_as::<Recorder>(rec).unwrap().log.len(),
        5,
        "in-flight messages survive the cut"
    );
    // New sends are blocked.
    sim.send_external(burst, Tagged(99)); // wakes the burst node (no-op handler)
    sim.run_until(Time::from_millis(200));
    assert_eq!(sim.node_as::<Recorder>(rec).unwrap().log.len(), 5);
}

#[test]
fn crashed_node_timers_never_fire() {
    struct TickBomb {
        fired: bool,
    }
    impl Process<Tagged> for TickBomb {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Tagged>) {
            ctx.set_timer(Duration::from_millis(100), 1);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Tagged>, _f: NodeId, _m: Tagged) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Tagged>, _tag: u64) {
            self.fired = true;
        }
    }
    let mut sim: Sim<Tagged> = Sim::new(4, NetConfig::lan());
    let bomb = sim.add_node(TickBomb { fired: false });
    sim.run_until(Time::from_millis(50));
    sim.crash(bomb);
    sim.run_until(Time::from_secs(1));
    assert!(!sim.node_as::<TickBomb>(bomb).unwrap().fired);
}

#[test]
fn control_events_interleave_with_traffic_deterministically() {
    let run = |seed: u64| -> (usize, u64) {
        let mut sim: Sim<Tagged> = Sim::new(seed, NetConfig::lan());
        let rec = sim.add_node(Recorder { log: Vec::new() });
        for i in 0..10 {
            let at = Time::from_millis(i * 10);
            sim.schedule_at(
                at,
                Box::new(move |s: &mut Sim<Tagged>| {
                    s.send_external(rec, Tagged(i as u32));
                }),
            );
        }
        sim.run_until(Time::from_secs(1));
        (
            sim.node_as::<Recorder>(rec).unwrap().log.len(),
            sim.metrics().counter("sim.msgs_delivered"),
        )
    };
    assert_eq!(run(5), run(5));
    assert_eq!(run(5).0, 10);
}

#[test]
fn self_messages_always_deliver_even_under_partition_and_loss() {
    let mut net = NetConfig::lan();
    net.loss = 1.0; // all remote traffic dies
    let mut sim: Sim<Tagged> = Sim::new(6, net);

    struct SelfTalker {
        heard: u32,
    }
    impl Process<Tagged> for SelfTalker {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Tagged>) {
            let me = ctx.self_id();
            ctx.send(me, Tagged(1));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Tagged>, _f: NodeId, msg: Tagged) {
            self.heard += 1;
            if msg.0 < 3 {
                let me = ctx.self_id();
                ctx.send(me, Tagged(msg.0 + 1));
            }
        }
    }
    let n = sim.add_node(SelfTalker { heard: 0 });
    sim.run_until(Time::from_millis(100));
    assert_eq!(sim.node_as::<SelfTalker>(n).unwrap().heard, 3);
}
