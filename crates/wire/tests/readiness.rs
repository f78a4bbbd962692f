//! The socket runtime waits on kernel readiness, gated by **counts**: how
//! often an endpoint parked, rotated, and made a system call that came
//! back `WouldBlock` ([`RtStats`]). A regression to guessing — polling
//! descriptors that have nothing, parking per endpoint, spinning on a
//! descriptor that stays ready — moves these counts by an order of
//! magnitude, whatever the machine's speed.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use simnet::{Ctx, NodeId, Time};
use wire::{
    decode_frame, encode_frame, Readiness, RtHub, RtStats, RtTransport, RuntimeConfig, Transport,
    TransportError, WireNet,
};

const PEERS: usize = 8;

/// An endpoint the test keeps a handle on after `WireNet` boxed it.
#[derive(Clone)]
struct Shared(Rc<RefCell<RtTransport>>);

impl Transport for Shared {
    fn send_batch(&mut self, to: NodeId, frames: &[Bytes]) -> Result<usize, TransportError> {
        self.0.borrow_mut().send_batch(to, frames)
    }
    fn recv_batch(&mut self, out: &mut Vec<Bytes>, max: usize) -> usize {
        self.0.borrow_mut().recv_batch(out, max)
    }
    fn poll(&mut self, timeout: Duration) -> Readiness {
        self.0.borrow_mut().poll(timeout)
    }
}

/// A `WireNet` over the socket runtime plus handles on its endpoints.
fn observed_net() -> (WireNet<u64>, Rc<RefCell<Vec<Shared>>>) {
    let hub = RtHub::new();
    let make = hub.clone();
    let endpoints = Rc::new(RefCell::new(Vec::new()));
    let keep = endpoints.clone();
    let net = WireNet::new(
        1,
        Box::new(move |me| {
            let ep = Shared(Rc::new(RefCell::new(make.endpoint(me).expect("bind"))));
            keep.borrow_mut().push(ep.clone());
            Box::new(ep) as Box<dyn Transport>
        }),
        Box::new(move |to, frame| hub.send(to, frame)),
    );
    (net, endpoints)
}

fn total(endpoints: &RefCell<Vec<Shared>>, field: fn(&RtStats) -> u64) -> u64 {
    let eps = endpoints.borrow();
    eps.iter().map(|e| field(&e.0.borrow().stats())).sum()
}

/// Ticks every 10 ms; greets every other node on its first tick, which
/// dials the full mesh.
struct Ticker {
    ticks: u64,
    heard: u64,
}

impl simnet::Process<u64> for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer(simnet::Duration::from_millis(10), 0);
    }
    fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, _: u64) {
        self.heard += 1;
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _: u64) {
        self.ticks += 1;
        if self.ticks == 1 {
            let me = ctx.self_id();
            for peer in (0..PEERS as u32).map(NodeId).filter(|p| *p != me) {
                ctx.send(peer, 0);
            }
        }
        ctx.set_timer(simnet::Duration::from_millis(10), 0);
    }
}

#[test]
fn idle_mesh_makes_no_failed_calls_and_parks_once_per_quiet_spell() {
    let (mut net, endpoints) = observed_net();
    for _ in 0..PEERS {
        net.add_node(Ticker { ticks: 0, heard: 0 });
    }
    let nodes = |n: &WireNet<u64>, f: fn(&Ticker) -> u64| -> u64 {
        (0..PEERS as u32)
            .map(|i| f(n.node_as::<Ticker>(NodeId(i)).expect("a ticker")))
            .sum()
    };
    let meshed = net.run_until(Duration::from_secs(10), |n| {
        nodes(n, |t| t.heard) == (PEERS * (PEERS - 1)) as u64
    });
    assert!(meshed, "every node heard every other");
    // Let the last end-of-burst `accept` and the greeting pump settle.
    net.run_for(Duration::from_millis(5));

    let before = |f| total(&endpoints, f);
    let (reads, reads_wb) = (before(|s| s.reads), before(|s| s.reads_would_block));
    let (accepts, parks) = (before(|s| s.accepts), before(|s| s.parks));
    let (rotations, ticks) = (before(|s| s.rotations), nodes(&net, |t| t.ticks));
    let window = Duration::from_millis(200);
    net.run_for(window);
    let fired = nodes(&net, |t| t.ticks) - ticks;
    let parked = total(&endpoints, |s| s.parks) - parks;
    let rotated = total(&endpoints, |s| s.rotations) - rotations;

    assert!(fired >= 8 * 15, "the tickers ran: {fired}");
    assert_eq!(total(&endpoints, |s| s.reads_would_block), reads_wb);
    assert_eq!(total(&endpoints, |s| s.reads), reads, "no data, no read");
    assert_eq!(total(&endpoints, |s| s.accepts), accepts, "nobody dials");
    // One park per quiet spell: a spell ends at a timer or at the
    // runner's 500 µs budget, never once per endpoint.
    let spells = fired + (window.as_micros() / 500) as u64 + 16;
    assert!(parked <= spells, "{parked} parks for {spells} quiet spells");
    assert!(
        parked >= 100,
        "the runner parked, it did not spin: {parked}"
    );
    // Each pump rotates every endpoint once, each park at most twice
    // more; pumps are parks plus timer pumps.
    let pumps = parked + fired + 16;
    assert!(
        rotated <= pumps * (PEERS as u64 + 2),
        "{rotated} rotations for {pumps} pumps"
    );
}

#[test]
fn a_frame_wakes_its_destination_and_siblings_return_without_spinning() {
    const DEST: usize = 5;
    let hub = RtHub::new();
    let mut eps: Vec<RtTransport> = (0..PEERS)
        .map(|i| hub.endpoint(NodeId(i as u32)).expect("bind"))
        .collect();
    // Dial the client connection first, so that the frame under test is
    // one event: bytes on an accepted stream.
    let frame = |v: u64| encode_frame(NodeId(99), &v);
    hub.send(NodeId(DEST as u32), &frame(6)).expect("inject");
    let mut got = Vec::new();
    while got.is_empty() {
        eps[DEST].poll(Duration::from_millis(50));
        eps[DEST].recv_batch(&mut got, 8);
    }
    let settled = eps[DEST].stats();

    let barrier = Arc::new(Barrier::new(PEERS + 1));
    let parked: Vec<_> = eps
        .into_iter()
        .map(|mut ep| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let readiness = ep.poll(Duration::from_millis(50));
                (readiness, Instant::now(), ep)
            })
        })
        .collect();
    barrier.wait();
    let sent = Instant::now();
    hub.send(NodeId(DEST as u32), &frame(7)).expect("inject");
    for (i, thread) in parked.into_iter().enumerate() {
        let (readiness, returned, mut ep) = thread.join().expect("poll thread");
        let stats = ep.stats();
        if i == DEST {
            assert!(readiness.readable, "the destination has its frame");
            assert!(stats.parks <= settled.parks + 1, "{stats:?}");
            assert_eq!(stats.park_timeouts, settled.park_timeouts, "woken");
            let took = returned.duration_since(sent);
            assert!(took < Duration::from_millis(5), "woken after {took:?}");
            let mut got = Vec::new();
            assert_eq!(ep.recv_batch(&mut got, 8), 1);
            let (_, v): (NodeId, u64) = decode_frame(&got[0]).expect("intact");
            assert_eq!(v, 7);
        } else {
            // Level-triggered: whether the frame landed before or after
            // this thread parked, its one poll is one park, and it has
            // touched no descriptor of its own.
            assert!(!readiness.readable, "{i} has nothing");
            assert!(stats.parks == 1 && stats.rotations <= 2, "{i}: {stats:?}");
            assert_eq!((stats.reads, stats.accepts), (0, 0), "{i}: {stats:?}");
        }
    }
}

#[test]
fn full_inbound_queue_delivers_in_order_without_parking_on_it() {
    const FRAMES: u64 = 100;
    let cfg = RuntimeConfig::new().inbound_depth(4).read_budget(4096);
    let hub = RtHub::with_config(cfg);
    let mut a = hub.endpoint(NodeId(0)).expect("bind");
    let mut b = hub.endpoint(NodeId(1)).expect("bind");
    let frames: Vec<Bytes> = (0..FRAMES)
        .map(|i| {
            let mut body = vec![0u8; 1024];
            body[..8].copy_from_slice(&i.to_le_bytes());
            Bytes::from(encode_frame(NodeId(0), &Bytes::from(body)))
        })
        .collect();
    assert_eq!(a.send_batch(NodeId(1), &frames), Ok(frames.len()));
    // The receiver takes two frames a turn, so its queue stays at its
    // cap and its sockets stay readable the whole time: a blocking poll
    // must come back at once, not sit out its 50 ms.
    let mut got = Vec::new();
    let start = Instant::now();
    while got.len() < frames.len() && start.elapsed() < Duration::from_secs(10) {
        a.poll(Duration::ZERO);
        if b.poll(Duration::from_millis(50)).readable {
            b.recv_batch(&mut got, 2);
        }
    }
    assert_eq!(got.len(), frames.len());
    for (i, frame) in got.iter().enumerate() {
        let (_, body): (NodeId, Bytes) = decode_frame(frame).expect("intact");
        assert_eq!(body[..8], (i as u64).to_le_bytes(), "frame {i} in order");
    }
    let stats = b.stats();
    assert!(stats.parks <= 8, "parked only while empty: {stats:?}");
    assert_eq!(stats.park_timeouts, 0, "{stats:?}");
    assert!(stats.inbound_high_water >= 4, "{stats:?}");
}

#[test]
fn a_dropped_endpoint_does_not_leave_its_peers_spinning() {
    let hub = RtHub::new();
    let mut eps: Vec<RtTransport> = (0..4)
        .map(|i| hub.endpoint(NodeId(i)).expect("bind"))
        .collect();
    // Full mesh: everyone has an inbound stream from everyone.
    for i in 0..4u32 {
        for j in (0..4u32).filter(|j| *j != i) {
            let hello = Bytes::from(encode_frame(NodeId(i), &u64::from(i)));
            assert_eq!(eps[i as usize].send_batch(NodeId(j), &[hello]), Ok(1));
        }
    }
    let mut got = Vec::new();
    let start = Instant::now();
    while got.len() < 12 && start.elapsed() < Duration::from_secs(10) {
        for ep in &mut eps {
            ep.poll(Duration::ZERO);
            ep.recv_batch(&mut got, 16);
        }
    }
    assert_eq!(got.len(), 12, "mesh formed");

    drop(eps.pop());
    // The survivors see three streams end. Were an ended stream left in
    // a set it would stay ready for good and every park would return at
    // once: thousands in 100 ms, not one per 5 ms.
    let parks = |eps: &[RtTransport]| eps.iter().map(|e| e.stats().parks).sum::<u64>();
    let before = parks(&eps);
    let until = Instant::now() + Duration::from_millis(100);
    while Instant::now() < until {
        for ep in &mut eps {
            ep.poll(Duration::ZERO);
        }
        eps[0].poll(Duration::from_millis(5));
    }
    let parked = parks(&eps) - before;
    assert!((10..=30).contains(&parked), "{parked} parks in 100 ms");
}

/// Arms a 3 ms timer `rounds` times over and records how late each fired.
struct Alarm {
    rounds: usize,
    due: Time,
    late_us: Vec<u64>,
}

impl Alarm {
    fn arm(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.late_us.len() < self.rounds {
            self.due = ctx.now() + simnet::Duration::from_millis(3);
            ctx.set_timer(simnet::Duration::from_millis(3), 0);
        }
    }
}

impl simnet::Process<u64> for Alarm {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.arm(ctx);
    }
    fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, _: u64) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _: u64) {
        self.late_us.push(ctx.now().since(self.due).as_micros());
        self.arm(ctx);
    }
}

#[test]
fn a_timer_on_an_idle_net_fires_within_a_millisecond() {
    const ROUNDS: usize = 9;
    let (mut net, _endpoints) = observed_net();
    let alarm = |rounds| Alarm {
        rounds,
        due: Time::ZERO,
        late_us: Vec::new(),
    };
    for _ in 1..PEERS {
        net.add_node(alarm(0));
    }
    let last = net.add_node(alarm(ROUNDS));
    let late = |n: &WireNet<u64>| n.node_as::<Alarm>(last).expect("alarm").late_us.clone();
    assert!(net.run_until(Duration::from_secs(10), |n| late(n).len() == ROUNDS));
    // The park ends at the timer, not at the end of a per-endpoint
    // slice: the median of nine is well inside a millisecond.
    let mut late = late(&net);
    late.sort_unstable();
    assert!(late[ROUNDS / 2] < 1_000, "late by {late:?} µs");
}
