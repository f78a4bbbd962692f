//! The three simulator workloads: `sim_collab`, `sim_hotdoc` and
//! `sim_faults`. Time is simulated, so latencies repeat exactly for a
//! seed; only `setup_s` and `cpu_us_per_edit` are wall-clock quantities.
//!
//! A workload is an *ensemble* of independent rings run one after another
//! with seeds forked from the run's seed, their beats pooled: where one
//! ring's outcome depends on the luck of the seed (which peer masters the
//! hot document, whether a lost message tips the ring over) the pooled
//! figure is what repeats. Every ring ends with the drill — its first
//! document's master is crashed — and the output checks.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use chord::NodeRef;
use p2p_ltr::harness::LtrNet;
use p2p_ltr::{check_all, LtrConfig, LtrNode, Payload, UserCmd};
use simnet::{Duration, MsgMeta, NetConfig, NodeId, Rng64, Time};

use crate::layers::{self, Corpus, Tally};
use crate::load::{Arrivals, Bed, Load, Outcome, Phase, Who};
use crate::report::{RunResult, WindowSummary};
use crate::stats::{cpu_micros, median, metric, midmean, ratio, Counters};
use crate::trace::Trace;
use crate::Args;

/// Lines of every document at open; the edit mix keeps it there.
pub const DOC_LINES: usize = 100;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Passes over a ring's window, each after a set-up of its own.
const PASSES: usize = SETUP_REPS;
/// Slices a window's CPU time is read in.
const WINDOW_SLICES: u64 = 32;

/// Shape of one simulator workload.
pub struct SimSpec {
    /// Workload name.
    pub name: &'static str,
    /// Peers in the ring.
    pub peers: usize,
    /// Documents.
    pub docs: usize,
    /// Peers holding each document open.
    pub replicas: usize,
    /// Which holders of a document also write it.
    pub writers: Writers,
    /// When sessions save.
    pub arrivals: Arrivals,
    /// Simulated seconds of window per `--seconds` second.
    pub window_per_second: f64,
    /// Message loss during the window (healed before the drain).
    pub loss: f64,
    /// Independent rings run one after another, their beats pooled.
    pub rings: usize,
    /// Further rings of the same shape that skip the window and only take
    /// part in the drill. Every ring has one master crashed — a second
    /// crash in the same ring sometimes wedges the takeover (README.md,
    /// "Known product defects") — and `outage_ms` is the midmean over all.
    pub drill_rings: usize,
}

/// Who writes a document (every holder reads it).
pub enum Writers {
    /// Every holder runs a writing session.
    EveryHolder,
    /// Only the first holder writes; the others follow by anti-entropy.
    FirstHolder,
    /// Peer `i` writes document `i % docs` (the hot-document shape).
    OnePerPeer,
}

/// `sim_collab`: the paper's wiki at low contention.
pub const COLLAB: SimSpec = SimSpec {
    name: "sim_collab",
    peers: 32,
    docs: 64,
    replicas: 4,
    writers: Writers::EveryHolder,
    arrivals: Arrivals::Open {
        mean_gap: Duration::from_millis(800),
    },
    window_per_second: 4.0,
    loss: 0.0,
    rings: 1,
    drill_rings: 11,
};

/// `sim_hotdoc`: every save contends for one of two masters.
pub const HOTDOC: SimSpec = SimSpec {
    name: "sim_hotdoc",
    peers: 16,
    docs: 2,
    replicas: 16,
    writers: Writers::OnePerPeer,
    arrivals: Arrivals::Closed {
        think: Duration::from_millis(5),
    },
    window_per_second: 1.0,
    loss: 0.0,
    rings: 12,
    drill_rings: 12,
};

/// `sim_faults`: one message in two thousand lost. Light, because at
/// 1 % and above the product panics or fails an oracle on many seeds, and
/// 48 small rings, because one ring's outcome under loss is bimodal
/// (fine, or collapsed for the rest of the window) and only the pooled
/// figure is steady. One writer per document: with several, a slot whose
/// publish was only partly acknowledged can be re-granted to another
/// author and the product panics with "replica divergence" (see
/// README.md, "Known product defects").
pub const FAULTS: SimSpec = SimSpec {
    name: "sim_faults",
    peers: 16,
    docs: 32,
    replicas: 4,
    writers: Writers::FirstHolder,
    arrivals: Arrivals::Open {
        mean_gap: Duration::from_millis(2_500),
    },
    window_per_second: 3.0,
    loss: 0.0005,
    rings: 48,
    drill_rings: 0,
};

/// Beat rate of the one holder that keeps saving during the drill.
pub const DRILL_ARRIVALS: Arrivals = Arrivals::Open {
    mean_gap: Duration::from_millis(100),
};

/// The simulator as a [`Bed`].
pub struct SimBed {
    /// The network under test.
    pub net: LtrNet,
}

impl Bed for SimBed {
    fn now(&self) -> Time {
        self.net.sim.now()
    }
    fn advance(&mut self, until: Time) {
        self.net.sim.run_until(until);
    }
    fn node(&self, addr: NodeId) -> &LtrNode {
        self.net
            .sim
            .node_as::<LtrNode>(addr)
            .expect("every simulator node is an LtrNode")
    }
    fn inject(&mut self, to: NodeId, cmd: UserCmd) {
        self.net.sim.send_external(to, Payload::Cmd(cmd));
    }
    fn edits_delivered(&self, _to: NodeId) -> bool {
        // External commands arrive `local_delay` (10 µs) after injection;
        // the load driver asks only about saves 50 ms old.
        true
    }
    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        c.absorb(self.net.sim.metrics());
        c
    }
}

/// The text every document opens with.
pub fn initial_text() -> String {
    (0..DOC_LINES)
        .map(|i| format!("line {i}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Document names carry the seed, so `ht(doc)` — which peer masters the
/// document — is an input drawn from the seed like the edits are.
pub fn doc_names(seed: u64, n: usize) -> Vec<String> {
    (0..n).map(|d| format!("wiki/{seed:x}/{d}")).collect()
}

/// Spread `docs` documents over `peers`, `replicas` holders each, evenly.
pub fn place(peers: &[NodeRef], docs: usize, replicas: usize) -> Vec<Vec<NodeRef>> {
    let stride = (peers.len() / replicas).max(1);
    (0..docs)
        .map(|d| {
            (0..replicas)
                .map(|j| peers[(d + j * stride) % peers.len()])
                .collect()
        })
        .collect()
}

/// Build the ring, open the documents and run the warm-up load.
fn set_up(spec: &SimSpec, seed: u64, corpus: Option<Rc<RefCell<Corpus>>>) -> (SimBed, Load) {
    let mut net = LtrNet::build(
        seed,
        NetConfig::lan(),
        spec.peers,
        LtrConfig::default(),
        Duration::from_millis(200),
    );
    if let Some(corpus) = corpus {
        net.sim.set_wire_meter(Box::new(move |p: &Payload| {
            let bytes = wire::frame_len(p);
            corpus.borrow_mut().offer(p, bytes);
            MsgMeta {
                bytes,
                class: p.wire_class(),
            }
        }));
    }
    net.settle(spec.peers as u64 / 5 + 12);
    let peers = net.peers.clone();
    let docs = doc_names(seed, spec.docs);
    let holders = place(&peers, spec.docs, spec.replicas);
    let text = initial_text();
    for (d, hs) in docs.iter().zip(&holders) {
        net.open_doc(hs, d, &text);
    }
    net.settle(1);
    let sessions: Vec<(NodeRef, u32)> = match spec.writers {
        Writers::EveryHolder => holders
            .iter()
            .enumerate()
            .flat_map(|(d, hs)| hs.iter().map(move |p| (*p, d as u32)))
            .collect(),
        Writers::FirstHolder => holders
            .iter()
            .enumerate()
            .map(|(d, hs)| (hs[0], d as u32))
            .collect(),
        Writers::OnePerPeer => peers
            .iter()
            .enumerate()
            .map(|(i, p)| (*p, (i % spec.docs) as u32))
            .collect(),
    };
    let mut load = Load::new(
        peers,
        docs,
        holders,
        &sessions,
        Duration::from_millis(1),
        seed,
    );
    let mut bed = SimBed { net };
    // Warm-up: every document's first save pays a log probe and a fence.
    let t = bed.now();
    let warm = Duration::from_secs(4);
    load.start(Phase::Warmup, spec.arrivals, t, t + warm, Who::Writers);
    load.run(&mut bed, t + warm, |_| false);
    load.drain(&mut bed, t + warm + Duration::from_secs(20));
    (bed, load)
}

/// What one ring of a workload's ensemble yields.
struct RingOutcome {
    setup_s: f64,
    summary: WindowSummary,
    /// CPU time of the window: per slice, the least of the passes.
    cpu_us: f64,
    /// CPU time of each pass over the window, whole (how noisy the
    /// machine was shows as their distance from `cpu_us`).
    pass_cpu_us: Vec<f64>,
    wall_s: f64,
    driver_s: f64,
    sim_events: u64,
    counters: Counters,
    tally: (Tally, Tally),
    records_per_node: f64,
    queue_depth_max: usize,
    outages_ms: Vec<f64>,
    attempted: u64,
    pending: u64,
    correct: bool,
    notes: Vec<String>,
}

/// What one pass over a ring's window leaves behind, besides the ring.
struct Pass {
    /// Window start on the simulated clock.
    t0: Time,
    /// Process CPU time of each slice, in window order.
    slice_cpu_us: Vec<f64>,
    wall_s: f64,
    driver_s: f64,
    sim_events: u64,
    /// Counters and wire tally as the window opened.
    counters0: Counters,
    tally0: Tally,
    /// Beats stamped by the end of the window (must repeat between passes).
    stamped: usize,
}

/// Run the measured window of a freshly set-up ring, slice by slice.
fn run_window(
    spec: &SimSpec,
    bed: &mut SimBed,
    load: &mut Load,
    window: Duration,
    corpus: Option<&Rc<RefCell<Corpus>>>,
) -> Pass {
    let tally_now = || corpus.map(|c| c.borrow().tally.clone()).unwrap_or_default();
    let sampling = |on: bool| {
        if let Some(c) = corpus {
            c.borrow_mut().sampling = on && window > Duration::ZERO;
        }
    };
    let t0 = bed.now();
    let counters0 = bed.counters();
    let tally0 = tally_now();
    let events0 = bed.net.sim.events_processed();
    bed.net.sim.net_mut().loss = spec.loss;
    let busy0 = load.driver_busy;
    let wall0 = Instant::now();
    sampling(true);
    load.start(Phase::Window, spec.arrivals, t0, t0 + window, Who::Writers);
    let mut slice_cpu_us = Vec::with_capacity(WINDOW_SLICES as usize);
    let mut cpu = cpu_micros();
    for i in 1..=WINDOW_SLICES {
        let until = t0 + Duration::from_micros(window.as_micros() * i / WINDOW_SLICES);
        load.run(bed, until, |_| false);
        let now = cpu_micros();
        slice_cpu_us.push((now - cpu) as f64);
        cpu = now;
    }
    sampling(false);
    bed.net.sim.net_mut().loss = 0.0;
    Pass {
        t0,
        slice_cpu_us,
        wall_s: wall0.elapsed().as_secs_f64(),
        driver_s: (load.driver_busy - busy0).as_secs_f64(),
        sim_events: bed.net.sim.events_processed() - events0,
        counters0,
        tally0,
        stamped: load.stamped(Phase::Window),
    }
}

/// Set up a ring and run its window: one pass. Returns the ring, the
/// wall time the set-up took and what the window left behind.
fn pass(
    spec: &SimSpec,
    seed: u64,
    window: Duration,
    trace: bool,
    corpus: Option<&Rc<RefCell<Corpus>>>,
) -> (SimBed, Load, f64, Pass) {
    let t = Instant::now();
    let (mut bed, mut load) = set_up(spec, seed, corpus.cloned());
    let setup_s = t.elapsed().as_secs_f64();
    load.sample_queues = trace;
    let pass = run_window(spec, &mut bed, &mut load, window, corpus);
    (bed, load, setup_s, pass)
}

/// The last pass over one ring — set-up, window, drain, drill and output
/// checks — reduced together with the `earlier` passes over the same ring
/// (`(setup_s, pass)` each; none, and no window, on a drill-only ring).
///
/// The simulator is deterministic, so every pass does exactly the same
/// work and differs only in what the machine's other tenants cost it;
/// that cost is never negative and comes in bursts, so the CPU time of a
/// slice is the least any pass spent on it. Everything else — latencies,
/// counters, the drill — is the last pass's and repeats exactly.
fn run_ring(
    spec: &SimSpec,
    seed: u64,
    window: Duration,
    trace: bool,
    corpus: Option<&Rc<RefCell<Corpus>>>,
    earlier: Vec<(f64, Pass)>,
) -> RingOutcome {
    let tally_now = || corpus.map(|c| c.borrow().tally.clone()).unwrap_or_default();
    let (mut bed, mut load, setup_s, last) = pass(spec, seed, window, trace, corpus);
    let (mut setups, mut passes): (Vec<f64>, Vec<Pass>) = earlier.into_iter().unzip();
    setups.push(setup_s);
    passes.push(last);
    let pass = passes.last().expect("just pushed");
    let repeats = passes.iter().all(|p| p.stamped == pass.stamped);
    let cpu_us: f64 = (0..WINDOW_SLICES as usize)
        .map(|i| {
            let slice = passes.iter().map(|p| p.slice_cpu_us[i]);
            slice.fold(f64::INFINITY, f64::min)
        })
        .sum();
    let pass_cpu_us = passes.iter().map(|p| p.slice_cpu_us.iter().sum()).collect();

    if window > Duration::ZERO {
        load.drain(&mut bed, pass.t0 + window + Duration::from_secs(60));
        // Idle replicas learn of the last edits from their next
        // anti-entropy ticks (`sync_every` = 1 s).
        let t = bed.now() + Duration::from_secs(4);
        load.run(&mut bed, t, |_| false);
    }
    let counters = bed.counters().since(&pass.counters0);
    let tally1 = tally_now();
    let records_per_node = records_per_node(&bed, &load);
    let summary = WindowSummary::of(&load);

    // The drill: crash the master of one document.
    let mut outages_ms = Vec::new();
    let mut notes = Vec::new();
    let outage = load.drill_target().and_then(|target| {
        bed.net.sim.crash(target.1.addr);
        load.await_takeover(
            &mut bed,
            target,
            DRILL_ARRIVALS,
            Duration::from_secs(30),
            Duration::from_secs(3),
        )
    });
    match outage {
        Some(d) => outages_ms.push(d.as_millis_f64()),
        None => notes.push(format!("seed {seed} drill: no grant within 30 s")),
    }
    bed.net.settle(5);
    let names: Vec<&str> = load.docs.iter().map(String::as_str).collect();
    let quiet = bed.net.run_until_quiet(&names, 30);

    // Output checks: all five oracles, and the passes did the same work.
    let oracles = check_all(&bed.net.sim);
    let correct = oracles.is_clean() && quiet && repeats && !outages_ms.is_empty();
    if !correct {
        notes.push(format!(
            "seed {seed}: quiet={quiet} passes_repeat={repeats} {}",
            oracles.summary()
        ));
    }
    RingOutcome {
        setup_s: median(&setups),
        summary,
        cpu_us,
        pass_cpu_us,
        wall_s: pass.wall_s,
        driver_s: pass.driver_s,
        sim_events: pass.sim_events,
        counters,
        tally: (pass.tally0.clone(), tally1),
        records_per_node,
        queue_depth_max: load.queue_depth_max,
        outages_ms,
        attempted: load
            .beats
            .iter()
            .filter(|b| b.outcome != Outcome::Refused)
            .count() as u64,
        pending: load.pending() as u64,
        correct,
        notes,
    }
}

/// Simulated seconds of window for this run.
fn window_seconds(spec: &SimSpec, args: &Args) -> f64 {
    (args.seconds as f64 * spec.window_per_second).max(1.0)
}

/// Run one simulator workload: every ring of its ensemble in turn, the
/// beats pooled.
pub fn run(spec: &SimSpec, args: &Args) -> RunResult {
    let corpus = args.trace.then(|| Rc::new(RefCell::new(Corpus::default())));
    let mut seeder = Rng64::new(args.seed);
    let window_s = window_seconds(spec, args);
    // Ring 0 runs on the seed itself, the others on forks of it.
    let seeds: Vec<u64> = (0..spec.rings + spec.drill_rings)
        .map(|i| if i == 0 { args.seed } else { seeder.next_u64() })
        .collect();
    // Passes outermost: the same work is timed again only after every
    // other ring has had its turn, seconds later, so that one burst of
    // interference does not sit on all the passes of a ring.
    let window = Duration::from_micros((window_s * 1e6) as u64);
    let mut earlier: Vec<Vec<(f64, Pass)>> = Vec::new();
    earlier.resize_with(spec.rings, Vec::new);
    for _ in 1..PASSES {
        for (ring, seed) in earlier.iter_mut().zip(&seeds) {
            let (_, _, setup_s, pass) = pass(spec, *seed, window, args.trace, corpus.as_ref());
            ring.push((setup_s, pass));
        }
    }
    earlier.resize_with(seeds.len(), Vec::new);
    let rings: Vec<RingOutcome> = seeds
        .iter()
        .zip(earlier)
        .enumerate()
        .map(|(i, (seed, earlier))| {
            let window = if i < spec.rings {
                window
            } else {
                Duration::ZERO
            };
            run_ring(spec, *seed, window, args.trace, corpus.as_ref(), earlier)
        })
        .collect();

    let mut summary = WindowSummary::default();
    let mut counters = Counters::default();
    let mut tally = (Tally::new(), Tally::new());
    let mut outages = Vec::new();
    let mut notes = Vec::new();
    for (i, r) in rings.iter().enumerate() {
        summary.merge(&r.summary, i as u32 * spec.docs as u32);
        counters.add(&r.counters);
        layers::tally_add(&mut tally.0, &r.tally.0);
        layers::tally_add(&mut tally.1, &r.tally.1);
        outages.extend(&r.outages_ms);
        notes.extend(r.notes.iter().cloned());
    }
    let sum = |f: fn(&RingOutcome) -> f64| rings.iter().map(f).sum::<f64>();
    let cpu_us = sum(|r| r.cpu_us);
    let wall_s = sum(|r| r.wall_s);
    let correct = rings.iter().all(|r| r.correct);
    let attempted: u64 = rings.iter().map(|r| r.attempted).sum();
    let pending: u64 = rings.iter().map(|r| r.pending).sum();
    // Rings run one after another: the pooled window is as long as one.
    notes.push(format!(
        "oracles {}; window: {} beats due, {} stamped, {} converged, {} absorbed, {} held, \
         {} refused; {} saves lost at drain; {} ring(s) x {:.1} sim-s in {:.2} s wall; {} drills; \
         window CPU {:.3} s (least per slice), {} s by pass",
        if correct { "clean" } else { "VIOLATED" },
        summary.due,
        summary.stamped,
        summary.converged,
        summary.absorbed,
        summary.held,
        summary.refused,
        pending,
        spec.rings,
        window_s,
        wall_s,
        outages.len(),
        cpu_us / 1e6,
        (0..PASSES)
            .map(|p| {
                let pass = rings
                    .iter()
                    .filter_map(|r| r.pass_cpu_us.get(p))
                    .sum::<f64>();
                format!("{:.3}", pass / 1e6)
            })
            .collect::<Vec<_>>()
            .join(" / "),
    ));

    let setup_s = rings[..spec.rings].iter().map(|r| r.setup_s).sum();
    let mut end_to_end = vec![metric("setup_s", setup_s, "s", SETUP_REPS)];
    // CPU per edit ring by ring, then the midmean over the rings, as for
    // the outages: a ring that a lost message tips into a retry storm
    // costs half as much again as the others, and a run has none to four
    // of them, so the pooled figure follows the seed's luck. (The pooled
    // figure is the per-layer `trace.cpu_us_per_edit`.)
    let ring_cpu: Vec<f64> = rings[..spec.rings]
        .iter()
        .map(|r| ratio(r.cpu_us, r.summary.stamped as f64))
        .collect();
    end_to_end.extend(summary.end_to_end(
        window_s,
        midmean(&ring_cpu),
        midmean(&outages),
        outages.len(),
    ));

    let mut per_layer = Vec::new();
    if let Some(corpus) = corpus {
        let corpus = corpus.borrow();
        let mut trace = Trace::new(spec.name, args.seed);
        trace.edits(&summary);
        let mut values = layers::Values::new();
        layers::protocol(
            &layers::WindowFacts {
                counters: &counters,
                tally: (&tally.0, &tally.1),
                summary: &summary,
                queue_depth_max: rings.iter().map(|r| r.queue_depth_max).max().unwrap_or(0),
                cpu_us,
                driver_share: sum(|r| r.driver_s) / wall_s.max(1e-9),
                sim_events: rings.iter().map(|r| r.sim_events).sum(),
                records_per_node: rings[..spec.rings]
                    .iter()
                    .map(|r| r.records_per_node)
                    .sum::<f64>()
                    / spec.rings as f64,
            },
            &mut values,
        );
        layers::probes(
            &corpus,
            &doc_names(args.seed, spec.docs),
            &mut values,
            &mut trace,
        );
        per_layer = layers::finish(&values);
        notes.push(trace.write());
    }

    RunResult {
        correct,
        attempted,
        failed: if correct { pending } else { attempted },
        end_to_end,
        per_layer,
        notes,
    }
}

/// Mean DHT records (primary + replica) per live peer.
pub fn records_per_node(bed: &dyn Bed, load: &Load) -> f64 {
    let live: Vec<_> = load
        .peers
        .iter()
        .filter(|p| !load.crashed.contains(&p.addr))
        .collect();
    let total: usize = live
        .iter()
        .map(|p| {
            let s = bed.node(p.addr).chord().storage();
            s.primary_len() + s.replica_len()
        })
        .sum();
    total as f64 / live.len().max(1) as f64
}
