//! The load model shared by the four protocol workloads.
//!
//! An *editor session* is a `(peer, doc)` pair. In the open loop its save
//! instants are drawn ahead of time from the seed (exponential gaps) and
//! do not depend on the system's replies; in the closed loop a session
//! saves again a fixed think time after its previous save completed. At a
//! due instant the driver reads the peer's replica, applies one line edit
//! and injects `UserCmd::Edit`. A peer publishes one patch per document at
//! a time, so a beat that falls due while the session's previous save is
//! unstamped is *held* and issued the moment that save completes — still
//! timed from its due instant — and a second beat falling due while one is
//! held is *refused*. A save is *stamped* at its `OwnPublished` event and
//! *converged* at the last `Integrated` event among the peers holding the
//! document open; a save whose patch the peer cancels to nothing (the
//! replica goes idle without an event) is *absorbed* and leaves the
//! latency sample.
//!
//! Everything is observed from outside the product crates: the public
//! `LtrNode::events` log, `doc_text` / `is_busy`, and the counters.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

use chord::NodeRef;
use p2p_ltr::{LtrEventKind, LtrNode, UserCmd};
use simnet::{Duration, NodeId, Rng64, Time};
use workload::{mutate_text, EditMix};

use crate::stats::Counters;

/// What the load driver needs from a running network — implemented by the
/// simulator bed and the socket bed.
pub trait Bed {
    /// Protocol clock (simulated or wall).
    fn now(&self) -> Time;
    /// Let protocol time pass, at most up to `until` (the socket bed pumps
    /// one short slice per call).
    fn advance(&mut self, until: Time);
    /// A peer's state, crashed or not.
    fn node(&self, addr: NodeId) -> &LtrNode;
    /// Inject a user command at a peer.
    fn inject(&mut self, to: NodeId, cmd: UserCmd);
    /// True once every `Edit` injected at `to` has reached its handler.
    fn edits_delivered(&self, to: NodeId) -> bool;
    /// Snapshot of the program's counters.
    fn counters(&self) -> Counters;
}

/// How sessions decide when to save.
#[derive(Clone, Copy, Debug)]
pub enum Arrivals {
    /// Pre-drawn exponential gaps with this mean, independent of replies.
    Open {
        /// Mean gap between a session's beats.
        mean_gap: Duration,
    },
    /// Save again this long after the previous save completed.
    Closed {
        /// Think time between completion and the next save.
        think: Duration,
    },
}

/// Which part of the run a beat belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Load before the window opens (first-save probes and fences, cold
    /// caches); part of set-up, in no statistic.
    Warmup,
    /// The measured window.
    Window,
    /// The master-crash drill (only `outage_ms` comes from it).
    Drill,
}

/// What became of a beat.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// Injected, no verdict yet.
    Pending,
    /// `OwnPublished{ts}` seen at `at`.
    Stamped {
        /// When the peer learned its patch was stamped.
        at: Time,
        /// The timestamp it got.
        ts: u64,
    },
    /// The patch cancelled to nothing; no timestamp was spent.
    Absorbed,
    /// Refused at its due instant (a held beat was already waiting).
    Refused,
    /// The session's peer was crashed by the drill.
    PeerCrashed,
}

/// One save instant of one session.
#[derive(Clone, Debug)]
pub struct Beat {
    /// Index into [`Load::docs`].
    pub doc: u32,
    /// When the save was due.
    pub due: Time,
    /// When it was injected (later than `due` for held beats).
    pub issued: Time,
    /// True when it waited for the session's previous save.
    pub held: bool,
    /// Window or drill.
    pub phase: Phase,
    /// The verdict.
    pub outcome: Outcome,
}

/// Which sessions beat in a phase.
#[derive(Clone, Copy, Debug)]
pub enum Who {
    /// Every writing session.
    Writers,
    /// The first live holder of this document, writer or not.
    OneHolderOf(u32),
}

struct Session {
    peer: NodeRef,
    doc: u32,
    /// Saves during warm-up and window (every holder can in the drill).
    writes: bool,
    rng: Rng64,
    inflight: Option<usize>,
    held: Option<Time>,
    edits: u64,
    alive: bool,
}

/// Per `(doc, ts)`: what the peers reported about that stamped edit.
#[derive(Clone, Copy, Debug, Default)]
pub struct Slot {
    /// First `MasterGranted` for the slot.
    pub granted: Option<Time>,
    /// `Integrated` events seen so far.
    pub integrations: u32,
    /// The latest of them.
    pub last_integrated: Time,
}

/// The load generator and event tracker of one run.
pub struct Load {
    /// Document names, indexed by the `doc` fields.
    pub docs: Vec<String>,
    /// Peers holding each document open.
    pub holders: Vec<Vec<NodeRef>>,
    /// Every peer of the network, in address order.
    pub peers: Vec<NodeRef>,
    /// Peers the drill crashed.
    pub crashed: Vec<NodeId>,
    sessions: Vec<Session>,
    session_of: HashMap<(u32, u32), usize>,
    doc_index: HashMap<String, u32>,
    cursors: Vec<usize>,
    due: BinaryHeap<Reverse<(Time, usize)>>,
    arrivals: Arrivals,
    phase: Phase,
    /// No beat due at or after this instant is generated.
    horizon: Time,
    mix: EditMix,
    slice: Duration,
    /// Every beat that fell due, in due order per session.
    pub beats: Vec<Beat>,
    /// What the peers reported per `(doc, ts)`.
    pub slots: HashMap<(u32, u64), Slot>,
    /// First `MasterGranted` per doc after `watch_from` (the drill).
    watch: Option<(u32, Time, NodeId)>,
    watch_hit: Option<Time>,
    /// Largest `queued_validations` seen at any peer when sampling is on.
    pub queue_depth_max: usize,
    /// Sample master queue depths at every beat (traced runs only).
    pub sample_queues: bool,
    /// Wall time spent inside the driver (not inside the system).
    pub driver_busy: std::time::Duration,
}

impl Load {
    /// A load over `docs` (each open at `holders[d]`) with one session per
    /// holder; the `(peer, doc)` pairs in `writers` save during warm-up
    /// and window. Session streams fork from `seed`.
    pub fn new(
        peers: Vec<NodeRef>,
        docs: Vec<String>,
        holders: Vec<Vec<NodeRef>>,
        writers: &[(NodeRef, u32)],
        slice: Duration,
        seed: u64,
    ) -> Self {
        let mut seeder = Rng64::new(seed ^ 0x6c74_7262_656e_6368);
        let sessions: Vec<Session> = holders
            .iter()
            .enumerate()
            .flat_map(|(d, hs)| hs.iter().map(move |p| (*p, d as u32)))
            .map(|(peer, doc)| Session {
                peer,
                doc,
                writes: writers.contains(&(peer, doc)),
                rng: seeder.fork(),
                inflight: None,
                held: None,
                edits: 0,
                alive: true,
            })
            .collect();
        let session_of = sessions
            .iter()
            .enumerate()
            .map(|(i, s)| ((s.peer.addr.0, s.doc), i))
            .collect();
        let doc_index = docs
            .iter()
            .enumerate()
            .map(|(i, d)| (d.clone(), i as u32))
            .collect();
        Load {
            cursors: vec![0; peers.len()],
            peers,
            docs,
            holders,
            crashed: Vec::new(),
            sessions,
            session_of,
            doc_index,
            due: BinaryHeap::new(),
            arrivals: Arrivals::Closed {
                think: Duration::ZERO,
            },
            phase: Phase::Warmup,
            horizon: Time::ZERO,
            // Stationary document size: inserts and deletes balance.
            mix: EditMix {
                insert: 4,
                delete: 4,
                change: 2,
            },
            slice,
            beats: Vec::new(),
            slots: HashMap::new(),
            watch: None,
            watch_hit: None,
            queue_depth_max: 0,
            sample_queues: false,
            driver_busy: std::time::Duration::ZERO,
        }
    }

    /// Start beating: the sessions `who` selects get their first due
    /// instant after `from`, and no beat is generated at or after `until`.
    pub fn start(&mut self, phase: Phase, arrivals: Arrivals, from: Time, until: Time, who: Who) {
        let one = match who {
            Who::Writers => None,
            Who::OneHolderOf(doc) => self.sessions.iter().position(|s| s.alive && s.doc == doc),
        };
        self.phase = phase;
        self.arrivals = arrivals;
        self.horizon = until;
        self.due.clear();
        for i in 0..self.sessions.len() {
            let s = &mut self.sessions[i];
            let picked = match who {
                Who::Writers => s.writes,
                Who::OneHolderOf(_) => one == Some(i),
            };
            if !s.alive || !picked {
                continue;
            }
            let first = match arrivals {
                Arrivals::Open { mean_gap } => {
                    from + Duration::from_micros(s.rng.exp_mean(mean_gap.as_micros() as f64) as u64)
                }
                // Stagger the closed-loop clients over one think time.
                Arrivals::Closed { think } => {
                    from + Duration::from_micros(s.rng.gen_below(think.as_micros().max(1)))
                }
            };
            self.due.push(Reverse((first, i)));
        }
    }

    /// Run until `until` on the bed's clock, or until `stop` says so.
    pub fn run(&mut self, bed: &mut dyn Bed, until: Time, stop: impl Fn(&Load) -> bool) {
        loop {
            let t = Instant::now();
            self.poll(bed);
            let now = bed.now();
            while let Some(&Reverse((due, s))) = self.due.peek() {
                if due > now {
                    break;
                }
                self.due.pop();
                self.beat_due(bed, s, due);
            }
            self.driver_busy += t.elapsed();
            if now >= until || stop(self) {
                return;
            }
            let mut next = until.min(now + self.slice);
            if let Some(&Reverse((due, _))) = self.due.peek() {
                next = next.min(due.max(now));
            }
            bed.advance(next);
        }
    }

    /// Run until nothing is in flight or held (or `until`).
    pub fn drain(&mut self, bed: &mut dyn Bed, until: Time) {
        self.run(bed, until, |l| {
            l.sessions
                .iter()
                .all(|s| !s.alive || (s.inflight.is_none() && s.held.is_none()))
        });
    }

    fn beat_due(&mut self, bed: &mut dyn Bed, si: usize, due: Time) {
        if due >= self.horizon || !self.sessions[si].alive {
            return;
        }
        if let Arrivals::Open { mean_gap } = self.arrivals {
            let s = &mut self.sessions[si];
            let gap = s.rng.exp_mean(mean_gap.as_micros() as f64).max(1.0) as u64;
            self.due
                .push(Reverse((due + Duration::from_micros(gap), si)));
        }
        let s = &mut self.sessions[si];
        if s.inflight.is_none() {
            self.issue(bed, si, due, false);
        } else if s.held.is_none() {
            s.held = Some(due);
        } else {
            let doc = s.doc;
            self.beats.push(Beat {
                doc,
                due,
                issued: due,
                held: false,
                phase: self.phase,
                outcome: Outcome::Refused,
            });
        }
    }

    fn issue(&mut self, bed: &mut dyn Bed, si: usize, due: Time, held: bool) {
        if self.sample_queues {
            for p in &self.peers {
                let q = bed.node(p.addr).kts().queued_validations();
                self.queue_depth_max = self.queue_depth_max.max(q);
            }
        }
        let kind = {
            let s = &mut self.sessions[si];
            self.mix.sample(&mut s.rng)
        };
        let s = &mut self.sessions[si];
        let doc = &self.docs[s.doc as usize];
        let node = bed.node(s.peer.addr);
        let text = node.doc_text(doc).expect("session document is open");
        let new_text = mutate_text(&text, kind, node.site(), s.edits, &mut s.rng);
        s.edits += 1;
        s.inflight = Some(self.beats.len());
        let issued = bed.now();
        self.beats.push(Beat {
            doc: s.doc,
            due,
            issued,
            held,
            phase: self.phase,
            outcome: Outcome::Pending,
        });
        bed.inject(
            s.peer.addr,
            UserCmd::Edit {
                doc: doc.clone(),
                new_text,
            },
        );
    }

    /// A session's save completed at `at`: release its held beat, or in
    /// the closed loop schedule the next save.
    fn completed(&mut self, bed: &mut dyn Bed, si: usize, at: Time) {
        self.sessions[si].inflight = None;
        if let Some(due) = self.sessions[si].held.take() {
            self.issue(bed, si, due, true);
        } else if let Arrivals::Closed { think } = self.arrivals {
            self.due.push(Reverse((at.max(bed.now()) + think, si)));
        }
    }

    /// Read the events the peers logged since the last poll.
    fn poll(&mut self, bed: &mut dyn Bed) {
        let mut stamped: Vec<(usize, Time, u64)> = Vec::new();
        for (i, p) in self.peers.iter().enumerate() {
            let events = &bed.node(p.addr).events;
            for ev in &events[self.cursors[i]..] {
                match &ev.kind {
                    LtrEventKind::OwnPublished { doc, ts, .. } => {
                        if let Some(&d) = self.doc_index.get(doc.as_str()) {
                            if let Some(&si) = self.session_of.get(&(p.addr.0, d)) {
                                stamped.push((si, ev.at, *ts));
                            }
                        }
                    }
                    LtrEventKind::Integrated { doc, ts, .. } => {
                        if let Some(&d) = self.doc_index.get(doc.as_str()) {
                            let slot = self.slots.entry((d, *ts)).or_default();
                            slot.integrations += 1;
                            slot.last_integrated = slot.last_integrated.max(ev.at);
                        }
                    }
                    LtrEventKind::MasterGranted { doc, ts } => {
                        if let Some(&d) = self.doc_index.get(doc.as_str()) {
                            let slot = self.slots.entry((d, *ts)).or_default();
                            slot.granted.get_or_insert(ev.at);
                            if let Some((wd, from, victim)) = self.watch {
                                if wd == d && ev.at > from && p.addr != victim {
                                    let hit = self.watch_hit.get_or_insert(ev.at);
                                    *hit = (*hit).min(ev.at);
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            self.cursors[i] = events.len();
        }
        for (si, at, ts) in stamped {
            if let Some(b) = self.sessions[si].inflight {
                self.beats[b].outcome = Outcome::Stamped { at, ts };
                self.completed(bed, si, at);
            }
        }
        // Absorbed saves leave no event: the replica is simply idle again.
        // Checked only for saves in flight unusually long, to keep the
        // driver cheap; absorbed saves are out of the latency sample, so
        // the delay costs nothing.
        let now = bed.now();
        let grace = Duration::from_millis(50);
        for si in 0..self.sessions.len() {
            let s = &self.sessions[si];
            let Some(b) = s.inflight else { continue };
            if !s.alive || now < self.beats[b].issued + grace {
                continue;
            }
            let idle = bed.edits_delivered(s.peer.addr)
                && !bed.node(s.peer.addr).is_busy(&self.docs[s.doc as usize]);
            if idle {
                self.beats[b].outcome = Outcome::Absorbed;
                self.completed(bed, si, now);
            }
        }
    }

    /// The live peer currently responsible for `ht(doc)`.
    pub fn master_of(&self, doc: u32) -> NodeRef {
        let key = p2plog::ht(&self.docs[doc as usize]);
        *self
            .peers
            .iter()
            .filter(|p| !self.crashed.contains(&p.addr))
            .min_by_key(|p| key.distance_to(p.id))
            .expect("a live peer")
    }

    /// The drill's target: the first document that keeps a live holder
    /// once its master is crashed, and that master.
    pub fn drill_target(&self) -> Option<(u32, NodeRef)> {
        (0..self.docs.len() as u32)
            .map(|d| (d, self.master_of(d)))
            .find(|(d, master)| {
                self.holders[*d as usize]
                    .iter()
                    .any(|h| h.addr != master.addr)
            })
    }

    /// The drill, after the caller crashed `victim`, the master of `doc`:
    /// one surviving holder keeps saving the document; returns the time
    /// from now to the first `MasterGranted` for it at another peer
    /// (`None` = no grant within `patience`).
    pub fn await_takeover(
        &mut self,
        bed: &mut dyn Bed,
        (doc, victim): (u32, NodeRef),
        arrivals: Arrivals,
        patience: Duration,
        settle: Duration,
    ) -> Option<Duration> {
        let t0 = bed.now();
        self.crashed.push(victim.addr);
        for s in &mut self.sessions {
            if s.peer.addr == victim.addr {
                s.alive = false;
                if let Some(b) = s.inflight.take() {
                    self.beats[b].outcome = Outcome::PeerCrashed;
                }
                s.held = None;
            }
        }
        for h in &mut self.holders {
            h.retain(|p| p.addr != victim.addr);
        }
        self.watch = Some((doc, t0, victim.addr));
        self.watch_hit = None;
        // One surviving holder saving is enough to see the first grant.
        self.start(Phase::Drill, arrivals, t0, Time::MAX, Who::OneHolderOf(doc));

        self.run(bed, t0 + patience, |l| l.watch_hit.is_some());
        let outage = self.watch_hit.map(|at| at - t0);
        self.watch = None;
        // Let the ring and the replicas re-heal before the output checks.
        let until = bed.now() + settle;
        self.run(bed, until, |_| false);
        self.horizon = Time::ZERO;
        let until = bed.now() + patience;
        self.drain(bed, until);
        outage
    }

    /// Beats of `phase` stamped so far.
    pub fn stamped(&self, phase: Phase) -> usize {
        self.beats
            .iter()
            .filter(|b| b.phase == phase && matches!(b.outcome, Outcome::Stamped { .. }))
            .count()
    }

    /// Beats still pending at live peers (lost at drain).
    pub fn pending(&self) -> usize {
        self.beats
            .iter()
            .filter(|b| b.outcome == Outcome::Pending)
            .count()
    }
}
