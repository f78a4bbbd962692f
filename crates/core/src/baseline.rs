//! The comparator P2P-LTR's introduction argues against: a **centralized
//! reconciler/timestamper** on a single node ("semantic reconciliation
//! engines … implemented in a single node, which may introduce bottlenecks
//! and single points of failure", RR-6497 §1).
//!
//! The coordinator keeps every document's log locally and serves
//! validation, retrieval and last-ts queries from one FIFO queue with a
//! configurable per-request service time (a single-threaded reconciler).
//! Under light load it beats P2P-LTR (no DHT routing, no replication
//! round-trips); under aggregate load across many documents it saturates at
//! `1/service_time`, and when it crashes *all* editing stops — the two
//! effects experiment B1 measures.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::indexing_slicing, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;

use ot::Document;
use simnet::{CounterId, Ctx, Duration, HistogramId, Metrics, NodeId, Process, Time};

/// Messages of the centralized system.
#[derive(Clone, Debug)]
pub enum BaseMsg {
    /// User → coordinator: validate a tentative patch.
    Validate {
        /// User's handle.
        op: u64,
        /// Document.
        doc: String,
        /// User's last integrated timestamp.
        proposed_ts: u64,
        /// Encoded patch.
        patch: Bytes,
        /// Reply address.
        user: NodeId,
    },
    /// User → coordinator: fetch `(from, to]` of a document's log.
    FetchRange {
        /// User's handle.
        op: u64,
        /// Document.
        doc: String,
        /// Exclusive lower bound.
        from: u64,
        /// Inclusive upper bound.
        to: u64,
        /// Reply address.
        user: NodeId,
    },
    /// User → coordinator: read the last timestamp.
    LastTs {
        /// User's handle.
        op: u64,
        /// Document.
        doc: String,
        /// Reply address.
        user: NodeId,
    },
    /// Coordinator → user: granted.
    Granted {
        /// Echoed handle.
        op: u64,
        /// Validated timestamp.
        ts: u64,
    },
    /// Coordinator → user: behind, retrieve first.
    Retry {
        /// Echoed handle.
        op: u64,
        /// Coordinator's last timestamp.
        last_ts: u64,
    },
    /// Coordinator → user: log range.
    Range {
        /// Echoed handle.
        op: u64,
        /// `(ts, encoded patch)` in ascending order.
        records: Vec<(u64, Bytes)>,
    },
    /// Coordinator → user: last timestamp.
    LastTsReply {
        /// Echoed handle.
        op: u64,
        /// Document.
        doc: String,
        /// Last timestamp.
        last_ts: u64,
    },
    /// Injected user command.
    Cmd(BaseCmd),
}

/// External commands for baseline user peers.
#[derive(Clone, Debug)]
pub enum BaseCmd {
    /// Open a replica.
    OpenDoc {
        /// Document name.
        doc: String,
        /// Initial text.
        initial: String,
    },
    /// Save an edit.
    Edit {
        /// Document name.
        doc: String,
        /// Full new text.
        new_text: String,
    },
    /// Anti-entropy probe.
    Sync {
        /// Document name.
        doc: String,
    },
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// The single reconciler node.
pub struct Coordinator {
    /// Per-request service time (single-threaded processing cost).
    service_time: Duration,
    /// Pre-registered grant counter (filled on first use).
    grants: Option<CounterId>,
    /// Pre-registered queue-depth histogram (filled on first use).
    queue_depth: Option<HistogramId>,
    /// Per-document logs: `log[doc][i]` holds the patch with ts `i+1`.
    logs: BTreeMap<String, Vec<Bytes>>,
    queue: VecDeque<BaseMsg>,
    busy: bool,
}

impl Coordinator {
    /// Create with the given per-request service time.
    pub fn new(service_time: Duration) -> Self {
        Coordinator {
            service_time,
            grants: None,
            queue_depth: None,
            logs: BTreeMap::new(),
            queue: VecDeque::new(),
            busy: false,
        }
    }

    /// Total patches logged (all documents).
    pub fn total_patches(&self) -> usize {
        self.logs.values().map(Vec::len).sum()
    }

    /// Last timestamp of a document.
    pub fn last_ts(&self, doc: &str) -> u64 {
        self.logs.get(doc).map(|l| l.len() as u64).unwrap_or(0)
    }

    fn process(&mut self, ctx: &mut Ctx<'_, BaseMsg>, msg: BaseMsg) {
        match msg {
            BaseMsg::Validate {
                op,
                doc,
                proposed_ts,
                patch,
                user,
            } => {
                let log = self.logs.entry(doc).or_default();
                let last = log.len() as u64;
                if last == proposed_ts {
                    log.push(patch);
                    let grants = *self
                        .grants
                        .get_or_insert_with(|| ctx.metrics().register_counter("base.grants"));
                    ctx.metrics().incr_id(grants);
                    ctx.send(user, BaseMsg::Granted { op, ts: last + 1 });
                } else {
                    ctx.send(user, BaseMsg::Retry { op, last_ts: last });
                }
            }
            BaseMsg::FetchRange {
                op,
                doc,
                from,
                to,
                user,
            } => {
                let log = self.logs.entry(doc).or_default();
                let records: Vec<(u64, Bytes)> = log
                    .iter()
                    .enumerate()
                    .take(to as usize)
                    .skip(from as usize)
                    .map(|(i, r)| (i as u64 + 1, r.clone()))
                    .collect();
                ctx.send(user, BaseMsg::Range { op, records });
            }
            BaseMsg::LastTs { op, doc, user } => {
                let last_ts = self.last_ts(&doc);
                ctx.send(user, BaseMsg::LastTsReply { op, doc, last_ts });
            }
            _ => {}
        }
    }

    fn pump(&mut self, ctx: &mut Ctx<'_, BaseMsg>) {
        if self.busy {
            return;
        }
        if self.queue.is_empty() {
            return;
        }
        self.busy = true;
        ctx.set_timer(self.service_time, 0);
    }
}

impl Process<BaseMsg> for Coordinator {
    fn on_message(&mut self, ctx: &mut Ctx<'_, BaseMsg>, _from: NodeId, msg: BaseMsg) {
        match msg {
            BaseMsg::Validate { .. } | BaseMsg::FetchRange { .. } | BaseMsg::LastTs { .. } => {
                self.queue.push_back(msg);
                let queue_depth = *self
                    .queue_depth
                    .get_or_insert_with(|| ctx.metrics().register_histogram("base.queue_depth"));
                ctx.metrics()
                    .record_id(queue_depth, self.queue.len() as f64);
                self.pump(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, BaseMsg>, _tag: u64) {
        self.busy = false;
        if let Some(msg) = self.queue.pop_front() {
            self.process(ctx, msg);
        }
        self.pump(ctx);
    }
}

// ---------------------------------------------------------------------------
// Baseline user peer
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
enum Phase {
    Idle,
    Validating,
    Fetching,
}

struct BaseDoc {
    replica: ot::Replica,
    phase: Phase,
    queued_text: Option<Document>,
    inflight: Option<(u64, Bytes)>, // (op, bytes sent)
    cycle_started: Option<Time>,
}

/// Pre-registered counter and histogram handles of the baseline user
/// (same metrics discipline as `LtrNode`: no by-name lookups on the
/// message path).
#[derive(Clone, Copy)]
struct BaseCounters {
    validate_sent: CounterId,
    edits: CounterId,
    publish_ok: CounterId,
    integrated: CounterId,
    validate_timeout: CounterId,
    publish_latency_ms: HistogramId,
}

impl BaseCounters {
    fn register(m: &mut Metrics) -> Self {
        BaseCounters {
            validate_sent: m.register_counter("base.validate_sent"),
            edits: m.register_counter("base.edits"),
            publish_ok: m.register_counter("base.publish_ok"),
            integrated: m.register_counter("base.integrated"),
            validate_timeout: m.register_counter("base.validate_timeout"),
            publish_latency_ms: m.register_histogram("base.publish_latency_ms"),
        }
    }
}

/// A user peer of the centralized system.
pub struct BaselineUser {
    site: u64,
    coordinator: NodeId,
    // BTreeMap: the sync timer iterates docs to issue Sync commands; the
    // order must be deterministic for reproducible runs.
    docs: BTreeMap<String, BaseDoc>,
    ops: BTreeMap<u64, String>,
    op_seq: u64,
    validate_timeout: Duration,
    sync_every: Option<Duration>,
    /// Publishes acknowledged (for throughput accounting).
    pub published: u64,
    /// Counter handles; registered on first use.
    counters: Option<BaseCounters>,
}

/// Timer tags for the baseline user.
const TAG_SYNC: u64 = 1;
// Tags >= 16 encode (op << 4) | 2 for validate timeouts.
fn timeout_tag(op: u64) -> u64 {
    (op << 4) | 2
}

impl BaselineUser {
    /// Create a user peer talking to `coordinator`.
    pub fn new(
        site: u64,
        coordinator: NodeId,
        validate_timeout: Duration,
        sync_every: Option<Duration>,
    ) -> Self {
        BaselineUser {
            site,
            coordinator,
            docs: BTreeMap::new(),
            ops: BTreeMap::new(),
            op_seq: 0,
            validate_timeout,
            sync_every,
            published: 0,
            counters: None,
        }
    }

    /// The counter handles, registering them on first use.
    fn c(&mut self, m: &mut Metrics) -> BaseCounters {
        match self.counters {
            Some(c) => c,
            None => {
                let c = BaseCounters::register(m);
                self.counters = Some(c);
                c
            }
        }
    }

    /// Working text of a document.
    pub fn doc_text(&self, doc: &str) -> Option<String> {
        self.docs.get(doc).map(|d| d.replica.working().to_text())
    }

    /// Content hash of a document.
    pub fn doc_hash(&self, doc: &str) -> Option<u64> {
        self.docs
            .get(doc)
            .map(|d| d.replica.working().content_hash())
    }

    /// Is a cycle in flight (or edits unpublished)?
    pub fn is_busy(&self, doc: &str) -> bool {
        self.docs.get(doc).is_some_and(|d| {
            d.phase != Phase::Idle || d.replica.pending().is_some() || d.queued_text.is_some()
        })
    }

    fn next_op(&mut self, doc: &str) -> u64 {
        self.op_seq += 1;
        self.ops.insert(self.op_seq, doc.to_owned());
        self.op_seq
    }

    fn start_validate(&mut self, ctx: &mut Ctx<'_, BaseMsg>, doc: &str) {
        let op = self.next_op(doc);
        let coordinator = self.coordinator;
        let timeout = self.validate_timeout;
        let Some(state) = self.docs.get_mut(doc) else {
            return;
        };
        let pending = match state.replica.tentative_for_publish() {
            Some(p) => p,
            None => {
                state.phase = Phase::Idle;
                return;
            }
        };
        let bytes = Bytes::from(ot::encode_patch(&pending));
        state.phase = Phase::Validating;
        state.inflight = Some((op, bytes.clone()));
        ctx.send(
            coordinator,
            BaseMsg::Validate {
                op,
                doc: doc.to_owned(),
                proposed_ts: state.replica.ts,
                patch: bytes,
                user: ctx.self_id(),
            },
        );
        ctx.set_timer(timeout, timeout_tag(op));
        let c = self.c(ctx.metrics());
        ctx.metrics().incr_id(c.validate_sent);
    }

    fn resume(&mut self, ctx: &mut Ctx<'_, BaseMsg>, doc: &str) {
        let now = ctx.now();
        let Some(state) = self.docs.get_mut(doc) else {
            return;
        };
        if let Some(text) = state.queued_text.take() {
            let _ = state.replica.edit(&text);
        }
        if state.replica.pending().is_some() {
            state.cycle_started.get_or_insert(now);
            self.start_validate(ctx, doc);
        }
    }

    fn on_cmd(&mut self, ctx: &mut Ctx<'_, BaseMsg>, cmd: BaseCmd) {
        match cmd {
            BaseCmd::OpenDoc { doc, initial } => {
                let site = self.site;
                self.docs.entry(doc).or_insert_with(|| BaseDoc {
                    replica: ot::Replica::new(site, Document::from_text(&initial)),
                    phase: Phase::Idle,
                    queued_text: None,
                    inflight: None,
                    cycle_started: None,
                });
            }
            BaseCmd::Edit { doc, new_text } => {
                let now = ctx.now();
                let c = self.c(ctx.metrics());
                let state = match self.docs.get_mut(&doc) {
                    Some(s) => s,
                    None => return,
                };
                ctx.metrics().incr_id(c.edits);
                let target = Document::from_text(&new_text);
                if state.phase == Phase::Idle {
                    if state
                        .replica
                        .edit(&target)
                        .map(|p| p.is_empty())
                        .unwrap_or(true)
                    {
                        return;
                    }
                    state.cycle_started = Some(now);
                    self.start_validate(ctx, &doc);
                } else {
                    state.queued_text = Some(target);
                }
            }
            BaseCmd::Sync { doc } => {
                if self.docs.get(&doc).is_some_and(|d| d.phase == Phase::Idle) {
                    let op = self.next_op(&doc);
                    let coordinator = self.coordinator;
                    ctx.send(
                        coordinator,
                        BaseMsg::LastTs {
                            op,
                            doc,
                            user: ctx.self_id(),
                        },
                    );
                }
            }
        }
    }
}

impl Process<BaseMsg> for BaselineUser {
    fn on_start(&mut self, ctx: &mut Ctx<'_, BaseMsg>) {
        if let Some(period) = self.sync_every {
            ctx.set_timer(period, TAG_SYNC);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, BaseMsg>, _from: NodeId, msg: BaseMsg) {
        match msg {
            BaseMsg::Cmd(cmd) => self.on_cmd(ctx, cmd),
            BaseMsg::Granted { op, ts } => {
                let doc = match self.ops.remove(&op) {
                    Some(d) => d,
                    None => return,
                };
                let now = ctx.now();
                let c = self.c(ctx.metrics());
                let Some(state) = self.docs.get_mut(&doc) else {
                    return;
                };
                if state.phase != Phase::Validating || ts != state.replica.ts + 1 {
                    return;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "Validating with ts == replica.ts + 1: our own pending patch applies to its base"
                )]
                state
                    .replica
                    .acknowledge_own(ts)
                    .expect("own patch applies");
                state.inflight = None;
                state.phase = Phase::Idle;
                self.published += 1;
                if let Some(t0) = state.cycle_started.take() {
                    ctx.metrics()
                        .record_id(c.publish_latency_ms, now.since(t0).as_millis_f64());
                }
                ctx.metrics().incr_id(c.publish_ok);
                self.resume(ctx, &doc);
            }
            BaseMsg::Retry { op, last_ts } => {
                let doc = match self.ops.remove(&op) {
                    Some(d) => d,
                    None => return,
                };
                let Some(state) = self.docs.get_mut(&doc) else {
                    return;
                };
                if state.phase != Phase::Validating {
                    return;
                }
                state.phase = Phase::Fetching;
                let from = state.replica.ts;
                let op = self.next_op(&doc);
                let coordinator = self.coordinator;
                ctx.send(
                    coordinator,
                    BaseMsg::FetchRange {
                        op,
                        doc,
                        from,
                        to: last_ts,
                        user: ctx.self_id(),
                    },
                );
            }
            BaseMsg::Range { op, records } => {
                let doc = match self.ops.remove(&op) {
                    Some(d) => d,
                    None => return,
                };
                let c = self.c(ctx.metrics());
                let Some(state) = self.docs.get_mut(&doc) else {
                    return;
                };
                if state.phase != Phase::Fetching && state.phase != Phase::Idle {
                    return;
                }
                for (i, (ts, bytes)) in records.iter().enumerate() {
                    if *ts != state.replica.ts + 1 {
                        continue; // already have it
                    }
                    // Own-record detection mirrors the P2P path.
                    if i == 0 || state.inflight.is_some() {
                        if let Some((_, sent)) = &state.inflight {
                            if sent == bytes {
                                #[expect(
                                    clippy::expect_used,
                                    reason = "byte-identical to the patch we sent from this base"
                                )]
                                state.replica.acknowledge_own(*ts).expect("own applies");
                                state.inflight = None;
                                self.published += 1;
                                continue;
                            }
                        }
                    }
                    state.inflight = None;
                    let patch = match ot::decode_patch(bytes) {
                        Ok(p) => p,
                        Err(_) => break,
                    };
                    // A well-formed patch that does not apply is outside
                    // input too: stop here, as for one that does not decode.
                    if state.replica.integrate_remote(*ts, &patch).is_err() {
                        break;
                    }
                    ctx.metrics().incr_id(c.integrated);
                }
                state.phase = Phase::Idle;
                self.resume(ctx, &doc);
            }
            BaseMsg::LastTsReply { op, doc, last_ts } => {
                self.ops.remove(&op);
                let state = match self.docs.get_mut(&doc) {
                    Some(s) => s,
                    None => return,
                };
                if state.phase == Phase::Idle && last_ts > state.replica.ts {
                    let from = state.replica.ts;
                    state.phase = Phase::Fetching;
                    let op = self.next_op(&doc);
                    let coordinator = self.coordinator;
                    ctx.send(
                        coordinator,
                        BaseMsg::FetchRange {
                            op,
                            doc,
                            from,
                            to: last_ts,
                            user: ctx.self_id(),
                        },
                    );
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, BaseMsg>, tag: u64) {
        if tag == TAG_SYNC {
            let docs: Vec<String> = self.docs.keys().cloned().collect();
            for doc in docs {
                self.on_cmd(ctx, BaseCmd::Sync { doc });
            }
            if let Some(period) = self.sync_every {
                ctx.set_timer(period, TAG_SYNC);
            }
            return;
        }
        if tag & 0xf == 2 {
            let op = tag >> 4;
            if let Some(doc) = self.ops.remove(&op) {
                // Coordinator unresponsive (crashed?): retry while it is
                // down; count the outage.
                let c = self.c(ctx.metrics());
                ctx.metrics().incr_id(c.validate_timeout);
                let Some(state) = self.docs.get_mut(&doc) else {
                    return;
                };
                if state.phase == Phase::Validating
                    && state.inflight.as_ref().is_some_and(|(o, _)| *o == op)
                {
                    self.start_validate(ctx, &doc);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NetConfig, Sim};

    fn build(seed: u64, users: usize) -> (Sim<BaseMsg>, NodeId, Vec<NodeId>) {
        let mut sim = Sim::new(seed, NetConfig::lan());
        let coord = sim.add_node(Coordinator::new(Duration::from_millis(1)));
        let mut ids = Vec::new();
        for i in 0..users {
            let id = sim.add_node(BaselineUser::new(
                i as u64 + 1,
                coord,
                Duration::from_millis(500),
                Some(Duration::from_millis(500)),
            ));
            ids.push(id);
        }
        (sim, coord, ids)
    }

    #[test]
    fn two_users_converge_centrally() {
        let (mut sim, coord, users) = build(1, 2);
        for &u in &users {
            sim.send_external(
                u,
                BaseMsg::Cmd(BaseCmd::OpenDoc {
                    doc: "d".into(),
                    initial: "base".into(),
                }),
            );
        }
        sim.run_for(Duration::from_millis(100));
        sim.send_external(
            users[0],
            BaseMsg::Cmd(BaseCmd::Edit {
                doc: "d".into(),
                new_text: "base\nalpha".into(),
            }),
        );
        sim.send_external(
            users[1],
            BaseMsg::Cmd(BaseCmd::Edit {
                doc: "d".into(),
                new_text: "beta\nbase".into(),
            }),
        );
        sim.run_for(Duration::from_secs(10));
        let t0 = sim
            .node_as::<BaselineUser>(users[0])
            .unwrap()
            .doc_text("d")
            .unwrap();
        let t1 = sim
            .node_as::<BaselineUser>(users[1])
            .unwrap()
            .doc_text("d")
            .unwrap();
        assert_eq!(t0, t1, "baseline replicas diverged");
        assert!(t0.contains("alpha") && t0.contains("beta"));
        let c = sim.node_as::<Coordinator>(coord).unwrap();
        assert_eq!(c.last_ts("d"), 2);
    }

    #[test]
    fn a_logged_patch_that_does_not_apply_is_not_a_crash() {
        let (mut sim, coord, users) = build(3, 1);
        sim.send_external(
            users[0],
            BaseMsg::Cmd(BaseCmd::OpenDoc {
                doc: "d".into(),
                initial: "base".into(),
            }),
        );
        // A patch that decodes but deletes a line no replica has gets
        // logged at ts 1 under a reply address that ignores the grant.
        let bad = ot::Patch::new(
            9,
            vec![ot::TextOp::Del {
                pos: 7,
                content: "absent".into(),
                site: 9,
            }],
        );
        sim.send_external(
            coord,
            BaseMsg::Validate {
                op: 1,
                doc: "d".into(),
                proposed_ts: 0,
                patch: Bytes::from(ot::encode_patch(&bad)),
                user: users[0],
            },
        );
        sim.run_for(Duration::from_millis(100));
        // The user's own edit is refused, fetches ts 1, and must not panic.
        sim.send_external(
            users[0],
            BaseMsg::Cmd(BaseCmd::Edit {
                doc: "d".into(),
                new_text: "base\nalpha".into(),
            }),
        );
        sim.run_for(Duration::from_secs(2));
        let user = sim.node_as::<BaselineUser>(users[0]).unwrap();
        assert_eq!(user.doc_text("d").as_deref(), Some("base\nalpha"));
        assert_eq!(sim.node_as::<Coordinator>(coord).unwrap().last_ts("d"), 1);
    }

    #[test]
    fn coordinator_crash_stops_all_progress() {
        let (mut sim, coord, users) = build(2, 2);
        for &u in &users {
            sim.send_external(
                u,
                BaseMsg::Cmd(BaseCmd::OpenDoc {
                    doc: "d".into(),
                    initial: "".into(),
                }),
            );
        }
        sim.run_for(Duration::from_millis(100));
        sim.crash(coord);
        sim.send_external(
            users[0],
            BaseMsg::Cmd(BaseCmd::Edit {
                doc: "d".into(),
                new_text: "stuck".into(),
            }),
        );
        sim.run_for(Duration::from_secs(10));
        let u = sim.node_as::<BaselineUser>(users[0]).unwrap();
        assert_eq!(u.published, 0, "no progress without the coordinator");
        assert!(u.is_busy("d"));
        assert!(sim.metrics().counter("base.validate_timeout") > 0);
    }

    #[test]
    fn queue_serializes_service() {
        let (mut sim, _coord, users) = build(3, 4);
        for &u in &users {
            sim.send_external(
                u,
                BaseMsg::Cmd(BaseCmd::OpenDoc {
                    doc: "d".into(),
                    initial: "".into(),
                }),
            );
        }
        sim.run_for(Duration::from_millis(100));
        for (i, &u) in users.iter().enumerate() {
            sim.send_external(
                u,
                BaseMsg::Cmd(BaseCmd::Edit {
                    doc: "d".into(),
                    new_text: format!("line from {i}"),
                }),
            );
        }
        sim.run_for(Duration::from_secs(20));
        let grants = sim.metrics().counter("base.grants");
        assert_eq!(grants, 4, "all four eventually published");
    }
}
