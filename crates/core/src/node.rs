//! The P2P-LTR peer: one simulator process combining the paper's roles —
//! **User Peer** (local replicas, tentative patches, validation/retrieval),
//! **Master-key peer** (continuous timestamping for the keys it owns),
//! **Master-key-Succ** (last-ts backups), **Log-Peer** and **Log-Peer-Succ**
//! (DHT storage + successor replication).
//!
//! Every peer runs all roles, as in the paper's model: which role is active
//! for a given key follows from DHT placement (`ht`, `h1..hn`).
//!
//! The user-side procedures live in [`crate::node_user`], the master-side
//! wiring in [`crate::node_master`], and the Chord glue in
//! [`crate::node_glue`].

use std::collections::{BTreeMap, HashMap, VecDeque};

use bytes::Bytes;

use chord::{ChordNode, ChordTimer, NodeRef, OpId, StorageDelta};
use kts::{KtsMaster, ReqId};
use p2plog::{DocName, FenceTracker, LogProbe, PublishTracker, Retriever};
use simnet::{CounterId, Ctx, Duration, HistogramId, Metrics, NodeId, Process, Time};
use store::{NullStore, RecoveredState, Store, StoreEntry};

use crate::config::LtrConfig;
use crate::events::{LtrEvent, LtrEventKind};
use crate::payload::{Payload, UserCmd};

/// Phase of the per-document user-side state machine (the paper's
/// "patch timestamp validation" + "patch retrieval" procedures).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum UserPhase {
    /// Nothing in flight.
    Idle,
    /// Resolving the Master-key peer via `ht(doc)`.
    LocateMaster,
    /// `Validate` sent, awaiting the master's answer.
    Validating,
    /// Retrieving missing patches in continuous order.
    Retrieving,
    /// Cycle failed; waiting for the retry timer.
    Backoff,
}

/// The validation request currently in flight for a document.
#[derive(Clone, Debug)]
pub(crate) struct InflightValidate {
    pub req: ReqId,
    /// Exactly the patch bytes sent — used to recognise our own record in
    /// the log when an ack was lost.
    pub bytes: Bytes,
    /// Number of pending ops included in `bytes`; edits arriving while the
    /// validation is in flight extend the pending patch beyond this prefix.
    pub op_count: usize,
    pub attempts: u32,
}

/// Active retrieval for a document.
pub(crate) struct RetrState {
    pub retriever: Retriever,
    /// Restart validation when retrieval completes (true when we were
    /// bounced with `Retry`; false for anti-entropy pulls).
    pub resume_validate: bool,
    /// First record not yet processed (own-record detection window).
    pub first_record_pending: bool,
    /// Fetches re-issued after operational (non-miss) failures; capped
    /// per retrieval so a dead replica set stalls the cycle instead of
    /// spinning.
    pub fetch_retries: u32,
}

/// Per-document state at this peer.
pub(crate) struct DocState {
    pub name: DocName,
    /// `ht(name)` — the master-key placement, computed once at open so the
    /// validation/sync paths never re-hash the document name.
    pub key: chord::Id,
    pub replica: ot::Replica,
    pub phase: UserPhase,
    pub inflight: Option<InflightValidate>,
    pub retr: Option<RetrState>,
    /// When the current publish cycle started (for end-to-end latency).
    pub cycle_started: Option<Time>,
    /// Highest master epoch witnessed in records this replica integrated
    /// (and in its own grants). Fetched records below this floor are
    /// rejected: a superseded master's write at a re-granted slot.
    /// Never updated from `LastTsReply` or a grant hint — an unfenced
    /// word from the master must not be able to wedge the replica above
    /// every real record.
    pub last_epoch: u64,
    /// Highest timestamp this replica has been *told* exists (`Retry`,
    /// `LastTsReply`, grant hint) since its last backoff. What it is told
    /// while busy is chased when the document next settles; a backoff
    /// forgets it, so a bogus word costs one stalled retrieval, not a loop.
    pub master_ts: u64,
}

impl DocState {
    /// A freshly opened document: nothing in flight, nothing known.
    pub(crate) fn open(name: DocName, replica: ot::Replica) -> Self {
        DocState {
            key: p2plog::ht(&name),
            name,
            replica,
            phase: UserPhase::Idle,
            inflight: None,
            retr: None,
            cycle_started: None,
            last_epoch: 0,
            master_ts: 0,
        }
    }

    /// Whether the anti-entropy tick polls the master for this document:
    /// when idle, and also while a retrieval nobody is waiting on runs —
    /// a holder kept busy by hint-driven retrievals must keep renewing
    /// the subscription its polls are.
    pub(crate) fn polls(&self) -> bool {
        match self.phase {
            UserPhase::Idle => true,
            UserPhase::Retrieving => self.retr.as_ref().is_some_and(|r| !r.resume_validate),
            _ => false,
        }
    }
}

/// Why a Chord operation was issued (completion routing).
#[derive(Clone, Debug)]
pub(crate) enum OpPurpose {
    /// Locate the master to send a `Validate`.
    MasterLookup { doc: DocName },
    /// Locate the master to send a `LastTs` (anti-entropy).
    SyncLookup { doc: DocName },
    /// One replica put of a publish fan-out.
    LogPut { token: u64 },
    /// One fetch of a retrieval.
    LogFetch {
        doc: DocName,
        ts: u64,
        hash_idx: usize,
    },
    /// One get of a last-ts log probe.
    ProbeFetch { token: u64 },
    /// One location op of a grant-fence fan-out.
    Fence { token: u64 },
}

/// Master-side publish fan-out in progress.
pub(crate) struct PublishCtx {
    pub tracker: PublishTracker,
}

/// Master-side log probe in progress.
pub(crate) struct ProbeCtx {
    pub probe: LogProbe,
    /// Highest master epoch seen in the fetched record bytes — fed into
    /// `KtsMaster::probe_done` so a restarted master re-fences *above*
    /// every epoch the log already holds.
    pub max_epoch: u64,
}

/// Master-side grant-fence fan-out in progress.
pub(crate) struct FenceCtx {
    pub tracker: FenceTracker,
}

/// Core-layer timers (multiplexed with Chord's via the tag LSB).
#[derive(Clone, Debug)]
pub(crate) enum CoreTimer {
    /// Deferred network start (staggered joins).
    Start,
    /// Anti-entropy tick.
    SyncTick,
    /// Log GC tick.
    GcTick,
    /// Validation response timeout.
    ValidateTimeout { doc: DocName, req: ReqId },
    /// Backoff expiry for a failed cycle.
    RetryDoc { doc: DocName },
}

/// Pre-registered handles for every fixed-name counter and histogram the
/// node feeds — resolved to dense array slots once at `on_start`, so the
/// message and event hot paths never do a by-name map lookup.
#[derive(Clone, Copy)]
pub(crate) struct NodeCounters {
    pub joined: CounterId,
    pub join_failed: CounterId,
    pub lookup_failed: CounterId,
    pub keys_received: CounterId,
    pub handoff_entries: CounterId,
    pub docs_opened: CounterId,
    pub edits: CounterId,
    pub validate_sent: CounterId,
    pub publish_ok: CounterId,
    pub validate_retry: CounterId,
    pub validate_redirect: CounterId,
    pub validate_failed: CounterId,
    pub validate_timeout: CounterId,
    pub cycle_backoff: CounterId,
    pub retrievals: CounterId,
    pub retrieval_stalled: CounterId,
    pub fetch_refetches: CounterId,
    pub probe_refetches: CounterId,
    pub record_decode_error: CounterId,
    pub own_record_recovered: CounterId,
    pub integrated: CounterId,
    pub integrate_error: CounterId,
    pub fetch_fallbacks: CounterId,
    pub kts_validate_received: CounterId,
    pub kts_backup_entries_received: CounterId,
    pub kts_grants: CounterId,
    pub kts_stale_detected: CounterId,
    pub kts_backups_promoted: CounterId,
    pub kts_entries_handed_off: CounterId,
    pub kts_entries_handoff_received: CounterId,
    pub kts_probes_started: CounterId,
    pub kts_fences_started: CounterId,
    pub kts_fences_acked: CounterId,
    pub kts_fences_superseded: CounterId,
    pub epoch_regressions: CounterId,
    pub log_publishes: CounterId,
    pub log_gc_removed: CounterId,
    pub store_appends: CounterId,
    pub store_append_errors: CounterId,
    pub hints_sent: CounterId,
    pub hints_followed: CounterId,
    pub hints_deferred: CounterId,
    pub hints_stale: CounterId,
    pub publish_latency_ms: HistogramId,
    pub lookup_hops: HistogramId,
}

impl NodeCounters {
    fn register(m: &mut Metrics) -> Self {
        NodeCounters {
            joined: m.register_counter("ltr.joined"),
            join_failed: m.register_counter("ltr.join_failed"),
            lookup_failed: m.register_counter("ltr.lookup_failed"),
            keys_received: m.register_counter("chord.keys_received"),
            handoff_entries: m.register_counter("kts.handoff_entries"),
            docs_opened: m.register_counter("ltr.docs_opened"),
            edits: m.register_counter("ltr.edits"),
            validate_sent: m.register_counter("ltr.validate_sent"),
            publish_ok: m.register_counter("ltr.publish_ok"),
            validate_retry: m.register_counter("ltr.validate_retry"),
            validate_redirect: m.register_counter("ltr.validate_redirect"),
            validate_failed: m.register_counter("ltr.validate_failed"),
            validate_timeout: m.register_counter("ltr.validate_timeout"),
            cycle_backoff: m.register_counter("ltr.cycle_backoff"),
            retrievals: m.register_counter("ltr.retrievals"),
            retrieval_stalled: m.register_counter("ltr.retrieval_stalled"),
            fetch_refetches: m.register_counter("ltr.fetch_refetches"),
            probe_refetches: m.register_counter("kts.probe_refetches"),
            record_decode_error: m.register_counter("ltr.record_decode_error"),
            own_record_recovered: m.register_counter("ltr.own_record_recovered"),
            integrated: m.register_counter("ltr.integrated"),
            integrate_error: m.register_counter("ltr.integrate_error"),
            fetch_fallbacks: m.register_counter("ltr.fetch_fallbacks"),
            kts_validate_received: m.register_counter("kts.validate_received"),
            kts_backup_entries_received: m.register_counter("kts.backup_entries_received"),
            kts_grants: m.register_counter("kts.grants"),
            kts_stale_detected: m.register_counter("kts.stale_detected"),
            kts_backups_promoted: m.register_counter("kts.backups_promoted"),
            kts_entries_handed_off: m.register_counter("kts.entries_handed_off"),
            kts_entries_handoff_received: m.register_counter("kts.entries_handoff_received"),
            kts_probes_started: m.register_counter("kts.probes_started"),
            kts_fences_started: m.register_counter("kts.fences_started"),
            kts_fences_acked: m.register_counter("kts.fences_acked"),
            kts_fences_superseded: m.register_counter("kts.fences_superseded"),
            epoch_regressions: m.register_counter("ltr.epoch_regressions"),
            log_publishes: m.register_counter("log.publishes"),
            log_gc_removed: m.register_counter("log.gc_removed"),
            store_appends: m.register_counter("store.appends"),
            store_append_errors: m.register_counter("store.append_errors"),
            hints_sent: m.register_counter("kts.hints_sent"),
            hints_followed: m.register_counter("ltr.hints_followed"),
            hints_deferred: m.register_counter("ltr.hints_deferred"),
            hints_stale: m.register_counter("ltr.hints_stale"),
            publish_latency_ms: m.register_histogram("ltr.publish_latency_ms"),
            lookup_hops: m.register_histogram("chord.lookup_hops"),
        }
    }
}

/// A full P2P-LTR peer as a simulator process.
pub struct LtrNode {
    pub(crate) me: NodeRef,
    /// OT site id (tie-break ordering); derived from the address.
    pub(crate) site: u64,
    pub(crate) cfg: LtrConfig,
    bootstrap: Option<NodeRef>,
    start_delay: Duration,

    pub(crate) chord: ChordNode,
    pub(crate) kts: KtsMaster,

    /// The durable journal (see the `store` crate). [`store::NullStore`]
    /// by default: journaling entirely disabled, behaviour byte-identical.
    pub(crate) store: Box<dyn Store>,
    /// Cached `store.is_recording()` — the hot-path guard.
    pub(crate) journaling: bool,

    // BTreeMap: tick_sync issues lookups in iteration order, which must be
    // deterministic for reproducible runs.
    pub(crate) docs: BTreeMap<DocName, DocState>,
    pub(crate) req_seq: u64,
    /// Outstanding KTS requests → document routing. BTreeMap: recovery
    /// and crash handling may sweep these, so order must be fixed.
    pub(crate) validate_reqs: BTreeMap<ReqId, DocName>,
    /// The one outstanding `LastTs` poll per document: a new tick replaces
    /// the old handle, so unanswered polls cannot accumulate.
    pub(crate) lastts_reqs: BTreeMap<DocName, ReqId>,
    /// Master-side grant-hint registry (see [`crate::node_master`]): per
    /// key, the holders that polled it and when each subscription lapses.
    pub(crate) hint_subs: BTreeMap<chord::Id, BTreeMap<NodeId, Time>>,

    // detlint::allow(DET-HASH, per-op routing looked up by unique id on completion; never iterated)
    pub(crate) chord_ops: HashMap<OpId, OpPurpose>,
    // detlint::allow(DET-HASH, keyed by unique publish seq; never iterated)
    pub(crate) publishes: HashMap<u64, PublishCtx>,
    // detlint::allow(DET-HASH, keyed by unique probe seq; never iterated)
    pub(crate) probes: HashMap<u64, ProbeCtx>,
    // detlint::allow(DET-HASH, keyed by unique fence token; never iterated)
    pub(crate) fences: HashMap<u64, FenceCtx>,

    /// Re-entrancy queue for [`Self::apply_chord_actions`]. Chord ops on
    /// self-owned keys complete synchronously, so a probe → fence → grant
    /// chain would otherwise recurse one stack level per step and can
    /// overflow under fault-heavy runs; nested action batches are queued
    /// here and drained iteratively by the outermost call instead.
    pub(crate) chord_action_queue: VecDeque<chord::Action>,
    pub(crate) applying_chord_actions: bool,

    // detlint::allow(DET-HASH, timer tags resolve one at a time as timers fire; never iterated)
    pub(crate) timer_tags: HashMap<u64, CoreTimer>,
    pub(crate) tag_seq: u64,
    /// Counter handles; registered on the first upcall (`on_start`).
    pub(crate) counters: Option<NodeCounters>,

    /// Everything notable that happened here (oracle input).
    pub events: Vec<LtrEvent>,
}

impl LtrNode {
    /// Create a peer. `bootstrap` is `None` only for the first node of the
    /// network; `start_delay` staggers joins. Durability is off: the node
    /// journals to a [`store::NullStore`].
    pub fn new(
        me: NodeRef,
        cfg: LtrConfig,
        bootstrap: Option<NodeRef>,
        start_delay: Duration,
    ) -> Self {
        Self::with_store(me, cfg, bootstrap, start_delay, Box::new(NullStore))
    }

    /// Create a peer journaling its durable state to `store`. Every log
    /// item it stores, every timestamp-table change and every document
    /// open is appended as a [`StoreEntry`]; a crashed peer restarts from
    /// the result via [`LtrNode::recover`].
    pub fn with_store(
        me: NodeRef,
        cfg: LtrConfig,
        bootstrap: Option<NodeRef>,
        start_delay: Duration,
        store: Box<dyn Store>,
    ) -> Self {
        let mut chord = ChordNode::new(me, cfg.chord.clone());
        let kts = KtsMaster::new(cfg.kts.clone());
        let journaling = store.is_recording();
        if journaling {
            chord.storage_mut().set_journaling(true);
        }
        LtrNode {
            me,
            site: me.addr.0 as u64 + 1,
            cfg,
            bootstrap,
            start_delay,
            chord,
            kts,
            store,
            journaling,
            docs: BTreeMap::new(),
            req_seq: 0,
            validate_reqs: BTreeMap::new(),
            lastts_reqs: BTreeMap::new(),
            hint_subs: BTreeMap::new(),
            chord_ops: HashMap::new(), // detlint::allow(DET-HASH, lookup-only; see field decl)
            publishes: HashMap::new(), // detlint::allow(DET-HASH, lookup-only; see field decl)
            probes: HashMap::new(),    // detlint::allow(DET-HASH, lookup-only; see field decl)
            fences: HashMap::new(),    // detlint::allow(DET-HASH, lookup-only; see field decl)
            chord_action_queue: VecDeque::new(),
            applying_chord_actions: false,
            timer_tags: HashMap::new(), // detlint::allow(DET-HASH, lookup-only; see field decl)
            tag_seq: 0,
            counters: None,
            events: Vec::new(),
        }
    }

    /// Rebuild a crashed peer from its own durable store: the recovered
    /// key table and backups seed the KTS master (re-verified against the
    /// log before first use), recovered log items seed the DHT storage,
    /// and recovered documents reopen on their initial text — the
    /// retrieval procedure then re-integrates every validated patch from
    /// the P2P-Log, so the replica converges without any peer handing
    /// state over.
    ///
    /// `store` is typically a fresh handle onto what the dead incarnation
    /// wrote; `state` is `RecoveredState::rebuild` of its replay.
    pub fn recover(
        me: NodeRef,
        cfg: LtrConfig,
        bootstrap: Option<NodeRef>,
        start_delay: Duration,
        store: Box<dyn Store>,
        state: RecoveredState,
    ) -> Self {
        let mut node = Self::with_store(me, cfg, bootstrap, start_delay, store);
        for (k, v) in state.primary {
            node.chord.storage_mut().put_primary(k, v);
        }
        for (k, v) in state.replica {
            node.chord.storage_mut().put_replica(k, v);
        }
        for (k, floor, origin) in state.fences {
            node.chord.storage_mut().restore_fence(k, floor, origin);
        }
        // The seed mutations are already in the journal (the dead
        // incarnation wrote them); do not journal them again.
        let _ = node.chord.storage_mut().take_deltas();
        node.kts.restore_entries(state.kts_entries);
        node.kts.restore_backups(state.kts_backups);
        for (doc, initial) in state.docs {
            let replica = ot::Replica::new(node.site, ot::Document::from_text(&initial));
            node.docs.insert(doc.clone(), DocState::open(doc, replica));
        }
        node
    }

    // ---- public inspection API (examples, tests, experiments) ----------

    /// This peer's ring identity.
    pub fn me(&self) -> NodeRef {
        self.me
    }

    /// The OT site id used for this peer's edits.
    pub fn site(&self) -> u64 {
        self.site
    }

    /// Immutable view of the DHT layer.
    pub fn chord(&self) -> &ChordNode {
        &self.chord
    }

    /// Immutable view of the timestamp service state.
    pub fn kts(&self) -> &KtsMaster {
        &self.kts
    }

    /// A fresh handle onto this peer's durable store — how a crash/restart
    /// harness reopens what a dead incarnation wrote.
    pub fn store_handle(&self) -> Box<dyn Store> {
        self.store.handle()
    }

    /// True when this peer journals its durable state (non-null backend).
    pub fn is_journaling(&self) -> bool {
        self.journaling
    }

    /// The user-visible text of an open document.
    pub fn doc_text(&self, doc: &str) -> Option<String> {
        self.docs.get(doc).map(|d| d.replica.working().to_text())
    }

    /// Content hash of the user-visible document (convergence checks).
    pub fn doc_hash(&self, doc: &str) -> Option<u64> {
        self.docs
            .get(doc)
            .map(|d| d.replica.working().content_hash())
    }

    /// Last integrated (validated) timestamp of an open document.
    pub fn doc_ts(&self, doc: &str) -> Option<u64> {
        self.docs.get(doc).map(|d| d.replica.ts)
    }

    /// True while a publish cycle or retrieval is in flight for `doc`, or
    /// unsaved edits are pending.
    pub fn is_busy(&self, doc: &str) -> bool {
        self.docs
            .get(doc)
            .is_some_and(|d| d.phase != UserPhase::Idle || d.replica.pending().is_some())
    }

    /// Names of the documents this peer has open, in sorted order.
    pub fn open_docs(&self) -> Vec<String> {
        self.docs.keys().map(|d| d.to_string()).collect()
    }

    /// Grant-hint subscriptions held here as a master: `(key, holder)`
    /// pairs, lapsed ones included until the next sync tick sweeps them.
    pub fn hint_subscriptions(&self) -> usize {
        self.hint_subs.values().map(BTreeMap::len).sum()
    }

    /// All `MasterGranted` events recorded here (continuity oracle input).
    pub fn grants(&self) -> Vec<(String, u64)> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                LtrEventKind::MasterGranted { doc, ts } => Some((doc.to_string(), *ts)),
                _ => None,
            })
            .collect()
    }

    // ---- plumbing --------------------------------------------------------

    pub(crate) fn next_req(&mut self) -> ReqId {
        self.req_seq += 1;
        ReqId(self.req_seq)
    }

    pub(crate) fn record(&mut self, at: Time, kind: LtrEventKind) {
        self.events.push(LtrEvent { at, kind });
    }

    /// The pre-registered counter handles (filled in by `on_start`, which
    /// always runs before any message or timer can reach the node).
    #[inline]
    pub(crate) fn c(&self) -> NodeCounters {
        self.counters.expect("counters registered in on_start")
    }

    /// Append one entry to the durable journal (no-op with the default
    /// [`NullStore`]). Append failures are counted, never fatal: a peer
    /// with a sick disk keeps serving, it just loses crash durability.
    pub(crate) fn persist(&mut self, ctx: &mut Ctx<'_, Payload>, entry: &StoreEntry) {
        if !self.journaling {
            return;
        }
        let c = self.c();
        match self.store.append(entry) {
            Ok(()) => ctx.metrics().incr_id(c.store_appends),
            Err(_) => ctx.metrics().incr_id(c.store_append_errors),
        }
    }

    /// Drain the DHT storage mutations recorded during the last upcall
    /// into the journal (called at the end of every `Process` upcall).
    pub(crate) fn flush_storage_journal(&mut self, ctx: &mut Ctx<'_, Payload>) {
        if !self.journaling {
            return;
        }
        for delta in self.chord.storage_mut().take_deltas() {
            let entry = match delta {
                StorageDelta::PutPrimary { key, value } => StoreEntry::PutPrimary { key, value },
                StorageDelta::PutReplica { key, value } => StoreEntry::PutReplica { key, value },
                StorageDelta::DelPrimary { key } => StoreEntry::DelPrimary { key },
                StorageDelta::DelReplica { key } => StoreEntry::DelReplica { key },
                StorageDelta::SetFence { key, floor, origin } => {
                    StoreEntry::FenceFloor { key, floor, origin }
                }
            };
            self.persist(ctx, &entry);
        }
    }

    /// Arm a core-layer timer (odd tags; chord uses even tags).
    pub(crate) fn arm_core_timer(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        delay: Duration,
        timer: CoreTimer,
    ) {
        self.tag_seq += 1;
        let tag = self.tag_seq * 2 + 1;
        self.timer_tags.insert(tag, timer);
        ctx.set_timer(delay, tag);
    }

    fn start_network(&mut self, ctx: &mut Ctx<'_, Payload>) {
        let actions = self.chord.start(ctx.now(), self.bootstrap);
        self.apply_chord_actions(ctx, actions);
        if let Some(period) = self.cfg.sync_every {
            self.arm_core_timer(ctx, period, CoreTimer::SyncTick);
        }
        if let Some(gc) = &self.cfg.gc {
            let every = gc.every;
            self.arm_core_timer(ctx, every, CoreTimer::GcTick);
        }
    }

    fn on_core_timer(&mut self, ctx: &mut Ctx<'_, Payload>, timer: CoreTimer) {
        match timer {
            CoreTimer::Start => self.start_network(ctx),
            CoreTimer::SyncTick => {
                self.expire_hint_subs(ctx.now());
                self.tick_sync(ctx);
                if let Some(period) = self.cfg.sync_every {
                    self.arm_core_timer(ctx, period, CoreTimer::SyncTick);
                }
            }
            CoreTimer::GcTick => {
                self.tick_gc(ctx);
                if let Some(gc) = &self.cfg.gc {
                    let every = gc.every;
                    self.arm_core_timer(ctx, every, CoreTimer::GcTick);
                }
            }
            CoreTimer::ValidateTimeout { doc, req } => {
                self.on_validate_timeout(ctx, &doc, req);
            }
            CoreTimer::RetryDoc { doc } => {
                self.on_retry_timer(ctx, &doc);
            }
        }
    }

    fn on_user_cmd(&mut self, ctx: &mut Ctx<'_, Payload>, cmd: UserCmd) {
        match cmd {
            UserCmd::OpenDoc { doc, initial } => self.cmd_open_doc(ctx, doc, initial),
            UserCmd::Edit { doc, new_text } => self.cmd_edit(ctx, &doc, &new_text),
            UserCmd::Sync { doc } => self.cmd_sync(ctx, &doc),
            UserCmd::Leave => {
                self.graceful_leave(ctx);
                ctx.halt_self();
            }
        }
    }

    /// Hand off timestamps and keys, then quit the ring.
    pub(crate) fn graceful_leave(&mut self, ctx: &mut Ctx<'_, Payload>) {
        // 1. Timestamp table to the successor (it becomes the new master).
        self.hint_subs.clear();
        let succ = self.chord.successor();
        if succ.addr != self.me.addr {
            let (entries, acts) = self.kts.export_all();
            self.apply_master_actions(ctx, acts);
            if !entries.is_empty() {
                let count = entries.len();
                for e in &entries {
                    self.persist(ctx, &StoreEntry::KtsDemote { key: e.key });
                }
                ctx.send(
                    succ.addr,
                    Payload::Kts(kts::KtsMsg::TableHandoff { entries }),
                );
                self.record(ctx.now(), LtrEventKind::TableHandedOff { count });
            }
        }
        // 2. DHT keys + ring splice.
        let actions = self.chord.leave(ctx.now());
        self.apply_chord_actions(ctx, actions);
    }
}

impl Process<Payload> for LtrNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Payload>) {
        self.counters = Some(NodeCounters::register(ctx.metrics()));
        if self.start_delay.is_zero() {
            self.start_network(ctx);
        } else {
            let delay = self.start_delay;
            self.arm_core_timer(ctx, delay, CoreTimer::Start);
        }
        self.flush_storage_journal(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Payload>, from: NodeId, msg: Payload) {
        match msg {
            Payload::Chord(m) => {
                let actions = self.chord.handle(ctx.now(), from, m);
                self.apply_chord_actions(ctx, actions);
            }
            Payload::Kts(m) => self.on_kts_msg(ctx, from, m),
            Payload::Cmd(cmd) => self.on_user_cmd(ctx, cmd),
        }
        self.flush_storage_journal(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Payload>, tag: u64) {
        if tag & 1 == 0 {
            // Chord namespace.
            if let Some(t) = ChordTimer::decode(tag >> 1) {
                let actions = self.chord.on_timer(ctx.now(), t);
                self.apply_chord_actions(ctx, actions);
            }
        } else if let Some(timer) = self.timer_tags.remove(&tag) {
            self.on_core_timer(ctx, timer);
        }
        self.flush_storage_journal(ctx);
    }

    fn on_stop(&mut self, ctx: &mut Ctx<'_, Payload>) {
        if self.chord.is_joined() {
            self.graceful_leave(ctx);
        }
        self.flush_storage_journal(ctx);
    }
}
