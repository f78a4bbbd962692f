//! User-peer procedures (RR-6497 §3):
//!
//! 1. **Edit a page locally** — produces a tentative patch (diff of the
//!    save against the working copy);
//! 2. **Validate the tentative patch timestamp** — locate the Master-key
//!    via `ht(doc)`, send `Validate(proposed_ts = local ts)`; on `Retry`,
//!    run the **retrieval procedure** (continuous order, replica fallback),
//!    integrate via the OT engine, and re-validate "until last-ts equals
//!    ts";
//! 3. The master replicates the patch at the P2P-Log and acks with the
//!    validated timestamp.
//!
//! Plus anti-entropy: idle replicas periodically ask the master for
//! `last_ts(key)` and pull what they miss — and, between polls, follow the
//! master's grant hints ([`KtsMsg::Published`]) the same way: both land in
//! `LtrNode::on_master_at`.

use bytes::Bytes;

use kts::{KtsMsg, ReqId, ValidateFailure};
use ot::Document;
use p2plog::{DocName, LogRecord, RetrieveEvent, Retriever};
use simnet::Ctx;

use crate::events::LtrEventKind;
use crate::node::{
    CoreTimer, DocState, InflightValidate, LtrNode, OpPurpose, RetrState, UserPhase,
};
use crate::payload::Payload;

/// Validation attempts (redirects included) before a save backs off. A
/// constant, not a knob: no experiment or test varies it.
const MAX_VALIDATE_ATTEMPTS: u32 = 8;
const _: () = assert!(MAX_VALIDATE_ATTEMPTS >= 2, "a lost Validate gets a retry");

/// Retrieval pipelining window: timestamps fetched concurrently. A
/// constant, not a knob: no experiment or test varies it.
const PIPELINE_WINDOW: usize = 4;
const _: () = assert!(PIPELINE_WINDOW >= 1, "retrieval fetches something");

impl LtrNode {
    // ---- commands ---------------------------------------------------------

    pub(crate) fn cmd_open_doc(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: String,
        initial: String,
    ) {
        if self.docs.contains_key(doc.as_str()) {
            return;
        }
        let doc = DocName::from(doc);
        self.persist(
            ctx,
            &store::StoreEntry::DocOpen {
                doc: doc.clone(),
                initial: initial.clone(),
            },
        );
        let replica = ot::Replica::new(self.site, Document::from_text(&initial));
        self.docs.insert(doc.clone(), DocState::open(doc, replica));
        ctx.metrics().incr_id(self.c().docs_opened);
    }

    pub(crate) fn cmd_edit(&mut self, ctx: &mut Ctx<'_, Payload>, doc: &str, new_text: &str) {
        let now = ctx.now();
        let c = self.c();
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return, // not open here
        };
        ctx.metrics().incr_id(c.edits);
        // Edits accumulate into the pending patch immediately (SOCT4: local
        // operations apply at once; only their *publication* is serialized).
        let target = Document::from_text(new_text);
        let no_op = state
            .replica
            .edit(&target)
            .map(|p| p.is_empty())
            .unwrap_or(true);
        if state.phase == UserPhase::Idle {
            if no_op {
                return;
            }
            state.cycle_started = Some(now);
            self.start_validation(ctx, doc);
        }
        // Otherwise the in-flight cycle continues; the enlarged pending
        // patch publishes its remainder on the next cycle.
    }

    pub(crate) fn cmd_sync(&mut self, ctx: &mut Ctx<'_, Payload>, doc: &str) {
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return,
        };
        if state.phase != UserPhase::Idle {
            return;
        }
        self.issue_sync_lookup(ctx, doc);
    }

    /// Anti-entropy tick: probe the master of every open document that
    /// [`DocState::polls`].
    pub(crate) fn tick_sync(&mut self, ctx: &mut Ctx<'_, Payload>) {
        if !self.chord.is_joined() {
            return;
        }
        let polling: Vec<DocName> = self
            .docs
            .values()
            .filter(|d| d.polls())
            .map(|d| d.name.clone())
            .collect();
        for doc in polling {
            self.issue_sync_lookup(ctx, &doc);
        }
    }

    fn issue_sync_lookup(&mut self, ctx: &mut Ctx<'_, Payload>, doc: &str) {
        let (key, name) = match self.docs.get(doc) {
            Some(s) => (s.key, s.name.clone()),
            None => return,
        };
        let (op, actions) = self.chord.lookup(ctx.now(), key);
        self.chord_ops
            .insert(op, OpPurpose::SyncLookup { doc: name });
        self.apply_chord_actions(ctx, actions);
    }

    // ---- the validation procedure ------------------------------------------

    /// Begin (or restart) the publish cycle: locate the Master-key peer.
    pub(crate) fn start_validation(&mut self, ctx: &mut Ctx<'_, Payload>, doc: &str) {
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return,
        };
        debug_assert!(state.replica.pending().is_some(), "nothing to validate");
        state.phase = UserPhase::LocateMaster;
        let key = state.key;
        let name = state.name.clone();
        let (op, actions) = self.chord.lookup(ctx.now(), key);
        self.chord_ops
            .insert(op, OpPurpose::MasterLookup { doc: name });
        self.apply_chord_actions(ctx, actions);
    }

    /// The master lookup for a validation resolved.
    pub(crate) fn on_master_located(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: &str,
        master: chord::NodeRef,
    ) {
        let me = self.me;
        let req = self.next_req();
        let timeout = self.cfg.validate_timeout;
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return,
        };
        if state.phase != UserPhase::LocateMaster {
            return; // stale completion
        }
        let pending = match state.replica.tentative_for_publish() {
            Some(p) => p,
            None => {
                state.phase = UserPhase::Idle;
                return;
            }
        };
        let bytes = Bytes::from(ot::encode_patch(&pending));
        let proposed_ts = state.replica.ts;
        let attempts = state.inflight.as_ref().map(|i| i.attempts).unwrap_or(0);
        state.inflight = Some(InflightValidate {
            req,
            bytes: bytes.clone(),
            op_count: pending.len(),
            attempts,
        });
        state.phase = UserPhase::Validating;
        let key = state.key;
        let name = state.name.clone();
        self.validate_reqs.insert(req, name.clone());
        ctx.send(
            master.addr,
            Payload::Kts(KtsMsg::Validate {
                op: req,
                key,
                key_name: name.clone(),
                proposed_ts,
                patch: bytes,
                user: me,
            }),
        );
        ctx.metrics().incr_id(self.c().validate_sent);
        self.arm_core_timer(ctx, timeout, CoreTimer::ValidateTimeout { doc: name, req });
    }

    /// `Granted{ts, epoch}`: our tentative patch is in the log with `ts`,
    /// stamped with the granting master's `epoch`.
    pub(crate) fn on_validate_granted(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        req: ReqId,
        ts: u64,
        epoch: u64,
    ) {
        let doc = match self.validate_reqs.remove(&req) {
            Some(d) => d,
            None => return, // stale
        };
        let now = ctx.now();
        let state = match self.docs.get_mut(&doc) {
            Some(s) => s,
            None => return,
        };
        if state.phase != UserPhase::Validating {
            return;
        }
        // Accept only the expected next timestamp; anything else means our
        // state moved on (e.g. duplicate grant after a resend race).
        if ts != state.replica.ts + 1 {
            return;
        }
        let prefix = state
            .inflight
            .as_ref()
            .map(|i| i.op_count)
            .unwrap_or_else(|| state.replica.pending().map(|p| p.len()).unwrap_or(0));
        let acked = state.replica.acknowledge_own_prefix(ts, prefix);
        // detlint::allow(TOT-PANIC, grant for ts==replica.ts+1 implies our own pending prefix applies; local OT invariant)
        acked.expect("own patch applies");
        state.last_epoch = state.last_epoch.max(epoch);
        state.inflight = None;
        state.phase = UserPhase::Idle;
        let latency_ms = state
            .cycle_started
            .take()
            .map(|t0| now.since(t0).as_millis_f64())
            .unwrap_or(0.0);
        let c = self.c();
        ctx.metrics().incr_id(c.publish_ok);
        ctx.metrics().record_id(c.publish_latency_ms, latency_ms);
        self.record(
            now,
            LtrEventKind::OwnPublished {
                doc: doc.clone(),
                ts,
                latency_ms,
            },
        );
        self.record(
            now,
            LtrEventKind::Integrated {
                doc: doc.clone(),
                ts,
                epoch,
                own: true,
            },
        );
        self.resume_after_cycle(ctx, &doc);
    }

    /// `Retry{last_ts}`: we are behind — retrieve, integrate, re-validate.
    pub(crate) fn on_validate_retry(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        req: ReqId,
        last_ts: u64,
    ) {
        let doc = match self.validate_reqs.remove(&req) {
            Some(d) => d,
            None => return,
        };
        let now = ctx.now();
        let state = match self.docs.get_mut(&doc) {
            Some(s) => s,
            None => return,
        };
        if state.phase != UserPhase::Validating {
            return;
        }
        ctx.metrics().incr_id(self.c().validate_retry);
        self.record(
            now,
            LtrEventKind::RetriedBehind {
                doc: doc.clone(),
                master_last_ts: last_ts,
            },
        );
        self.begin_retrieval(ctx, &doc, last_ts, true);
    }

    /// `Redirect`: the node we asked is not the master (any more).
    pub(crate) fn on_validate_redirect(&mut self, ctx: &mut Ctx<'_, Payload>, req: ReqId) {
        let doc = match self.validate_reqs.remove(&req) {
            Some(d) => d,
            None => return,
        };
        let now = ctx.now();
        ctx.metrics().incr_id(self.c().validate_redirect);
        self.record(now, LtrEventKind::Redirected { doc: doc.clone() });
        self.bump_attempts_and_retry(ctx, &doc);
    }

    /// `Failed`: operational failure at the master.
    pub(crate) fn on_validate_failed(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        req: ReqId,
        _reason: ValidateFailure,
    ) {
        let doc = match self.validate_reqs.remove(&req) {
            Some(d) => d,
            None => return,
        };
        ctx.metrics().incr_id(self.c().validate_failed);
        self.bump_attempts_and_retry(ctx, &doc);
    }

    /// The validation went unanswered (master crashed?): retry via a fresh
    /// master lookup, keeping the same proposed_ts and patch bytes.
    pub(crate) fn on_validate_timeout(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: &str,
        req: ReqId,
    ) {
        let still_waiting = self
            .docs
            .get(doc)
            .and_then(|s| s.inflight.as_ref())
            .is_some_and(|i| i.req == req)
            && self
                .docs
                .get(doc)
                .is_some_and(|s| s.phase == UserPhase::Validating);
        if !still_waiting {
            return;
        }
        self.validate_reqs.remove(&req);
        ctx.metrics().incr_id(self.c().validate_timeout);
        self.bump_attempts_and_retry(ctx, doc);
    }

    fn bump_attempts_and_retry(&mut self, ctx: &mut Ctx<'_, Payload>, doc: &str) {
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return,
        };
        let attempts = state
            .inflight
            .as_mut()
            .map(|i| {
                i.attempts += 1;
                i.attempts
            })
            .unwrap_or(MAX_VALIDATE_ATTEMPTS);
        if attempts >= MAX_VALIDATE_ATTEMPTS {
            self.backoff_doc(ctx, doc);
        } else {
            // Give stabilization a moment, then re-locate the master.
            state.phase = UserPhase::Idle; // will be set by start_validation
            self.start_validation(ctx, doc);
        }
    }

    /// Park the document and retry after the backoff.
    pub(crate) fn backoff_doc(&mut self, ctx: &mut Ctx<'_, Payload>, doc: &str) {
        let backoff = self.cfg.retry_backoff;
        let now = ctx.now();
        let name = match self.docs.get_mut(doc) {
            Some(state) => {
                state.phase = UserPhase::Backoff;
                state.retr = None;
                state.master_ts = 0;
                state.name.clone()
            }
            None => DocName::from(doc),
        };
        ctx.metrics().incr_id(self.c().cycle_backoff);
        self.record(now, LtrEventKind::CycleBackedOff { doc: name.clone() });
        self.arm_core_timer(ctx, backoff, CoreTimer::RetryDoc { doc: name });
    }

    /// Backoff expired: resume whatever is unfinished.
    pub(crate) fn on_retry_timer(&mut self, ctx: &mut Ctx<'_, Payload>, doc: &str) {
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return,
        };
        if state.phase != UserPhase::Backoff {
            return;
        }
        state.phase = UserPhase::Idle;
        if let Some(inf) = &mut state.inflight {
            inf.attempts = 0;
        }
        if state.replica.pending().is_some() {
            self.start_validation(ctx, doc);
        } else {
            self.resume_after_cycle(ctx, doc);
        }
    }

    /// A cycle finished: publish any pending remainder (edits saved while
    /// the previous cycle was in flight), else pull what the master was
    /// said to have while this replica was busy.
    pub(crate) fn resume_after_cycle(&mut self, ctx: &mut Ctx<'_, Payload>, doc: &str) {
        let now = ctx.now();
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return,
        };
        debug_assert_eq!(state.phase, UserPhase::Idle);
        if state.replica.pending().is_some() {
            state.cycle_started = Some(now);
            self.start_validation(ctx, doc);
        } else if state.master_ts > state.replica.ts {
            let to_ts = state.master_ts;
            self.begin_retrieval(ctx, doc, to_ts, false);
        }
    }

    // ---- the retrieval procedure --------------------------------------------

    /// Fetch `(replica.ts, to_ts]` in continuous order.
    pub(crate) fn begin_retrieval(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: &str,
        to_ts: u64,
        resume_validate: bool,
    ) {
        let n = self.cfg.log.replication;
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return,
        };
        if to_ts <= state.replica.ts {
            state.phase = UserPhase::Idle;
            if resume_validate && state.replica.pending().is_some() {
                self.start_validation(ctx, doc);
            }
            return;
        }
        state.master_ts = state.master_ts.max(to_ts);
        let name = state.name.clone();
        let mut retriever =
            Retriever::new(name.clone(), state.replica.ts, to_ts, n, PIPELINE_WINDOW);
        let cmds = retriever.start();
        state.phase = UserPhase::Retrieving;
        state.retr = Some(RetrState {
            retriever,
            resume_validate,
            first_record_pending: true,
            fetch_retries: 0,
        });
        ctx.metrics().incr_id(self.c().retrievals);
        for cmd in cmds {
            self.issue_log_fetch(ctx, &name, cmd.ts, cmd.hash_idx, cmd.key);
        }
    }

    /// A retrieval fetch failed operationally (the replica's owner was
    /// unreachable after the DHT layer's own retries). This is *not* a
    /// miss: the record may well exist there, so falling back to the next
    /// replica hash could integrate a non-canonical copy (the mixed-record
    /// hazard after partial publishes). Re-issue the same fetch — the
    /// re-lookup routes around churn — up to a per-retrieval cap, then
    /// stall the cycle and back off like an exhausted retrieval.
    pub(crate) fn on_log_fetch_unreachable(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: &DocName,
        ts: u64,
        hash_idx: usize,
    ) {
        /// Re-issues per retrieval before giving up; each already paid the
        /// DHT layer's internal lookup+get retries.
        const MAX_FETCH_RETRIES: u32 = 16;
        let c = self.c();
        let state = match self.docs.get_mut(doc.as_str()) {
            Some(s) => s,
            None => return,
        };
        let retr = match &mut state.retr {
            Some(r) if state.phase == UserPhase::Retrieving => r,
            _ => return, // stale completion
        };
        // Only the fetch that is still current may be re-issued (the
        // retriever may have moved on via a duplicate result).
        let cmd = match retr.retriever.refetch_cmd(ts) {
            Some(c) if c.hash_idx == hash_idx => c,
            _ => return,
        };
        retr.fetch_retries += 1;
        if retr.fetch_retries <= MAX_FETCH_RETRIES {
            ctx.metrics().incr_id(c.fetch_refetches);
            self.issue_log_fetch(ctx, doc, cmd.ts, cmd.hash_idx, cmd.key);
        } else {
            let now = ctx.now();
            ctx.metrics().incr_id(c.retrieval_stalled);
            self.record(
                now,
                LtrEventKind::RetrievalStalled {
                    doc: doc.clone(),
                    ts,
                },
            );
            self.backoff_doc(ctx, doc);
        }
    }

    /// One retrieval fetch returned (value or authoritative miss).
    pub(crate) fn on_log_fetch_result(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: &DocName,
        ts: u64,
        hash_idx: usize,
        found: Option<Bytes>,
    ) {
        let state = match self.docs.get_mut(doc.as_str()) {
            Some(s) => s,
            None => return,
        };
        let retr = match &mut state.retr {
            Some(r) if state.phase == UserPhase::Retrieving => r,
            _ => return, // stale fetch completion
        };
        let (cmds, evs) = retr.retriever.on_fetch_result(ts, hash_idx, found);
        for cmd in cmds {
            self.issue_log_fetch(ctx, doc, cmd.ts, cmd.hash_idx, cmd.key);
        }
        for ev in evs {
            match ev {
                RetrieveEvent::Deliver { ts, bytes } => {
                    if !self.integrate_record(ctx, doc, ts, &bytes) {
                        // Divergence or decode failure: abort this retrieval.
                        self.backoff_doc(ctx, doc);
                        return;
                    }
                }
                RetrieveEvent::Failed { ts } => {
                    let now = ctx.now();
                    ctx.metrics().incr_id(self.c().retrieval_stalled);
                    self.record(
                        now,
                        LtrEventKind::RetrievalStalled {
                            doc: doc.clone(),
                            ts,
                        },
                    );
                    self.backoff_doc(ctx, doc);
                    return;
                }
                RetrieveEvent::Done => {
                    let Some(state) = self.docs.get_mut(doc.as_str()) else {
                        return;
                    };
                    let resume = state
                        .retr
                        .take()
                        .map(|r| r.resume_validate)
                        .unwrap_or(false);
                    state.phase = UserPhase::Idle;
                    if state.master_ts > state.replica.ts {
                        // Told of more while retrieving: keep going.
                        let to_ts = state.master_ts;
                        self.begin_retrieval(ctx, doc, to_ts, resume);
                    } else if resume && state.replica.pending().is_some() {
                        self.start_validation(ctx, doc);
                    } else {
                        self.resume_after_cycle(ctx, doc);
                    }
                    return;
                }
            }
        }
    }

    /// Integrate one retrieved record in continuous order. Returns false on
    /// unrecoverable decode/apply errors.
    fn integrate_record(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: &DocName,
        ts: u64,
        bytes: &Bytes,
    ) -> bool {
        let now = ctx.now();
        let c = self.c();
        let state = match self.docs.get_mut(doc.as_str()) {
            Some(s) => s,
            None => return false,
        };
        let rec = match LogRecord::decode(bytes) {
            Ok(r) => r,
            Err(e) => {
                ctx.metrics().incr_id(c.record_decode_error);
                let _ = e;
                return false;
            }
        };
        debug_assert_eq!(rec.ts, ts);
        // Epoch validation: a record stamped below this replica's epoch
        // floor was written by a superseded master at a slot the winning
        // epoch has (or will have) re-granted. Rejecting it aborts the
        // retrieval; the backoff retry refetches the slot, by which time
        // the ranked arbitration has surfaced the winning copy.
        let floor = state.last_epoch;
        if rec.epoch < floor {
            ctx.metrics().incr_id(c.epoch_regressions);
            self.record(
                now,
                LtrEventKind::EpochRejected {
                    doc: doc.clone(),
                    ts,
                    epoch: rec.epoch,
                    floor,
                },
            );
            return false;
        }
        state.last_epoch = state.last_epoch.max(rec.epoch);
        // Own-record detection: our previous validation may have been
        // granted with the ack lost. It can only sit at proposed_ts + 1,
        // i.e. the *first* record of this retrieval.
        let first = state
            .retr
            .as_mut()
            .map(|r| std::mem::replace(&mut r.first_record_pending, false))
            .unwrap_or(false);
        if first {
            if let Some(inf) = &state.inflight {
                if rec.patch == inf.bytes && ts == state.replica.ts + 1 {
                    let prefix = inf.op_count;
                    state
                        .replica
                        .acknowledge_own_prefix(ts, prefix)
                        .expect("own patch must apply");
                    state.inflight = None;
                    ctx.metrics().incr_id(c.own_record_recovered);
                    let latency_ms = state
                        .cycle_started
                        .take()
                        .map(|t0| now.since(t0).as_millis_f64())
                        .unwrap_or(0.0);
                    self.record(
                        now,
                        LtrEventKind::OwnPublished {
                            doc: doc.clone(),
                            ts,
                            latency_ms,
                        },
                    );
                    self.record(
                        now,
                        LtrEventKind::Integrated {
                            doc: doc.clone(),
                            ts,
                            epoch: rec.epoch,
                            own: true,
                        },
                    );
                    return true;
                }
            }
            // Not our record: the in-flight request was never granted; its
            // bytes are about to become stale (the pending patch rebases).
            state.inflight = None;
        }
        let patch = match ot::decode_patch(&rec.patch) {
            Ok(p) => p,
            Err(_) => {
                ctx.metrics().incr_id(c.record_decode_error);
                return false;
            }
        };
        match state.replica.integrate_remote(ts, &patch) {
            Ok(()) => {
                ctx.metrics().incr_id(c.integrated);
                self.record(
                    now,
                    LtrEventKind::Integrated {
                        doc: doc.clone(),
                        ts,
                        epoch: rec.epoch,
                        own: false,
                    },
                );
                true
            }
            Err(e) => {
                // A transform bug or corrupted log — surface loudly.
                ctx.metrics().incr_id(c.integrate_error);
                panic!("replica divergence on {doc} ts {ts}: {e}");
            }
        }
    }

    // ---- anti-entropy: polls and grant hints ------------------------------

    /// Lookup for a sync probe resolved: ask the master for last_ts.
    pub(crate) fn on_sync_master_located(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: &str,
        master: chord::NodeRef,
    ) {
        let me = self.me;
        let req = self.next_req();
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return,
        };
        if !state.polls() {
            return;
        }
        let key = state.key;
        let name = state.name.clone();
        // Tell the master how far this replica already is. A freshly
        // promoted master whose restored last_ts lags behind re-probes the
        // log instead of replying with the stale value — the fix for idle
        // replicas stuck one patch behind a transient master's grant.
        let known_ts = state.replica.ts;
        self.lastts_reqs.insert(name, req);
        ctx.send(
            master.addr,
            Payload::Kts(KtsMsg::LastTs {
                op: req,
                key,
                user: me,
                known_ts,
            }),
        );
    }

    /// `LastTsReply`: the answer to this document's outstanding poll.
    pub(crate) fn on_lastts_reply(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        req: ReqId,
        key: chord::Id,
        last_ts: u64,
    ) {
        let Some(doc) = self.doc_by_key(key) else {
            return;
        };
        if self.lastts_reqs.get(&doc) != Some(&req) {
            return; // answer to a poll a later tick replaced
        }
        self.lastts_reqs.remove(&doc);
        self.on_master_at(ctx, &doc, last_ts, false);
    }

    /// `Published`: the master granted `ts` for `key`.
    pub(crate) fn on_grant_hint(&mut self, ctx: &mut Ctx<'_, Payload>, key: chord::Id, ts: u64) {
        if let Some(doc) = self.doc_by_key(key) {
            self.on_master_at(ctx, &doc, ts, true);
        }
    }

    /// The open document mastered under `key` (a peer holds few documents;
    /// a scan beats maintaining a second index).
    fn doc_by_key(&self, key: chord::Id) -> Option<DocName> {
        self.docs
            .values()
            .find(|d| d.key == key)
            .map(|d| d.name.clone())
    }

    /// The master says `doc` is at `ts` — by poll reply or by grant hint
    /// (`hinted`), the replica does the same thing. Behind and idle: start
    /// the retrieval procedure now. Busy: remember it; a retrieval chases
    /// it on completion, a validation cycle is told by `Retry` anyway and
    /// falls back on it only when it ends with nothing to publish. Old
    /// news (duplicate, reordered, already integrated): nothing. It is the
    /// master's unfenced word, so it moves `master_ts` only — never
    /// `last_epoch`, never the replica.
    pub(crate) fn on_master_at(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: &DocName,
        ts: u64,
        hinted: bool,
    ) {
        let c = self.c();
        let Some(state) = self.docs.get_mut(doc) else {
            return;
        };
        // An idle replica measures news against what it *has*: whatever it
        // was told earlier and did not get to must not mask a poll reply.
        let idle = state.phase == UserPhase::Idle;
        let known = if idle {
            state.replica.ts
        } else {
            state.replica.ts.max(state.master_ts)
        };
        if ts <= known {
            if hinted {
                ctx.metrics().incr_id(c.hints_stale);
            }
            return;
        }
        state.master_ts = state.master_ts.max(ts);
        if hinted {
            ctx.metrics().incr_id(if idle {
                c.hints_followed
            } else {
                c.hints_deferred
            });
            self.record(
                ctx.now(),
                LtrEventKind::Hinted {
                    doc: doc.clone(),
                    ts,
                },
            );
        }
        if idle {
            self.begin_retrieval(ctx, doc, ts, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LtrConfig;
    use chord::{Id, NodeRef};
    use simnet::{Duration, Metrics, NodeId, Process, Rng64, Time};

    /// Polls that are never answered (lost request, lost reply, crashed
    /// master) must not pile up: one outstanding handle per document.
    #[test]
    fn unanswered_polls_do_not_accumulate() {
        let me = NodeRef::new(NodeId(0), Id(7));
        let mut node = LtrNode::new(me, LtrConfig::default(), None, Duration::ZERO);
        let (mut rng, mut metrics, mut timers) = (Rng64::new(1), Metrics::new(), 0);
        // A detached context: everything the node sends is dropped.
        let mut ctx = Ctx::detached(Time::ZERO, me.addr, &mut rng, &mut metrics, &mut timers);
        node.on_start(&mut ctx);
        for doc in ["a", "b", "c"] {
            node.cmd_open_doc(&mut ctx, doc.into(), "text".into());
        }
        for _ in 0..1_000 {
            node.tick_sync(&mut ctx);
        }
        assert_eq!(node.lastts_reqs.len(), node.docs.len());
        let polls = ctx
            .take_effects()
            .msgs
            .iter()
            .filter(|(_, m)| matches!(m, Payload::Kts(KtsMsg::LastTs { .. })))
            .count();
        assert_eq!(polls, 3_000, "every tick polled every document");
    }

    /// Something the replica was told and never got to (a validation that
    /// fizzled out) must not make the next poll reply look like old news.
    #[test]
    fn idle_replica_follows_the_master_whatever_it_was_told_before() {
        let me = NodeRef::new(NodeId(0), Id(7));
        let mut node = LtrNode::new(me, LtrConfig::default(), None, Duration::ZERO);
        let (mut rng, mut metrics, mut timers) = (Rng64::new(1), Metrics::new(), 0);
        let mut ctx = Ctx::detached(Time::ZERO, me.addr, &mut rng, &mut metrics, &mut timers);
        node.on_start(&mut ctx);
        node.cmd_open_doc(&mut ctx, "a".into(), "text".into());
        let doc = DocName::from("a");
        node.docs.get_mut(&doc).expect("open").master_ts = 4;

        node.on_master_at(&mut ctx, &doc, 4, false);

        // Alone on its ring with an empty log the retrieval stalls on the
        // spot — but it was started, and the stall forgot the claim.
        let c = node.c();
        assert_eq!(ctx.metrics().counter_by_id(c.retrievals), 1);
        assert_eq!(ctx.metrics().counter_by_id(c.retrieval_stalled), 1);
        let state = &node.docs[&doc];
        assert_eq!(
            (state.phase.clone(), state.master_ts),
            (UserPhase::Backoff, 0)
        );
        assert_eq!(state.replica.ts, 0);
    }
}
