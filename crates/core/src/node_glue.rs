//! Glue between the Chord layer and the rest of the node: action
//! application, completion routing, responsibility-change handoffs, and the
//! log GC sweep.

use chord::{Action as ChordAction, ChordEvent, PutMode};
use p2plog::{FenceResponse, LogRecord, PublishVerdict, ReplicaResponse};
use simnet::Ctx;

use crate::events::LtrEventKind;
use crate::node::{LtrNode, OpPurpose};
use crate::payload::Payload;

impl LtrNode {
    /// Execute the effects returned by the Chord state machine.
    ///
    /// Re-entrancy-safe: chord ops on keys this node owns complete
    /// *synchronously* (the lookup short-circuits and the completion
    /// event comes back in the returned action batch), and a completion
    /// handler regularly issues the next op of its chain — a master's
    /// probe → fence → publish sequence, a log fetch falling through its
    /// replica hashes. Executed naively that chain re-enters this method
    /// one stack level per step and can overflow the stack under
    /// fault-heavy runs (deep probes, repeated re-fence cycles). Nested
    /// calls therefore only enqueue their batch; the outermost call
    /// drains the queue iteratively, preserving execution order.
    pub(crate) fn apply_chord_actions(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        actions: Vec<ChordAction>,
    ) {
        self.chord_action_queue.extend(actions);
        if self.applying_chord_actions {
            return;
        }
        self.applying_chord_actions = true;
        while let Some(act) = self.chord_action_queue.pop_front() {
            match act {
                ChordAction::Send(to, m) => ctx.send(to, Payload::Chord(m)),
                ChordAction::SetTimer(delay, t) => {
                    // Chord tags occupy the even namespace.
                    ctx.set_timer(delay, t.encode() << 1);
                }
                ChordAction::Event(ev) => self.on_chord_event(ctx, ev),
            }
        }
        self.applying_chord_actions = false;
    }

    fn on_chord_event(&mut self, ctx: &mut Ctx<'_, Payload>, ev: ChordEvent) {
        match ev {
            ChordEvent::Joined => {
                ctx.metrics().incr_id(self.c().joined);
            }
            ChordEvent::JoinFailed => {
                ctx.metrics().incr_id(self.c().join_failed);
            }
            ChordEvent::LookupDone { op, owner, hops } => {
                ctx.metrics().record_id(self.c().lookup_hops, hops as f64);
                match self.chord_ops.remove(&op) {
                    Some(OpPurpose::MasterLookup { doc }) => {
                        self.on_master_located(ctx, &doc, owner);
                    }
                    Some(OpPurpose::SyncLookup { doc }) => {
                        self.on_sync_master_located(ctx, &doc, owner);
                    }
                    Some(other) => {
                        // Puts/gets complete via PutDone/GetDone, never here.
                        debug_assert!(false, "unexpected lookup purpose {other:?}");
                    }
                    None => {}
                }
            }
            ChordEvent::LookupFailed { op } => {
                ctx.metrics().incr_id(self.c().lookup_failed);
                match self.chord_ops.remove(&op) {
                    Some(OpPurpose::MasterLookup { doc }) => self.backoff_doc(ctx, &doc),
                    Some(OpPurpose::SyncLookup { .. }) => {} // next tick retries
                    _ => {}
                }
            }
            ChordEvent::PutDone { op, ok, conflict } => {
                if let Some(OpPurpose::LogPut { token }) = self.chord_ops.remove(&op) {
                    let resp = if ok {
                        ReplicaResponse::Acked
                    } else if conflict.is_some() {
                        ReplicaResponse::Conflicted
                    } else {
                        ReplicaResponse::Failed
                    };
                    self.on_log_put_response(ctx, token, resp);
                }
            }
            ChordEvent::GetDone { op, value, ok } => {
                match self.chord_ops.remove(&op) {
                    Some(OpPurpose::LogFetch { doc, ts, hash_idx }) => {
                        if ok {
                            self.on_log_fetch_result(ctx, &doc, ts, hash_idx, value);
                        } else {
                            // Operational failure (owner unreachable), NOT
                            // an authoritative miss: re-issue rather than
                            // falling back to the next replica hash — a
                            // spurious fallback can read a non-canonical
                            // copy of the timestamp and diverge replicas.
                            self.on_log_fetch_unreachable(ctx, &doc, ts, hash_idx);
                        }
                    }
                    Some(OpPurpose::ProbeFetch { token }) => {
                        if ok {
                            self.on_probe_result(ctx, token, value.as_ref());
                        } else {
                            // Same distinction, with higher stakes: a probe
                            // that mistakes "unreachable" for "absent"
                            // under-estimates last_ts and lets the master
                            // grant a duplicate timestamp.
                            self.on_probe_unreachable(ctx, token);
                        }
                    }
                    _ => {}
                }
            }
            ChordEvent::FenceDone {
                op,
                ok,
                current,
                occupied,
            } => {
                if let Some(OpPurpose::Fence { token }) = self.chord_ops.remove(&op) {
                    let resp = if ok {
                        FenceResponse::Acked { occupied }
                    } else if current > 0 {
                        FenceResponse::Superseded { current }
                    } else {
                        // Exhausted retries unanswered (owner unreachable):
                        // not a verdict on the floor.
                        FenceResponse::Failed
                    };
                    self.on_fence_response(ctx, token, resp);
                }
            }
            ChordEvent::PredecessorChanged { old, new } => {
                // A node between our old predecessor and us took over the
                // arc (old, new]: its timestamps must move too (the paper's
                // "the old responsible transfers its keys and timestamps to
                // the new Master-key").
                if let Some(new_pred) = new {
                    let from = old.map_or(self.me.id, |p| p.id);
                    // The subscriptions go with the keys.
                    self.hint_subs
                        .retain(|k, _| !k.in_half_open(from, new_pred.id));
                    let (entries, acts) = self.kts.export_range(from, new_pred.id);
                    self.apply_master_actions(ctx, acts);
                    if !entries.is_empty() {
                        let count = entries.len();
                        for e in &entries {
                            self.persist(ctx, &store::StoreEntry::KtsDemote { key: e.key });
                        }
                        ctx.send(
                            new_pred.addr,
                            Payload::Kts(kts::KtsMsg::TableHandoff { entries }),
                        );
                        self.record(ctx.now(), LtrEventKind::TableHandedOff { count });
                        ctx.metrics()
                            .incr_id_by(self.c().handoff_entries, count as u64);
                    }
                }
            }
            ChordEvent::KeysReceived { count } => {
                ctx.metrics()
                    .incr_id_by(self.c().keys_received, count as u64);
            }
        }
    }

    /// Feed one replica response into the publish tracker; complete the
    /// grant when decidable.
    pub(crate) fn on_log_put_response(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        token: u64,
        resp: ReplicaResponse,
    ) {
        let verdict = match self.publishes.get_mut(&token) {
            Some(p) => p.tracker.on_response(resp),
            None => return,
        };
        if let Some(v) = verdict {
            self.publishes.remove(&token);
            let outcome = match v {
                PublishVerdict::Ok => kts::PublishOutcome::Ok,
                PublishVerdict::Conflict => kts::PublishOutcome::Conflict,
                PublishVerdict::Unreachable => kts::PublishOutcome::Unreachable,
            };
            let acts = self.kts.publish_done(token, outcome);
            self.apply_master_actions(ctx, acts);
        }
    }

    /// Log GC sweep (extension): drop stored log records more than
    /// `retain` timestamps behind the newest record of the same document
    /// held on this node.
    pub(crate) fn tick_gc(&mut self, ctx: &mut Ctx<'_, Payload>) {
        let retain = match &self.cfg.gc {
            Some(g) => g.retain,
            None => return,
        };
        // Pass 1: decode stored records, find per-doc high watermarks.
        let mut high: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        let mut records: Vec<(chord::Id, String, u64)> = Vec::new();
        for (k, v) in self
            .chord
            .storage()
            .iter_primary()
            .chain(self.chord.storage().iter_replica())
        {
            if let Ok(rec) = LogRecord::decode(v) {
                let h = high.entry(rec.doc.clone()).or_insert(0);
                *h = (*h).max(rec.ts);
                records.push((*k, rec.doc, rec.ts));
            }
        }
        // Pass 2: remove everything below (high - retain].
        let mut removed = 0usize;
        for (key, doc, ts) in records {
            let h = high[&doc];
            if h > retain && ts <= h - retain && self.chord.storage_mut().remove(key) {
                removed += 1;
            }
        }
        if removed > 0 {
            ctx.metrics()
                .incr_id_by(self.c().log_gc_removed, removed as u64);
            self.record(ctx.now(), LtrEventKind::GcSwept { removed });
        }
    }

    /// Issue one publish-replica put (ranked by the record's epoch),
    /// registering the completion route.
    pub(crate) fn issue_log_put(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        token: u64,
        key: chord::Id,
        bytes: bytes::Bytes,
    ) {
        let (op, actions) = self.chord.put(ctx.now(), key, bytes, PutMode::Ranked);
        self.chord_ops.insert(op, OpPurpose::LogPut { token });
        self.apply_chord_actions(ctx, actions);
    }

    /// Issue one retrieval fetch, registering the completion route.
    pub(crate) fn issue_log_fetch(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: &p2plog::DocName,
        ts: u64,
        hash_idx: usize,
        key: chord::Id,
    ) {
        if hash_idx > 1 {
            // Falling back to an alternate replication hash (h2, h3, …).
            ctx.metrics().incr_id(self.c().fetch_fallbacks);
        }
        let (op, actions) = self.chord.get(ctx.now(), key);
        self.chord_ops.insert(
            op,
            OpPurpose::LogFetch {
                doc: doc.clone(),
                ts,
                hash_idx,
            },
        );
        self.apply_chord_actions(ctx, actions);
    }
}
