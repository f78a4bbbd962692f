//! Master-side wiring: KTS message handling, publish fan-out, last-ts
//! backups, log-probe recovery, and the grant-hint registry.
//!
//! **Grant hints.** A holder learns of a new timestamp from a `Retry` or
//! from its own `LastTs` poll, i.e. up to one `sync_every` late. The
//! master shortens that to one message delay: every `LastTs` poll doubles
//! as a subscription (`hint_subs`, soft state, `HINT_TTL_PERIODS` poll
//! periods long, renewed by each poll), and every fully acknowledged grant
//! sends a [`KtsMsg::Published`] to the key's subscribers. The registry
//! is never handed over, journaled or replicated: a new master starts
//! empty and refills within one poll period, during which holders converge
//! by polling exactly as they would without hints.

use kts::{KtsMsg, MasterAction, MasterEvent};
use p2plog::{FenceResponse, FenceTracker, FenceVerdict, LogProbe, PublishTracker};
use simnet::{Ctx, NodeId, Time};

use crate::events::LtrEventKind;
use crate::node::{FenceCtx, LtrNode, OpPurpose, ProbeCtx, PublishCtx};
use crate::payload::Payload;

/// A hint subscription outlives this many missed polls: long enough to
/// ride out a lost poll or two, short enough that a holder that closed
/// the document or left stops costing a message per grant within seconds.
const HINT_TTL_PERIODS: u64 = 3;

impl LtrNode {
    /// Route an incoming KTS message.
    pub(crate) fn on_kts_msg(&mut self, ctx: &mut Ctx<'_, Payload>, _from: NodeId, msg: KtsMsg) {
        match msg {
            KtsMsg::Validate {
                op,
                key,
                key_name,
                proposed_ts,
                patch,
                user,
            } => {
                let responsible = self.chord.is_responsible(key);
                ctx.metrics().incr_id(self.c().kts_validate_received);
                let acts =
                    self.kts
                        .on_validate(key, &key_name, op, proposed_ts, patch, user, responsible);
                self.apply_master_actions(ctx, acts);
            }
            KtsMsg::LastTs {
                op,
                key,
                user,
                known_ts,
            } => {
                // The poll is the subscription. No poll period, no hints.
                if let Some(period) = self.cfg.sync_every {
                    let lapses = ctx.now() + period * HINT_TTL_PERIODS;
                    self.hint_subs
                        .entry(key)
                        .or_default()
                        .insert(user.addr, lapses);
                }
                let acts = self.kts.on_last_ts(key, op, user, known_ts);
                self.apply_master_actions(ctx, acts);
            }
            KtsMsg::ReplicateEntry {
                key,
                key_name,
                last_ts,
                epoch,
            } => {
                let entry = kts::HandoffEntry {
                    key,
                    key_name,
                    last_ts,
                    epoch,
                };
                self.persist(
                    ctx,
                    &store::StoreEntry::KtsBackup {
                        entry: entry.clone(),
                    },
                );
                self.kts.on_replicate_entry(entry);
                ctx.metrics().incr_id(self.c().kts_backup_entries_received);
            }
            KtsMsg::TableHandoff { entries } => {
                let count = entries.len();
                for e in &entries {
                    self.persist(ctx, &store::StoreEntry::KtsAuth { entry: e.clone() });
                }
                let acts = self.kts.on_table_handoff(entries);
                self.apply_master_actions(ctx, acts);
                self.record(ctx.now(), LtrEventKind::TableReceived { count });
            }
            // Replies to *our* user-side requests.
            KtsMsg::Granted { op, ts, epoch } => self.on_validate_granted(ctx, op, ts, epoch),
            KtsMsg::Retry { op, last_ts } => self.on_validate_retry(ctx, op, last_ts),
            KtsMsg::Redirect { op } => self.on_validate_redirect(ctx, op),
            KtsMsg::Failed { op, reason } => self.on_validate_failed(ctx, op, reason),
            KtsMsg::LastTsReply { op, key, last_ts } => {
                self.on_lastts_reply(ctx, op, key, last_ts);
            }
            KtsMsg::Published { key, ts } => self.on_grant_hint(ctx, key, ts),
        }
    }

    /// Hint every live subscriber of `key` — the grant's author excepted,
    /// it is sent `Granted` — that the key reached `ts`.
    fn send_grant_hints(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        key: chord::Id,
        ts: u64,
        author: Option<NodeId>,
    ) {
        let Some(subs) = self.hint_subs.get(&key) else {
            return;
        };
        let now = ctx.now();
        let hints_sent = self.c().hints_sent;
        for (&holder, &lapses) in subs {
            if lapses > now && Some(holder) != author {
                ctx.send(holder, Payload::Kts(KtsMsg::Published { key, ts }));
                ctx.metrics().incr_id(hints_sent);
            }
        }
    }

    /// Drop lapsed subscriptions (run on the node's own sync tick, so the
    /// registry of a master whose keys went quiet shrinks too).
    pub(crate) fn expire_hint_subs(&mut self, now: Time) {
        self.hint_subs.retain(|_, subs| {
            subs.retain(|_, lapses| *lapses > now);
            !subs.is_empty()
        });
    }

    /// Execute the effects requested by the KTS master state machine.
    pub(crate) fn apply_master_actions(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        actions: Vec<MasterAction>,
    ) {
        // `Granted` precedes its `MasterEvent::Granted` in the same batch;
        // remembered so the hint fan-out can skip the author.
        let mut granted_to = None;
        for act in actions {
            match act {
                MasterAction::Send(to, msg) => {
                    if matches!(msg, KtsMsg::Granted { .. }) {
                        granted_to = Some(to);
                    }
                    ctx.send(to, Payload::Kts(msg));
                }
                MasterAction::BeginPublish {
                    token,
                    key: _,
                    key_name,
                    ts,
                    epoch,
                    patch,
                } => {
                    self.begin_publish(ctx, token, &key_name, ts, epoch, patch);
                }
                MasterAction::BeginProbe {
                    token,
                    key: _,
                    key_name,
                    base,
                } => {
                    let probe = LogProbe::new(key_name, base, self.cfg.log.replication);
                    self.probes.insert(
                        token,
                        ProbeCtx {
                            probe,
                            max_epoch: 0,
                        },
                    );
                    ctx.metrics().incr_id(self.c().kts_probes_started);
                    self.pump_probe(ctx, token);
                }
                MasterAction::BeginFence {
                    token,
                    key: _,
                    key_name,
                    epoch,
                    last_ts,
                } => {
                    self.begin_fence(ctx, token, &key_name, epoch, last_ts);
                }
                MasterAction::ReplicateToSucc { entry } => {
                    // The entry snapshot is exactly what changed in our
                    // authoritative table: the durable record of the grant.
                    self.persist(
                        ctx,
                        &store::StoreEntry::KtsAuth {
                            entry: entry.clone(),
                        },
                    );
                    let succ = self.chord.successor();
                    if succ.addr != self.me.addr {
                        ctx.send(
                            succ.addr,
                            Payload::Kts(KtsMsg::ReplicateEntry {
                                key: entry.key,
                                key_name: entry.key_name,
                                last_ts: entry.last_ts,
                                epoch: entry.epoch,
                            }),
                        );
                    }
                }
                MasterAction::Event(ev) => self.on_master_event(ctx, ev, granted_to),
            }
        }
    }

    /// Start the log replication of a freshly granted patch:
    /// `Put(h_i(key+ts), record)` for every replication hash. The record
    /// carries the master epoch (always ≥ 1) and goes out in ranked mode,
    /// so a higher-epoch master's record displaces a superseded rival's at
    /// the same slot.
    fn begin_publish(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        token: u64,
        doc: &p2plog::DocName,
        ts: u64,
        epoch: u64,
        patch: bytes::Bytes,
    ) {
        let n = self.cfg.log.replication;
        // Author for bookkeeping: patches are self-describing.
        let author = ot::decode_patch(&patch).map(|p| p.author).unwrap_or(0);
        let record = p2plog::LogRecord::new(doc.as_str(), ts, author, patch).with_epoch(epoch);
        let bytes = record.encode();
        let tracker = PublishTracker::new(n, self.cfg.log.ack_policy);
        // Register the tracker *before* issuing puts: a put to a key we own
        // completes synchronously.
        self.publishes.insert(token, PublishCtx { tracker });
        ctx.metrics().incr_id(self.c().log_publishes);
        for key in p2plog::log_locations_iter(n, doc, ts) {
            self.issue_log_put(ctx, token, key, bytes.clone());
        }
    }

    /// Fan a grant fence out to the `n` log locations of the next slot
    /// (`last_ts + 1`): each location op raises the epoch floor at the
    /// slot's owner. A strict-majority quorum must hold the floor before
    /// the master serves the key — any rival fencing the same slot
    /// overlaps in at least one location and loses the floor arbitration
    /// there.
    fn begin_fence(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        token: u64,
        doc: &p2plog::DocName,
        epoch: u64,
        last_ts: u64,
    ) {
        let n = self.cfg.log.replication;
        let tracker = FenceTracker::new(n);
        // Register before issuing: a fence on a key we own completes
        // synchronously.
        self.fences.insert(token, FenceCtx { tracker });
        ctx.metrics().incr_id(self.c().kts_fences_started);
        let keys: Vec<chord::Id> = p2plog::log_locations_iter(n, doc, last_ts + 1).collect();
        for key in keys {
            let (op, actions) = self.chord.fence(ctx.now(), key, epoch);
            self.chord_ops.insert(op, OpPurpose::Fence { token });
            self.apply_chord_actions(ctx, actions);
        }
    }

    /// Feed one location's response into the fence tracker; complete the
    /// fence when the verdict is decidable.
    pub(crate) fn on_fence_response(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        token: u64,
        resp: FenceResponse,
    ) {
        let verdict = match self.fences.get_mut(&token) {
            Some(f) => f.tracker.on_response(resp),
            None => return,
        };
        if let Some(v) = verdict {
            self.fences.remove(&token);
            let outcome = match v {
                FenceVerdict::Acked { occupied } => {
                    ctx.metrics().incr_id(self.c().kts_fences_acked);
                    kts::FenceOutcome::Acked { occupied }
                }
                FenceVerdict::Superseded { current } => {
                    ctx.metrics().incr_id(self.c().kts_fences_superseded);
                    kts::FenceOutcome::Superseded { current }
                }
                FenceVerdict::Unreachable => kts::FenceOutcome::Unreachable,
            };
            let acts = self.kts.fence_done(token, outcome);
            self.apply_master_actions(ctx, acts);
        }
    }

    /// Drive a probe: issue its next fetch or complete it.
    pub(crate) fn pump_probe(&mut self, ctx: &mut Ctx<'_, Payload>, token: u64) {
        let cmd = match self.probes.get(&token) {
            Some(p) => p.probe.next_cmd(),
            None => return,
        };
        match cmd {
            Some(cmd) => {
                let (op, actions) = self.chord.get(ctx.now(), cmd.key);
                self.chord_ops.insert(op, OpPurpose::ProbeFetch { token });
                self.apply_chord_actions(ctx, actions);
            }
            None => {
                let (result, max_epoch) = self
                    .probes
                    .remove(&token)
                    .map(|p| (p.probe.result().unwrap_or(0), p.max_epoch))
                    .unwrap_or((0, 0));
                let acts = self.kts.probe_done(token, result, max_epoch);
                self.apply_master_actions(ctx, acts);
            }
        }
    }

    /// A probe fetch failed operationally (owner unreachable). Absence
    /// must never be inferred from unreachability: an under-estimated
    /// `last_ts` would let this master grant a timestamp the log already
    /// holds — the duplicate-grant/split-record path. Re-issue the same
    /// fetch (the embedded re-lookup routes around churn); while the
    /// probe is pending the key simply stays unserved, which is the
    /// correct behaviour when the log is unreachable.
    pub(crate) fn on_probe_unreachable(&mut self, ctx: &mut Ctx<'_, Payload>, token: u64) {
        if self.probes.contains_key(&token) {
            ctx.metrics().incr_id(self.c().probe_refetches);
            // `pump_probe` without `on_result` re-issues the pending cmd.
            self.pump_probe(ctx, token);
        }
    }

    /// A probe fetch returned. The record bytes (when present) also carry
    /// the epoch of the master that published the slot — tracked so the
    /// probing master fences above it.
    pub(crate) fn on_probe_result(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        token: u64,
        value: Option<&bytes::Bytes>,
    ) {
        if let Some(p) = self.probes.get_mut(&token) {
            p.probe.on_result(value.is_some());
            if let Some(v) = value {
                p.max_epoch = p.max_epoch.max(chord::value_rank(v));
            }
        }
        self.pump_probe(ctx, token);
    }

    fn on_master_event(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        ev: MasterEvent,
        granted_to: Option<NodeId>,
    ) {
        let now = ctx.now();
        match ev {
            MasterEvent::Granted { key, doc, ts } => {
                ctx.metrics().incr_id(self.c().kts_grants);
                self.record(now, LtrEventKind::MasterGranted { doc, ts });
                self.send_grant_hints(ctx, key, ts, granted_to);
            }
            MasterEvent::StaleDetected { key } => {
                ctx.metrics().incr_id(self.c().kts_stale_detected);
                self.record(now, LtrEventKind::StaleMasterStoodDown { doc_key: key });
            }
            MasterEvent::Promoted { count } => {
                ctx.metrics()
                    .incr_id_by(self.c().kts_backups_promoted, count as u64);
                self.record(now, LtrEventKind::BackupsPromoted { count });
            }
            MasterEvent::HandedOff { count } => {
                ctx.metrics()
                    .incr_id_by(self.c().kts_entries_handed_off, count as u64);
            }
            MasterEvent::HandoffReceived { count } => {
                ctx.metrics()
                    .incr_id_by(self.c().kts_entries_handoff_received, count as u64);
            }
        }
    }
}
