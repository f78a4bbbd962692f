//! The Master-key peer: continuous per-key timestamp generation with
//! sequential service, Master-Succ backup, takeover, and log-probe recovery.
//!
//! Behavioural contract from RR-6497 §3:
//!
//! * `gen_ts(key)` — monotonic **and continuous**: consecutive timestamps
//!   differ by exactly one;
//! * `last_ts(key)` — read the last granted value;
//! * "the Master-key serves each user peer **sequentially**. A new timestamp
//!   for a document is provided only **after the replication of the previous
//!   timestamped patch**" — i.e. grant → publish to Log-Peers → ack, one at
//!   a time per key;
//! * `sendToPublish` also "replicates the last-ts at the Master-Succ Peer".
//!
//! This module is sans-IO: log publication and log probing are delegated to
//! the embedding layer through [`MasterAction::BeginPublish`] /
//! [`MasterAction::BeginProbe`], completed via [`KtsMaster::publish_done`] /
//! [`KtsMaster::probe_done`].
//!
//! Each key's entry is in one [`Stage`], and one transition function
//! moves it. Its stage × event table is the spec in ARCHITECTURE.md,
//! "Grant fencing and master epochs".

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;

use crate::config::KtsConfig;
use crate::msg::{HandoffEntry, KtsMsg, ReqId, ValidateFailure};
use chord::{DocName, Id, NodeRef};

use simnet::NodeId;

/// Effects requested by the master state machine.
#[derive(Clone, Debug)]
pub enum MasterAction {
    /// Send a KTS message.
    Send(NodeId, KtsMsg),
    /// Replicate the patch to the Log-Peers (`put(h_i(key_name+ts))` for
    /// each replication hash), then call
    /// [`KtsMaster::publish_done`] with the token.
    BeginPublish {
        /// Completion token.
        token: u64,
        /// The key being served.
        key: Id,
        /// Document name (for the replication hashes).
        key_name: DocName,
        /// The granted timestamp.
        ts: u64,
        /// The master epoch to stamp the record with.
        epoch: u64,
        /// The patch to store.
        patch: Bytes,
    },
    /// Recover `last_ts(key)` by probing the log (gallop + binary search),
    /// then call [`KtsMaster::probe_done`].
    BeginProbe {
        /// Completion token.
        token: u64,
        /// The key to probe.
        key: Id,
        /// Document name.
        key_name: DocName,
        /// Known lower bound on `last_ts` — the probe gallops from here.
        /// Essential for the occupied-fence re-probe: a log with a hole
        /// *below* this entry's `last_ts` (replicas lost to faults) makes
        /// a base-0 probe stop at the hole and recover a value the
        /// `max(last_ts, recovered)` merge discards, so the occupied
        /// fence re-probes forever without progress. Galloping from the
        /// entry's own `last_ts` instead finds the occupying record at
        /// `last_ts + 1` and strictly advances.
        base: u64,
    },
    /// Raise a grant fence at the Log-Peers of slot `last_ts + 1` with
    /// floor `epoch`, then call [`KtsMaster::fence_done`] with the quorum
    /// outcome.
    BeginFence {
        /// Completion token.
        token: u64,
        /// The key being fenced.
        key: Id,
        /// Document name (for the slot's replication hashes).
        key_name: DocName,
        /// The fence floor: this master's epoch for the key.
        epoch: u64,
        /// The last granted timestamp; the fence goes up at `last_ts + 1`.
        last_ts: u64,
    },
    /// Back up an entry at the Master-key-Succ (the embedding layer knows
    /// the current successor).
    ReplicateToSucc {
        /// The entry to back up.
        entry: HandoffEntry,
    },
    /// Observability upcall.
    Event(MasterEvent),
}

/// Notable master-side events (metrics / test oracles).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MasterEvent {
    /// A timestamp was granted and its patch durably logged.
    Granted {
        /// The key.
        key: Id,
        /// The document name behind the key.
        doc: DocName,
        /// The timestamp.
        ts: u64,
    },
    /// A first-writer conflict in the log exposed us as a stale master.
    StaleDetected {
        /// The key.
        key: Id,
    },
    /// Backup entries were promoted to authoritative after a takeover.
    Promoted {
        /// How many keys.
        count: usize,
    },
    /// Authoritative entries were handed off to another master.
    HandedOff {
        /// How many keys.
        count: usize,
    },
    /// Authoritative entries were received.
    HandoffReceived {
        /// How many keys.
        count: usize,
    },
}

/// How a delegated publish ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishOutcome {
    /// All (or a quorum of) log replicas stored the record.
    Ok,
    /// A log peer already holds a *different* record for this (key, ts):
    /// another master granted it — we are stale.
    Conflict,
    /// Log peers unreachable within the timeout budget.
    Unreachable,
}

/// How a delegated fence fan-out ended (mirror of the embedding layer's
/// quorum verdict; kts stays independent of the log crate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FenceOutcome {
    /// A quorum of the slot's Log-Peers holds the floor.
    Acked {
        /// An acked location already held a record at the fenced slot: a
        /// grant landed there before the fence went up — re-probe.
        occupied: bool,
    },
    /// A higher (or rival equal) floor is in force: a newer master epoch
    /// is active for this key.
    Superseded {
        /// The winning floor observed.
        current: u64,
    },
    /// No quorum reachable.
    Unreachable,
}

/// Where an authoritative entry stands in its grant cycle. Every entry is
/// born `Unverified`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// `last_ts` is not verified against the log: the next pump probes.
    Unverified,
    /// A log probe is outstanding.
    Probing,
    /// Verified, but the next slot is not fenced yet.
    Unfenced,
    /// A fence fan-out is outstanding.
    Fencing {
        /// `last_ts` was shown stale meanwhile: re-probe once it ends.
        stale: bool,
    },
    /// Verified and the next slot is fenced: the queue head is served.
    Fenced,
    /// A grant's publish is outstanding.
    Publishing {
        /// `last_ts` was shown stale meanwhile: re-probe once it ends.
        stale: bool,
    },
}

/// What moves a [`Stage`].
#[derive(Clone, Copy, Debug)]
enum Event {
    /// The pump found the entry idle with work: start the stage's operation.
    Serve,
    /// A reader or a queued user is ahead of `last_ts`.
    Ahead,
    ProbeDone {
        recovered: u64,
        log_epoch: u64,
    },
    /// A live fence completion (`Superseded` demotes the entry instead).
    FenceDone(FenceOutcome),
    PublishDone {
        ts: u64,
        outcome: PublishOutcome,
    },
}

#[derive(Clone, Debug)]
struct QueuedValidate {
    op: ReqId,
    proposed_ts: u64,
    patch: Bytes,
    user: NodeRef,
    /// The log was already re-probed once because this request claimed a
    /// timestamp ahead of our state.
    reprobed: bool,
}

#[derive(Clone, Debug)]
struct KeyEntry {
    key_name: DocName,
    last_ts: u64,
    epoch: u64,
    stage: Stage,
    queue: VecDeque<QueuedValidate>,
}

impl KeyEntry {
    /// A fresh, promoted, restored or handed-over entry. Its `last_ts` may
    /// lag the log — an unknown key may be state lost to a double failure,
    /// a backup can miss an in-flight grant, a journal a grant made during
    /// the outage, a handoff a grant still replicating — so it is verified
    /// before first use.
    fn new(key_name: DocName, last_ts: u64, epoch: u64, queue: VecDeque<QueuedValidate>) -> Self {
        KeyEntry {
            key_name,
            last_ts,
            epoch,
            stage: Stage::Unverified,
            queue,
        }
    }

    fn handoff(&self, key: Id) -> HandoffEntry {
        HandoffEntry {
            key,
            key_name: self.key_name.clone(),
            last_ts: self.last_ts,
            epoch: self.epoch,
        }
    }

    /// The stage × event table, and the `last_ts` / `epoch` effect of each
    /// completion: the only place a stage changes after birth.
    #[rustfmt::skip] // one row per line
    fn apply(&mut self, ev: Event) {
        use Event::*;
        use Stage::*;
        let trusted = match self.stage {
            Unfenced | Fenced => true,
            Fencing { stale } | Publishing { stale } => !stale,
            Unverified | Probing => false,
        };
        self.stage = match (self.stage, ev) {
            (Unverified, Serve) => Probing,
            (Unfenced, Serve) => Fencing { stale: false },
            (Fenced, Serve) => Publishing { stale: false },
            (Unfenced | Fenced, Ahead) => Unverified,
            (Fencing { .. }, Ahead) => Fencing { stale: true },
            (Publishing { .. }, Ahead) => Publishing { stale: true },
            // Applies to whichever entry holds the key. The probe may move
            // `last_ts`, relocating the next slot, so any earlier fence no
            // longer covers it. A logged epoch at or above ours proves a
            // rival master granted under it: advance strictly past it.
            (_, ProbeDone { recovered, log_epoch }) => {
                self.last_ts = self.last_ts.max(recovered);
                if log_epoch >= self.epoch {
                    self.epoch = log_epoch + 1;
                }
                Unfenced
            }
            (Fencing { stale: false }, FenceDone(FenceOutcome::Acked { occupied: false })) => Fenced,
            // Retried on demand by the next pump; the fan-out's per-op
            // timeouts pace the retries.
            (Fencing { stale: false }, FenceDone(FenceOutcome::Unreachable)) => Unfenced,
            // Stale, or an occupied slot: a grant landed there before the
            // floor went up, so `last_ts` lags the log.
            (Fencing { .. }, FenceDone(_)) => Unverified,
            // Applies to whichever entry holds the key; `last_ts` is
            // assigned, not max-merged. The fence that covered the slot is
            // consumed by the grant: the next slot is fenced anew.
            (_, PublishDone { ts, outcome: PublishOutcome::Ok }) => {
                self.last_ts = ts;
                if trusted { Unfenced } else { Unverified }
            }
            // Conflict or Unreachable: our puts may have landed at a
            // minority of the slot's Log-Peers (or still be in flight), so
            // the slot is suspect. Re-verify, and re-grant it only under a
            // strictly higher epoch behind a fresh fence, so a straggler
            // copy is outranked everywhere it can land.
            (_, PublishDone { .. }) => {
                self.epoch += 1;
                Unverified
            }
            // Busy stages ignore `Serve`, unverified ones `Ahead`, and
            // `fence_done` passes only completions for a `Fencing` entry.
            (stage, _) => stage,
        };
    }
}

/// One outstanding delegated operation, keyed by its completion token.
#[derive(Clone, Debug)]
enum Pending {
    Probe {
        key: Id,
    },
    /// The epoch pins the completion to the entry generation that issued
    /// it: a handoff or restore bumps the epoch, so a stale `fence_done`
    /// can never ack the successor entry's fence.
    Fence {
        key: Id,
        epoch: u64,
    },
    Publish {
        key: Id,
        key_name: DocName,
        ts: u64,
        epoch: u64,
        op: ReqId,
        user: NodeRef,
    },
}

/// The Master-key role state for one node (it may master many keys).
pub struct KtsMaster {
    cfg: KtsConfig,
    // BTreeMap: export_range/export_all emit handoff + redirect messages in
    // iteration order, which must be deterministic for reproducible runs.
    entries: BTreeMap<Id, KeyEntry>,
    backups: BTreeMap<Id, HandoffEntry>,
    outstanding: BTreeMap<u64, Pending>,
    token_seq: u64,
    acts: Vec<MasterAction>,
}

impl KtsMaster {
    /// Fresh master state.
    pub fn new(cfg: KtsConfig) -> Self {
        KtsMaster {
            cfg,
            entries: BTreeMap::new(),
            backups: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            token_seq: 0,
            acts: Vec::new(),
        }
    }

    // ---- inspection ----------------------------------------------------

    /// `last_ts(key)`: the best-known last validated timestamp.
    pub fn last_ts(&self, key: Id) -> u64 {
        let e = self.entries.get(&key).map(|e| e.last_ts).unwrap_or(0);
        let b = self.backups.get(&key).map(|b| b.last_ts).unwrap_or(0);
        e.max(b)
    }

    /// Keys this node currently masters (authoritative entries).
    pub fn mastered_keys(&self) -> Vec<(Id, u64)> {
        self.entries.iter().map(|(k, e)| (*k, e.last_ts)).collect()
    }

    /// Number of authoritative entries.
    pub fn mastered_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of backup entries held for predecessors.
    pub fn backup_count(&self) -> usize {
        self.backups.len()
    }

    /// Currently queued validations across all keys (diagnostics).
    pub fn queued_validations(&self) -> usize {
        self.entries.values().map(|e| e.queue.len()).sum()
    }

    /// The fencing epoch of an authoritative entry (test / model-checker
    /// oracle).
    pub fn entry_epoch(&self, key: Id) -> Option<u64> {
        self.entries.get(&key).map(|e| e.epoch)
    }

    /// The stage of an authoritative entry (test / model-checker oracle).
    pub fn stage(&self, key: Id) -> Option<Stage> {
        self.entries.get(&key).map(|e| e.stage)
    }

    /// Record an outstanding operation under a fresh completion token.
    fn begin(&mut self, op: Pending) -> u64 {
        self.token_seq += 1;
        self.outstanding.insert(self.token_seq, op);
        self.token_seq
    }

    fn drain(&mut self) -> Vec<MasterAction> {
        std::mem::take(&mut self.acts)
    }

    /// Redirect requests queued for a key this node no longer masters.
    fn redirect(&mut self, queue: VecDeque<QueuedValidate>) {
        for q in queue {
            self.acts.push(MasterAction::Send(
                q.user.addr,
                KtsMsg::Redirect { op: q.op },
            ));
        }
    }

    // ---- the validation procedure ---------------------------------------

    /// Handle a [`KtsMsg::Validate`]. `am_responsible` is the embedding
    /// layer's Chord-ownership check for `key`.
    #[allow(clippy::too_many_arguments)] // mirrors the wire message fields
    pub fn on_validate(
        &mut self,
        key: Id,
        key_name: &DocName,
        op: ReqId,
        proposed_ts: u64,
        patch: Bytes,
        user: NodeRef,
        am_responsible: bool,
    ) -> Vec<MasterAction> {
        if !am_responsible {
            self.acts
                .push(MasterAction::Send(user.addr, KtsMsg::Redirect { op }));
            return self.drain();
        }
        self.ensure_entry(key, key_name);
        // detlint::allow(TOT-PANIC, ensure_entry on the line above inserted the key; local invariant, not remote input)
        let entry = self.entries.get_mut(&key).expect("just ensured");
        if entry.queue.len() >= self.cfg.max_queue_per_key {
            self.acts.push(MasterAction::Send(
                user.addr,
                KtsMsg::Failed {
                    op,
                    reason: ValidateFailure::Overloaded,
                },
            ));
            return self.drain();
        }
        entry.queue.push_back(QueuedValidate {
            op,
            proposed_ts,
            patch,
            user,
            reprobed: false,
        });
        self.pump(key);
        self.drain()
    }

    /// Handle a [`KtsMsg::LastTs`] read.
    ///
    /// The reply is best-effort: a restored or freshly promoted entry may
    /// lag the log. Such an entry is `Unverified`, and a read starts its
    /// verification probe so the *next* anti-entropy round sees the log's
    /// truth — otherwise idle replicas would trust a stale `last_ts`
    /// forever and never pull the missing patches.
    ///
    /// `known_ts` is the asker's own last integrated timestamp. A reader
    /// ahead of a verified entry proves the table lags the log — some
    /// other master granted past us — so the entry is re-verified instead
    /// of being trusted forever (the residual "idle replica one patch
    /// stale" window of the churn matrix).
    pub fn on_last_ts(
        &mut self,
        key: Id,
        op: ReqId,
        user: NodeRef,
        known_ts: u64,
    ) -> Vec<MasterAction> {
        if known_ts > self.last_ts(key) {
            if let Some(e) = self.entries.get_mut(&key) {
                e.apply(Event::Ahead);
            }
        }
        if self.stage(key) == Some(Stage::Unverified) {
            self.pump(key);
        }
        let last_ts = self.last_ts(key);
        self.acts.push(MasterAction::Send(
            user.addr,
            KtsMsg::LastTsReply { op, key, last_ts },
        ));
        self.drain()
    }

    /// Create (or promote from backup) the entry for `key`.
    fn ensure_entry(&mut self, key: Id, key_name: &DocName) {
        if self.entries.contains_key(&key) {
            return;
        }
        let entry = match self.backups.remove(&key) {
            // Promotion after our predecessor (the old master) vanished.
            Some(b) => {
                self.acts
                    .push(MasterAction::Event(MasterEvent::Promoted { count: 1 }));
                KeyEntry::new(b.key_name, b.last_ts, b.epoch + 1, VecDeque::new())
            }
            None => KeyEntry::new(key_name.clone(), 0, 1, VecDeque::new()),
        };
        self.entries.insert(key, entry);
    }

    /// Start the next operation for `key` if its entry is idle and has
    /// work.
    fn pump(&mut self, key: Id) {
        loop {
            let Some(entry) = self.entries.get_mut(&key) else {
                return;
            };
            match entry.stage {
                Stage::Unverified => {
                    entry.apply(Event::Serve);
                    let (key_name, base) = (entry.key_name.clone(), entry.last_ts);
                    let token = self.begin(Pending::Probe { key });
                    self.acts.push(MasterAction::BeginProbe {
                        token,
                        key,
                        key_name,
                        base,
                    });
                    return;
                }
                // Fence the next slot before serving anything. The probe
                // ran first, so `last_ts` is log-verified and the fence
                // lands where the next grant will go. Demand-driven (queue
                // non-empty): an idle key with unreachable log peers must
                // not spin fence retries forever.
                Stage::Unfenced if !entry.queue.is_empty() => {
                    entry.apply(Event::Serve);
                    let (key_name, epoch, last_ts) =
                        (entry.key_name.clone(), entry.epoch, entry.last_ts);
                    let token = self.begin(Pending::Fence { key, epoch });
                    self.acts.push(MasterAction::BeginFence {
                        token,
                        key,
                        key_name,
                        epoch,
                        last_ts,
                    });
                    return;
                }
                Stage::Fenced => {}
                _ => return,
            }
            let Some(req) = entry.queue.pop_front() else {
                return;
            };
            if entry.last_ts > req.proposed_ts {
                // User is behind: it must retrieve and integrate first.
                let last_ts = entry.last_ts;
                self.acts.push(MasterAction::Send(
                    req.user.addr,
                    KtsMsg::Retry {
                        op: req.op,
                        last_ts,
                    },
                ));
                continue; // serve the next queued request
            }
            if entry.last_ts < req.proposed_ts {
                if req.reprobed {
                    // We already re-verified against the log and the user
                    // still claims more than it contains: the claim cannot
                    // be honoured (e.g. catastrophic log loss). Fail the
                    // request rather than probing forever.
                    self.acts.push(MasterAction::Send(
                        req.user.addr,
                        KtsMsg::Failed {
                            op: req.op,
                            reason: ValidateFailure::AheadOfLog,
                        },
                    ));
                    continue;
                }
                // The *user* knows more than we do — we lost state (e.g.
                // promoted from a lagging backup). Re-verify from the log,
                // keeping the request queued.
                entry.queue.push_front(QueuedValidate {
                    reprobed: true,
                    ..req
                });
                entry.apply(Event::Ahead);
                continue; // loop re-enters as Unverified
            }
            // last_ts == proposed_ts: grant ts+1, publish, then ack.
            entry.apply(Event::Serve);
            let ts = entry.last_ts + 1;
            let key_name = entry.key_name.clone();
            let epoch = entry.epoch;
            let token = self.begin(Pending::Publish {
                key,
                key_name: key_name.clone(),
                ts,
                epoch,
                op: req.op,
                user: req.user,
            });
            self.acts.push(MasterAction::BeginPublish {
                token,
                key,
                key_name,
                ts,
                epoch,
                patch: req.patch,
            });
            return;
        }
    }

    /// The embedding layer finished the log replication for `token`.
    pub fn publish_done(&mut self, token: u64, outcome: PublishOutcome) -> Vec<MasterAction> {
        let Some(Pending::Publish {
            key,
            key_name,
            ts,
            epoch,
            op,
            user,
        }) = self.outstanding.remove(&token)
        else {
            return self.drain();
        };
        // The log is the ground truth, so the outcome answers the user
        // even when a handoff (join split or graceful leave) exported the
        // entry while the puts were in flight; the new master's
        // probe-on-first-use (or a first-writer conflict) reconciles its
        // possibly stale last_ts.
        let reply = match outcome {
            PublishOutcome::Ok => KtsMsg::Granted { op, ts, epoch },
            PublishOutcome::Conflict => KtsMsg::Redirect { op },
            PublishOutcome::Unreachable => KtsMsg::Failed {
                op,
                reason: ValidateFailure::LogUnreachable,
            },
        };
        self.acts.push(MasterAction::Send(user.addr, reply));
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.apply(Event::PublishDone { ts, outcome });
            match outcome {
                PublishOutcome::Ok => {
                    let entry = entry.handoff(key);
                    self.acts.push(MasterAction::ReplicateToSucc { entry });
                }
                PublishOutcome::Conflict => self
                    .acts
                    .push(MasterAction::Event(MasterEvent::StaleDetected { key })),
                PublishOutcome::Unreachable => {}
            }
        }
        if outcome == PublishOutcome::Ok {
            // The grant is durable in the log: it belongs in the continuity
            // record even when we no longer master the key.
            self.acts.push(MasterAction::Event(MasterEvent::Granted {
                key,
                doc: key_name,
                ts,
            }));
        }
        self.pump(key);
        self.drain()
    }

    /// The embedding layer finished a log probe: `recovered` is the highest
    /// timestamp found in the log for the key (0 = none), `log_epoch` the
    /// highest master epoch stamped on any record seen (0 = unstamped
    /// records only).
    ///
    /// A logged epoch at or above our own proves a rival master granted
    /// under it: we advance strictly past it so our fence floor and
    /// records outrank anything that master can still produce.
    pub fn probe_done(&mut self, token: u64, recovered: u64, log_epoch: u64) -> Vec<MasterAction> {
        let Some(Pending::Probe { key }) = self.outstanding.remove(&token) else {
            return self.drain();
        };
        if let Some(entry) = self.entries.get_mut(&key) {
            let ev = Event::ProbeDone {
                recovered,
                log_epoch,
            };
            entry.apply(ev);
        }
        self.pump(key);
        self.drain()
    }

    /// The embedding layer finished the fence fan-out for `token`.
    pub fn fence_done(&mut self, token: u64, outcome: FenceOutcome) -> Vec<MasterAction> {
        let Some(Pending::Fence { key, epoch }) = self.outstanding.remove(&token) else {
            return self.drain();
        };
        // Stale completion: the entry was handed off / restored (epoch
        // bumped) or exported while the fan-out was in flight. Its current
        // incarnation runs its own fence; this verdict proves nothing.
        let live = self
            .entries
            .get(&key)
            .is_some_and(|e| e.epoch == epoch && matches!(e.stage, Stage::Fencing { .. }));
        if !live {
            return self.drain();
        }
        if let FenceOutcome::Superseded { current } = outcome {
            // A newer master epoch holds the floor: stand down. The entry
            // demotes to a backup carrying the winning epoch so a later
            // re-promotion starts strictly above it.
            if let Some(entry) = self.entries.remove(&key) {
                let backup = HandoffEntry {
                    epoch: current.max(entry.epoch),
                    ..entry.handoff(key)
                };
                self.backups.insert(key, backup);
                self.redirect(entry.queue);
                self.acts
                    .push(MasterAction::Event(MasterEvent::StaleDetected { key }));
            }
        } else if let Some(entry) = self.entries.get_mut(&key) {
            entry.apply(Event::FenceDone(outcome));
        }
        self.pump(key);
        self.drain()
    }

    // ---- crash recovery --------------------------------------------------

    /// Seed the authoritative table from state recovered off this node's
    /// own durable store (crash + local restart).
    ///
    /// Each entry re-enters with a bumped fencing epoch and — like a
    /// promoted backup — is re-verified against the log before first use:
    /// the disk may lag a grant that was still replicating when the node
    /// died, and another master may have granted further timestamps while
    /// it was down.
    pub fn restore_entries(&mut self, entries: Vec<HandoffEntry>) {
        for e in entries {
            self.backups.remove(&e.key);
            let entry = KeyEntry::new(e.key_name, e.last_ts, e.epoch + 1, VecDeque::new());
            self.entries.insert(e.key, entry);
        }
    }

    /// Seed the backup table from recovered state (Master-Succ role).
    /// Entries never regress a backup already present.
    pub fn restore_backups(&mut self, entries: Vec<HandoffEntry>) {
        for e in entries {
            if !self.entries.contains_key(&e.key) {
                self.on_replicate_entry(e);
            }
        }
    }

    // ---- backups & takeover ---------------------------------------------

    /// Store a backup entry pushed by the master we succeed.
    pub fn on_replicate_entry(&mut self, entry: HandoffEntry) {
        // Never regress: keep the max timestamp seen.
        let slot = self.backups.entry(entry.key).or_insert(HandoffEntry {
            last_ts: 0,
            epoch: 0,
            ..entry.clone()
        });
        if entry.last_ts > slot.last_ts {
            slot.last_ts = entry.last_ts;
            slot.epoch = entry.epoch;
        }
    }

    /// Authoritative handoff received (graceful leave or join split).
    pub fn on_table_handoff(&mut self, entries: Vec<HandoffEntry>) -> Vec<MasterAction> {
        let count = entries.len();
        for e in entries {
            let (last_ts, epoch, queue) = match self.entries.remove(&e.key) {
                Some(old) => (old.last_ts, old.epoch, old.queue),
                None => (0, 0, VecDeque::new()),
            };
            // Bump past *both* the sender's epoch and anything this node
            // already reached for the key — a handoff from a low-epoch
            // sender must never regress a local entry's epoch (that would
            // re-open the fence it sits behind).
            let entry = KeyEntry::new(
                e.key_name,
                e.last_ts.max(last_ts),
                e.epoch.max(epoch) + 1,
                queue,
            );
            self.entries.insert(e.key, entry);
            self.backups.remove(&e.key);
            self.pump(e.key);
        }
        self.acts
            .push(MasterAction::Event(MasterEvent::HandoffReceived { count }));
        self.drain()
    }

    /// Extract the authoritative entries in the ring arc `(from, to]` —
    /// called when a newly joined master takes over that range. The entries
    /// are kept locally as backups (we are the new master's successor).
    pub fn export_range(&mut self, from: Id, to: Id) -> (Vec<HandoffEntry>, Vec<MasterAction>) {
        self.export(|k| k.in_half_open(from, to), true)
    }

    /// Extract **all** authoritative entries (graceful leave).
    pub fn export_all(&mut self) -> (Vec<HandoffEntry>, Vec<MasterAction>) {
        self.export(|_| true, false)
    }

    /// Remove the entries whose keys `pick` selects, redirecting their
    /// queued requests; `keep_backups` retains a backup copy of each.
    fn export(
        &mut self,
        pick: impl Fn(&Id) -> bool,
        keep_backups: bool,
    ) -> (Vec<HandoffEntry>, Vec<MasterAction>) {
        let keys: Vec<Id> = self.entries.keys().copied().filter(pick).collect();
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let Some(e) = self.entries.remove(&key) else {
                continue;
            };
            let handoff = e.handoff(key);
            if keep_backups {
                self.backups.insert(key, handoff.clone());
            }
            self.redirect(e.queue);
            out.push(handoff);
        }
        if !out.is_empty() {
            self.acts.push(MasterAction::Event(MasterEvent::HandedOff {
                count: out.len(),
            }));
        }
        (out, self.drain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    fn user(n: u32) -> NodeRef {
        NodeRef::new(NodeId(n), Id(n as u64 * 1000))
    }

    fn key() -> Id {
        Id(42)
    }

    fn patch() -> Bytes {
        Bytes::from_static(b"patch")
    }

    /// User `u` validates `key()` as request `op`, claiming `proposed`.
    fn validate(m: &mut KtsMaster, op: u64, proposed: u64, u: u32) -> Vec<MasterAction> {
        m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(op),
            proposed,
            patch(),
            user(u),
            true,
        )
    }

    fn probe_of(acts: &[MasterAction]) -> Option<u64> {
        acts.iter().find_map(|a| match a {
            MasterAction::BeginProbe { token, .. } => Some(*token),
            _ => None,
        })
    }

    /// Extract the single BeginProbe token from actions.
    fn probe_token(acts: &[MasterAction]) -> u64 {
        probe_of(acts).expect("no BeginProbe")
    }

    /// Complete the probe in `acts` against an empty log — the birth probe
    /// every entry runs before its first grant.
    fn probe_empty(m: &mut KtsMaster, acts: &[MasterAction]) -> Vec<MasterAction> {
        m.probe_done(probe_token(acts), 0, 0)
    }

    /// Extract the single BeginFence (token, epoch, last_ts) from actions.
    fn fence_req(acts: &[MasterAction]) -> (u64, u64, u64) {
        acts.iter()
            .find_map(|a| match a {
                MasterAction::BeginFence {
                    token,
                    epoch,
                    last_ts,
                    ..
                } => Some((*token, *epoch, *last_ts)),
                _ => None,
            })
            .expect("no BeginFence")
    }

    /// Ack the fence in `acts` on a free slot — the fence every grant
    /// waits for.
    fn complete_fence(m: &mut KtsMaster, acts: &[MasterAction]) -> Vec<MasterAction> {
        m.fence_done(fence_req(acts).0, FenceOutcome::Acked { occupied: false })
    }

    /// Extract the single BeginPublish token from actions.
    fn publish_token(acts: &[MasterAction]) -> u64 {
        acts.iter()
            .find_map(|a| match a {
                MasterAction::BeginPublish { token, .. } => Some(*token),
                _ => None,
            })
            .expect("no BeginPublish")
    }

    #[test]
    fn first_validate_grants_ts_1() {
        let mut m = KtsMaster::new(KtsConfig::default());
        let acts = validate(&mut m, 1, 0, 1);
        let acts = probe_empty(&mut m, &acts);
        let acts = complete_fence(&mut m, &acts);
        let acts = m.publish_done(publish_token(&acts), PublishOutcome::Ok);
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Granted { ts: 1, .. }))));
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::ReplicateToSucc { .. })));
        assert_eq!(m.last_ts(key()), 1);
    }

    #[test]
    fn continuous_timestamps_across_grants() {
        let mut m = KtsMaster::new(KtsConfig::default());
        for expect in 1..=5u64 {
            let mut acts = validate(&mut m, expect, expect - 1, 1);
            if let Some(t) = probe_of(&acts) {
                acts = m.probe_done(t, expect - 1, 0);
            }
            // Every slot is fenced anew before its grant.
            let acts = complete_fence(&mut m, &acts);
            let acts = m.publish_done(publish_token(&acts), PublishOutcome::Ok);
            let granted = acts
                .iter()
                .find_map(|a| match a {
                    MasterAction::Send(_, KtsMsg::Granted { ts, .. }) => Some(*ts),
                    _ => None,
                })
                .unwrap();
            assert_eq!(granted, expect);
        }
    }

    #[test]
    fn behind_user_gets_retry() {
        let mut m = KtsMaster::new(KtsConfig::default());
        let acts = validate(&mut m, 1, 0, 1);
        let acts = probe_empty(&mut m, &acts);
        let acts = complete_fence(&mut m, &acts);
        m.publish_done(publish_token(&acts), PublishOutcome::Ok);
        // Second user still at ts 0; the slot is fenced before it is served.
        let acts = validate(&mut m, 2, 0, 2);
        let acts = complete_fence(&mut m, &acts);
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Retry { last_ts: 1, .. }))));
    }

    #[test]
    fn concurrent_validates_serialized_per_key() {
        let mut m = KtsMaster::new(KtsConfig::default());
        // Two users race at proposed_ts=0; the first grant starts publishing,
        // the second stays queued.
        let acts1 = validate(&mut m, 1, 0, 1);
        let acts2 = validate(&mut m, 2, 0, 2);
        let acts = probe_empty(&mut m, &acts1);
        let acts = complete_fence(&mut m, &acts);
        let t1 = publish_token(&acts);
        assert_eq!(
            acts.iter()
                .chain(&acts2)
                .filter(|a| matches!(a, MasterAction::BeginPublish { .. }))
                .count(),
            1,
            "second publish must wait for the first"
        );
        // First completes; once slot 2 is fenced, the queued request is
        // behind (last_ts=1) and receives a Retry.
        let acts = m.publish_done(t1, PublishOutcome::Ok);
        let acts = complete_fence(&mut m, &acts);
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(to, KtsMsg::Retry { last_ts: 1, .. }) if *to == NodeId(2)
        )));
    }

    #[test]
    fn not_responsible_redirects() {
        let mut m = KtsMaster::new(KtsConfig::default());
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            false,
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Redirect { .. }))));
        assert_eq!(m.mastered_count(), 0);
    }

    #[test]
    fn conflict_marks_stale_and_redirects() {
        let mut m = KtsMaster::new(KtsConfig::default());
        let acts = validate(&mut m, 1, 0, 1);
        let acts = probe_empty(&mut m, &acts);
        let acts = complete_fence(&mut m, &acts);
        let acts = m.publish_done(publish_token(&acts), PublishOutcome::Conflict);
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Redirect { .. }))));
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Event(MasterEvent::StaleDetected { .. }))));
        assert_eq!(m.last_ts(key()), 0, "no grant on conflict");
        // The suspect slot's epoch is spent, and the entry re-verifies.
        assert_eq!(m.entry_epoch(key()), Some(2));
        assert!(probe_of(&acts).is_some(), "{acts:?}");
    }

    #[test]
    fn unreachable_log_fails_request_but_keeps_state() {
        let mut m = KtsMaster::new(KtsConfig::default());
        let acts = validate(&mut m, 1, 0, 1);
        let acts = probe_empty(&mut m, &acts);
        let acts = complete_fence(&mut m, &acts);
        let acts = m.publish_done(publish_token(&acts), PublishOutcome::Unreachable);
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(
                _,
                KtsMsg::Failed {
                    reason: ValidateFailure::LogUnreachable,
                    ..
                }
            )
        )));
        assert_eq!(m.last_ts(key()), 0);
        // Our puts may have landed at a minority of the slot's Log-Peers:
        // the entry re-verifies at once, and the retry re-fences under a
        // strictly higher epoch.
        let probe = probe_token(&acts);
        validate(&mut m, 2, 0, 1);
        let acts = m.probe_done(probe, 0, 0);
        assert_eq!(fence_req(&acts).1, 2);
        let acts = complete_fence(&mut m, &acts);
        let acts = m.publish_done(publish_token(&acts), PublishOutcome::Ok);
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(
                _,
                KtsMsg::Granted {
                    ts: 1,
                    epoch: 2,
                    ..
                }
            )
        )));
    }

    #[test]
    fn probe_unknown_key_before_first_grant() {
        let mut m = KtsMaster::new(KtsConfig::default());
        let acts = validate(&mut m, 1, 0, 1);
        let probe_token = probe_of(&acts).expect("must probe unknown key");
        assert!(!acts
            .iter()
            .any(|a| matches!(a, MasterAction::BeginPublish { .. })));
        // Probe finds 3 patches already in the log (state was lost).
        let acts = m.probe_done(probe_token, 3, 0);
        assert_eq!(fence_req(&acts).2, 3, "the fence goes up at slot 4");
        let acts = complete_fence(&mut m, &acts);
        // The queued user (at ts 0) is behind -> Retry with last_ts 3.
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Retry { last_ts: 3, .. }))));
        assert_eq!(m.last_ts(key()), 3);
    }

    #[test]
    fn lastts_read_triggers_probe_of_restored_entry() {
        // A master restored from its journal answers anti-entropy reads
        // from state that may lag the log (the takeover master granted
        // while we were down). The read itself is best-effort, but it
        // must kick off the verification probe so the *next* read serves
        // the log's truth — otherwise idle replicas would never pull the
        // missing patches (the master-crash-storm convergence bug).
        let mut m = KtsMaster::new(KtsConfig::default());
        m.restore_entries(vec![HandoffEntry {
            key: key(),
            key_name: DocName::new("doc"),
            last_ts: 4,
            epoch: 1,
        }]);
        let acts = m.on_last_ts(key(), ReqId(9), user(1), 0);
        // Best-effort reply from current knowledge…
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(_, KtsMsg::LastTsReply { last_ts: 4, .. })
        )));
        // …but the probe starts.
        let probe_token = probe_of(&acts).expect("read of an unprobed entry must start the probe");
        // The log actually holds 5 grants; the next read is authoritative.
        m.probe_done(probe_token, 5, 0);
        let acts = m.on_last_ts(key(), ReqId(10), user(1), 0);
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(_, KtsMsg::LastTsReply { last_ts: 5, .. })
        )));
        // And no second probe fires for the now-verified entry.
        assert_eq!(probe_of(&acts), None);
    }

    #[test]
    fn user_ahead_triggers_reprobe() {
        let mut m = KtsMaster::new(KtsConfig::default());
        // Master thinks 0, user proposes 2 (it integrated 2 patches from the
        // log that we never saw — we are a recovered master with lost state).
        let acts = validate(&mut m, 1, 2, 1);
        // The birth probe misses them (say the log peers lagged) …
        let acts = probe_empty(&mut m, &acts);
        let acts = complete_fence(&mut m, &acts);
        // … so the user-ahead request sends the entry back to the log.
        let probe_token = probe_of(&acts).expect("user-ahead must trigger probe");
        let acts = m.probe_done(probe_token, 2, 0);
        // Now last_ts == proposed: fence slot 3, then grant it.
        let acts = complete_fence(&mut m, &acts);
        let acts = m.publish_done(publish_token(&acts), PublishOutcome::Ok);
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Granted { ts: 3, .. }))));
    }

    #[test]
    fn backup_promotion_on_first_touch() {
        let mut m = KtsMaster::new(KtsConfig::default());
        m.on_replicate_entry(HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 7,
            epoch: 1,
        });
        assert_eq!(m.backup_count(), 1);
        assert_eq!(m.last_ts(key()), 7);
        // First validate after our predecessor died: promote, verify, serve.
        let acts = validate(&mut m, 1, 7, 1);
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Event(MasterEvent::Promoted { .. }))));
        let acts = m.probe_done(probe_token(&acts), 7, 0);
        let acts = complete_fence(&mut m, &acts);
        let acts = m.publish_done(publish_token(&acts), PublishOutcome::Ok);
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(
                _,
                KtsMsg::Granted {
                    ts: 8,
                    epoch: 2,
                    ..
                }
            )
        )));
        assert_eq!(m.backup_count(), 0);
    }

    #[test]
    fn backup_never_regresses() {
        let mut m = KtsMaster::new(KtsConfig::default());
        m.on_replicate_entry(HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 7,
            epoch: 1,
        });
        m.on_replicate_entry(HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 5,
            epoch: 1,
        });
        assert_eq!(m.last_ts(key()), 7);
    }

    #[test]
    fn handoff_roundtrip_preserves_state() {
        let mut a = KtsMaster::new(KtsConfig::default());
        let acts = validate(&mut a, 1, 0, 1);
        let acts = probe_empty(&mut a, &acts);
        let acts = complete_fence(&mut a, &acts);
        a.publish_done(publish_token(&acts), PublishOutcome::Ok);
        let (entries, _acts) = a.export_all();
        assert_eq!(entries.len(), 1);
        assert_eq!(a.mastered_count(), 0);

        let mut b = KtsMaster::new(KtsConfig::default());
        let probe = probe_token(&b.on_table_handoff(entries));
        assert_eq!(b.last_ts(key()), 1);
        // Continuity across the handoff: next grant is 2.
        validate(&mut b, 2, 1, 2);
        let acts = b.probe_done(probe, 1, 0);
        let acts = complete_fence(&mut b, &acts);
        let acts = b.publish_done(publish_token(&acts), PublishOutcome::Ok);
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Granted { ts: 2, .. }))));
    }

    #[test]
    fn export_range_keeps_backup_copies() {
        let mut m = KtsMaster::new(KtsConfig::default());
        let k1 = Id(10);
        let k2 = Id(1000);
        for (k, op) in [(k1, 1u64), (k2, 2)] {
            let acts = m.on_validate(k, &DocName::new("d"), ReqId(op), 0, patch(), user(1), true);
            let acts = probe_empty(&mut m, &acts);
            let acts = complete_fence(&mut m, &acts);
            m.publish_done(publish_token(&acts), PublishOutcome::Ok);
        }
        let (exported, _) = m.export_range(Id(0), Id(100));
        assert_eq!(exported.len(), 1);
        assert_eq!(exported[0].key, k1);
        assert_eq!(m.mastered_count(), 1);
        assert_eq!(m.backup_count(), 1);
        assert_eq!(m.last_ts(k1), 1, "backup copy retained");
    }

    #[test]
    fn restored_entries_verify_against_log_then_resume_continuity() {
        // Crash recovery: disk said last_ts=3, but a grant for ts=4 was
        // in flight when we died. The restored entry must re-probe before
        // serving and then continue the sequence at 5.
        let mut m = KtsMaster::new(KtsConfig::default());
        m.restore_entries(vec![HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 3,
            epoch: 2,
        }]);
        assert_eq!(m.last_ts(key()), 3);
        assert_eq!(m.mastered_count(), 1);
        let acts = validate(&mut m, 1, 4, 1);
        let probe_token = probe_of(&acts).expect("restored entry must probe before first grant");
        let acts = m.probe_done(probe_token, 4, 0);
        let acts = complete_fence(&mut m, &acts);
        let acts = m.publish_done(publish_token(&acts), PublishOutcome::Ok);
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Granted { ts: 5, .. }))));
    }

    #[test]
    fn restored_backups_do_not_shadow_authoritative_entries() {
        let mut m = KtsMaster::new(KtsConfig::default());
        m.restore_entries(vec![HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 9,
            epoch: 1,
        }]);
        m.restore_backups(vec![
            HandoffEntry {
                key: key(), // already authoritative: ignored
                key_name: "doc".into(),
                last_ts: 2,
                epoch: 1,
            },
            HandoffEntry {
                key: Id(77),
                key_name: "other".into(),
                last_ts: 4,
                epoch: 1,
            },
        ]);
        assert_eq!(m.mastered_count(), 1);
        assert_eq!(m.backup_count(), 1);
        assert_eq!(m.last_ts(key()), 9);
        assert_eq!(m.last_ts(Id(77)), 4);
    }

    #[test]
    fn queue_overflow_sheds_load() {
        let cfg = KtsConfig {
            max_queue_per_key: 2,
        };
        let mut m = KtsMaster::new(cfg);
        // The first two wait in the queue behind the birth probe; the 3rd
        // and 4th overflow.
        for (op, u) in [(1, 1), (2, 2), (3, 3)] {
            validate(&mut m, op, 0, u);
        }
        let acts = validate(&mut m, 4, 0, 4);
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(
                _,
                KtsMsg::Failed {
                    reason: ValidateFailure::Overloaded,
                    ..
                }
            )
        )));
    }

    // ---- grant fencing ---------------------------------------------------

    #[test]
    fn fenced_grant_waits_for_fence_ack() {
        let mut m = KtsMaster::new(KtsConfig::default());
        let acts = validate(&mut m, 1, 0, 1);
        let acts = probe_empty(&mut m, &acts);
        let (ft, epoch, last_ts) = fence_req(&acts);
        assert_eq!(
            (epoch, last_ts),
            (1, 0),
            "fresh key fences slot 1 at epoch 1"
        );
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, MasterAction::BeginPublish { .. })),
            "no publish before the fence is acked"
        );
        let acts = m.fence_done(ft, FenceOutcome::Acked { occupied: false });
        let acts = m.publish_done(publish_token(&acts), PublishOutcome::Ok);
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(
                _,
                KtsMsg::Granted {
                    ts: 1,
                    epoch: 1,
                    ..
                }
            )
        )));
        // The consumed fence does not cover slot 2: the next grant re-fences.
        let acts = validate(&mut m, 2, 1, 1);
        let (_, epoch2, last2) = fence_req(&acts);
        assert_eq!((epoch2, last2), (1, 1));
    }

    #[test]
    fn superseded_fence_demotes_to_backup() {
        let mut m = KtsMaster::new(KtsConfig::default());
        let acts = validate(&mut m, 1, 0, 1);
        let acts = probe_empty(&mut m, &acts);
        let (ft, _, _) = fence_req(&acts);
        let acts = m.fence_done(ft, FenceOutcome::Superseded { current: 5 });
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Redirect { .. }))));
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Event(MasterEvent::StaleDetected { .. }))));
        assert_eq!(m.mastered_count(), 0, "demoted");
        assert_eq!(m.backup_count(), 1);
        // Re-promotion starts strictly above the winning floor.
        let acts = validate(&mut m, 2, 0, 1);
        let acts = probe_empty(&mut m, &acts);
        let (_, epoch, _) = fence_req(&acts);
        assert_eq!(epoch, 6, "max(current 5, own 1) + 1");
    }

    #[test]
    fn occupied_fence_slot_forces_reprobe_and_epoch_advance() {
        let mut m = KtsMaster::new(KtsConfig::default());
        let acts = validate(&mut m, 1, 0, 1);
        let acts = probe_empty(&mut m, &acts);
        let (ft, _, _) = fence_req(&acts);
        // Slot 1 was already published before our floor went up.
        let acts = m.fence_done(ft, FenceOutcome::Acked { occupied: true });
        let probe_token = probe_of(&acts).expect("occupied slot must trigger a re-probe");
        // The probe finds the rival's grant: ts 1 stamped under epoch 2.
        let acts = m.probe_done(probe_token, 1, 2);
        let (_, epoch, last_ts) = fence_req(&acts);
        assert_eq!(last_ts, 1, "fence moved to the true next slot");
        assert_eq!(epoch, 3, "advanced strictly past the logged epoch");
        assert_eq!(m.entry_epoch(key()), Some(3));
    }

    #[test]
    fn unreachable_fence_retries_on_demand() {
        let mut m = KtsMaster::new(KtsConfig::default());
        let acts = validate(&mut m, 1, 0, 1);
        let acts = probe_empty(&mut m, &acts);
        let (ft, _, _) = fence_req(&acts);
        let acts = m.fence_done(ft, FenceOutcome::Unreachable);
        // The queued request still needs serving: a fresh fan-out fires.
        let (ft2, _, _) = fence_req(&acts);
        assert_ne!(ft2, ft);
    }

    #[test]
    fn probed_entry_reprobes_when_reader_is_ahead() {
        // The churn-matrix residual: an idle replica that integrated ts 3
        // asks a master whose (probed but stale) table says 1. The read
        // must trigger re-verification, not serve 1 forever.
        let mut m = KtsMaster::new(KtsConfig::default());
        let acts = validate(&mut m, 1, 0, 1);
        let acts = probe_empty(&mut m, &acts);
        let (ft, _, _) = fence_req(&acts);
        let acts = m.fence_done(ft, FenceOutcome::Acked { occupied: false });
        m.publish_done(publish_token(&acts), PublishOutcome::Ok);
        assert_eq!(m.last_ts(key()), 1);
        let acts = m.on_last_ts(key(), ReqId(9), user(2), 3);
        let probe_token = probe_of(&acts).expect("reader ahead of a probed entry must re-probe");
        m.probe_done(probe_token, 3, 0);
        let acts = m.on_last_ts(key(), ReqId(10), user(2), 3);
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(_, KtsMsg::LastTsReply { last_ts: 3, .. })
        )));
    }

    #[test]
    fn handoff_epoch_never_regresses() {
        let mut m = KtsMaster::new(KtsConfig::default());
        m.restore_entries(vec![HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 3,
            epoch: 7,
        }]);
        assert_eq!(m.entry_epoch(key()), Some(8));
        // A lagging old master hands the key over with a stale epoch.
        m.on_table_handoff(vec![HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 3,
            epoch: 2,
        }]);
        assert_eq!(m.entry_epoch(key()), Some(9), "max(2, 8) + 1");
    }

    // ---- stale completions -----------------------------------------------
    //
    // A completion can outlive the entry incarnation that issued it. The
    // three tests below pin today's rule for each kind. The publish and
    // probe rows apply the completion to whichever entry holds the key now,
    // so they drive an incarnation that did not issue them — candidate
    // mechanisms for the 5 %-loss safety residue, for the flight recorder
    // (ROADMAP 1(b)) to confirm or rule out.

    #[test]
    fn stale_fence_completion_cannot_ack_new_epoch() {
        let mut m = KtsMaster::new(KtsConfig::default());
        let acts = validate(&mut m, 1, 0, 1);
        let acts = probe_empty(&mut m, &acts);
        let (ft, _, _) = fence_req(&acts);
        // A handoff bumps the epoch while the fan-out is in flight; the new
        // incarnation probes, then runs its own fence under the new epoch.
        let acts = m.on_table_handoff(vec![HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 0,
            epoch: 4,
        }]);
        assert_eq!(m.entry_epoch(key()), Some(5));
        let acts = probe_empty(&mut m, &acts);
        assert_eq!(fence_req(&acts).1, 5);
        let acts = m.fence_done(ft, FenceOutcome::Acked { occupied: false });
        assert!(acts.is_empty(), "{acts:?}");
        assert_eq!(
            m.stage(key()),
            Some(Stage::Fencing { stale: false }),
            "the superseded completion must not ack the new entry's fence"
        );
    }

    #[test]
    fn publish_ok_after_export_and_repromotion_drives_the_new_entry() {
        let mut m = KtsMaster::new(KtsConfig::default());
        let acts = validate(&mut m, 1, 0, 1);
        let acts = probe_empty(&mut m, &acts);
        let acts = complete_fence(&mut m, &acts);
        let publish = publish_token(&acts);
        // A joiner takes the arc mid-publish; we keep a backup at ts 0 …
        let (exported, _) = m.export_range(Id(0), Id(100));
        assert_eq!(exported.len(), 1);
        // … and promote it again at once (the joiner left): epoch 2, with
        // its own probe in flight.
        let acts = validate(&mut m, 2, 0, 2);
        let first_probe = probe_token(&acts);
        assert_eq!(m.entry_epoch(key()), Some(2));
        // The old incarnation's publish lands on the new one: the user is
        // granted ts 1 at epoch 1, the new entry's last_ts is *assigned*
        // 1 and backed up at epoch 2, and because it was still probing it
        // starts a second probe with the first outstanding.
        let acts = m.publish_done(publish, PublishOutcome::Ok);
        let doc = DocName::new("doc");
        match acts.as_slice() {
            [MasterAction::Send(
                to,
                KtsMsg::Granted {
                    op,
                    ts: 1,
                    epoch: 1,
                },
            ), MasterAction::ReplicateToSucc { entry }, MasterAction::Event(MasterEvent::Granted { ts: 1, .. }), MasterAction::BeginProbe { token, base: 1, .. }] =>
            {
                assert_eq!((*to, *op), (NodeId(1), ReqId(1)));
                let backed_up = HandoffEntry {
                    key: key(),
                    key_name: doc,
                    last_ts: 1,
                    epoch: 2,
                };
                assert_eq!(entry, &backed_up);
                assert_ne!(*token, first_probe);
            }
            other => panic!("unexpected actions {other:?}"),
        }
        assert_eq!(m.stage(key()), Some(Stage::Probing));
    }

    #[test]
    fn probe_done_after_handoff_drives_the_replacing_entry() {
        let mut m = KtsMaster::new(KtsConfig::default());
        let old_probe = probe_token(&validate(&mut m, 1, 0, 1));
        // A handoff replaces the live, probing entry: the new incarnation
        // (epoch 5) keeps the queue and starts its own probe.
        let acts = m.on_table_handoff(vec![HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 0,
            epoch: 4,
        }]);
        let new_probe = probe_token(&acts);
        // The old probe's result verifies the new entry, which fences …
        let acts = m.probe_done(old_probe, 0, 0);
        let (first_fence, epoch, last_ts) = fence_req(&acts);
        assert_eq!((epoch, last_ts), (5, 0));
        assert_eq!(acts.len(), 1, "{acts:?}");
        // … and its own probe, landing mid-fence, fences a second time.
        let acts = m.probe_done(new_probe, 0, 0);
        let (second_fence, epoch, _) = fence_req(&acts);
        assert_eq!(epoch, 5);
        // Same epoch, entry `Fencing`: the first fence's ack counts and the
        // grant goes out while the second fence is still outstanding.
        let acts = m.fence_done(first_fence, FenceOutcome::Acked { occupied: false });
        publish_token(&acts);
        assert_eq!(m.stage(key()), Some(Stage::Publishing { stale: false }));
        // The second ack arrives while publishing and is dropped.
        let acts = m.fence_done(second_fence, FenceOutcome::Acked { occupied: false });
        assert!(acts.is_empty(), "{acts:?}");
    }
}
