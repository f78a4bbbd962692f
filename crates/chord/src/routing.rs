//! Lookup routing: recursive `FindSuccessor` forwarding with a direct reply
//! to the origin, plus operation retry/timeout logic.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::indexing_slicing, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

use bytes::Bytes;

use crate::events::ChordEvent;
use crate::id::Id;
use crate::msg::{ChordMsg, NodeRef, OpId, PutMode};
use crate::node::{ChordNode, OpKind};
use simnet::Time;

/// Tries of a lookup / put / get (or a join) before it is reported failed,
/// the first try included. A constant, not a knob: no experiment or test
/// varies it.
const MAX_ATTEMPTS: u32 = 4;
const _: () = assert!(MAX_ATTEMPTS >= 2, "a timed-out op gets at least one retry");

/// Routing loop guard: a lookup forwarded more hops than this is dropped
/// and left to the origin's timeout (three times the 64 fingers of the
/// ring). A constant, not a knob: no experiment or test varies it.
const MAX_HOPS: u32 = 3 * 64;

impl ChordNode {
    /// Start (or restart) the lookup phase of operation `op` for `target`.
    /// `attempt` selects the entry path: attempt 0 routes greedily through
    /// fingers; later attempts enter via successive successor-list entries,
    /// which guarantees progress while fingers are stale after churn.
    pub(crate) fn issue_lookup(&mut self, now: Time, op: OpId, target: Id, attempt: u32) {
        if attempt == 0 || self.succs.is_empty() {
            self.on_find_successor(now, op, target, self.me, 0);
        } else {
            let idx = ((attempt - 1) as usize) % self.succs.len();
            #[expect(
                clippy::indexing_slicing,
                reason = "idx is reduced modulo the non-empty successor list's length"
            )]
            let via = self.succs[idx];
            if via.id == self.me.id {
                self.on_find_successor(now, op, target, self.me, 0);
            } else {
                self.send(
                    via.addr,
                    ChordMsg::FindSuccessor {
                        op,
                        target,
                        origin: self.me,
                        hops: 1,
                    },
                );
            }
        }
    }

    /// Handle a routed `FindSuccessor`, either answering the origin or
    /// forwarding one hop closer.
    pub(crate) fn on_find_successor(
        &mut self,
        now: Time,
        op: OpId,
        target: Id,
        origin: NodeRef,
        hops: u32,
    ) {
        if hops > MAX_HOPS {
            return; // loop guard: drop; the origin's timeout handles it
        }
        if !self.joined {
            return;
        }
        let succ = self.successor();
        // Singleton ring: we own everything.
        if succ.id == self.me.id {
            self.reply_found(origin, op, self.me, hops);
            return;
        }
        if target.in_half_open(self.me.id, succ.id) {
            self.reply_found(origin, op, succ, hops);
            return;
        }
        match self.closest_preceding_node(now, target) {
            Some(next) if next.id != self.me.id => {
                self.send(
                    next.addr,
                    ChordMsg::FindSuccessor {
                        op,
                        target,
                        origin,
                        hops: hops + 1,
                    },
                );
            }
            _ => {
                // No better hop known: our successor is the best answer.
                self.reply_found(origin, op, succ, hops);
            }
        }
    }

    fn reply_found(&mut self, origin: NodeRef, op: OpId, owner: NodeRef, hops: u32) {
        if origin.addr == self.me.addr {
            // Local shortcut: complete without a network round-trip.
            self.complete_lookup(Time::ZERO, op, owner, hops);
        } else {
            self.send(origin.addr, ChordMsg::FoundSuccessor { op, owner, hops });
        }
    }

    /// Greedy routing choice: the known node closest *before* `target`,
    /// skipping currently suspected nodes.
    pub(crate) fn closest_preceding_node(&self, now: Time, target: Id) -> Option<NodeRef> {
        let me = self.me.id;
        let mut best: Option<NodeRef> = None;
        let consider = |cand: NodeRef, best: &mut Option<NodeRef>| {
            if cand.id.in_open(me, target)
                && cand.addr != self.me.addr
                && !self.is_suspect(cand.addr, now)
            {
                let better = match *best {
                    None => true,
                    // Closer to target = larger clockwise distance from me.
                    Some(b) => me.distance_to(cand.id) > me.distance_to(b.id),
                };
                if better {
                    *best = Some(cand);
                }
            }
        };
        for f in self.fingers.iter().flatten() {
            consider(*f, &mut best);
        }
        for s in &self.succs {
            consider(*s, &mut best);
        }
        best
    }

    /// A lookup answer arrived (or was produced locally).
    pub(crate) fn on_found_successor(&mut self, now: Time, op: OpId, owner: NodeRef, hops: u32) {
        self.complete_lookup(now, op, owner, hops);
    }

    pub(crate) fn complete_lookup(&mut self, _now: Time, op: OpId, owner: NodeRef, hops: u32) {
        let state = match self.ops.get(&op) {
            Some(s) => s.clone(),
            None => return, // late duplicate answer
        };
        match state.kind {
            OpKind::Join { .. } => {
                self.ops.remove(&op);
                self.complete_join(owner);
            }
            OpKind::Lookup { .. } => {
                self.ops.remove(&op);
                self.emit(ChordEvent::LookupDone { op, owner, hops });
            }
            OpKind::FingerLookup { idx } => {
                self.ops.remove(&op);
                if let Some(finger) = self.fingers.get_mut(idx) {
                    *finger = Some(owner);
                }
            }
            OpKind::Put {
                key, value, mode, ..
            } => {
                if owner.addr == self.me.addr {
                    if let Some(k) = self.rehoming.remove(&op) {
                        // An orphan re-home resolved back to us: either
                        // responsibility genuinely returned, or the routing
                        // view and the predecessor-range test disagree
                        // mid-heal. Both ways the record must stay primary
                        // here — self-applying and then demoting (the normal
                        // re-home completion) would leave it with no primary
                        // anywhere in the ring. A later sweep retries once
                        // the views settle.
                        self.rehoming_keys.remove(&k);
                        self.ops.remove(&op);
                        return;
                    }
                    // We are the owner: apply locally, ack synchronously.
                    let (ok, existing) = self.apply_put_local(key, value, mode);
                    self.finish_put(op, ok, existing);
                } else {
                    if let Some(s) = self.ops.get_mut(&op) {
                        s.kind = OpKind::Put {
                            key,
                            value: value.clone(),
                            mode,
                            owner: Some(owner),
                        };
                    }
                    self.send(
                        owner.addr,
                        ChordMsg::Put {
                            op,
                            key,
                            value,
                            mode,
                            origin: self.me,
                        },
                    );
                    self.arm_op_timeout(op);
                }
            }
            OpKind::Get { key, .. } => {
                if owner.addr == self.me.addr {
                    let value = self.store.get(key).cloned();
                    self.ops.remove(&op);
                    self.emit(ChordEvent::GetDone {
                        op,
                        value,
                        ok: true,
                    });
                } else {
                    if let Some(s) = self.ops.get_mut(&op) {
                        s.kind = OpKind::Get {
                            key,
                            owner: Some(owner),
                        };
                    }
                    self.send(
                        owner.addr,
                        ChordMsg::Get {
                            op,
                            key,
                            origin: self.me,
                        },
                    );
                    self.arm_op_timeout(op);
                }
            }
            OpKind::Fence { key, floor, .. } => {
                if owner.addr == self.me.addr {
                    let origin = self.me.id.0;
                    let (ok, current) = match self.store.raise_fence(key, floor, origin) {
                        Ok(()) => (true, floor),
                        Err(cur) => (false, cur),
                    };
                    let occupied = self.store.get_primary(key).is_some();
                    self.finish_fence(op, ok, current, occupied);
                } else {
                    if let Some(s) = self.ops.get_mut(&op) {
                        s.kind = OpKind::Fence {
                            key,
                            floor,
                            owner: Some(owner),
                        };
                    }
                    self.send(
                        owner.addr,
                        ChordMsg::Fence {
                            op,
                            key,
                            floor,
                            origin: self.me,
                        },
                    );
                    self.arm_op_timeout(op);
                }
            }
            OpKind::StabilizeGetPred { .. } | OpKind::PingPred { .. } => {
                // These ops never go through lookups.
            }
        }
    }

    /// An operation's timeout fired. If the op is still pending, retry or
    /// fail it.
    pub(crate) fn on_op_timeout(&mut self, now: Time, op: OpId) {
        let state = match self.ops.get_mut(&op) {
            Some(s) => s,
            None => return, // completed before the timeout
        };
        state.attempts += 1;
        let attempts = state.attempts;
        let kind = state.kind.clone();
        match kind {
            OpKind::Join { bootstrap } => {
                if attempts >= MAX_ATTEMPTS {
                    self.ops.remove(&op);
                    self.emit(ChordEvent::JoinFailed);
                } else {
                    self.send(
                        bootstrap.addr,
                        ChordMsg::FindSuccessor {
                            op,
                            target: self.me.id,
                            origin: self.me,
                            hops: 0,
                        },
                    );
                    self.arm_op_timeout(op);
                }
            }
            OpKind::Lookup { target } => {
                if attempts >= MAX_ATTEMPTS {
                    self.ops.remove(&op);
                    self.emit(ChordEvent::LookupFailed { op });
                } else {
                    self.issue_lookup(now, op, target, attempts);
                    self.arm_op_timeout(op);
                }
            }
            OpKind::FingerLookup { .. } => {
                // Fingers are repaired periodically; no retries.
                self.ops.remove(&op);
            }
            OpKind::Put {
                key,
                value,
                mode,
                owner,
            } => {
                if let Some(o) = owner {
                    self.mark_suspect(o.addr, now);
                }
                if attempts >= MAX_ATTEMPTS {
                    self.finish_put(op, false, None);
                } else {
                    // Restart from the lookup phase; ownership may have moved.
                    if let Some(s) = self.ops.get_mut(&op) {
                        s.kind = OpKind::Put {
                            key,
                            value,
                            mode,
                            owner: None,
                        };
                    }
                    self.issue_lookup(now, op, key, attempts);
                    self.arm_op_timeout(op);
                }
            }
            OpKind::Get { key, owner } => {
                if let Some(o) = owner {
                    self.mark_suspect(o.addr, now);
                }
                if attempts >= MAX_ATTEMPTS {
                    self.ops.remove(&op);
                    self.emit(ChordEvent::GetDone {
                        op,
                        value: None,
                        ok: false,
                    });
                } else {
                    if let Some(s) = self.ops.get_mut(&op) {
                        s.kind = OpKind::Get { key, owner: None };
                    }
                    self.issue_lookup(now, op, key, attempts);
                    self.arm_op_timeout(op);
                }
            }
            OpKind::Fence { key, floor, owner } => {
                if let Some(o) = owner {
                    self.mark_suspect(o.addr, now);
                }
                if attempts >= MAX_ATTEMPTS {
                    self.finish_fence(op, false, 0, false);
                } else {
                    if let Some(s) = self.ops.get_mut(&op) {
                        s.kind = OpKind::Fence {
                            key,
                            floor,
                            owner: None,
                        };
                    }
                    self.issue_lookup(now, op, key, attempts);
                    self.arm_op_timeout(op);
                }
            }
            OpKind::StabilizeGetPred { asked } => {
                self.ops.remove(&op);
                // One lost reply must not drop a live successor: a split
                // ring view lets two nodes accept writes for the same key
                // range. Require consecutive losses (see
                // `ChordConfig::fail_threshold`).
                if self.successor().addr == asked.addr {
                    self.succ_fails += 1;
                    if self.succ_fails >= self.cfg.fail_threshold {
                        self.succ_fails = 0;
                        self.mark_suspect(asked.addr, now);
                        self.drop_successor(asked.addr);
                    }
                }
            }
            OpKind::PingPred { target } => {
                self.ops.remove(&op);
                if self.pred.is_some_and(|p| p.addr == target.addr) {
                    self.pred_fails += 1;
                    if self.pred_fails >= self.cfg.fail_threshold {
                        self.pred_fails = 0;
                        self.mark_suspect(target.addr, now);
                        let old = self.pred.take();
                        self.emit(ChordEvent::PredecessorChanged { old, new: None });
                    }
                }
            }
        }
    }

    /// Terminal point of every put op, whatever path ended it: report the
    /// outcome to the embedding — or, for an orphan re-home put (see
    /// `rehome_orphans`), absorb it here. On success (or a first-writer
    /// conflict, which means the true owner already arbitrates the key)
    /// the orphaned primary is demoted to a replica; on failure it stays
    /// primary so the next sweep retries. Re-home ops never surface as
    /// `PutDone` events. Routing every ending through this single helper
    /// is what guarantees the `rehoming` table cannot leak an entry —
    /// a leaked key would be excluded from all future sweeps.
    pub(crate) fn finish_put(&mut self, op: OpId, ok: bool, conflict: Option<Bytes>) {
        self.ops.remove(&op);
        if let Some(key) = self.rehoming.remove(&op) {
            self.rehoming_keys.remove(&key);
            // Responsibility may have returned to us while the re-home was
            // in flight (our predecessor died again): then the key is no
            // longer an orphan and must stay primary here.
            if (ok || conflict.is_some())
                && !self.is_responsible(key)
                && self.store.demote_to_replica(key)
            {
                self.store_version += 1;
            }
            return;
        }
        self.emit(ChordEvent::PutDone { op, ok, conflict });
    }

    /// Used by the storage protocol when a put/get reply indicates we asked
    /// the wrong owner (`retryable` failure): restart the lookup phase.
    pub(crate) fn retry_from_lookup(&mut self, now: Time, op: OpId) {
        let state = match self.ops.get_mut(&op) {
            Some(s) => s,
            None => return,
        };
        state.attempts += 1;
        let attempts = state.attempts;
        let kind = state.kind.clone();
        match kind {
            OpKind::Put {
                key, value, mode, ..
            } => {
                if attempts >= MAX_ATTEMPTS {
                    self.finish_put(op, false, None);
                } else {
                    if let Some(s) = self.ops.get_mut(&op) {
                        s.kind = OpKind::Put {
                            key,
                            value,
                            mode,
                            owner: None,
                        };
                    }
                    self.issue_lookup(now, op, key, attempts);
                    self.arm_op_timeout(op);
                }
            }
            OpKind::Get { key, .. } => {
                if attempts >= MAX_ATTEMPTS {
                    self.ops.remove(&op);
                    self.emit(ChordEvent::GetDone {
                        op,
                        value: None,
                        ok: false,
                    });
                } else {
                    if let Some(s) = self.ops.get_mut(&op) {
                        s.kind = OpKind::Get { key, owner: None };
                    }
                    self.issue_lookup(now, op, key, attempts);
                    self.arm_op_timeout(op);
                }
            }
            OpKind::Fence { key, floor, .. } => {
                if attempts >= MAX_ATTEMPTS {
                    self.finish_fence(op, false, 0, false);
                } else {
                    if let Some(s) = self.ops.get_mut(&op) {
                        s.kind = OpKind::Fence {
                            key,
                            floor,
                            owner: None,
                        };
                    }
                    self.issue_lookup(now, op, key, attempts);
                    self.arm_op_timeout(op);
                }
            }
            _ => {}
        }
    }

    /// Terminal point of every fence op: report the outcome. `current` is
    /// 0 when the op died unanswered (vs. a definitive rejection, which
    /// always carries the winning floor ≥ 1).
    pub(crate) fn finish_fence(&mut self, op: OpId, ok: bool, current: u64, occupied: bool) {
        self.ops.remove(&op);
        self.emit(ChordEvent::FenceDone {
            op,
            ok,
            current,
            occupied,
        });
    }

    pub(crate) fn apply_put_local(
        &mut self,
        key: Id,
        value: bytes::Bytes,
        mode: PutMode,
    ) -> (bool, Option<bytes::Bytes>) {
        self.store_version += 1;
        match mode {
            PutMode::Overwrite => {
                self.store.put_primary(key, value.clone());
                self.eager_replicate_item(key, value);
                (true, None)
            }
            PutMode::FirstWriter => match self.store.put_primary_first_writer(key, value.clone()) {
                Ok(()) => {
                    self.eager_replicate_item(key, value);
                    (true, None)
                }
                Err(existing) => (false, Some(existing)),
            },
            PutMode::Ranked => match self.store.put_primary_ranked(key, value.clone()) {
                Ok(()) => {
                    self.eager_replicate_item(key, value);
                    (true, None)
                }
                // A fenced-but-empty slot has no surviving record to show;
                // report an empty conflict value so the origin still sees
                // a definitive rejection (not a retryable wrong-owner nack).
                Err(existing) => (false, Some(existing.unwrap_or_default())),
            },
        }
    }

    /// Push a freshly written item to the first `storage_replicas`
    /// successors immediately (the periodic push is only a repair path).
    fn eager_replicate_item(&mut self, key: Id, value: bytes::Bytes) {
        let succs: Vec<NodeRef> = self
            .succs
            .iter()
            .filter(|s| s.id != self.me.id)
            .take(self.cfg.storage_replicas)
            .copied()
            .collect();
        for s in succs {
            self.send(
                s.addr,
                ChordMsg::Replicate {
                    items: vec![(key, value.clone())],
                },
            );
        }
    }
}
