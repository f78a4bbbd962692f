//! Stabilization, failure detection, finger repair, and churn handoff.
//!
//! The paper implemented "our own successor management and stabilization
//! protocols on top of Open Chord … since the ones proposed by Open Chord
//! are not suited to P2P-LTR". The LTR-specific requirement is that
//! responsibility changes are *observable*: every predecessor change is
//! surfaced as an event so the timestamping layer can hand over `last-ts`
//! state, and storage moves with responsibility.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::indexing_slicing, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

use crate::events::ChordEvent;
use crate::id::Id;
use crate::msg::{ChordMsg, NodeRef};
use crate::node::{ChordNode, OpKind};
use bytes::Bytes;
use simnet::{Duration, NodeId, Time};

// Every run uses these values, so they are constants, not `ChordConfig`
// fields; a field comes back when an experiment row or a test must vary
// one.

/// Successor-list length `r`: the ring survives `r - 1` simultaneous
/// failures of consecutive nodes.
pub const SUCC_LIST_LEN: usize = 4;
const _: () = assert!(
    SUCC_LIST_LEN >= 2,
    "a list of one cannot repair a failed head"
);
/// Period of the stabilize round (successor pointer repair).
pub const STABILIZE_EVERY: Duration = Duration::from_millis(250);
/// Period of finger repair (one finger per round, round-robin).
pub const FIX_FINGERS_EVERY: Duration = Duration::from_millis(100);
/// Period of the predecessor liveness probe.
pub const CHECK_PRED_EVERY: Duration = Duration::from_millis(500);
/// Period of the Merkle anti-entropy round (storage replica sync).
pub const REPLICATE_EVERY: Duration = Duration::from_millis(1_000);

impl ChordNode {
    /// Periodic stabilize round: verify the successor pointer and notify.
    pub(crate) fn tick_stabilize(&mut self, now: Time) {
        self.arm(STABILIZE_EVERY, crate::events::ChordTimer::Stabilize);
        if !self.joined {
            return;
        }
        self.prune_suspects(now);
        let succ = self.successor();
        if succ.id == self.me.id {
            // Singleton: if someone notified us, they become our successor
            // (the classic two-node bootstrap step, handled locally).
            if let Some(p) = self.pred {
                if p.id != self.me.id {
                    self.integrate_successor(p);
                    let new_succ = self.successor();
                    self.send(new_succ.addr, ChordMsg::Notify { candidate: self.me });
                }
            }
            return;
        }
        let op = self.new_op(OpKind::StabilizeGetPred { asked: succ });
        self.send(succ.addr, ChordMsg::GetPredecessor { op });
        self.arm_op_timeout(op);
    }

    /// Stabilize response from our successor.
    pub(crate) fn on_predecessor_is(
        &mut self,
        now: Time,
        op: crate::msg::OpId,
        pred: Option<NodeRef>,
        succ_list: Vec<NodeRef>,
    ) {
        let asked = match self.ops.remove(&op) {
            Some(s) => match s.kind {
                OpKind::StabilizeGetPred { asked } => asked,
                _ => return,
            },
            None => return,
        };
        // The round completed: the successor answered.
        self.succ_fails = 0;
        // Adopt the successor's predecessor if it sits between us.
        let mut new_succ = asked;
        if let Some(p) = pred {
            if p.id.in_open(self.me.id, asked.id) && !self.is_suspect(p.addr, now) {
                new_succ = p;
            }
        }
        // Rebuild the successor list: entry point first, then the
        // responder's list, stopping at ourselves (small rings wrap).
        let mut rebuilt: Vec<NodeRef> = Vec::with_capacity(SUCC_LIST_LEN + 2);
        let push_unique = |r: NodeRef, v: &mut Vec<NodeRef>| {
            if r.id != self.me.id && !v.iter().any(|x| x.id == r.id) {
                v.push(r);
            }
        };
        push_unique(new_succ, &mut rebuilt);
        if new_succ.id == asked.id {
            for s in &succ_list {
                if s.id == self.me.id {
                    break;
                }
                push_unique(*s, &mut rebuilt);
            }
        } else {
            push_unique(asked, &mut rebuilt);
            for s in &succ_list {
                if s.id == self.me.id {
                    break;
                }
                push_unique(*s, &mut rebuilt);
            }
        }
        rebuilt.retain(|s| !self.is_suspect(s.addr, now));
        rebuilt.truncate(SUCC_LIST_LEN);
        if rebuilt.is_empty() {
            rebuilt.push(self.me);
        }
        self.succs = rebuilt;
        let head = self.successor();
        if head.id != self.me.id {
            self.send(head.addr, ChordMsg::Notify { candidate: self.me });
        }
    }

    /// `Notify{candidate}`: maybe adopt a new predecessor, emitting the
    /// responsibility-change event and handing over the keys the candidate
    /// now owns.
    pub(crate) fn on_notify(&mut self, _now: Time, candidate: NodeRef) {
        if candidate.id == self.me.id {
            return;
        }
        let adopt = match self.pred {
            None => true,
            Some(p) => candidate.id.in_open(p.id, self.me.id),
        };
        if !adopt {
            return;
        }
        let old = self.pred;
        self.pred = Some(candidate);
        self.pred_fails = 0;
        // Any replica we hold for our own (new) range should be primary.
        let promoted = self
            .store
            .promote_replicas_in_range(candidate.id, self.me.id);
        if promoted > 0 {
            self.store_version += 1;
        }
        // Hand over the arc the candidate is now responsible for:
        // (old_pred, candidate]; with no previous predecessor, everything
        // outside our own new range, i.e. (me, candidate].
        let from = old.map_or(self.me.id, |p| p.id);
        let items = self.store.extract_primary_range(from, candidate.id);
        if !items.is_empty() {
            self.store_version += 1;
            self.send(candidate.addr, ChordMsg::TransferKeys { items });
        }
        self.emit(ChordEvent::PredecessorChanged {
            old,
            new: Some(candidate),
        });
    }

    /// Periodic predecessor liveness probe.
    pub(crate) fn tick_check_predecessor(&mut self, _now: Time) {
        self.arm(
            CHECK_PRED_EVERY,
            crate::events::ChordTimer::CheckPredecessor,
        );
        if !self.joined {
            return;
        }
        if let Some(p) = self.pred {
            if p.id == self.me.id {
                return;
            }
            let op = self.new_op(OpKind::PingPred { target: p });
            self.send(p.addr, ChordMsg::Ping { op });
            self.arm_op_timeout(op);
        }
    }

    /// Periodic finger repair: one finger per round, round-robin.
    pub(crate) fn tick_fix_fingers(&mut self, now: Time) {
        self.arm(FIX_FINGERS_EVERY, crate::events::ChordTimer::FixFingers);
        if !self.joined || self.successor().id == self.me.id {
            return;
        }
        let idx = self.next_finger;
        self.next_finger = (self.next_finger + 1) % crate::id::M;
        let target = self.me.id.plus_pow2(idx);
        let op = self.new_op(OpKind::FingerLookup { idx });
        self.issue_lookup(now, op, target, 0);
        self.arm_op_timeout(op);
    }

    /// Periodic replica synchronization tick. Sweeps *orphaned* primaries
    /// back to their true owners, then runs a Merkle-diff anti-entropy
    /// round (see [`crate::sync`]).
    pub(crate) fn tick_replicate(&mut self, now: Time) {
        self.arm(REPLICATE_EVERY, crate::events::ChordTimer::Replicate);
        if !self.joined {
            return;
        }
        self.rehome_orphans(now);
        self.tick_replicate_merkle();
    }

    /// Re-home orphaned primaries: items we hold in the primary bucket for
    /// ranges we do not own. They are stored-but-unreachable — reads are
    /// lookup-routed to the true owner, which misses — and arise when a
    /// put landed here while our ring view was split (e.g. under message
    /// loss we briefly believed our predecessor was gone). Re-insert each
    /// at the true owner with an ordinary first-writer put and demote our
    /// copy to a replica once acked. A node with a consistent ring view
    /// has no orphans, so a clean run never enters this path — and the
    /// sweep costs it one ordered range probe, not a pass over the store:
    /// the orphans are exactly the primaries in the complement arc
    /// `(me, pred]`.
    fn rehome_orphans(&mut self, now: Time) {
        /// Puts started per sweep (orphans are rare; bound the burst).
        const MAX_REHOMES_PER_SWEEP: usize = 16;
        // No (or a self-pointing) predecessor: we answer for every key.
        let Some(pred) = self.pred.filter(|p| p.id != self.me.id) else {
            return;
        };
        let orphans: Vec<(Id, Bytes)> = self
            .store
            .primary_in_arc(self.me.id, pred.id)
            .filter(|(k, _)| !self.rehoming_keys.contains(*k))
            .map(|(k, v)| (*k, v.clone()))
            .take(MAX_REHOMES_PER_SWEEP)
            .collect();
        for (key, value) in orphans {
            // Epoch-stamped records re-home with ranked arbitration so a
            // superseded copy can never displace (or spuriously conflict
            // with) a higher-ranked record at the true owner.
            let mode = if crate::storage::value_rank(&value) > 0 {
                crate::msg::PutMode::Ranked
            } else {
                crate::msg::PutMode::FirstWriter
            };
            let op = self.new_op(OpKind::Put {
                key,
                value,
                mode,
                owner: None,
            });
            self.rehoming.insert(op, key);
            self.rehoming_keys.insert(key);
            self.issue_lookup(now, op, key, 0);
            self.arm_op_timeout(op);
        }
    }

    /// Receive a replica push from a predecessor-side owner: exactly the
    /// proven-missing records during a Merkle sync round, or the eager
    /// copy of a fresh write.
    pub(crate) fn on_replicate(&mut self, _now: Time, from: NodeId, items: Vec<(Id, Bytes)>) {
        let mut touched_primary = false;
        for (k, v) in items {
            if self.is_responsible(k) {
                // Responsibility already shifted to us: adopt as primary,
                // without clobbering anything newer we wrote ourselves.
                if self.store.get_primary(k).is_none() {
                    self.store.put_primary(k, v);
                    touched_primary = true;
                }
            } else {
                self.store.put_replica(k, v);
            }
        }
        if touched_primary {
            self.store_version += 1;
        }
        // During a Merkle round the transfer is the last phase: check
        // whether it brought us up to the session root and ack. (No
        // session — e.g. an eager copy — makes this a no-op.)
        if self.sync_in.contains_key(&from) {
            self.advance_sync(from, false);
        }
    }

    /// Receive a responsibility handoff (we own these now).
    pub(crate) fn on_transfer_keys(&mut self, _now: Time, items: Vec<(Id, Bytes)>) {
        let count = items.len();
        for (k, v) in items {
            self.store.put_primary(k, v);
        }
        if count > 0 {
            self.store_version += 1;
        }
        self.emit(ChordEvent::KeysReceived { count });
    }

    /// A graceful leaver handed us its primary items and its predecessor.
    pub(crate) fn on_leave_to_succ(
        &mut self,
        _now: Time,
        from: NodeId,
        pred_of_leaver: Option<NodeRef>,
        items: Vec<(Id, Bytes)>,
    ) {
        let count = items.len();
        for (k, v) in items {
            self.store.put_primary(k, v);
        }
        if count > 0 {
            self.store_version += 1;
        }
        let leaving_pred = self.pred.is_some_and(|p| p.addr == from);
        if leaving_pred || self.pred.is_none() {
            let old = self.pred;
            self.pred = pred_of_leaver.filter(|p| p.id != self.me.id);
            self.pred_fails = 0;
            if let Some(p) = self.pred {
                let promoted = self.store.promote_replicas_in_range(p.id, self.me.id);
                if promoted > 0 {
                    self.store_version += 1;
                }
            }
            self.emit(ChordEvent::PredecessorChanged {
                old,
                new: self.pred,
            });
        }
        self.emit(ChordEvent::KeysReceived { count });
    }

    /// A graceful leaver pointed us at its successor.
    pub(crate) fn on_leave_to_pred(&mut self, _now: Time, from: NodeId, succ_of_leaver: NodeRef) {
        self.succs.retain(|s| s.addr != from);
        self.integrate_successor(succ_of_leaver);
        if self.succs.is_empty() {
            self.succs.push(self.me);
        }
        let head = self.successor();
        if head.id != self.me.id {
            self.send(head.addr, ChordMsg::Notify { candidate: self.me });
        }
    }
}
