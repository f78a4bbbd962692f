//! The direct phase of the storage protocol: `Put`/`Get` requests arriving
//! at the responsible node and their acknowledgements at the origin.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::indexing_slicing, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

use bytes::Bytes;

use crate::events::ChordEvent;
use crate::id::Id;
use crate::msg::{ChordMsg, NodeRef, OpId, PutMode};
use crate::node::{ChordNode, OpKind};
use simnet::Time;

impl ChordNode {
    /// A `Put` arrived; we should be the owner.
    pub(crate) fn on_put(
        &mut self,
        _now: Time,
        op: OpId,
        key: Id,
        value: Bytes,
        mode: PutMode,
        origin: NodeRef,
    ) {
        if !self.joined || !self.is_responsible(key) {
            // Retryable refusal: ownership moved; origin re-resolves.
            self.send(
                origin.addr,
                ChordMsg::PutAck {
                    op,
                    ok: false,
                    existing: None,
                },
            );
            return;
        }
        let (ok, existing) = self.apply_put_local(key, value, mode);
        self.send(origin.addr, ChordMsg::PutAck { op, ok, existing });
    }

    /// Our earlier `Put` was answered.
    pub(crate) fn on_put_ack(&mut self, now: Time, op: OpId, ok: bool, existing: Option<Bytes>) {
        let is_put = matches!(self.ops.get(&op).map(|s| &s.kind), Some(OpKind::Put { .. }));
        if !is_put {
            return; // late duplicate
        }
        if ok {
            self.finish_put(op, true, None);
        } else if existing.is_some() {
            // First-writer conflict: definitive failure, report the winner.
            self.finish_put(op, false, existing);
        } else {
            // Wrong owner: re-resolve and retry.
            self.retry_from_lookup(now, op);
        }
    }

    /// A `Fence` arrived; we should be the owner of the fenced key.
    pub(crate) fn on_fence(&mut self, _now: Time, op: OpId, key: Id, floor: u64, origin: NodeRef) {
        if !self.joined || !self.is_responsible(key) {
            // Retryable refusal (`current: 0` — real floors are ≥ 1):
            // ownership moved; the origin re-resolves.
            self.send(
                origin.addr,
                ChordMsg::FenceAck {
                    op,
                    ok: false,
                    current: 0,
                    occupied: false,
                },
            );
            return;
        }
        let (ok, current) = match self.store.raise_fence(key, floor, origin.id.0) {
            Ok(()) => (true, floor),
            Err(cur) => (false, cur),
        };
        let occupied = self.store.get_primary(key).is_some();
        self.send(
            origin.addr,
            ChordMsg::FenceAck {
                op,
                ok,
                current,
                occupied,
            },
        );
    }

    /// Our earlier `Fence` was answered.
    pub(crate) fn on_fence_ack(
        &mut self,
        now: Time,
        op: OpId,
        ok: bool,
        current: u64,
        occupied: bool,
    ) {
        let is_fence = matches!(
            self.ops.get(&op).map(|s| &s.kind),
            Some(OpKind::Fence { .. })
        );
        if !is_fence {
            return; // late duplicate
        }
        if ok || current > 0 {
            // Definitive: the floor is in force, or a rival's higher (or
            // equal, different-origin) floor already is.
            self.finish_fence(op, ok, current, occupied);
        } else {
            // Wrong owner: re-resolve and retry.
            self.retry_from_lookup(now, op);
        }
    }

    /// A `Get` arrived. Serve from primary or replica bucket; flag whether
    /// our answer is authoritative (we own the key).
    pub(crate) fn on_get(&mut self, _now: Time, op: OpId, key: Id, origin: NodeRef) {
        let value = self.store.get(key).cloned();
        let authoritative = self.joined && self.is_responsible(key);
        self.send(
            origin.addr,
            ChordMsg::GetReply {
                op,
                value,
                authoritative,
            },
        );
    }

    /// Our earlier `Get` was answered.
    pub(crate) fn on_get_reply(
        &mut self,
        now: Time,
        op: OpId,
        value: Option<Bytes>,
        authoritative: bool,
    ) {
        let is_get = matches!(self.ops.get(&op).map(|s| &s.kind), Some(OpKind::Get { .. }));
        if !is_get {
            return;
        }
        if value.is_some() || authoritative {
            self.ops.remove(&op);
            self.emit(ChordEvent::GetDone {
                op,
                value,
                ok: true,
            });
        } else {
            self.retry_from_lookup(now, op);
        }
    }
}
