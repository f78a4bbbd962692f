//! [`Encode`]/[`Decode`] implementations for every protocol message that
//! crosses a node boundary: the Chord DHT messages, the KTS timestamping
//! messages, and the P2P-Log record.
//!
//! Layout conventions:
//!
//! * enum variants are a one-byte tag followed by their fields in
//!   declaration order;
//! * ring identifiers ([`Id`]) are fixed 8-byte little-endian (uniformly
//!   distributed values — a varint would cost more);
//! * handles, timestamps and counts are canonical varints;
//! * names are length-prefixed UTF-8, payloads length-prefixed bytes.
//!
//! Tags are part of the wire contract: **append new variants, never
//! renumber**. The `frozen_encodings` test pins representative byte
//! strings.

use chord::{ChordMsg, DocName, Id, NodeRef, OpId, PutMode};
use kts::{HandoffEntry, KtsMsg, ReqId, ValidateFailure};
use p2plog::LogRecord;
use simnet::NodeId;

use crate::codec::{Decode, Encode, Reader, WireError};

impl Encode for Id {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Decode for Id {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Id(r.read_u64_le()?))
    }
}

impl Encode for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

impl Decode for NodeId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeId(u32::decode(r)?))
    }
}

impl Encode for OpId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

impl Decode for OpId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OpId(u64::decode(r)?))
    }
}

impl Encode for ReqId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

impl Decode for ReqId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ReqId(u64::decode(r)?))
    }
}

impl Encode for NodeRef {
    fn encode(&self, out: &mut Vec<u8>) {
        self.addr.encode(out);
        self.id.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.addr.encoded_len() + self.id.encoded_len()
    }
}

impl Decode for NodeRef {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeRef {
            addr: NodeId::decode(r)?,
            id: Id::decode(r)?,
        })
    }
}

impl Encode for DocName {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.as_str().encoded_len()
    }
}

impl Decode for DocName {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DocName::new(r.read_str()?))
    }
}

impl Encode for PutMode {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            PutMode::Overwrite => 0,
            PutMode::FirstWriter => 1,
            PutMode::Ranked => 2,
        });
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for PutMode {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(PutMode::Overwrite),
            1 => Ok(PutMode::FirstWriter),
            2 => Ok(PutMode::Ranked),
            tag => Err(WireError::BadTag {
                what: "PutMode",
                tag,
            }),
        }
    }
}

impl Encode for ValidateFailure {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ValidateFailure::LogUnreachable => 0,
            ValidateFailure::Overloaded => 1,
            ValidateFailure::AheadOfLog => 2,
        });
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for ValidateFailure {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(ValidateFailure::LogUnreachable),
            1 => Ok(ValidateFailure::Overloaded),
            2 => Ok(ValidateFailure::AheadOfLog),
            tag => Err(WireError::BadTag {
                what: "ValidateFailure",
                tag,
            }),
        }
    }
}

impl Encode for HandoffEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.key.encode(out);
        self.key_name.encode(out);
        self.last_ts.encode(out);
        self.epoch.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.key.encoded_len()
            + self.key_name.encoded_len()
            + self.last_ts.encoded_len()
            + self.epoch.encoded_len()
    }
}

impl Decode for HandoffEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(HandoffEntry {
            key: Id::decode(r)?,
            key_name: DocName::decode(r)?,
            last_ts: u64::decode(r)?,
            epoch: u64::decode(r)?,
        })
    }
}

impl Encode for LogRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.doc.encode(out);
        self.ts.encode(out);
        self.author.encode(out);
        self.patch.encode(out);
        // Optional trailing field: legacy (epoch-0) records keep their
        // exact pre-fencing byte layout.
        if self.epoch > 0 {
            self.epoch.encode(out);
        }
    }
    fn encoded_len(&self) -> usize {
        self.doc.encoded_len()
            + self.ts.encoded_len()
            + self.author.encoded_len()
            + self.patch.encoded_len()
            + if self.epoch > 0 {
                self.epoch.encoded_len()
            } else {
                0
            }
    }
}

impl Decode for LogRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LogRecord {
            doc: String::decode(r)?,
            ts: u64::decode(r)?,
            author: u64::decode(r)?,
            patch: bytes::Bytes::decode(r)?,
            epoch: if r.remaining() == 0 {
                0
            } else {
                u64::decode(r)?
            },
        })
    }
}

// ---- ChordMsg -------------------------------------------------------------

/// Stable class label of a Chord message for wire accounting (one per
/// variant; free function — `ChordMsg` is foreign to this crate).
pub fn chord_class(msg: &ChordMsg) -> &'static str {
    match msg {
        ChordMsg::FindSuccessor { .. } => "chord.find_successor",
        ChordMsg::FoundSuccessor { .. } => "chord.found_successor",
        ChordMsg::GetPredecessor { .. } => "chord.get_predecessor",
        ChordMsg::PredecessorIs { .. } => "chord.predecessor_is",
        ChordMsg::Notify { .. } => "chord.notify",
        ChordMsg::Ping { .. } => "chord.ping",
        ChordMsg::Pong { .. } => "chord.pong",
        ChordMsg::Put { .. } => "chord.put",
        ChordMsg::PutAck { .. } => "chord.put_ack",
        ChordMsg::Get { .. } => "chord.get",
        ChordMsg::GetReply { .. } => "chord.get_reply",
        ChordMsg::Replicate { .. } => "chord.replicate",
        ChordMsg::TransferKeys { .. } => "chord.transfer_keys",
        ChordMsg::LeaveToSucc { .. } => "chord.leave_to_succ",
        ChordMsg::LeaveToPred { .. } => "chord.leave_to_pred",
        ChordMsg::SyncRoot { .. } => "chord.sync.root",
        ChordMsg::SyncDiff { .. } => "chord.sync.diff",
        ChordMsg::SyncNodes { .. } => "chord.sync.nodes",
        ChordMsg::SyncAck { .. } => "chord.sync.ack",
        ChordMsg::Fence { .. } => "chord.fence",
        ChordMsg::FenceAck { .. } => "chord.fence_ack",
    }
}

impl Encode for ChordMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ChordMsg::FindSuccessor {
                op,
                target,
                origin,
                hops,
            } => {
                out.push(0);
                op.encode(out);
                target.encode(out);
                origin.encode(out);
                hops.encode(out);
            }
            ChordMsg::FoundSuccessor { op, owner, hops } => {
                out.push(1);
                op.encode(out);
                owner.encode(out);
                hops.encode(out);
            }
            ChordMsg::GetPredecessor { op } => {
                out.push(2);
                op.encode(out);
            }
            ChordMsg::PredecessorIs {
                op,
                pred,
                succ_list,
            } => {
                out.push(3);
                op.encode(out);
                pred.encode(out);
                succ_list.encode(out);
            }
            ChordMsg::Notify { candidate } => {
                out.push(4);
                candidate.encode(out);
            }
            ChordMsg::Ping { op } => {
                out.push(5);
                op.encode(out);
            }
            ChordMsg::Pong { op } => {
                out.push(6);
                op.encode(out);
            }
            ChordMsg::Put {
                op,
                key,
                value,
                mode,
                origin,
            } => {
                out.push(7);
                op.encode(out);
                key.encode(out);
                value.encode(out);
                mode.encode(out);
                origin.encode(out);
            }
            ChordMsg::PutAck { op, ok, existing } => {
                out.push(8);
                op.encode(out);
                ok.encode(out);
                existing.encode(out);
            }
            ChordMsg::Get { op, key, origin } => {
                out.push(9);
                op.encode(out);
                key.encode(out);
                origin.encode(out);
            }
            ChordMsg::GetReply {
                op,
                value,
                authoritative,
            } => {
                out.push(10);
                op.encode(out);
                value.encode(out);
                authoritative.encode(out);
            }
            ChordMsg::Replicate { items } => {
                out.push(11);
                items.encode(out);
            }
            ChordMsg::TransferKeys { items } => {
                out.push(12);
                items.encode(out);
            }
            ChordMsg::LeaveToSucc {
                pred_of_leaver,
                items,
            } => {
                out.push(13);
                pred_of_leaver.encode(out);
                items.encode(out);
            }
            ChordMsg::LeaveToPred { succ_of_leaver } => {
                out.push(14);
                succ_of_leaver.encode(out);
            }
            ChordMsg::SyncRoot {
                ver,
                from,
                to,
                root,
            } => {
                out.push(15);
                ver.encode(out);
                from.encode(out);
                to.encode(out);
                root.encode(out);
            }
            ChordMsg::SyncDiff { ver, wants, need } => {
                out.push(16);
                ver.encode(out);
                wants.encode(out);
                need.encode(out);
            }
            ChordMsg::SyncNodes { ver, nodes, leaves } => {
                out.push(17);
                ver.encode(out);
                nodes.encode(out);
                leaves.encode(out);
            }
            ChordMsg::SyncAck { ver } => {
                out.push(18);
                ver.encode(out);
            }
            ChordMsg::Fence {
                op,
                key,
                floor,
                origin,
            } => {
                out.push(19);
                op.encode(out);
                key.encode(out);
                floor.encode(out);
                origin.encode(out);
            }
            ChordMsg::FenceAck {
                op,
                ok,
                current,
                occupied,
            } => {
                out.push(20);
                op.encode(out);
                ok.encode(out);
                current.encode(out);
                occupied.encode(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            ChordMsg::FindSuccessor {
                op,
                target,
                origin,
                hops,
            } => {
                op.encoded_len() + target.encoded_len() + origin.encoded_len() + hops.encoded_len()
            }
            ChordMsg::FoundSuccessor { op, owner, hops } => {
                op.encoded_len() + owner.encoded_len() + hops.encoded_len()
            }
            ChordMsg::GetPredecessor { op } => op.encoded_len(),
            ChordMsg::PredecessorIs {
                op,
                pred,
                succ_list,
            } => op.encoded_len() + pred.encoded_len() + succ_list.encoded_len(),
            ChordMsg::Notify { candidate } => candidate.encoded_len(),
            ChordMsg::Ping { op } => op.encoded_len(),
            ChordMsg::Pong { op } => op.encoded_len(),
            ChordMsg::Put {
                op,
                key,
                value,
                mode,
                origin,
            } => {
                op.encoded_len()
                    + key.encoded_len()
                    + value.encoded_len()
                    + mode.encoded_len()
                    + origin.encoded_len()
            }
            ChordMsg::PutAck { op, ok, existing } => {
                op.encoded_len() + ok.encoded_len() + existing.encoded_len()
            }
            ChordMsg::Get { op, key, origin } => {
                op.encoded_len() + key.encoded_len() + origin.encoded_len()
            }
            ChordMsg::GetReply {
                op,
                value,
                authoritative,
            } => op.encoded_len() + value.encoded_len() + authoritative.encoded_len(),
            ChordMsg::Replicate { items } => items.encoded_len(),
            ChordMsg::TransferKeys { items } => items.encoded_len(),
            ChordMsg::LeaveToSucc {
                pred_of_leaver,
                items,
            } => pred_of_leaver.encoded_len() + items.encoded_len(),
            ChordMsg::LeaveToPred { succ_of_leaver } => succ_of_leaver.encoded_len(),
            ChordMsg::SyncRoot {
                ver,
                from,
                to,
                root,
            } => ver.encoded_len() + from.encoded_len() + to.encoded_len() + root.encoded_len(),
            ChordMsg::SyncDiff { ver, wants, need } => {
                ver.encoded_len() + wants.encoded_len() + need.encoded_len()
            }
            ChordMsg::SyncNodes { ver, nodes, leaves } => {
                ver.encoded_len() + nodes.encoded_len() + leaves.encoded_len()
            }
            ChordMsg::SyncAck { ver } => ver.encoded_len(),
            ChordMsg::Fence {
                op,
                key,
                floor,
                origin,
            } => op.encoded_len() + key.encoded_len() + floor.encoded_len() + origin.encoded_len(),
            ChordMsg::FenceAck {
                op,
                ok,
                current,
                occupied,
            } => {
                op.encoded_len() + ok.encoded_len() + current.encoded_len() + occupied.encoded_len()
            }
        }
    }
}

impl Decode for ChordMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.read_u8()?;
        Ok(match tag {
            0 => ChordMsg::FindSuccessor {
                op: OpId::decode(r)?,
                target: Id::decode(r)?,
                origin: NodeRef::decode(r)?,
                hops: u32::decode(r)?,
            },
            1 => ChordMsg::FoundSuccessor {
                op: OpId::decode(r)?,
                owner: NodeRef::decode(r)?,
                hops: u32::decode(r)?,
            },
            2 => ChordMsg::GetPredecessor {
                op: OpId::decode(r)?,
            },
            3 => ChordMsg::PredecessorIs {
                op: OpId::decode(r)?,
                pred: Option::<NodeRef>::decode(r)?,
                succ_list: Vec::<NodeRef>::decode(r)?,
            },
            4 => ChordMsg::Notify {
                candidate: NodeRef::decode(r)?,
            },
            5 => ChordMsg::Ping {
                op: OpId::decode(r)?,
            },
            6 => ChordMsg::Pong {
                op: OpId::decode(r)?,
            },
            7 => ChordMsg::Put {
                op: OpId::decode(r)?,
                key: Id::decode(r)?,
                value: bytes::Bytes::decode(r)?,
                mode: PutMode::decode(r)?,
                origin: NodeRef::decode(r)?,
            },
            8 => ChordMsg::PutAck {
                op: OpId::decode(r)?,
                ok: bool::decode(r)?,
                existing: Option::<bytes::Bytes>::decode(r)?,
            },
            9 => ChordMsg::Get {
                op: OpId::decode(r)?,
                key: Id::decode(r)?,
                origin: NodeRef::decode(r)?,
            },
            10 => ChordMsg::GetReply {
                op: OpId::decode(r)?,
                value: Option::<bytes::Bytes>::decode(r)?,
                authoritative: bool::decode(r)?,
            },
            11 => ChordMsg::Replicate {
                items: Vec::<(Id, bytes::Bytes)>::decode(r)?,
            },
            12 => ChordMsg::TransferKeys {
                items: Vec::<(Id, bytes::Bytes)>::decode(r)?,
            },
            13 => ChordMsg::LeaveToSucc {
                pred_of_leaver: Option::<NodeRef>::decode(r)?,
                items: Vec::<(Id, bytes::Bytes)>::decode(r)?,
            },
            14 => ChordMsg::LeaveToPred {
                succ_of_leaver: NodeRef::decode(r)?,
            },
            15 => ChordMsg::SyncRoot {
                ver: u64::decode(r)?,
                from: Id::decode(r)?,
                to: Id::decode(r)?,
                root: <[u8; 20]>::decode(r)?,
            },
            16 => ChordMsg::SyncDiff {
                ver: u64::decode(r)?,
                wants: Vec::<(u8, u32)>::decode(r)?,
                need: Vec::<Id>::decode(r)?,
            },
            17 => ChordMsg::SyncNodes {
                ver: u64::decode(r)?,
                nodes: Vec::<(u8, u32, Vec<(u8, [u8; 20])>)>::decode(r)?,
                leaves: Vec::<(u32, Vec<(Id, [u8; 20])>)>::decode(r)?,
            },
            18 => ChordMsg::SyncAck {
                ver: u64::decode(r)?,
            },
            19 => ChordMsg::Fence {
                op: OpId::decode(r)?,
                key: Id::decode(r)?,
                floor: u64::decode(r)?,
                origin: NodeRef::decode(r)?,
            },
            20 => ChordMsg::FenceAck {
                op: OpId::decode(r)?,
                ok: bool::decode(r)?,
                current: u64::decode(r)?,
                occupied: bool::decode(r)?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "ChordMsg",
                    tag,
                })
            }
        })
    }
}

// ---- KtsMsg ---------------------------------------------------------------

/// Stable class label of a KTS message for wire accounting (one per
/// variant; free function — `KtsMsg` is foreign to this crate).
pub fn kts_class(msg: &KtsMsg) -> &'static str {
    match msg {
        KtsMsg::Validate { .. } => "kts.validate",
        KtsMsg::Granted { .. } => "kts.granted",
        KtsMsg::Retry { .. } => "kts.retry",
        KtsMsg::Redirect { .. } => "kts.redirect",
        KtsMsg::Failed { .. } => "kts.failed",
        KtsMsg::LastTs { .. } => "kts.last_ts",
        KtsMsg::LastTsReply { .. } => "kts.last_ts_reply",
        KtsMsg::ReplicateEntry { .. } => "kts.replicate_entry",
        KtsMsg::TableHandoff { .. } => "kts.table_handoff",
        KtsMsg::Published { .. } => "kts.published",
    }
}

impl Encode for KtsMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            KtsMsg::Validate {
                op,
                key,
                key_name,
                proposed_ts,
                patch,
                user,
            } => {
                out.push(0);
                op.encode(out);
                key.encode(out);
                key_name.encode(out);
                proposed_ts.encode(out);
                patch.encode(out);
                user.encode(out);
            }
            KtsMsg::Granted { op, ts, epoch } => {
                out.push(1);
                op.encode(out);
                ts.encode(out);
                // Optional trailing field: legacy (epoch-0) grants keep
                // their exact pre-fencing byte layout.
                if *epoch > 0 {
                    epoch.encode(out);
                }
            }
            KtsMsg::Retry { op, last_ts } => {
                out.push(2);
                op.encode(out);
                last_ts.encode(out);
            }
            KtsMsg::Redirect { op } => {
                out.push(3);
                op.encode(out);
            }
            KtsMsg::Failed { op, reason } => {
                out.push(4);
                op.encode(out);
                reason.encode(out);
            }
            KtsMsg::LastTs {
                op,
                key,
                user,
                known_ts,
            } => {
                out.push(5);
                op.encode(out);
                key.encode(out);
                user.encode(out);
                // Optional trailing field, like Granted.epoch.
                if *known_ts > 0 {
                    known_ts.encode(out);
                }
            }
            KtsMsg::LastTsReply { op, key, last_ts } => {
                out.push(6);
                op.encode(out);
                key.encode(out);
                last_ts.encode(out);
            }
            KtsMsg::ReplicateEntry {
                key,
                key_name,
                last_ts,
                epoch,
            } => {
                out.push(7);
                key.encode(out);
                key_name.encode(out);
                last_ts.encode(out);
                epoch.encode(out);
            }
            KtsMsg::TableHandoff { entries } => {
                out.push(8);
                entries.encode(out);
            }
            KtsMsg::Published { key, ts } => {
                out.push(9);
                key.encode(out);
                ts.encode(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            KtsMsg::Validate {
                op,
                key,
                key_name,
                proposed_ts,
                patch,
                user,
            } => {
                op.encoded_len()
                    + key.encoded_len()
                    + key_name.encoded_len()
                    + proposed_ts.encoded_len()
                    + patch.encoded_len()
                    + user.encoded_len()
            }
            KtsMsg::Granted { op, ts, epoch } => {
                op.encoded_len()
                    + ts.encoded_len()
                    + if *epoch > 0 { epoch.encoded_len() } else { 0 }
            }
            KtsMsg::Retry { op, last_ts } => op.encoded_len() + last_ts.encoded_len(),
            KtsMsg::Redirect { op } => op.encoded_len(),
            KtsMsg::Failed { op, reason } => op.encoded_len() + reason.encoded_len(),
            KtsMsg::LastTs {
                op,
                key,
                user,
                known_ts,
            } => {
                op.encoded_len()
                    + key.encoded_len()
                    + user.encoded_len()
                    + if *known_ts > 0 {
                        known_ts.encoded_len()
                    } else {
                        0
                    }
            }
            KtsMsg::LastTsReply { op, key, last_ts } => {
                op.encoded_len() + key.encoded_len() + last_ts.encoded_len()
            }
            KtsMsg::ReplicateEntry {
                key,
                key_name,
                last_ts,
                epoch,
            } => {
                key.encoded_len()
                    + key_name.encoded_len()
                    + last_ts.encoded_len()
                    + epoch.encoded_len()
            }
            KtsMsg::TableHandoff { entries } => entries.encoded_len(),
            KtsMsg::Published { key, ts } => key.encoded_len() + ts.encoded_len(),
        }
    }
}

impl Decode for KtsMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.read_u8()?;
        Ok(match tag {
            0 => KtsMsg::Validate {
                op: ReqId::decode(r)?,
                key: Id::decode(r)?,
                key_name: DocName::decode(r)?,
                proposed_ts: u64::decode(r)?,
                patch: bytes::Bytes::decode(r)?,
                user: NodeRef::decode(r)?,
            },
            1 => KtsMsg::Granted {
                op: ReqId::decode(r)?,
                ts: u64::decode(r)?,
                epoch: if r.remaining() == 0 {
                    0
                } else {
                    u64::decode(r)?
                },
            },
            2 => KtsMsg::Retry {
                op: ReqId::decode(r)?,
                last_ts: u64::decode(r)?,
            },
            3 => KtsMsg::Redirect {
                op: ReqId::decode(r)?,
            },
            4 => KtsMsg::Failed {
                op: ReqId::decode(r)?,
                reason: ValidateFailure::decode(r)?,
            },
            5 => KtsMsg::LastTs {
                op: ReqId::decode(r)?,
                key: Id::decode(r)?,
                user: NodeRef::decode(r)?,
                known_ts: if r.remaining() == 0 {
                    0
                } else {
                    u64::decode(r)?
                },
            },
            6 => KtsMsg::LastTsReply {
                op: ReqId::decode(r)?,
                key: Id::decode(r)?,
                last_ts: u64::decode(r)?,
            },
            7 => KtsMsg::ReplicateEntry {
                key: Id::decode(r)?,
                key_name: DocName::decode(r)?,
                last_ts: u64::decode(r)?,
                epoch: u64::decode(r)?,
            },
            8 => KtsMsg::TableHandoff {
                entries: Vec::<HandoffEntry>::decode(r)?,
            },
            9 => KtsMsg::Published {
                key: Id::decode(r)?,
                ts: u64::decode(r)?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "KtsMsg",
                    tag,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn nref(a: u32, id: u64) -> NodeRef {
        NodeRef::new(NodeId(a), Id(id))
    }

    fn rt_chord(m: ChordMsg) {
        let buf = m.to_wire();
        assert_eq!(buf.len(), m.encoded_len(), "encoded_len for {m:?}");
        let back = ChordMsg::from_wire(&buf).unwrap();
        // ChordMsg has no PartialEq; compare Debug renderings.
        assert_eq!(format!("{back:?}"), format!("{m:?}"));
    }

    fn rt_kts(m: KtsMsg) {
        let buf = m.to_wire();
        assert_eq!(buf.len(), m.encoded_len(), "encoded_len for {m:?}");
        let back = KtsMsg::from_wire(&buf).unwrap();
        assert_eq!(format!("{back:?}"), format!("{m:?}"));
    }

    #[test]
    fn every_chord_variant_roundtrips() {
        rt_chord(ChordMsg::FindSuccessor {
            op: OpId(7),
            target: Id(u64::MAX),
            origin: nref(3, 42),
            hops: 9,
        });
        rt_chord(ChordMsg::FoundSuccessor {
            op: OpId(0),
            owner: nref(0, 0),
            hops: 0,
        });
        rt_chord(ChordMsg::GetPredecessor { op: OpId(u64::MAX) });
        rt_chord(ChordMsg::PredecessorIs {
            op: OpId(1),
            pred: None,
            succ_list: vec![nref(1, 10), nref(2, 20)],
        });
        rt_chord(ChordMsg::PredecessorIs {
            op: OpId(1),
            pred: Some(nref(9, 90)),
            succ_list: vec![],
        });
        rt_chord(ChordMsg::Notify {
            candidate: nref(4, 44),
        });
        rt_chord(ChordMsg::Ping { op: OpId(5) });
        rt_chord(ChordMsg::Pong { op: OpId(5) });
        rt_chord(ChordMsg::Put {
            op: OpId(8),
            key: Id(123),
            value: Bytes::from(vec![1, 2, 3]),
            mode: PutMode::FirstWriter,
            origin: nref(1, 2),
        });
        rt_chord(ChordMsg::Put {
            op: OpId(8),
            key: Id(123),
            value: Bytes::from(vec![4]),
            mode: PutMode::Ranked,
            origin: nref(1, 2),
        });
        rt_chord(ChordMsg::PutAck {
            op: OpId(8),
            ok: false,
            existing: Some(Bytes::from(vec![9])),
        });
        rt_chord(ChordMsg::Get {
            op: OpId(2),
            key: Id(55),
            origin: nref(6, 66),
        });
        rt_chord(ChordMsg::GetReply {
            op: OpId(2),
            value: None,
            authoritative: true,
        });
        rt_chord(ChordMsg::Replicate {
            items: vec![(Id(1), Bytes::from(vec![1])), (Id(2), Bytes::new())],
        });
        rt_chord(ChordMsg::TransferKeys { items: vec![] });
        rt_chord(ChordMsg::LeaveToSucc {
            pred_of_leaver: Some(nref(7, 77)),
            items: vec![(Id(3), Bytes::from(vec![0; 64]))],
        });
        rt_chord(ChordMsg::LeaveToPred {
            succ_of_leaver: nref(8, 88),
        });
        rt_chord(ChordMsg::SyncRoot {
            ver: 42,
            from: Id(u64::MAX - 1),
            to: Id(3),
            root: [0xAB; 20],
        });
        rt_chord(ChordMsg::SyncDiff {
            ver: 42,
            wants: vec![(0, 0), (1, 7), (2, 255)],
            need: vec![Id(9), Id(u64::MAX)],
        });
        rt_chord(ChordMsg::SyncDiff {
            ver: 0,
            wants: vec![],
            need: vec![],
        });
        rt_chord(ChordMsg::SyncNodes {
            ver: 1,
            nodes: vec![(0, 0, vec![(3, [1; 20]), (15, [2; 20])]), (1, 3, vec![])],
            leaves: vec![(48, vec![(Id(7), [9; 20])]), (49, vec![])],
        });
        rt_chord(ChordMsg::SyncAck { ver: u64::MAX });
        rt_chord(ChordMsg::Fence {
            op: OpId(9),
            key: Id(321),
            floor: u64::MAX,
            origin: nref(2, 22),
        });
        rt_chord(ChordMsg::FenceAck {
            op: OpId(9),
            ok: false,
            current: 17,
            occupied: true,
        });
    }

    #[test]
    fn every_kts_variant_roundtrips() {
        rt_kts(KtsMsg::Validate {
            op: ReqId(1),
            key: Id(2),
            key_name: DocName::new("wiki/Main"),
            proposed_ts: 3,
            patch: Bytes::from(vec![4, 5]),
            user: nref(6, 7),
        });
        rt_kts(KtsMsg::Granted {
            op: ReqId(1),
            ts: 2,
            epoch: 0,
        });
        rt_kts(KtsMsg::Granted {
            op: ReqId(1),
            ts: 2,
            epoch: u64::MAX,
        });
        rt_kts(KtsMsg::Retry {
            op: ReqId(1),
            last_ts: 9,
        });
        rt_kts(KtsMsg::Redirect { op: ReqId(3) });
        for reason in [
            ValidateFailure::LogUnreachable,
            ValidateFailure::Overloaded,
            ValidateFailure::AheadOfLog,
        ] {
            rt_kts(KtsMsg::Failed {
                op: ReqId(4),
                reason,
            });
        }
        rt_kts(KtsMsg::LastTs {
            op: ReqId(5),
            key: Id(6),
            user: nref(7, 8),
            known_ts: 0,
        });
        rt_kts(KtsMsg::LastTs {
            op: ReqId(5),
            key: Id(6),
            user: nref(7, 8),
            known_ts: 4096,
        });
        rt_kts(KtsMsg::LastTsReply {
            op: ReqId(5),
            key: Id(6),
            last_ts: u64::MAX,
        });
        rt_kts(KtsMsg::ReplicateEntry {
            key: Id(1),
            key_name: DocName::new("página/Ωλ"),
            last_ts: 10,
            epoch: 2,
        });
        rt_kts(KtsMsg::TableHandoff {
            entries: vec![HandoffEntry {
                key: Id(1),
                key_name: DocName::new("d"),
                last_ts: 1,
                epoch: 0,
            }],
        });
        rt_kts(KtsMsg::Published {
            key: Id(u64::MAX),
            ts: 1 << 40,
        });
    }

    #[test]
    fn log_record_roundtrips() {
        let rec = LogRecord::new("wiki/Main", 42, 7, Bytes::from_static(b"patchbytes"));
        let buf = rec.to_wire();
        assert_eq!(buf.len(), rec.encoded_len());
        assert_eq!(LogRecord::from_wire(&buf).unwrap(), rec);
    }

    /// Representative encodings pinned byte-for-byte: the codec is a wire
    /// contract, and any layout change breaks mixed-version rings.
    #[test]
    fn frozen_encodings() {
        assert_eq!(
            ChordMsg::Ping { op: OpId(5) }.to_wire(),
            vec![5 /*tag*/, 5 /*op*/]
        );
        assert_eq!(
            ChordMsg::FindSuccessor {
                op: OpId(300),
                target: Id(1),
                origin: nref(2, 3),
                hops: 4,
            }
            .to_wire(),
            vec![
                0, // tag
                0xac, 0x02, // op = 300 varint
                1, 0, 0, 0, 0, 0, 0, 0, // target id LE
                2, // origin.addr varint
                3, 0, 0, 0, 0, 0, 0, 0, // origin.id LE
                4, // hops
            ]
        );
        // Legacy grants (epoch 0) must keep the exact pre-fencing layout:
        // the epoch is an optional trailing field.
        assert_eq!(
            KtsMsg::Granted {
                op: ReqId(1),
                ts: 128,
                epoch: 0
            }
            .to_wire(),
            vec![1 /*tag*/, 1 /*op*/, 0x80, 0x01 /*ts=128*/]
        );
        assert_eq!(
            KtsMsg::Granted {
                op: ReqId(1),
                ts: 128,
                epoch: 3
            }
            .to_wire(),
            vec![
                1, /*tag*/
                1, /*op*/
                0x80, 0x01, /*ts=128*/
                3     /*epoch*/
            ]
        );
        // The steady-state anti-entropy round: one root + one ack.
        let mut expect = vec![
            15, // tag
            42, // ver varint
            2, 0, 0, 0, 0, 0, 0, 0, // from LE
            9, 0, 0, 0, 0, 0, 0, 0, // to LE
        ];
        expect.extend_from_slice(&[0xCD; 20]); // root digest, raw
        assert_eq!(
            ChordMsg::SyncRoot {
                ver: 42,
                from: Id(2),
                to: Id(9),
                root: [0xCD; 20],
            }
            .to_wire(),
            expect
        );
        assert_eq!(
            ChordMsg::SyncAck { ver: 42 }.to_wire(),
            vec![18 /*tag*/, 42 /*ver*/]
        );
        // The grant hint: tag, raw key, varint ts — nothing else.
        assert_eq!(
            KtsMsg::Published {
                key: Id(7),
                ts: 300
            }
            .to_wire(),
            vec![
                9, // tag
                7, 0, 0, 0, 0, 0, 0, 0, // key LE
                0xac, 0x02, // ts = 300 varint
            ]
        );
    }

    #[test]
    fn unknown_tags_are_errors_not_panics() {
        for tag in 21u8..=255 {
            assert!(matches!(
                ChordMsg::from_wire(&[tag]),
                Err(WireError::BadTag { .. })
            ));
        }
        for tag in 10u8..=255 {
            assert!(matches!(
                KtsMsg::from_wire(&[tag]),
                Err(WireError::BadTag { .. })
            ));
        }
    }
}
