//! The wire form of every protocol message that crosses a node boundary:
//! the Chord DHT messages, the KTS timestamping messages, and the P2P-Log
//! record. Each is declared once with [`wire_enum!`] / [`wire_struct!`],
//! which generate its [`Encode`] / [`Decode`] impls and class function;
//! only the ring id, the address/handle newtypes and [`DocName`] are
//! written by hand.
//!
//! Layout conventions:
//!
//! * enum variants are a one-byte tag followed by their fields in the
//!   order the declaration lists them;
//! * ring identifiers ([`Id`]) are fixed 8-byte little-endian (uniformly
//!   distributed values — a varint would cost more);
//! * handles, timestamps and counts are canonical varints;
//! * names are length-prefixed UTF-8, payloads length-prefixed bytes;
//! * a `#[trailing]` field is omitted at its default and rejected when
//!   present at it, so one value keeps one encoding.
//!
//! Tags are part of the wire contract: **append new variants, never
//! renumber**, then regenerate `TAGS.lock` with
//! `cargo run -p detlint -- --write-tags`. The `frozen_encodings` test
//! pins representative byte strings.

use chord::{ChordMsg, DocName, Id, NodeRef, OpId, PutMode};
use kts::{HandoffEntry, KtsMsg, ReqId, ValidateFailure};
use p2plog::LogRecord;
use simnet::NodeId;

use crate::codec::{Decode, Encode, Reader, WireError};
use crate::{wire_enum, wire_struct};

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

wire_struct! { NodeRef { addr, id } }

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

wire_enum! { PutMode;
    0 => Overwrite,
    1 => FirstWriter,
    2 => Ranked,
}

wire_enum! { ValidateFailure;
    0 => LogUnreachable,
    1 => Overloaded,
    2 => AheadOfLog,
}

wire_struct! { HandoffEntry { key, key_name, last_ts, epoch } }

// Unstamped (epoch-0) records keep their exact pre-fencing byte layout.
wire_struct! { LogRecord { doc, ts, author, patch, #[trailing] epoch } }

wire_enum! { ChordMsg;
    /// Stable class label of a Chord message for wire accounting (one per
    /// variant; free function — `ChordMsg` is foreign to this crate).
    pub fn chord_class;
    0 => FindSuccessor { op, target, origin, hops } = "chord.find_successor",
    1 => FoundSuccessor { op, owner, hops } = "chord.found_successor",
    2 => GetPredecessor { op } = "chord.get_predecessor",
    3 => PredecessorIs { op, pred, succ_list } = "chord.predecessor_is",
    4 => Notify { candidate } = "chord.notify",
    5 => Ping { op } = "chord.ping",
    6 => Pong { op } = "chord.pong",
    7 => Put { op, key, value, mode, origin } = "chord.put",
    8 => PutAck { op, ok, existing } = "chord.put_ack",
    9 => Get { op, key, origin } = "chord.get",
    10 => GetReply { op, value, authoritative } = "chord.get_reply",
    11 => Replicate { items } = "chord.replicate",
    12 => TransferKeys { items } = "chord.transfer_keys",
    13 => LeaveToSucc { pred_of_leaver, items } = "chord.leave_to_succ",
    14 => LeaveToPred { succ_of_leaver } = "chord.leave_to_pred",
    15 => SyncRoot { ver, from, to, root } = "chord.sync.root",
    16 => SyncDiff { ver, wants, need } = "chord.sync.diff",
    17 => SyncNodes { ver, nodes, leaves } = "chord.sync.nodes",
    18 => SyncAck { ver } = "chord.sync.ack",
    19 => Fence { op, key, floor, origin } = "chord.fence",
    20 => FenceAck { op, ok, current, occupied } = "chord.fence_ack",
}

// `Granted.epoch` and `LastTs.known_ts` are trailing: unstamped grants and
// plain reads keep their exact pre-fencing byte layout.
wire_enum! { KtsMsg;
    /// Stable class label of a KTS message for wire accounting (one per
    /// variant; free function — `KtsMsg` is foreign to this crate).
    pub fn kts_class;
    0 => Validate { op, key, key_name, proposed_ts, patch, user } = "kts.validate",
    1 => Granted { op, ts, #[trailing] epoch } = "kts.granted",
    2 => Retry { op, last_ts } = "kts.retry",
    3 => Redirect { op } = "kts.redirect",
    4 => Failed { op, reason } = "kts.failed",
    5 => LastTs { op, key, user, #[trailing] known_ts } = "kts.last_ts",
    6 => LastTsReply { op, key, last_ts } = "kts.last_ts_reply",
    7 => ReplicateEntry { key, key_name, last_ts, epoch } = "kts.replicate_entry",
    8 => TableHandoff { entries } = "kts.table_handoff",
    9 => Published { key, ts } = "kts.published",
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

    /// A trailing field present at its default is a second encoding of
    /// the value that omits it, so it is rejected.
    #[test]
    fn explicit_default_trailing_fields_are_rejected() {
        assert_eq!(
            KtsMsg::from_wire(&[1, 1, 0x80, 0x01, 0]).map(|m| m.to_wire()),
            Err(WireError::TrailingBytes)
        );
        let last_ts = KtsMsg::LastTs {
            op: ReqId(5),
            key: Id(6),
            user: nref(7, 8),
            known_ts: 0,
        };
        let mut buf = last_ts.to_wire();
        buf.push(0);
        assert_eq!(
            KtsMsg::from_wire(&buf).map(|m| m.to_wire()),
            Err(WireError::TrailingBytes)
        );
        let rec = LogRecord::new("d", 1, 2, Bytes::from_static(b"p"));
        let mut buf = rec.to_wire();
        buf.push(0);
        assert_eq!(LogRecord::from_wire(&buf), Err(WireError::TrailingBytes));
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
