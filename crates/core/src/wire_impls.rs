//! Wire codec for the LTR envelope: [`Payload`] is the message type that
//! multiplexes every protocol layer across a node boundary, so its
//! encoding *is* the node's wire contract. Chord and KTS bodies reuse the
//! `wire` crate's codecs; user commands (the client API surface) encode
//! here.
//!
//! Tags are frozen: `Chord = 0`, `Kts = 1`, `Cmd = 2`, and `UserCmd`'s
//! are its declaration below. Append, never renumber.

use wire::{wire_enum, Decode, Encode, Reader, WireError};

use crate::payload::{Payload, UserCmd};

wire_enum! { UserCmd;
    0 => OpenDoc { doc, initial },
    1 => Edit { doc, new_text },
    2 => Sync { doc },
    3 => Leave,
}

impl Encode for Payload {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Payload::Chord(m) => {
                out.push(0);
                m.encode(out);
            }
            Payload::Kts(m) => {
                out.push(1);
                m.encode(out);
            }
            Payload::Cmd(c) => {
                out.push(2);
                c.encode(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            Payload::Chord(m) => m.encoded_len(),
            Payload::Kts(m) => m.encoded_len(),
            Payload::Cmd(c) => c.encoded_len(),
        }
    }
}

impl Decode for Payload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.read_u8()?;
        Ok(match tag {
            0 => Payload::Chord(chord::ChordMsg::decode(r)?),
            1 => Payload::Kts(kts::KtsMsg::decode(r)?),
            2 => Payload::Cmd(UserCmd::decode(r)?),
            tag => {
                return Err(WireError::BadTag {
                    what: "Payload",
                    tag,
                })
            }
        })
    }
}

impl Payload {
    /// Stable class label for wire accounting: per-variant for protocol
    /// traffic, a single class for injected commands.
    pub fn wire_class(&self) -> &'static str {
        match self {
            Payload::Chord(m) => wire::chord_class(m),
            Payload::Kts(m) => wire::kts_class(m),
            Payload::Cmd(_) => "cmd",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use chord::{ChordMsg, Id, NodeRef, OpId};
    use kts::{KtsMsg, ReqId};
    use simnet::NodeId;

    fn rt(p: Payload) {
        let buf = p.to_wire();
        assert_eq!(buf.len(), p.encoded_len(), "encoded_len for {p:?}");
        let back = Payload::from_wire(&buf).unwrap();
        assert_eq!(format!("{back:?}"), format!("{p:?}"));
    }

    #[test]
    fn envelope_roundtrips_every_arm() {
        rt(Payload::Chord(ChordMsg::FindSuccessor {
            op: OpId(1),
            target: Id(2),
            origin: NodeRef::new(NodeId(3), Id(4)),
            hops: 5,
        }));
        rt(Payload::Kts(KtsMsg::Validate {
            op: ReqId(1),
            key: Id(2),
            key_name: "wiki/Main".into(),
            proposed_ts: 3,
            patch: Bytes::from(vec![1, 2, 3]),
            user: NodeRef::new(NodeId(4), Id(5)),
        }));
        rt(Payload::Kts(KtsMsg::Published { key: Id(2), ts: 3 }));
        rt(Payload::Cmd(UserCmd::OpenDoc {
            doc: "wiki/Main".into(),
            initial: "# Welcome".into(),
        }));
        rt(Payload::Cmd(UserCmd::Edit {
            doc: "wiki/Main".into(),
            new_text: "hello\nworld".into(),
        }));
        rt(Payload::Cmd(UserCmd::Sync {
            doc: "wiki/Main".into(),
        }));
        rt(Payload::Cmd(UserCmd::Leave));
    }

    #[test]
    fn classes_are_stable_and_prefixed() {
        assert_eq!(
            Payload::Chord(ChordMsg::Ping { op: OpId(1) }).wire_class(),
            "chord.ping"
        );
        assert_eq!(
            Payload::Kts(KtsMsg::Redirect { op: ReqId(1) }).wire_class(),
            "kts.redirect"
        );
        assert_eq!(
            Payload::Kts(KtsMsg::Published { key: Id(1), ts: 1 }).wire_class(),
            "kts.published"
        );
        assert_eq!(Payload::Cmd(UserCmd::Leave).wire_class(), "cmd");
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(matches!(
            Payload::from_wire(&[3]),
            Err(WireError::BadTag { .. })
        ));
        assert!(matches!(
            UserCmd::from_wire(&[4]),
            Err(WireError::BadTag { .. })
        ));
    }
}
