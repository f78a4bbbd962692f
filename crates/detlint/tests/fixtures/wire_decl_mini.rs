// Miniature declared-codec file used by the WIRE-TAGS tests: shaped like
// the `wire_enum!` declarations in crates/wire/src/proto.rs (one
// `N => Variant` line per tag, the only place the tags are written)
// without depending on the real wire crate.
pub enum Msg {
    Ping { op: u64 },
    Pong { op: u64, epoch: u64 },
}

wire_enum! { Msg;
    /// Accounting label of a `Msg`.
    pub fn msg_class;
    0 => Ping { op } = "msg.ping",
    1 => Pong { op, #[trailing] epoch } = "msg.pong",
}
