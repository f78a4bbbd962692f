// TOT-PANIC positive: a message-handler module denies the panic lints, so
// every panic path in it is an error, inside a handler or not.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::indexing_slicing, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

pub struct Node {
    vals: std::collections::BTreeMap<u64, u64>,
}

impl Node {
    pub fn on_message(&mut self, from: u64, raw: &[u8]) {
        let first = raw[0]; // panics on empty input
        let v = self.vals.get(&from).unwrap();
        if *v != u64::from(first) {
            panic!("mismatch");
        }
    }

    pub fn helper(&self, raw: &[u8]) -> u8 {
        // The checked forms stay quiet.
        raw.first().copied().unwrap_or(0)
    }
}
