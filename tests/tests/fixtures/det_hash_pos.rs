// DET-HASH positive: compiled as the root of a sim-deterministic crate, so
// every mention of std's randomly seeded maps is an error.
use std::collections::{HashMap, HashSet};

pub struct State {
    pub pending: HashMap<u64, String>,
    pub seen: HashSet<u64>,
}

impl State {
    pub fn new() -> Self {
        State {
            pending: HashMap::new(),
            seen: HashSet::new(),
        }
    }
}
