// DET-CLOCK / DET-RNG positive: host clocks and an entropy-seeded hasher.
use std::hash::RandomState;
use std::time::{Instant, SystemTime};

pub fn now_pair() -> (Instant, SystemTime) {
    (Instant::now(), SystemTime::now())
}

pub fn entropy() -> RandomState {
    RandomState::new()
}
