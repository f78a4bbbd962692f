//! Tunables for the Chord layer.

use simnet::Duration;

/// Chord protocol parameters. Defaults are sized for the LAN latency
/// model (0.5–2 ms one-way). The successor-list length and the four
/// maintenance periods are constants next to their readers, in
/// [`crate::stabilize`].
#[derive(Clone, Debug)]
pub struct ChordConfig {
    /// Number of successor nodes holding backup copies of each stored item
    /// (the paper's Log-Peers-Succ / Master-key-Succ redundancy).
    pub storage_replicas: usize,
    /// Timeout for any single request/response exchange.
    pub op_timeout: Duration,
    /// How long a node observed to time out stays blacklisted from routing
    /// decisions.
    pub suspect_ttl: Duration,
    /// Consecutive liveness-probe losses before a ring neighbour
    /// (predecessor or successor) is declared failed. A single lost ping
    /// or stabilize reply must NOT drop a live neighbour: under message
    /// loss that splits the ring's ownership view, two nodes can both
    /// believe they own a key, and the storage layer's first-writer
    /// conflict detection is blind across the split (it almost never
    /// fires on a clean run, so the threshold costs nothing there).
    pub fail_threshold: u32,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            storage_replicas: 2,
            op_timeout: Duration::from_millis(400),
            suspect_ttl: Duration::from_secs(4),
            fail_threshold: 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        assert!(ChordConfig::default().op_timeout > Duration::ZERO);
    }
}
