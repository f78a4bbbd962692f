//! Tunables for the Chord layer.

use simnet::Duration;

/// Chord protocol parameters.
///
/// Defaults are sized for the LAN latency model (0.5–2 ms one-way); the
/// experiment harness scales `op_timeout` up for WAN runs.
#[derive(Clone, Debug)]
pub struct ChordConfig {
    /// Successor-list length `r` (robustness to `r-1` simultaneous failures).
    pub succ_list_len: usize,
    /// Number of successor nodes holding backup copies of each stored item
    /// (the paper's Log-Peers-Succ / Master-key-Succ redundancy).
    pub storage_replicas: usize,
    /// Period of the stabilize round (successor pointer repair).
    pub stabilize_every: Duration,
    /// Period of finger repair (one finger per round, round-robin).
    pub fix_fingers_every: Duration,
    /// Period of the predecessor liveness probe.
    pub check_pred_every: Duration,
    /// Period of the Merkle anti-entropy round (storage replica sync).
    pub replicate_every: Duration,
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
            succ_list_len: 4,
            storage_replicas: 2,
            stabilize_every: Duration::from_millis(250),
            fix_fingers_every: Duration::from_millis(100),
            check_pred_every: Duration::from_millis(500),
            replicate_every: Duration::from_millis(1_000),
            op_timeout: Duration::from_millis(400),
            suspect_ttl: Duration::from_secs(4),
            fail_threshold: 3,
        }
    }
}

impl ChordConfig {
    /// Scale all timeouts/periods for a slower (e.g. WAN) network where the
    /// one-way latency is roughly `factor`× the LAN model.
    pub fn scaled(mut self, factor: u64) -> Self {
        self.stabilize_every = self.stabilize_every * factor;
        self.fix_fingers_every = self.fix_fingers_every * factor;
        self.check_pred_every = self.check_pred_every * factor;
        self.replicate_every = self.replicate_every * factor;
        self.op_timeout = self.op_timeout * factor;
        self.suspect_ttl = self.suspect_ttl * factor;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ChordConfig::default();
        assert!(c.succ_list_len >= 2);
        assert!(c.op_timeout > Duration::ZERO);
    }

    #[test]
    fn scaling_multiplies_timeouts() {
        let c = ChordConfig::default().scaled(10);
        assert_eq!(c.op_timeout, Duration::from_millis(4_000));
        assert_eq!(c.stabilize_every, Duration::from_millis(2_500));
    }
}
