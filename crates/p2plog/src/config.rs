//! Tunables for the P2P-Log.

/// How many Log-Peer acknowledgements a publish needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckPolicy {
    /// Wait for all `n` replicas (the paper's behaviour).
    All,
    /// Wait for `w` of them (latency/durability trade-off, ablation A2).
    Quorum(usize),
}

/// Configuration of the log layer.
#[derive(Clone, Debug)]
pub struct LogConfig {
    /// Replication degree `n = |Hr|` (number of replication hash functions).
    pub replication: usize,
    /// Publish acknowledgement policy.
    pub ack_policy: AckPolicy,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            replication: 3,
            ack_policy: AckPolicy::All,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = LogConfig::default();
        assert_eq!(c.replication, 3);
        assert_eq!(c.ack_policy, AckPolicy::All);
    }
}
