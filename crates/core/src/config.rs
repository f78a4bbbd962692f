//! Configuration of a full P2P-LTR node.

use chord::ChordConfig;
use kts::KtsConfig;
use p2plog::LogConfig;
use simnet::Duration;

/// Log garbage-collection settings (extension; see DESIGN.md §6).
#[derive(Clone, Debug)]
pub struct GcConfig {
    /// Sweep period.
    pub every: Duration,
    /// Keep at least this many trailing timestamps per document.
    pub retain: u64,
}

/// Full node configuration.
#[derive(Clone, Debug)]
pub struct LtrConfig {
    /// DHT layer.
    pub chord: ChordConfig,
    /// Timestamp service.
    pub kts: KtsConfig,
    /// Log layer (replication degree `n`, ack policy).
    pub log: LogConfig,
    /// Resend a validation if unanswered for this long.
    pub validate_timeout: Duration,
    /// Backoff before retrying a failed publish cycle.
    pub retry_backoff: Duration,
    /// Anti-entropy period (None disables passive sync).
    pub sync_every: Option<Duration>,
    /// Log garbage collection (None disables).
    pub gc: Option<GcConfig>,
}

impl Default for LtrConfig {
    fn default() -> Self {
        LtrConfig {
            chord: ChordConfig::default(),
            kts: KtsConfig::default(),
            log: LogConfig::default(),
            validate_timeout: Duration::from_millis(1_500),
            retry_backoff: Duration::from_millis(500),
            sync_every: Some(Duration::from_millis(1_000)),
            gc: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = LtrConfig::default();
        assert!(
            c.validate_timeout > c.chord.op_timeout,
            "a validation spans at least one DHT op"
        );
        assert!(c.gc.is_none());
    }
}
