//! Tunables for the timestamp service.

/// Configuration of the Master-key role, whose per-key state machine is
/// the stage table in ARCHITECTURE.md, "Grant fencing and master epochs".
#[derive(Clone, Debug)]
pub struct KtsConfig {
    /// Bounded per-key validation queue; requests beyond this are shed with
    /// `Overloaded`.
    pub max_queue_per_key: usize,
}

impl Default for KtsConfig {
    fn default() -> Self {
        KtsConfig {
            max_queue_per_key: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_probing() {
        let c = KtsConfig::default();
        assert!(c.max_queue_per_key > 0);
    }
}
