//! Tunables for the timestamp service.

/// Configuration of the Master-key role, whose per-key state machine is
/// the stage table in ARCHITECTURE.md, "Grant fencing and master epochs".
#[derive(Clone, Debug)]
pub struct KtsConfig {
    /// Bounded per-key validation queue; requests beyond this are shed with
    /// `Overloaded`.
    pub max_queue_per_key: usize,
    /// Grant fencing: before serving a key, raise a quorum fence at the
    /// Log-Peers of the next timestamp slot and stamp every grant and
    /// record with this master's epoch. Closes the dual-master grant
    /// window (see ARCHITECTURE.md, "Grant fencing and master epochs").
    /// `false` reproduces the legacy unfenced protocol byte-for-byte.
    pub fencing: bool,
}

impl Default for KtsConfig {
    fn default() -> Self {
        KtsConfig {
            max_queue_per_key: 64,
            fencing: true,
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
        assert!(c.fencing, "grant fencing is on by default");
    }
}
