//! Network model: per-message latency sampling, loss and bandwidth.
//! Link cuts are the fault layer's ([`Sim::fault_cut`](crate::Sim::fault_cut)).
//!
//! The paper's prototype let the operator "specify the number of peers or
//! network latencies, or provoke failures"; this module is that knob set.

use crate::rng::Rng64;
use crate::time::Duration;
use crate::NodeId;

/// How one-way message latency is sampled.
#[derive(Clone, Debug)]
pub enum LatencyModel {
    /// Fixed one-way delay.
    Constant(Duration),
    /// Uniform in `[min, max]`.
    Uniform(Duration, Duration),
    /// Log-normal with the given median and shape `sigma`, clamped below by
    /// `floor`. This is the standard WAN model (heavy right tail).
    LogNormal {
        /// Median one-way delay.
        median: Duration,
        /// Log-space standard deviation (0.3–0.6 is WAN-like).
        sigma: f64,
        /// Hard lower bound (propagation floor).
        floor: Duration,
    },
}

impl LatencyModel {
    /// Convenience: a LAN-ish uniform 0.5–2 ms model.
    pub fn lan() -> Self {
        LatencyModel::Uniform(Duration::from_micros(500), Duration::from_millis(2))
    }

    /// Convenience: a WAN-ish log-normal model with 40 ms median.
    pub fn wan() -> Self {
        LatencyModel::LogNormal {
            median: Duration::from_millis(40),
            sigma: 0.35,
            floor: Duration::from_millis(5),
        }
    }

    /// Sample a one-way delay.
    pub fn sample(&self, rng: &mut Rng64) -> Duration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform(lo, hi) => {
                debug_assert!(lo <= hi);
                Duration::from_micros(rng.gen_range(lo.as_micros(), hi.as_micros()))
            }
            LatencyModel::LogNormal {
                median,
                sigma,
                floor,
            } => {
                let us = rng.log_normal_median(median.as_micros() as f64, sigma);
                let us = us.max(floor.as_micros() as f64).min(1e12);
                Duration::from_micros(us as u64)
            }
        }
    }
}

/// Metadata one message contributes to wire accounting: its encoded size
/// and a coarse class label (used to dimension the per-class byte
/// counters). Produced by the meter installed with
/// [`Sim::set_wire_meter`](crate::Sim::set_wire_meter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgMeta {
    /// Encoded size on the wire, in bytes (frame overhead included).
    pub bytes: usize,
    /// Message class, e.g. `"chord.find_successor"` or `"kts.validate"`.
    pub class: &'static str,
}

/// The full network configuration.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Latency model for remote messages.
    pub latency: LatencyModel,
    /// Extra delay applied to a node sending to itself (local dispatch).
    pub local_delay: Duration,
    /// Independent per-message drop probability (0.0 = reliable).
    pub loss: f64,
    /// Per-link transmit rate in **bytes per second**. `None` (the default)
    /// reproduces the historical behaviour: latency is independent of
    /// message size. When set — and a wire meter is installed on the
    /// simulator so encoded sizes are known — every remote message is
    /// additionally charged its serialization delay `bytes / bandwidth`,
    /// opening bandwidth-constrained scenarios.
    pub bandwidth: Option<u64>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency: LatencyModel::lan(),
            local_delay: Duration::from_micros(10),
            loss: 0.0,
            bandwidth: None,
        }
    }
}

impl NetConfig {
    /// LAN defaults (uniform 0.5–2 ms, lossless).
    pub fn lan() -> Self {
        Self::default()
    }

    /// WAN defaults (log-normal 40 ms median, lossless).
    pub fn wan() -> Self {
        NetConfig {
            latency: LatencyModel::wan(),
            ..Self::default()
        }
    }

    /// Decide the fate of a message: `None` = dropped, `Some(delay)` =
    /// delivered after `delay`.
    pub fn route(&self, rng: &mut Rng64, from: NodeId, to: NodeId) -> Option<Duration> {
        self.route_sized(rng, from, to, 0)
    }

    /// Size-aware [`NetConfig::route`]: remote messages additionally pay
    /// the serialization delay of `bytes` at the configured [`bandwidth`]
    /// (zero extra when the bandwidth is unset or `bytes` is 0). Local
    /// dispatch never serializes.
    ///
    /// [`bandwidth`]: NetConfig::bandwidth
    pub fn route_sized(
        &self,
        rng: &mut Rng64,
        from: NodeId,
        to: NodeId,
        bytes: usize,
    ) -> Option<Duration> {
        if from == to {
            return Some(self.local_delay);
        }
        if self.loss > 0.0 && rng.chance(self.loss) {
            return None;
        }
        Some(self.latency.sample(rng) + self.transmit_delay(bytes))
    }

    /// Serialization delay of a `bytes`-sized message at the configured
    /// bandwidth (zero when unlimited).
    pub fn transmit_delay(&self, bytes: usize) -> Duration {
        match self.bandwidth {
            Some(bw) if bw > 0 && bytes > 0 => {
                // ceil(bytes * 1e6 / bw) microseconds.
                let us = (bytes as u128 * 1_000_000).div_ceil(bw as u128);
                Duration::from_micros(us.min(u64::MAX as u128) as u64)
            }
            _ => Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn constant_latency() {
        let mut rng = Rng64::new(1);
        let m = LatencyModel::Constant(Duration::from_millis(3));
        assert_eq!(m.sample(&mut rng), Duration::from_millis(3));
    }

    #[test]
    fn uniform_latency_in_bounds() {
        let mut rng = Rng64::new(2);
        let lo = Duration::from_micros(100);
        let hi = Duration::from_micros(500);
        let m = LatencyModel::Uniform(lo, hi);
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d >= lo && d <= hi);
        }
    }

    #[test]
    fn lognormal_respects_floor() {
        let mut rng = Rng64::new(3);
        let m = LatencyModel::LogNormal {
            median: Duration::from_millis(10),
            sigma: 1.5,
            floor: Duration::from_millis(2),
        };
        for _ in 0..2000 {
            assert!(m.sample(&mut rng) >= Duration::from_millis(2));
        }
    }

    #[test]
    fn loss_rate_approximate() {
        let mut cfg = NetConfig::lan();
        cfg.loss = 0.25;
        let mut rng = Rng64::new(5);
        let delivered = (0..10_000)
            .filter(|_| cfg.route(&mut rng, n(1), n(2)).is_some())
            .count();
        assert!((7000..8000).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn transmit_delay_charges_bytes_at_bandwidth() {
        let mut cfg = NetConfig::lan();
        // Unset bandwidth: size never matters (the historical behaviour).
        assert_eq!(cfg.transmit_delay(1_000_000), Duration::ZERO);
        cfg.bandwidth = Some(1_000_000); // 1 MB/s = 1 us per byte
        assert_eq!(cfg.transmit_delay(0), Duration::ZERO);
        assert_eq!(cfg.transmit_delay(1), Duration::from_micros(1));
        assert_eq!(cfg.transmit_delay(1500), Duration::from_micros(1500));
        // Rounds up: 1 byte at 3 MB/s is still a whole microsecond.
        cfg.bandwidth = Some(3_000_000);
        assert_eq!(cfg.transmit_delay(1), Duration::from_micros(1));
    }

    #[test]
    fn route_sized_adds_serialization_to_remote_only() {
        let mut cfg = NetConfig::lan();
        cfg.latency = LatencyModel::Constant(Duration::from_millis(2));
        cfg.bandwidth = Some(1_000_000);
        let mut rng = Rng64::new(8);
        assert_eq!(
            cfg.route_sized(&mut rng, n(1), n(2), 500),
            Some(Duration::from_micros(2_500))
        );
        // Self-sends dispatch locally without serializing.
        assert_eq!(
            cfg.route_sized(&mut rng, n(1), n(1), 500),
            Some(cfg.local_delay)
        );
        // Size 0 (or no meter) keeps the pure latency sample.
        assert_eq!(
            cfg.route_sized(&mut rng, n(1), n(2), 0),
            Some(Duration::from_millis(2))
        );
    }

    #[test]
    fn self_send_uses_local_delay_and_ignores_loss() {
        let mut cfg = NetConfig::lan();
        cfg.loss = 1.0;
        let mut rng = Rng64::new(6);
        assert_eq!(cfg.route(&mut rng, n(7), n(7)), Some(cfg.local_delay));
    }
}
