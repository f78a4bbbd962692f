//! Deterministic pseudo-random number generation and the distributions the
//! experiments need.
//!
//! The simulator must be bit-for-bit reproducible from a seed, across crate
//! versions. We therefore ship a self-contained xoshiro256++ generator
//! (seeded through SplitMix64) rather than depending on an external RNG whose
//! stream might change between releases, and implement the handful of
//! distributions used by the latency / workload models: uniform, Bernoulli,
//! exponential, normal (Box–Muller), log-normal and Zipf.

/// SplitMix64 step, used for seeding and as a cheap stateless mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ deterministic generator.
///
/// Public API mirrors the subset of `rand::Rng` the simulator uses, so call
/// sites read naturally without the dependency.
#[derive(Clone, Debug)]
pub struct Rng64 {
    s: [u64; 4],
    /// Cached second output of the last Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl Rng64 {
    /// Create a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 {
            s,
            gauss_spare: None,
        }
    }

    /// Derive an independent child generator (for per-node streams).
    pub fn fork(&mut self) -> Rng64 {
        Rng64::new(self.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `u64` in `[0, bound)`. `bound` must be non-zero.
    /// Uses Lemire's multiply-shift rejection method (unbiased).
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "gen_below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `u64` in `[lo, hi]` inclusive.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi, "gen_range: lo > hi");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.gen_below(hi - lo + 1)
    }

    /// Uniform `usize` in `[0, len)`, for indexing.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.gen_below(len as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: true with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Standard normal deviate via Box–Muller (cached pair).
    pub fn gauss(&mut self) -> f64 {
        if let Some(g) = self.gauss_spare.take() {
            return g;
        }
        // Rejection-free polar-less form: u1 in (0,1], u2 in [0,1).
        let mut u1 = self.f64();
        if u1 <= f64::MIN_POSITIVE {
            u1 = f64::MIN_POSITIVE;
        }
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Log-normal deviate parameterised by the *median* (`exp(mu)`) and
    /// `sigma`. Medians are the natural way to express network latency.
    #[inline]
    pub fn log_normal_median(&mut self, median: f64, sigma: f64) -> f64 {
        (median.ln() + sigma * self.gauss()).exp()
    }

    /// Exponential deviate with the given mean (`1/lambda`).
    pub fn exp_mean(&mut self, mean: f64) -> f64 {
        let mut u = self.f64();
        if u <= f64::MIN_POSITIVE {
            u = f64::MIN_POSITIVE;
        }
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }
}

/// Zipf-distributed ranks in `1..=n` with exponent `s`, via precomputed CDF
/// and binary search. Good for the document-popularity workloads (D is small).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the sampler for `n` ranks with skew `s` (`s = 0` is uniform).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Sample a 0-based index (rank-1), so it can be used directly to index
    /// a document table.
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        let u = rng.f64();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("NaN in CDF"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the domain is a single rank.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn gen_below_is_in_range_and_covers() {
        let mut rng = Rng64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_range_inclusive_bounds() {
        let mut rng = Rng64::new(9);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let v = rng.gen_range(5, 8);
            assert!((5..=8).contains(&v));
            lo_seen |= v == 5;
            hi_seen |= v == 8;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = Rng64::new(3);
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gauss_mean_and_var_close() {
        let mut rng = Rng64::new(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gauss()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exp_mean_close() {
        let mut rng = Rng64::new(13);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exp_mean(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn log_normal_median_close() {
        let mut rng = Rng64::new(17);
        let n = 30_001;
        let mut samples: Vec<f64> = (0..n).map(|_| rng.log_normal_median(10.0, 0.5)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median - 10.0).abs() < 0.5, "median {median}");
    }

    #[test]
    fn zipf_skew_orders_frequencies() {
        let mut rng = Rng64::new(19);
        let z = Zipf::new(10, 1.0);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[4]);
        assert!(counts[4] > counts[9]);
        // All ranks reachable.
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn zipf_zero_skew_roughly_uniform() {
        let mut rng = Rng64::new(23);
        let z = Zipf::new(8, 0.0);
        let mut counts = [0usize; 8];
        for _ in 0..16_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((1600..2400).contains(&c), "count {c}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng64::new(29);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "shuffle left identity (astronomically unlikely)"
        );
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = Rng64::new(31);
        let mut b = a.fork();
        let overlap = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(overlap < 3);
    }
}
