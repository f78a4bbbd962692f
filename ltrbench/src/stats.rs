//! Small measurement helpers shared by every workload: percentiles,
//! medians, process CPU time, counter snapshots and the metric list a
//! run reports.

use std::collections::BTreeMap;

use simnet::Metrics;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarises (0 = not a sample statistic).
    pub samples: usize,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work
/// on this workload reports 0, never NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank percentile of `sorted` (ascending); 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort samples ascending (latencies are finite, so the order is total).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of the samples (mean of the middle pair for even counts).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Interquartile mean: the mean of the middle half of the samples. Used
/// for outages, which cluster at a few timeout multiples with a long
/// tail — a median jumps between clusters, a mean follows the tail.
pub fn midmean(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    ratio(mid.iter().sum(), mid.len() as f64)
}

/// Process CPU time in microseconds, exact to the instant of the call:
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. (`/proc/self/schedstat` and
/// `/proc/self/stat` only move at scheduler ticks, 4–10 ms apart — too
/// coarse for the slices the simulator windows are timed in.) Falls back
/// to the ticks of `/proc/self/stat` where the call is not available.
pub fn cpu_micros() -> u64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct timespec` of the 64-bit Linux ABIs.
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, writable `struct timespec`; the call
        // writes it and touches nothing else.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.sec as u64 * 1_000_000 + ts.nsec as u64 / 1_000;
        }
    }
    let (user, system) = stat_micros();
    user + system
}

/// User-mode CPU time of the process in microseconds (10 ms ticks).
pub fn user_cpu_micros() -> u64 {
    stat_micros().0
}

/// `(utime, stime)` of `/proc/self/stat` in microseconds.
fn stat_micros() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 11 and 12 after the state.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) * 10_000, ticks(12) * 10_000)
}

/// A point-in-time copy of the program's own counters (summed over the
/// peers on the socket bed) plus the lookup-hop histogram's totals.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    vals: BTreeMap<String, u64>,
    /// Completed chord lookups (samples of `chord.lookup_hops`).
    pub lookups: u64,
    /// Sum of their hop counts.
    pub lookup_hops: f64,
}

impl Counters {
    /// Add one registry's counters into this snapshot.
    pub fn absorb(&mut self, m: &Metrics) {
        for (name, v) in m.counters() {
            *self.vals.entry(name.to_owned()).or_default() += v;
        }
        if let Some(h) = m.histogram("chord.lookup_hops") {
            self.lookups += h.count() as u64;
            self.lookup_hops += h.mean() * h.count() as f64;
        }
    }

    /// A counter's value (0 when the program never registered it).
    pub fn get(&self, name: &str) -> f64 {
        self.vals.get(name).copied().unwrap_or(0) as f64
    }

    /// Sum of every counter whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> f64 {
        self.vals
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum::<u64>() as f64
    }

    /// Add another snapshot (or delta) into this one.
    pub fn add(&mut self, other: &Counters) {
        for (k, v) in &other.vals {
            *self.vals.entry(k.clone()).or_default() += v;
        }
        self.lookups += other.lookups;
        self.lookup_hops += other.lookup_hops;
    }

    /// What happened between `earlier` and this snapshot.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let vals = self
            .vals
            .iter()
            .map(|(k, v)| {
                let before = earlier.vals.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect();
        Counters {
            vals,
            lookups: self.lookups.saturating_sub(earlier.lookups),
            lookup_hops: self.lookup_hops - earlier.lookup_hops,
        }
    }
}
