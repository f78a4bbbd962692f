//! Log probing: recover `last_ts(key)` from the log itself by galloping
//! upward and binary-searching the first missing timestamp.
//!
//! Correctness rests on the continuity invariant: the log of a document
//! contains exactly the timestamps `1..=last_ts`, so "present" is monotone
//! and binary search is sound. This is the recovery path when both the
//! Master-key and its successor are lost (extension over the paper,
//! DESIGN.md §6).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::indexing_slicing, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

use chord::Id;

use crate::hashfam::DocHashes;
use chord::DocName;

/// One probe the embedder must run (a DHT get; "present" = any bytes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeCmd {
    /// Timestamp under test.
    pub ts: u64,
    /// Replication hash index (1-based).
    pub hash_idx: usize,
    /// DHT key.
    pub key: Id,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Phase {
    /// Galloping upward; `probing` is the ts under test, `step` doubles.
    Gallop { probing: u64, step: u64 },
    /// Binary search in `(lo, hi)`: `lo` known present, `hi` known absent.
    Binary { lo: u64, hi: u64, probing: u64 },
    /// Finished with the recovered last_ts.
    Done(u64),
}

/// Sans-IO probe state machine (one outstanding request at a time; each
/// timestamp is tested against all `n` replicas before declaring absence).
/// Probe keys derive from a cached [`DocHashes`] midstate.
#[derive(Clone, Debug)]
pub struct LogProbe {
    hashes: DocHashes,
    base: u64,
    highest_hit: u64,
    hash_idx: usize,
    phase: Phase,
}

impl LogProbe {
    /// Probe `doc` starting from known lower bound `base` (usually 0).
    pub fn new(doc: impl Into<DocName>, base: u64, n: usize) -> Self {
        assert!(n >= 1);
        LogProbe {
            hashes: DocHashes::new(doc, n),
            base,
            highest_hit: base,
            hash_idx: 1,
            phase: Phase::Gallop {
                probing: base + 1,
                step: 1,
            },
        }
    }

    /// The recovered `last_ts`, once finished.
    pub fn result(&self) -> Option<u64> {
        match self.phase {
            Phase::Done(v) => Some(v),
            _ => None,
        }
    }

    /// The next probe to run, or `None` when finished.
    pub fn next_cmd(&self) -> Option<ProbeCmd> {
        let ts = match self.phase {
            Phase::Gallop { probing, .. } => probing,
            Phase::Binary { probing, .. } => probing,
            Phase::Done(_) => return None,
        };
        Some(ProbeCmd {
            ts,
            hash_idx: self.hash_idx,
            key: self.hashes.hr(self.hash_idx, ts),
        })
    }

    /// Feed the result of the last [`LogProbe::next_cmd`]: `present` means
    /// the get returned bytes.
    pub fn on_result(&mut self, present: bool) {
        let probing = match self.phase {
            Phase::Gallop { probing, .. } => probing,
            Phase::Binary { probing, .. } => probing,
            Phase::Done(_) => return,
        };
        if !present && self.hash_idx < self.hashes.n() {
            // Try the next replica before declaring the ts absent.
            self.hash_idx += 1;
            return;
        }
        let ts_present = present;
        self.hash_idx = 1;
        match self.phase {
            Phase::Gallop { step, .. } => {
                if ts_present {
                    self.highest_hit = probing;
                    let next_step = step.saturating_mul(2);
                    self.phase = Phase::Gallop {
                        probing: self.base + next_step,
                        step: next_step,
                    };
                } else if probing == self.highest_hit + 1 {
                    // The very next ts is absent: highest hit is the answer.
                    self.phase = Phase::Done(self.highest_hit);
                } else {
                    self.phase = Phase::Binary {
                        lo: self.highest_hit,
                        hi: probing,
                        probing: self.highest_hit + (probing - self.highest_hit) / 2,
                    };
                }
            }
            Phase::Binary { lo, hi, .. } => {
                let (lo, hi) = if ts_present {
                    (probing, hi)
                } else {
                    (lo, probing)
                };
                if hi - lo <= 1 {
                    self.phase = Phase::Done(lo);
                } else {
                    self.phase = Phase::Binary {
                        lo,
                        hi,
                        probing: lo + (hi - lo) / 2,
                    };
                }
            }
            Phase::Done(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a probe against a log that contains 1..=actual.
    fn run(actual: u64, base: u64, n: usize) -> (u64, usize) {
        let mut probe = LogProbe::new("doc", base, n);
        let mut steps = 0;
        while let Some(cmd) = probe.next_cmd() {
            steps += 1;
            assert!(steps < 1000, "probe diverged");
            // Replica 1 always answers truthfully in this model.
            probe.on_result(cmd.ts <= actual);
        }
        (probe.result().unwrap(), steps)
    }

    #[test]
    fn empty_log() {
        assert_eq!(run(0, 0, 3).0, 0);
    }

    #[test]
    fn exact_recovery_small() {
        for actual in 0..20 {
            assert_eq!(run(actual, 0, 2).0, actual, "actual={actual}");
        }
    }

    #[test]
    fn exact_recovery_large_with_log_steps() {
        let (result, steps) = run(1_000_000, 0, 1);
        assert_eq!(result, 1_000_000);
        // Gallop + binary search: O(log n) probes.
        assert!(steps < 50, "took {steps} probes");
    }

    #[test]
    fn base_hint_shortens_probe() {
        let (result, steps_cold) = run(1000, 0, 1);
        assert_eq!(result, 1000);
        let (result, steps_warm) = run(1000, 990, 1);
        assert_eq!(result, 1000);
        assert!(steps_warm < steps_cold);
    }

    #[test]
    fn replica_fallback_before_declaring_absent() {
        // Replica 1 lost everything; replica 2 has the data.
        let mut probe = LogProbe::new("doc", 0, 2);
        let actual = 3u64;
        let mut steps = 0;
        while let Some(cmd) = probe.next_cmd() {
            steps += 1;
            assert!(steps < 100);
            let present = cmd.hash_idx == 2 && cmd.ts <= actual;
            probe.on_result(present);
        }
        assert_eq!(probe.result(), Some(3));
    }

    #[test]
    fn result_none_until_done() {
        let probe = LogProbe::new("doc", 0, 1);
        assert_eq!(probe.result(), None);
        assert!(probe.next_cmd().is_some());
    }
}
