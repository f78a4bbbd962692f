//! Correctness oracles over a finished (or paused) simulation:
//!
//! * **continuity** — per document, the set of master-granted timestamps is
//!   exactly `1..=max`, with no gaps and no duplicates (the paper's central
//!   invariant);
//! * **total order** — every replica integrated patches in strictly
//!   ascending `+1` order;
//! * **convergence** — all live replicas of a document expose identical
//!   text (eventual consistency);
//! * **equivocation** — no two stored log records anywhere in the network
//!   share `(doc, ts)` with different payloads (the dual-master detector,
//!   and the seed of the byzantine oracle);
//! * **epoch monotonicity** — per replica, integrated records carry
//!   non-decreasing master epochs (a superseded master's write never
//!   lands after the winning epoch's).

use std::collections::BTreeMap;

use simnet::Sim;

use crate::events::LtrEventKind;
use crate::node::LtrNode;
use crate::payload::Payload;

/// Violations found by [`check_continuity`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ContinuityReport {
    /// Per document: the granted timestamps, sorted.
    pub granted: BTreeMap<String, Vec<u64>>,
    /// (doc, ts) granted more than once — a broken total order.
    pub duplicates: Vec<(String, u64)>,
    /// (doc, missing ts) holes below the per-doc maximum.
    pub gaps: Vec<(String, u64)>,
}

impl ContinuityReport {
    /// True when no duplicates and no gaps were found.
    pub fn is_clean(&self) -> bool {
        self.duplicates.is_empty() && self.gaps.is_empty()
    }

    /// Highest granted timestamp for a document (0 = none).
    pub fn last_ts(&self, doc: &str) -> u64 {
        self.granted
            .get(doc)
            .and_then(|v| v.last().copied())
            .unwrap_or(0)
    }
}

/// Collect every `MasterGranted` event across all nodes (including crashed
/// and departed ones — grants are history) and verify continuity.
///
/// A master can crash *after* its puts durably reached the Log-Peers but
/// *before* it could record the grant, so timestamps witnessed by any
/// replica's `Integrated` event also count as granted (the log is the
/// ground truth). Duplicates are checked over master grants only: two
/// masters completing the same `(doc, ts)` would be a real split-brain.
pub fn check_continuity(sim: &Sim<Payload>) -> ContinuityReport {
    let mut granted: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut witnessed: BTreeMap<String, std::collections::BTreeSet<u64>> = BTreeMap::new();
    for idx in 0..sim.node_count() {
        let id = simnet::NodeId(idx as u32);
        if let Some(node) = sim.node_as::<LtrNode>(id) {
            for (doc, ts) in node.grants() {
                witnessed.entry(doc.clone()).or_default().insert(ts);
                granted.entry(doc).or_default().push(ts);
            }
            for ev in &node.events {
                if let LtrEventKind::Integrated { doc, ts, .. } = &ev.kind {
                    witnessed.entry(doc.to_string()).or_default().insert(*ts);
                }
            }
        }
    }
    let mut report = ContinuityReport::default();
    // Duplicate grants (split-brain detector).
    for (doc, tss) in &mut granted {
        tss.sort_unstable();
        for w in tss.windows(2) {
            if w[0] == w[1] {
                report.duplicates.push((doc.clone(), w[0]));
            }
        }
    }
    // Gaps over the witnessed set.
    for (doc, set) in witnessed {
        let max = set.iter().next_back().copied().unwrap_or(0);
        for ts in 1..=max {
            if !set.contains(&ts) {
                report.gaps.push((doc.clone(), ts));
            }
        }
        report.granted.insert(doc, set.into_iter().collect());
    }
    report
}

/// Violations found by [`check_total_order`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OrderReport {
    /// (node, doc, previous ts, integrated ts) where the step was not +1.
    pub violations: Vec<(u32, String, u64, u64)>,
    /// Total integrations checked.
    pub checked: usize,
}

impl OrderReport {
    /// True when every replica integrated in continuous ascending order.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Verify every node integrated each document's patches in `+1` steps.
pub fn check_total_order(sim: &Sim<Payload>) -> OrderReport {
    let mut report = OrderReport::default();
    for idx in 0..sim.node_count() {
        let id = simnet::NodeId(idx as u32);
        let node = match sim.node_as::<LtrNode>(id) {
            Some(n) => n,
            None => continue,
        };
        let mut last: BTreeMap<&str, u64> = BTreeMap::new();
        for ev in &node.events {
            if let LtrEventKind::Integrated { doc, ts, .. } = &ev.kind {
                let prev = last.get(doc.as_str()).copied().unwrap_or(0);
                report.checked += 1;
                if *ts != prev + 1 {
                    report
                        .violations
                        .push((idx as u32, doc.to_string(), prev, *ts));
                }
                last.insert(doc, *ts);
            }
        }
    }
    report
}

/// Result of [`check_convergence`].
#[derive(Clone, Debug, Default)]
pub struct ConvergenceReport {
    /// Per document: distinct (text hash, replica count, sample text).
    pub variants: BTreeMap<String, Vec<(u64, usize, String)>>,
    /// Replicas still busy (publish cycle in flight) — convergence is only
    /// expected at quiescence.
    pub busy_replicas: usize,
    /// Per document: the timestamps the replicas sit at.
    pub replica_ts: BTreeMap<String, Vec<u64>>,
}

impl ConvergenceReport {
    /// True when every document has exactly one variant across all live
    /// replicas and nothing is busy.
    pub fn is_converged(&self) -> bool {
        self.busy_replicas == 0 && self.variants.values().all(|v| v.len() <= 1)
    }

    /// Number of documents checked.
    pub fn docs(&self) -> usize {
        self.variants.len()
    }
}

/// Compare the working text of every live replica of every document.
pub fn check_convergence(sim: &Sim<Payload>) -> ConvergenceReport {
    let mut report = ConvergenceReport::default();
    let mut by_doc: BTreeMap<String, BTreeMap<u64, (usize, String)>> = BTreeMap::new();
    for id in sim.alive_nodes() {
        let node = match sim.node_as::<LtrNode>(id) {
            Some(n) => n,
            None => continue,
        };
        for doc in node.open_docs() {
            if node.is_busy(&doc) {
                report.busy_replicas += 1;
            }
            let text = node.doc_text(&doc).expect("open doc has text");
            let hash = node.doc_hash(&doc).expect("open doc has hash");
            let entry = by_doc.entry(doc.clone()).or_default();
            let slot = entry.entry(hash).or_insert((0, text));
            slot.0 += 1;
            report
                .replica_ts
                .entry(doc.clone())
                .or_default()
                .push(node.doc_ts(&doc).unwrap_or(0));
        }
    }
    for (doc, variants) in by_doc {
        let mut v: Vec<(u64, usize, String)> = variants
            .into_iter()
            .map(|(h, (count, text))| (h, count, text))
            .collect();
        v.sort_by_key(|(h, _, _)| *h);
        report.variants.insert(doc, v);
    }
    report
}

/// Violations found by [`check_equivocation`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EquivocationReport {
    /// `(doc, ts, epochs of the distinct payloads)` for every slot where
    /// two different record payloads coexist *under the same master
    /// epoch* — proof that one epoch granted the same timestamp twice,
    /// which fencing must make impossible.
    pub conflicts: Vec<(String, u64, Vec<u64>)>,
    /// `(doc, ts, epochs)` for slots holding distinct payloads under
    /// *different* epochs: a superseded master's write at a re-granted
    /// slot, outranked by the fenced successor. Expected residue of a
    /// takeover (e.g. on a crashed disk, or a minority copy the ranked
    /// displacement has not yet reached) — surfaced for observability,
    /// not an invariant violation.
    pub superseded: Vec<(String, u64, Vec<u64>)>,
    /// Stored log records examined (primary + replica buckets, all nodes).
    pub records_checked: usize,
}

impl EquivocationReport {
    /// True when no epoch ever stored two payloads for one `(doc, ts)`.
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty()
    }
}

/// Scan every node's stored log records (primary and replica buckets,
/// crashed nodes included — their disks are evidence) and report every
/// `(doc, ts)` held with more than one distinct patch payload.
pub fn check_equivocation(sim: &Sim<Payload>) -> EquivocationReport {
    let mut report = EquivocationReport::default();
    // (doc, ts) -> payload -> epoch.
    let mut slots: BTreeMap<(String, u64), BTreeMap<bytes::Bytes, u64>> = BTreeMap::new();
    for idx in 0..sim.node_count() {
        let id = simnet::NodeId(idx as u32);
        let node = match sim.node_as::<LtrNode>(id) {
            Some(n) => n,
            None => continue,
        };
        let storage = node.chord().storage();
        for (_, v) in storage.iter_primary().chain(storage.iter_replica()) {
            if let Ok(rec) = p2plog::LogRecord::decode(v) {
                report.records_checked += 1;
                slots
                    .entry((rec.doc.clone(), rec.ts))
                    .or_default()
                    .insert(rec.patch.clone(), rec.epoch);
            }
        }
    }
    for ((doc, ts), payloads) in slots {
        if payloads.len() <= 1 {
            continue;
        }
        // Two payloads under one epoch = a dual grant (violation); all
        // payloads under distinct epochs = a fenced takeover's residue.
        let mut per_epoch: BTreeMap<u64, usize> = BTreeMap::new();
        for epoch in payloads.values() {
            *per_epoch.entry(*epoch).or_default() += 1;
        }
        let epochs: Vec<u64> = payloads.into_values().collect();
        if per_epoch.values().any(|&n| n > 1) {
            report.conflicts.push((doc, ts, epochs));
        } else {
            report.superseded.push((doc, ts, epochs));
        }
    }
    report
}

/// Violations found by [`check_epoch_monotonic`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochReport {
    /// (node, doc, ts, previous epoch, integrated epoch) where the epoch
    /// regressed along a replica's integration order.
    pub violations: Vec<(u32, String, u64, u64, u64)>,
    /// Total integrations checked.
    pub checked: usize,
}

impl EpochReport {
    /// True when every replica saw non-decreasing epochs.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Verify that every replica integrated records with non-decreasing
/// master epochs.
pub fn check_epoch_monotonic(sim: &Sim<Payload>) -> EpochReport {
    let mut report = EpochReport::default();
    for idx in 0..sim.node_count() {
        let id = simnet::NodeId(idx as u32);
        let node = match sim.node_as::<LtrNode>(id) {
            Some(n) => n,
            None => continue,
        };
        let mut last: BTreeMap<&str, u64> = BTreeMap::new();
        for ev in &node.events {
            if let LtrEventKind::Integrated { doc, ts, epoch, .. } = &ev.kind {
                let prev = last.get(doc.as_str()).copied().unwrap_or(0);
                report.checked += 1;
                if *epoch < prev {
                    report
                        .violations
                        .push((idx as u32, doc.to_string(), *ts, prev, *epoch));
                }
                last.insert(doc, *epoch);
            }
        }
    }
    report
}

/// All oracles over one run, bundled for scenario-style reporting
/// (the fault matrix runs many scenarios and needs a uniform verdict).
#[derive(Clone, Debug)]
pub struct InvariantReport {
    /// Timestamp continuity (per-doc grants are exactly `1..=max`).
    pub continuity: ContinuityReport,
    /// Per-replica total order (+1 integration steps).
    pub order: OrderReport,
    /// Replica convergence (identical text at quiescence).
    pub convergence: ConvergenceReport,
    /// No `(doc, ts)` stored with two payloads (dual-master detector).
    pub equivocation: EquivocationReport,
    /// Per-replica non-decreasing master epochs.
    pub epochs: EpochReport,
}

impl InvariantReport {
    /// True when every oracle passes.
    pub fn is_clean(&self) -> bool {
        self.continuity.is_clean()
            && self.order.is_clean()
            && self.convergence.is_converged()
            && self.equivocation.is_clean()
            && self.epochs.is_clean()
    }

    /// One-line human summary, e.g. for a per-scenario table row or CI
    /// step output.
    pub fn summary(&self) -> String {
        format!(
            "continuity={} (docs={}, dups={}, gaps={}) total-order={} ({} integrations) \
             convergence={} ({} docs, {} busy) equivocation={} ({} records, {} superseded) \
             epoch-monotonic={} ({} integrations)",
            self.continuity.is_clean(),
            self.continuity.granted.len(),
            self.continuity.duplicates.len(),
            self.continuity.gaps.len(),
            self.order.is_clean(),
            self.order.checked,
            self.convergence.is_converged(),
            self.convergence.docs(),
            self.convergence.busy_replicas,
            self.equivocation.is_clean(),
            self.equivocation.records_checked,
            self.equivocation.superseded.len(),
            self.epochs.is_clean(),
            self.epochs.checked,
        )
    }
}

/// Run every oracle over the simulation.
pub fn check_all(sim: &Sim<Payload>) -> InvariantReport {
    InvariantReport {
        continuity: check_continuity(sim),
        order: check_total_order(sim),
        convergence: check_convergence(sim),
        equivocation: check_equivocation(sim),
        epochs: check_epoch_monotonic(sim),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuity_report_detects_gap_and_dup() {
        // Unit-test the analysis logic directly on a synthetic report.
        let mut rep = ContinuityReport::default();
        let mut tss = vec![1u64, 2, 2, 4];
        tss.sort_unstable();
        let mut expected = 1u64;
        for &ts in &tss {
            if ts == expected {
                expected += 1;
            } else if ts < expected {
                rep.duplicates.push(("d".into(), ts));
            } else {
                while expected < ts {
                    rep.gaps.push(("d".into(), expected));
                    expected += 1;
                }
                expected = ts + 1;
            }
        }
        assert_eq!(rep.duplicates, vec![("d".to_string(), 2)]);
        assert_eq!(rep.gaps, vec![("d".to_string(), 3)]);
        assert!(!rep.is_clean());
    }
}
