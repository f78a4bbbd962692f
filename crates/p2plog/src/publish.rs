//! Publish-side bookkeeping: fan a record out to the `n` Log-Peers and
//! decide the outcome from the per-replica acknowledgements.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::indexing_slicing, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

use chord::Id;

use crate::config::AckPolicy;
use crate::hashfam::log_locations;

/// Final verdict of one publish fan-out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishVerdict {
    /// Enough replicas stored the record.
    Ok,
    /// Some replica already holds a *different* record under this
    /// `(doc, ts)` — another master granted this timestamp.
    Conflict,
    /// Not enough replicas reachable.
    Unreachable,
}

/// Per-replica response fed into the tracker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaResponse {
    /// Stored (or already held the identical record).
    Acked,
    /// Holds a different record (first-writer-wins rejection).
    Conflicted,
    /// Timed out / unreachable / refused.
    Failed,
}

/// Tracks one in-flight publish across its `n` replica puts.
#[derive(Clone, Debug)]
pub struct PublishTracker {
    total: usize,
    required: usize,
    acks: usize,
    conflicts: usize,
    failures: usize,
    verdict: Option<PublishVerdict>,
}

impl PublishTracker {
    /// Start tracking a fan-out of `n` puts under the given policy.
    pub fn new(n: usize, policy: AckPolicy) -> Self {
        let required = match policy {
            AckPolicy::All => n,
            AckPolicy::Quorum(w) => w.min(n).max(1),
        };
        PublishTracker {
            total: n,
            required,
            acks: 0,
            conflicts: 0,
            failures: 0,
            verdict: None,
        }
    }

    /// The target log locations for this record.
    pub fn locations(n: usize, doc: &str, ts: u64) -> Vec<Id> {
        log_locations(n, doc, ts)
    }

    /// Feed one replica's response; returns the verdict when it becomes
    /// decidable (exactly once).
    pub fn on_response(&mut self, resp: ReplicaResponse) -> Option<PublishVerdict> {
        if self.verdict.is_some() {
            return None; // already decided; late responses ignored
        }
        match resp {
            ReplicaResponse::Acked => self.acks += 1,
            ReplicaResponse::Conflicted => self.conflicts += 1,
            ReplicaResponse::Failed => self.failures += 1,
        }
        let outstanding = self.total - self.acks - self.conflicts - self.failures;
        let verdict = if self.conflicts > 0 {
            // Records are immutable and keyed by (doc, ts): a different
            // value can only come from a competing master. One conflicting
            // replica is decisive.
            Some(PublishVerdict::Conflict)
        } else if self.acks >= self.required {
            Some(PublishVerdict::Ok)
        } else if self.acks + outstanding < self.required {
            Some(PublishVerdict::Unreachable)
        } else {
            None
        };
        if verdict.is_some() {
            self.verdict = verdict;
        }
        verdict
    }

    /// The verdict, if already decided.
    pub fn verdict(&self) -> Option<PublishVerdict> {
        self.verdict
    }

    /// Acks received so far.
    pub fn acks(&self) -> usize {
        self.acks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policy_requires_every_ack() {
        let mut t = PublishTracker::new(3, AckPolicy::All);
        assert_eq!(t.on_response(ReplicaResponse::Acked), None);
        assert_eq!(t.on_response(ReplicaResponse::Acked), None);
        assert_eq!(
            t.on_response(ReplicaResponse::Acked),
            Some(PublishVerdict::Ok)
        );
    }

    #[test]
    fn quorum_policy_decides_early() {
        let mut t = PublishTracker::new(4, AckPolicy::Quorum(2));
        assert_eq!(t.on_response(ReplicaResponse::Acked), None);
        assert_eq!(
            t.on_response(ReplicaResponse::Acked),
            Some(PublishVerdict::Ok)
        );
        // Late responses are swallowed.
        assert_eq!(t.on_response(ReplicaResponse::Failed), None);
    }

    #[test]
    fn single_conflict_is_decisive() {
        let mut t = PublishTracker::new(3, AckPolicy::All);
        assert_eq!(t.on_response(ReplicaResponse::Acked), None);
        assert_eq!(
            t.on_response(ReplicaResponse::Conflicted),
            Some(PublishVerdict::Conflict)
        );
    }

    #[test]
    fn unreachable_when_quorum_impossible() {
        let mut t = PublishTracker::new(3, AckPolicy::All);
        assert_eq!(t.on_response(ReplicaResponse::Acked), None);
        assert_eq!(
            t.on_response(ReplicaResponse::Failed),
            Some(PublishVerdict::Unreachable),
            "one failure under All makes n acks impossible"
        );
    }

    #[test]
    fn quorum_tolerates_failures() {
        let mut t = PublishTracker::new(4, AckPolicy::Quorum(2));
        assert_eq!(t.on_response(ReplicaResponse::Failed), None);
        assert_eq!(t.on_response(ReplicaResponse::Failed), None);
        assert_eq!(t.on_response(ReplicaResponse::Acked), None);
        assert_eq!(
            t.on_response(ReplicaResponse::Acked),
            Some(PublishVerdict::Ok)
        );
    }

    #[test]
    fn quorum_unreachable_when_too_many_fail() {
        let mut t = PublishTracker::new(3, AckPolicy::Quorum(2));
        assert_eq!(t.on_response(ReplicaResponse::Failed), None);
        assert_eq!(
            t.on_response(ReplicaResponse::Failed),
            Some(PublishVerdict::Unreachable)
        );
    }

    #[test]
    fn quorum_clamped_to_n() {
        let mut t = PublishTracker::new(2, AckPolicy::Quorum(5));
        t.on_response(ReplicaResponse::Acked);
        assert_eq!(
            t.on_response(ReplicaResponse::Acked),
            Some(PublishVerdict::Ok)
        );
    }
}
