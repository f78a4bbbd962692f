//! Fence-side bookkeeping: raise a grant fence at the `n` Log-Peers of
//! the next timestamp slot and decide the outcome from the per-replica
//! acknowledgements.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::indexing_slicing, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

/// Final verdict of one fence fan-out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FenceVerdict {
    /// A quorum of log locations holds the fence: no record ranked
    /// below this master's epoch can land at the fenced slot anymore.
    Acked {
        /// True when any acked location already held a primary record at
        /// the fenced key — the slot was published before the fence went
        /// up, and the master must re-probe before serving.
        occupied: bool,
    },
    /// Some location already holds a *higher* fence (or an equal fence
    /// from a rival): a newer master epoch is active.
    Superseded {
        /// The winning floor observed.
        current: u64,
    },
    /// A quorum could not be reached.
    Unreachable,
}

/// Per-location response fed into the tracker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FenceResponse {
    /// The floor is in force at this location.
    Acked {
        /// A primary record already occupies the fenced key there.
        occupied: bool,
    },
    /// Rejected: a rival's floor is in force.
    Superseded {
        /// The rival's floor.
        current: u64,
    },
    /// Timed out / unreachable.
    Failed,
}

/// Tracks one in-flight fence across its `n` location ops. Quorum is a
/// strict majority of the replication set, so any two fencing masters
/// must overlap in at least one location — where the strict floor
/// arbitration ([`chord::Storage::raise_fence`]) rejects one of them.
#[derive(Clone, Debug)]
pub struct FenceTracker {
    total: usize,
    required: usize,
    acks: usize,
    failures: usize,
    occupied: bool,
    verdict: Option<FenceVerdict>,
}

impl FenceTracker {
    /// Start tracking a fan-out of `n` fence ops (quorum = ⌊n/2⌋+1).
    pub fn new(n: usize) -> Self {
        FenceTracker {
            total: n,
            required: n / 2 + 1,
            acks: 0,
            failures: 0,
            occupied: false,
            verdict: None,
        }
    }

    /// Feed one location's response; returns the verdict when it becomes
    /// decidable (exactly once).
    pub fn on_response(&mut self, resp: FenceResponse) -> Option<FenceVerdict> {
        if self.verdict.is_some() {
            return None; // already decided; late responses ignored
        }
        match resp {
            FenceResponse::Acked { occupied } => {
                self.acks += 1;
                self.occupied |= occupied;
            }
            FenceResponse::Superseded { current } => {
                // Decisive: a higher epoch holds the fence somewhere.
                self.verdict = Some(FenceVerdict::Superseded { current });
                return self.verdict;
            }
            FenceResponse::Failed => self.failures += 1,
        }
        let outstanding = self.total - self.acks - self.failures;
        let verdict = if self.acks >= self.required {
            Some(FenceVerdict::Acked {
                occupied: self.occupied,
            })
        } else if self.acks + outstanding < self.required {
            Some(FenceVerdict::Unreachable)
        } else {
            None
        };
        if verdict.is_some() {
            self.verdict = verdict;
        }
        verdict
    }

    /// The verdict, if already decided.
    pub fn verdict(&self) -> Option<FenceVerdict> {
        self.verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_ack_decides() {
        let mut t = FenceTracker::new(3);
        assert_eq!(
            t.on_response(FenceResponse::Acked { occupied: false }),
            None
        );
        assert_eq!(
            t.on_response(FenceResponse::Acked { occupied: false }),
            Some(FenceVerdict::Acked { occupied: false })
        );
        // Late responses are swallowed.
        assert_eq!(t.on_response(FenceResponse::Failed), None);
    }

    #[test]
    fn occupied_anywhere_taints_the_ack() {
        let mut t = FenceTracker::new(3);
        t.on_response(FenceResponse::Acked { occupied: true });
        assert_eq!(
            t.on_response(FenceResponse::Acked { occupied: false }),
            Some(FenceVerdict::Acked { occupied: true })
        );
    }

    #[test]
    fn superseded_is_immediately_decisive() {
        let mut t = FenceTracker::new(5);
        t.on_response(FenceResponse::Acked { occupied: false });
        assert_eq!(
            t.on_response(FenceResponse::Superseded { current: 9 }),
            Some(FenceVerdict::Superseded { current: 9 })
        );
        assert_eq!(t.verdict(), Some(FenceVerdict::Superseded { current: 9 }));
    }

    #[test]
    fn unreachable_when_majority_impossible() {
        let mut t = FenceTracker::new(3);
        assert_eq!(t.on_response(FenceResponse::Failed), None);
        assert_eq!(
            t.on_response(FenceResponse::Failed),
            Some(FenceVerdict::Unreachable)
        );
    }

    #[test]
    fn single_location_set_needs_its_only_ack() {
        let mut t = FenceTracker::new(1);
        assert_eq!(
            t.on_response(FenceResponse::Acked { occupied: false }),
            Some(FenceVerdict::Acked { occupied: false })
        );
        let mut t = FenceTracker::new(1);
        assert_eq!(
            t.on_response(FenceResponse::Failed),
            Some(FenceVerdict::Unreachable)
        );
    }
}
