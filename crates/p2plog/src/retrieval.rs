//! The retrieval algorithm: fetch missing patches **in total (continuous
//! timestamp) order**, trying the replication hashes in sequence when a
//! Log-Peer misses or is unreachable (RR-6497 §3: `get(h_i(key+ts))`).
//!
//! Fetches for different timestamps are pipelined up to a window, but
//! records are *delivered* strictly in ascending timestamp order — the
//! property Figure 5 of the paper demonstrates.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::indexing_slicing, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

use std::collections::BTreeMap;

use bytes::Bytes;

use chord::Id;

use crate::hashfam::DocHashes;
use chord::DocName;

/// A fetch the embedding layer must perform (a DHT get at `key`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchCmd {
    /// Timestamp being fetched.
    pub ts: u64,
    /// Which replication hash (1-based).
    pub hash_idx: usize,
    /// The DHT key `h_i(doc + ts)`.
    pub key: Id,
}

/// Ordered outputs of the retriever.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RetrieveEvent {
    /// The next record, in continuous order.
    Deliver {
        /// Its timestamp (always previous + 1).
        ts: u64,
        /// The stored bytes (a `LogRecord` encoding).
        bytes: Bytes,
    },
    /// All replicas missed for `ts`: retrieval cannot proceed past it.
    Failed {
        /// The unfetchable timestamp.
        ts: u64,
    },
    /// The whole range was delivered.
    Done,
}

#[derive(Clone, Debug)]
enum TsState {
    /// Waiting for the fetch of replica `hash_idx` to come back.
    InFlight { hash_idx: usize },
    /// Fetched, awaiting in-order delivery.
    Ready(Bytes),
    /// All replicas exhausted.
    Exhausted,
}

/// Sans-IO retrieval state machine for one `(doc, from..=to]` range.
///
/// Holds a [`DocHashes`] midstate cache: every fetch in the window derives
/// its key from the cached per-document SHA-1 state instead of re-hashing
/// the document name.
#[derive(Clone, Debug)]
pub struct Retriever {
    hashes: DocHashes,
    window: usize,
    next_emit: u64,
    next_issue: u64,
    to: u64,
    states: BTreeMap<u64, TsState>,
    finished: bool,
}

impl Retriever {
    /// Retrieve timestamps `(from, to]` of `doc` with replication degree
    /// `n`, pipelining up to `window` timestamps.
    pub fn new(doc: impl Into<DocName>, from: u64, to: u64, n: usize, window: usize) -> Self {
        assert!(from <= to, "empty or inverted range");
        assert!(n >= 1 && window >= 1);
        Retriever {
            hashes: DocHashes::new(doc, n),
            window,
            next_emit: from + 1,
            next_issue: from + 1,
            to,
            states: BTreeMap::new(),
            finished: from == to,
        }
    }

    /// True once `Done` or `Failed` has been emitted.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Initial fetches (fills the pipeline window).
    pub fn start(&mut self) -> Vec<FetchCmd> {
        self.refill()
    }

    fn refill(&mut self) -> Vec<FetchCmd> {
        let mut cmds = Vec::new();
        while self.next_issue <= self.to && (self.next_issue - self.next_emit) < self.window as u64
        {
            let ts = self.next_issue;
            self.states.insert(ts, TsState::InFlight { hash_idx: 1 });
            cmds.push(FetchCmd {
                ts,
                hash_idx: 1,
                key: self.hashes.hr(1, ts),
            });
            self.next_issue += 1;
        }
        cmds
    }

    /// The currently in-flight fetch for `ts`, if any — used by callers
    /// that need to *re-issue* a fetch whose transport failed without
    /// reaching the replica. An operational failure is not a miss: only
    /// an authoritative "not present" answer may trigger the replica
    /// fallback (feeding `None` to [`Retriever::on_fetch_result`]), or a
    /// reader can be steered to a non-canonical copy of a timestamp
    /// while the canonical one is merely unreachable.
    pub fn refetch_cmd(&self, ts: u64) -> Option<FetchCmd> {
        if self.finished {
            return None;
        }
        match self.states.get(&ts) {
            Some(TsState::InFlight { hash_idx }) => Some(FetchCmd {
                ts,
                hash_idx: *hash_idx,
                key: self.hashes.hr(*hash_idx, ts),
            }),
            _ => None,
        }
    }

    /// Feed the result of a fetch. `found` must be `None` only on an
    /// authoritative miss (the responsible replica answered "not
    /// present"); a get that *failed* should be re-issued via
    /// [`Retriever::refetch_cmd`] instead. Returns follow-up fetches plus
    /// in-order events.
    pub fn on_fetch_result(
        &mut self,
        ts: u64,
        hash_idx: usize,
        found: Option<Bytes>,
    ) -> (Vec<FetchCmd>, Vec<RetrieveEvent>) {
        let mut cmds = Vec::new();
        let mut events = Vec::new();
        if self.finished {
            return (cmds, events);
        }
        match self.states.get(&ts) {
            Some(TsState::InFlight { hash_idx: cur }) if *cur == hash_idx => {}
            _ => return (cmds, events), // stale or duplicate result
        }
        match found {
            Some(bytes) => {
                self.states.insert(ts, TsState::Ready(bytes));
            }
            None => {
                if hash_idx < self.hashes.n() {
                    let next = hash_idx + 1;
                    self.states.insert(ts, TsState::InFlight { hash_idx: next });
                    cmds.push(FetchCmd {
                        ts,
                        hash_idx: next,
                        key: self.hashes.hr(next, ts),
                    });
                } else {
                    self.states.insert(ts, TsState::Exhausted);
                }
            }
        }
        // Drain in-order deliveries.
        loop {
            match self.states.get(&self.next_emit) {
                Some(TsState::Ready(_)) => {
                    // Just observed Ready above; the other arms cannot hit.
                    let Some(TsState::Ready(bytes)) = self.states.remove(&self.next_emit) else {
                        break;
                    };
                    events.push(RetrieveEvent::Deliver {
                        ts: self.next_emit,
                        bytes,
                    });
                    self.next_emit += 1;
                }
                Some(TsState::Exhausted) => {
                    events.push(RetrieveEvent::Failed { ts: self.next_emit });
                    self.finished = true;
                    return (Vec::new(), events);
                }
                _ => break,
            }
        }
        if self.next_emit > self.to {
            events.push(RetrieveEvent::Done);
            self.finished = true;
            return (Vec::new(), events);
        }
        cmds.extend(self.refill());
        (cmds, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashfam::hr;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn in_order_delivery_with_out_of_order_arrival() {
        let mut r = Retriever::new("doc", 0, 3, 2, 4);
        let cmds = r.start();
        assert_eq!(cmds.len(), 3, "window covers the whole range");
        // ts=2 arrives first: no delivery yet.
        let (_, ev) = r.on_fetch_result(2, 1, Some(b("p2")));
        assert!(ev.is_empty());
        // ts=1 arrives: 1 and 2 delivered in order.
        let (_, ev) = r.on_fetch_result(1, 1, Some(b("p1")));
        assert_eq!(
            ev,
            vec![
                RetrieveEvent::Deliver {
                    ts: 1,
                    bytes: b("p1")
                },
                RetrieveEvent::Deliver {
                    ts: 2,
                    bytes: b("p2")
                },
            ]
        );
        // ts=3 completes the range.
        let (_, ev) = r.on_fetch_result(3, 1, Some(b("p3")));
        assert_eq!(
            ev,
            vec![
                RetrieveEvent::Deliver {
                    ts: 3,
                    bytes: b("p3")
                },
                RetrieveEvent::Done,
            ]
        );
        assert!(r.is_finished());
    }

    #[test]
    fn falls_back_across_replicas() {
        let mut r = Retriever::new("doc", 0, 1, 3, 1);
        let cmds = r.start();
        assert_eq!(cmds[0].hash_idx, 1);
        // h1 misses -> h2 requested.
        let (cmds, ev) = r.on_fetch_result(1, 1, None);
        assert!(ev.is_empty());
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].hash_idx, 2);
        // h2 misses -> h3.
        let (cmds, _) = r.on_fetch_result(1, 2, None);
        assert_eq!(cmds[0].hash_idx, 3);
        // h3 hits.
        let (_, ev) = r.on_fetch_result(1, 3, Some(b("p")));
        assert_eq!(ev.len(), 2); // Deliver + Done
    }

    #[test]
    fn exhausting_all_replicas_fails() {
        let mut r = Retriever::new("doc", 0, 2, 2, 2);
        r.start();
        r.on_fetch_result(1, 1, None);
        let (_, ev) = r.on_fetch_result(1, 2, None);
        assert_eq!(ev, vec![RetrieveEvent::Failed { ts: 1 }]);
        assert!(r.is_finished());
    }

    #[test]
    fn window_limits_outstanding() {
        let mut r = Retriever::new("doc", 0, 10, 1, 3);
        let cmds = r.start();
        assert_eq!(cmds.len(), 3);
        // Completing ts=1 lets ts=4 issue.
        let (cmds, ev) = r.on_fetch_result(1, 1, Some(b("p")));
        assert_eq!(ev.len(), 1);
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].ts, 4);
    }

    #[test]
    fn stale_results_ignored() {
        let mut r = Retriever::new("doc", 0, 1, 2, 1);
        r.start();
        // Result for the wrong replica index is dropped.
        let (cmds, ev) = r.on_fetch_result(1, 2, Some(b("x")));
        assert!(cmds.is_empty() && ev.is_empty());
        // Result for an unknown ts is dropped.
        let (cmds, ev) = r.on_fetch_result(9, 1, Some(b("x")));
        assert!(cmds.is_empty() && ev.is_empty());
    }

    #[test]
    fn empty_range_is_immediately_finished() {
        let mut r = Retriever::new("doc", 5, 5, 2, 2);
        assert!(r.is_finished());
        assert!(r.start().is_empty());
    }

    #[test]
    fn commands_use_the_right_hash_keys() {
        let mut r = Retriever::new("mydoc", 0, 1, 2, 1);
        let cmds = r.start();
        assert_eq!(cmds[0].key, hr(1, "mydoc", 1));
        let (cmds, _) = r.on_fetch_result(1, 1, None);
        assert_eq!(cmds[0].key, hr(2, "mydoc", 1));
    }
}
