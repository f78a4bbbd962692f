//! Randomized interleaving tests of the master state machine: arbitrary
//! mixes of validations, publish completions (ok/unreachable), probes,
//! fences, handoffs and backups must never break the continuity of granted
//! timestamps.
//!
//! The world here has one master and a truthful log, so every fence is
//! acked; rival masters, superseded floors and the fencing invariants are
//! model-checked in `fencing_model.rs`.

use bytes::Bytes;
use chord::DocName;
use chord::{Id, NodeRef};
use kts::{
    FenceOutcome, HandoffEntry, KtsConfig, KtsMaster, KtsMsg, MasterAction, PublishOutcome, ReqId,
};
use proptest::prelude::*;
use simnet::NodeId;

fn user(n: u32) -> NodeRef {
    NodeRef::new(NodeId(n), Id(n as u64))
}

/// A deterministic "world" that completes publishes/probes according to a
/// scripted outcome sequence, collecting every granted timestamp.
struct World {
    master: KtsMaster,
    /// Pending publish tokens with their granted ts.
    publishes: Vec<(u64, u64)>,
    /// Pending probe tokens.
    probes: Vec<u64>,
    /// Pending fence tokens with the `last_ts` they fence above.
    fences: Vec<(u64, u64)>,
    /// The "log": highest ts durably stored per this world.
    log_high: u64,
    /// Every ts the master granted (publish completed Ok).
    granted: Vec<u64>,
    /// Replies users received.
    retries: usize,
    redirects: usize,
}

impl World {
    fn new(cfg: KtsConfig) -> Self {
        World {
            master: KtsMaster::new(cfg),
            publishes: Vec::new(),
            probes: Vec::new(),
            fences: Vec::new(),
            log_high: 0,
            granted: Vec::new(),
            retries: 0,
            redirects: 0,
        }
    }

    fn absorb(&mut self, actions: Vec<MasterAction>) {
        for act in actions {
            match act {
                MasterAction::BeginPublish { token, ts, .. } => {
                    self.publishes.push((token, ts));
                }
                MasterAction::BeginProbe { token, .. } => self.probes.push(token),
                MasterAction::BeginFence { token, last_ts, .. } => {
                    self.fences.push((token, last_ts));
                }
                MasterAction::Send(_, KtsMsg::Retry { .. }) => self.retries += 1,
                MasterAction::Send(_, KtsMsg::Redirect { .. }) => self.redirects += 1,
                _ => {}
            }
        }
    }

    fn validate(&mut self, key: Id, req: u64, proposed: u64, user_n: u32) {
        let acts = self.master.on_validate(
            key,
            &DocName::new("doc"),
            ReqId(req),
            proposed,
            Bytes::from_static(b"p"),
            user(user_n),
            true,
        );
        self.absorb(acts);
    }

    /// Complete the oldest publish with the given outcome.
    fn complete_publish(&mut self, ok: bool) {
        if self.publishes.is_empty() {
            return;
        }
        let (token, ts) = self.publishes.remove(0);
        let outcome = if ok {
            // First-writer semantics: storing succeeds iff nothing with this
            // ts exists yet (our single-master world never conflicts unless
            // scripted otherwise).
            self.log_high = self.log_high.max(ts);
            PublishOutcome::Ok
        } else {
            PublishOutcome::Unreachable
        };
        if ok {
            self.granted.push(ts);
        }
        let acts = self.master.publish_done(token, outcome);
        self.absorb(acts);
    }

    /// Complete the oldest probe truthfully against the world log.
    fn complete_probe(&mut self) {
        if self.probes.is_empty() {
            return;
        }
        let token = self.probes.remove(0);
        let high = self.log_high;
        let acts = self.master.probe_done(token, high, 0);
        self.absorb(acts);
    }

    /// Ack the oldest fence, truthfully reporting whether the world log
    /// already holds its slot.
    fn complete_fence(&mut self) {
        if self.fences.is_empty() {
            return;
        }
        let (token, last_ts) = self.fences.remove(0);
        let occupied = last_ts < self.log_high;
        let acts = self
            .master
            .fence_done(token, FenceOutcome::Acked { occupied });
        self.absorb(acts);
    }

    /// Complete every outstanding operation (and whatever each one
    /// starts), publishes succeeding.
    fn drain(&mut self) {
        loop {
            if !self.publishes.is_empty() {
                self.complete_publish(true);
            } else if !self.probes.is_empty() {
                self.complete_probe();
            } else if !self.fences.is_empty() {
                self.complete_fence();
            } else {
                return;
            }
        }
    }

    /// One grant: verify the entry if it is new to this master, fence the
    /// slot, publish.
    fn grant(&mut self, key: Id, req: u64, proposed: u64, user_n: u32) {
        self.validate(key, req, proposed, user_n);
        self.complete_probe(); // the entry's verification, first round only
        self.complete_fence();
        self.complete_publish(true);
    }
}

proptest! {
    /// Arbitrary interleavings of user validations (with correct or stale
    /// proposed_ts) and publish/probe completions: the granted sequence is
    /// always exactly 1, 2, 3, … with no duplicates or gaps.
    #[test]
    fn granted_sequence_is_continuous(
        script in prop::collection::vec(0u8..7, 1..120),
    ) {
        let cfg = KtsConfig {
            max_queue_per_key: 16,
        };
        let mut w = World::new(cfg);
        let key = Id(99);
        let mut req = 0u64;
        // Track what each simulated user would propose: users re-sync to the
        // log high before validating half of the time.
        for step in script {
            match step {
                // Fresh validation from a synced user.
                0 | 1 => {
                    req += 1;
                    let proposed = w.log_high;
                    w.validate(key, req, proposed, (req % 5) as u32);
                }
                // Validation from a stale user (proposes an old ts).
                2 => {
                    req += 1;
                    let proposed = w.log_high.saturating_sub(1);
                    w.validate(key, req, proposed, (req % 5) as u32);
                }
                // Publish completes ok.
                3 => w.complete_publish(true),
                // Publish fails (log unreachable).
                4 => w.complete_publish(false),
                // Probe completes.
                5 => w.complete_probe(),
                // Fence completes.
                _ => w.complete_fence(),
            }
        }
        w.drain();

        // Continuity of the granted sequence.
        for (i, &ts) in w.granted.iter().enumerate() {
            prop_assert_eq!(ts, i as u64 + 1, "granted sequence {:?}", w.granted);
        }
        prop_assert_eq!(w.master.last_ts(Id(99)), w.granted.len() as u64);
    }

    /// Handoffs at arbitrary points never lose or duplicate timestamps:
    /// a second master continues exactly where the first stopped.
    #[test]
    fn handoff_preserves_continuity(
        grants_before in 0u64..20,
        grants_after in 1u64..20,
    ) {
        let cfg = KtsConfig::default();
        let key = Id(5);
        let mut a = World::new(cfg.clone());
        for i in 0..grants_before {
            a.grant(key, i + 1, i, 1);
        }
        prop_assert_eq!(a.master.last_ts(key), grants_before);

        let (entries, _) = a.master.export_all();
        let mut b = World::new(cfg);
        b.log_high = a.log_high;
        let acts = b.master.on_table_handoff(entries);
        b.absorb(acts);

        for i in 0..grants_after {
            b.grant(key, 1000 + i, grants_before + i, 2);
        }
        let expect: Vec<u64> = (grants_before + 1..=grants_before + grants_after).collect();
        prop_assert_eq!(&b.granted, &expect, "continuation after handoff");
    }

    /// Backups promoted after a crash continue the sequence, possibly after
    /// a log probe (the backup may lag).
    #[test]
    fn crash_promotion_continues_sequence(grants_before in 1u64..15, lag in 0u64..2) {
        let cfg = KtsConfig::default();
        let key = Id(7);
        let mut a = World::new(cfg.clone());
        for i in 0..grants_before {
            a.grant(key, i + 1, i, 1);
        }
        // The successor's backup may lag the last grant by `lag`.
        let backup_ts = grants_before.saturating_sub(lag);
        let mut b = World::new(cfg);
        b.log_high = a.log_high;
        b.master.on_replicate_entry(HandoffEntry {
            key,
            key_name: "doc".into(),
            last_ts: backup_ts,
            epoch: 1,
        });

        // A synced user publishes through the promoted successor, which
        // verifies its (possibly lagging) backup against the log first.
        b.grant(key, 500, grants_before, 3);
        prop_assert_eq!(&b.granted, &vec![grants_before + 1], "granted {:?}", b.granted);
    }
}
