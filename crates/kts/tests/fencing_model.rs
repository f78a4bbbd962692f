//! Model-checked interleavings of the *fenced* master state machine.
//!
//! A truthful single-key "world" executes the master's actions against a
//! model of the log — per-slot records and per-slot fence floors, exactly
//! the arbitration `chord::Storage` implements — while a rival master and
//! crash/handoff events interleave arbitrarily. The model checker asserts
//! the fencing invariants on the full action stream:
//!
//! 1. **epoch never regresses**: the epochs the master stamps on fences,
//!    publishes and grants are non-decreasing across crashes, handoffs,
//!    demotions and re-promotions;
//! 2. **no grant inside an unacknowledged fence window**: every
//!    `BeginPublish` targets exactly the slot and floor of the currently
//!    acknowledged fence;
//! 3. **no equivocation**: every successful publish lands at the global
//!    log frontier — two records never share a timestamp.

use bytes::Bytes;
use chord::DocName;
use chord::{Id, NodeRef};
use kts::{
    FenceOutcome, HandoffEntry, KtsConfig, KtsMaster, KtsMsg, MasterAction, PublishOutcome, ReqId,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simnet::NodeId;
use std::collections::BTreeMap;

fn user(n: u32) -> NodeRef {
    NodeRef::new(NodeId(n), Id(n as u64))
}

const KEY: Id = Id(99);

struct FencedWorld {
    master: KtsMaster,
    /// The log: slot -> epoch stamped on the record stored there.
    log: BTreeMap<u64, u64>,
    /// Fence floors per slot (single-origin model: higher-or-equal floors
    /// re-assert, lower floors are superseded).
    floors: BTreeMap<u64, u64>,
    /// Outstanding completions (token, slot, epoch) in issue order.
    publishes: Vec<(u64, u64, u64)>,
    probes: Vec<u64>,
    fences: Vec<(u64, u64, u64)>,
    /// Model: the currently acknowledged fence window (slot, floor).
    acked: Option<(u64, u64)>,
    /// Model: highest epoch the master has emitted so far.
    max_master_epoch: u64,
    /// Successful grants in order.
    granted: Vec<u64>,
    /// Invariant violations observed (checked empty at the end).
    violations: Vec<String>,
    req_seq: u64,
}

impl FencedWorld {
    fn new() -> Self {
        FencedWorld {
            master: KtsMaster::new(KtsConfig::default()), // probing + fencing on
            log: BTreeMap::new(),
            floors: BTreeMap::new(),
            publishes: Vec::new(),
            probes: Vec::new(),
            fences: Vec::new(),
            acked: None,
            max_master_epoch: 0,
            granted: Vec::new(),
            violations: Vec::new(),
            req_seq: 0,
        }
    }

    fn log_high(&self) -> u64 {
        self.log.keys().next_back().copied().unwrap_or(0)
    }

    fn log_epoch(&self) -> u64 {
        self.log.values().copied().max().unwrap_or(0)
    }

    fn max_epoch_anywhere(&self) -> u64 {
        self.max_master_epoch
            .max(self.log_epoch())
            .max(self.floors.values().copied().max().unwrap_or(0))
    }

    fn note_epoch(&mut self, what: &str, epoch: u64) {
        if epoch < self.max_master_epoch {
            self.violations.push(format!(
                "epoch regression: {what} carries {epoch} after {}",
                self.max_master_epoch
            ));
        }
        self.max_master_epoch = self.max_master_epoch.max(epoch);
    }

    fn absorb(&mut self, actions: Vec<MasterAction>) {
        for act in actions {
            match act {
                MasterAction::BeginPublish {
                    token, ts, epoch, ..
                } => {
                    self.note_epoch("BeginPublish", epoch);
                    if self.acked != Some((ts, epoch)) {
                        self.violations.push(format!(
                            "grant outside the fence window: publish (ts {ts}, epoch {epoch}) \
                             but acked fence is {:?}",
                            self.acked
                        ));
                    }
                    self.publishes.push((token, ts, epoch));
                }
                MasterAction::BeginProbe { token, .. } => self.probes.push(token),
                MasterAction::BeginFence {
                    token,
                    epoch,
                    last_ts,
                    ..
                } => {
                    self.note_epoch("BeginFence", epoch);
                    self.fences.push((token, last_ts + 1, epoch));
                }
                MasterAction::Send(_, KtsMsg::Granted { epoch, .. }) => {
                    self.note_epoch("Granted", epoch);
                }
                _ => {}
            }
        }
    }

    fn validate_synced(&mut self) {
        self.req_seq += 1;
        let proposed = self.log_high();
        let acts = self.master.on_validate(
            KEY,
            &DocName::new("doc"),
            ReqId(self.req_seq),
            proposed,
            Bytes::from_static(b"p"),
            user((self.req_seq % 5) as u32),
            true,
        );
        self.absorb(acts);
    }

    fn validate_stale(&mut self) {
        self.req_seq += 1;
        let proposed = self.log_high().saturating_sub(1);
        let acts = self.master.on_validate(
            KEY,
            &DocName::new("doc"),
            ReqId(self.req_seq),
            proposed,
            Bytes::from_static(b"p"),
            user((self.req_seq % 5) as u32),
            true,
        );
        self.absorb(acts);
    }

    /// Complete the oldest fence truthfully against the floors table.
    fn complete_fence(&mut self) {
        if self.fences.is_empty() {
            return;
        }
        let (token, slot, floor) = self.fences.remove(0);
        let cur = self.floors.get(&slot).copied().unwrap_or(0);
        let outcome = if floor >= cur {
            self.floors.insert(slot, floor);
            self.acked = Some((slot, floor));
            FenceOutcome::Acked {
                occupied: self.log.contains_key(&slot),
            }
        } else {
            FenceOutcome::Superseded { current: cur }
        };
        let acts = self.master.fence_done(token, outcome);
        self.absorb(acts);
    }

    /// Complete the oldest publish truthfully: ranked first-writer
    /// arbitration — an occupied slot or a higher floor rejects the put.
    fn complete_publish(&mut self) {
        if self.publishes.is_empty() {
            return;
        }
        let (token, ts, epoch) = self.publishes.remove(0);
        let floor = self.floors.get(&ts).copied().unwrap_or(0);
        let outcome = if self.log.contains_key(&ts) || floor > epoch {
            // A rival outranked us after our ack: storage arbitration
            // rejects the put and the master learns it is stale.
            PublishOutcome::Conflict
        } else {
            if ts != self.log_high() + 1 {
                self.violations.push(format!(
                    "equivocation window: publish lands at {ts} but the log frontier is {}",
                    self.log_high()
                ));
            }
            self.log.insert(ts, epoch);
            self.granted.push(ts);
            PublishOutcome::Ok
        };
        self.acked = None; // the fence window is consumed either way
        let acts = self.master.publish_done(token, outcome);
        self.absorb(acts);
    }

    /// Complete the oldest probe truthfully against the log.
    fn complete_probe(&mut self) {
        if self.probes.is_empty() {
            return;
        }
        let token = self.probes.remove(0);
        let (high, epoch) = (self.log_high(), self.log_epoch());
        let acts = self.master.probe_done(token, high, epoch);
        self.absorb(acts);
    }

    /// Crash: in-flight completions are lost; a new instance restores from
    /// a journal whose `last_ts` may lag by `lag`.
    fn crash_restore(&mut self, lag: u64) {
        let entries: Vec<HandoffEntry> = self
            .master
            .mastered_keys()
            .into_iter()
            .map(|(key, last_ts)| HandoffEntry {
                key,
                key_name: DocName::new("doc"),
                last_ts: last_ts.saturating_sub(lag),
                epoch: self.master.entry_epoch(key).unwrap_or(1),
            })
            .collect();
        self.master = KtsMaster::new(KtsConfig::default());
        self.master.restore_entries(entries);
        self.publishes.clear();
        self.probes.clear();
        self.fences.clear();
        self.acked = None; // the new instance must fence for itself
    }

    /// Graceful handoff to a fresh master instance.
    fn handoff(&mut self) {
        // Drain in-flight publishes first (the old instance answers them
        // even after exporting — the log is the ground truth).
        while !self.publishes.is_empty() {
            self.complete_publish();
        }
        while !self.probes.is_empty() {
            self.complete_probe();
        }
        self.fences.clear();
        let (entries, acts) = self.master.export_all();
        self.absorb(acts);
        self.master = KtsMaster::new(KtsConfig::default());
        let acts = self.master.on_table_handoff(entries);
        self.acked = None;
        self.absorb(acts);
    }

    /// Re-key while busy: export every entry and hand it straight back to
    /// the same instance (a joiner takes the arc and leaves at once) with
    /// completions still outstanding. Unlike `handoff` nothing is drained
    /// first, so late completions reach the replacing entry.
    fn rekey_busy(&mut self) {
        let (entries, acts) = self.master.export_all();
        self.absorb(acts);
        let acts = self.master.on_table_handoff(entries);
        self.acked = None;
        self.absorb(acts);
    }

    /// A rival master fences and grants the next slot in one stroke, at an
    /// epoch above everything seen so far.
    fn rival_grant(&mut self) {
        let epoch = self.max_epoch_anywhere() + 1;
        let slot = self.log_high() + 1;
        self.floors.insert(slot, epoch);
        self.log.insert(slot, epoch);
        // `self.acked` is deliberately left alone: it models the fence
        // window *the master was acknowledged*. If the rival overrides it,
        // the master's next publish is rejected by the floor arbitration
        // in `complete_publish`, exactly like `chord::Storage` would.
    }

    /// One step of a model-checking script.
    fn step(&mut self, step: u8) {
        match step {
            0 | 1 => self.validate_synced(),
            2 => self.validate_stale(),
            3 | 4 => self.complete_fence(),
            5 | 6 => self.complete_publish(),
            7 => self.complete_probe(),
            8 => self.crash_restore(1),
            9 => self.handoff(),
            10 => self.rival_grant(),
            _ => self.rekey_busy(),
        }
    }
}

/// Run `script`, drain whatever is still outstanding truthfully, and
/// check the invariants: no violation on the action stream, a log that
/// is contiguous (slots 1..=high, each stamped exactly once), and a
/// table that never runs ahead of the log.
fn check_script(script: &[u8]) -> Result<(), TestCaseError> {
    let mut w = FencedWorld::new();
    for &step in script {
        w.step(step);
    }
    for _ in 0..1000 {
        if w.fences.is_empty() && w.publishes.is_empty() && w.probes.is_empty() {
            break;
        }
        w.complete_fence();
        w.complete_probe();
        w.complete_publish();
    }
    prop_assert!(w.violations.is_empty(), "violations: {:#?}", w.violations);
    let high = w.log_high();
    prop_assert_eq!(w.log.len() as u64, high, "log has gaps: {:?}", w.log);
    prop_assert!(w.master.last_ts(KEY) <= high);
    Ok(())
}

/// Red, minimal: a publish still in flight when the key is re-keyed
/// answers its user with the old incarnation's epoch after the
/// replacing entry has already fenced under a higher one ("Granted
/// carries 1 after 2"). Validate, probe, fence, re-key while the
/// publish is out, validate; the drain then completes the new probe
/// (fence at epoch 2) before the old publish (Granted at epoch 1).
#[test]
#[ignore = "red: stale publish completions follow the key to its next incarnation (ROADMAP item 1)"]
fn repro_stale_publish_grants_below_the_replacing_entrys_epoch() {
    if let Err(e) = check_script(&[0, 7, 3, 11, 0]) {
        panic!("{e}");
    }
}

proptest! {
    /// Arbitrary interleavings of validations, truthful completions,
    /// crashes (with journal lag), handoffs and rival grants: the fencing
    /// invariants hold on the entire action stream, and the log stays
    /// gap-free and equivocation-free.
    #[test]
    fn fencing_invariants_hold_under_interleaving(
        script in prop::collection::vec(0u8..11, 1..150),
    ) {
        check_script(&script)?;
    }

    /// The same, with re-keys while busy in the mix (step 11). Red: the
    /// first failing case is the repro above.
    #[test]
    #[ignore = "red: stale publish completions follow the key to its next incarnation (ROADMAP item 1)"]
    fn fencing_invariants_hold_when_rekeyed_while_busy(
        script in prop::collection::vec(0u8..12, 1..150),
    ) {
        check_script(&script)?;
    }

    /// Without rivals or state loss, the fenced master grants the exact
    /// continuous sequence 1, 2, 3, … just like the legacy protocol.
    #[test]
    fn fenced_happy_path_is_continuous(rounds in 1u64..25) {
        let mut w = FencedWorld::new();
        for _ in 0..rounds {
            w.validate_synced();
            // probe (first round) / fence / publish, truthfully, to rest.
            for _ in 0..4 {
                w.complete_probe();
                w.complete_fence();
                w.complete_publish();
            }
        }
        prop_assert!(w.violations.is_empty(), "violations: {:#?}", w.violations);
        let expect: Vec<u64> = (1..=rounds).collect();
        prop_assert_eq!(&w.granted, &expect);
    }
}
