//! OT-level convergence: simulate the P2P-LTR reconciliation contract
//! purely in memory — K sites edit concurrently, a virtual timestamper
//! serializes publications, everyone integrates in total order — and
//! assert all sites converge, for randomized schedules.

use ot::{Document, Patch, Replica, TextOp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A virtual master: the continuous timestamp log.
struct VirtualLog {
    patches: Vec<Patch>, // patches[i] has ts i+1
}

impl VirtualLog {
    fn new() -> Self {
        VirtualLog {
            patches: Vec::new(),
        }
    }
    fn last_ts(&self) -> u64 {
        self.patches.len() as u64
    }
    /// The paper's validation: grant only if the site is current.
    fn try_publish(&mut self, site: &mut Replica) -> bool {
        if site.ts == self.last_ts() {
            if let Some(p) = site.tentative_for_publish() {
                self.patches.push(p);
                site.acknowledge_own(self.last_ts()).unwrap();
                return true;
            }
        }
        false
    }
    /// The retrieval procedure: integrate everything the site misses.
    fn catch_up(&self, site: &mut Replica) {
        while site.ts < self.last_ts() {
            let ts = site.ts + 1;
            site.integrate_remote(ts, &self.patches[(ts - 1) as usize])
                .expect("continuous integration");
        }
    }
}

fn random_edit(rng: &mut StdRng, site: u64, doc: &Document, tag: usize) -> Document {
    let mut lines = doc.lines().to_vec();
    match rng.random_range(0..3) {
        0 => {
            let pos = rng.random_range(0..=lines.len());
            lines.insert(pos, format!("s{site}-{tag}"));
        }
        1 if !lines.is_empty() => {
            let pos = rng.random_range(0..lines.len());
            lines.remove(pos);
        }
        _ => {
            if lines.is_empty() {
                lines.push(format!("s{site}-{tag}"));
            } else {
                let pos = rng.random_range(0..lines.len());
                lines[pos] = format!("s{site}-{tag}");
            }
        }
    }
    Document::from_lines(lines)
}

/// Run a full randomized session and assert convergence.
fn run_session(seed: u64, sites_n: usize, rounds: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let initial = Document::from_text("alpha\nbeta\ngamma");
    let mut log = VirtualLog::new();
    let mut sites: Vec<Replica> = (1..=sites_n as u64)
        .map(|s| Replica::new(s, initial.clone()))
        .collect();

    for round in 0..rounds {
        // Random subset of sites edits concurrently.
        for site in &mut sites {
            if rng.random_bool(0.6) {
                let target = random_edit(&mut rng, site.site, site.working(), round);
                site.edit(&target).unwrap();
            }
        }
        // Publication attempts in random order; behind sites catch up and
        // retry — exactly the paper's validate/retrieve loop.
        let mut order: Vec<usize> = (0..sites_n).collect();
        for k in (1..order.len()).rev() {
            let j = rng.random_range(0..=k);
            order.swap(k, j);
        }
        for &i in &order {
            while sites[i].pending().is_some() {
                if !log.try_publish(&mut sites[i]) {
                    log.catch_up(&mut sites[i]);
                }
            }
        }
    }
    // Everyone pulls the full log.
    for s in sites.iter_mut() {
        log.catch_up(s);
    }
    let reference = sites[0].working().to_text();
    for s in &sites {
        assert_eq!(
            s.working().to_text(),
            reference,
            "site {} diverged (seed {seed})",
            s.site
        );
        assert_eq!(s.ts, log.last_ts());
        assert!(s.pending().is_none());
    }
}

#[test]
fn three_sites_ten_rounds() {
    run_session(1, 3, 10);
}

#[test]
fn five_sites_deep_session() {
    run_session(2, 5, 25);
}

#[test]
fn two_sites_always_conflicting() {
    // Both sites edit every round: maximal contention.
    let initial = Document::from_text("x");
    let mut log = VirtualLog::new();
    let mut a = Replica::new(1, initial.clone());
    let mut b = Replica::new(2, initial);
    for round in 0..15 {
        let ta = Document::from_text(&format!("{}\na{round}", a.working().to_text()));
        a.edit(&ta).unwrap();
        let tb = Document::from_text(&format!("b{round}\n{}", b.working().to_text()));
        b.edit(&tb).unwrap();
        while a.pending().is_some() {
            if !log.try_publish(&mut a) {
                log.catch_up(&mut a);
            }
        }
        while b.pending().is_some() {
            if !log.try_publish(&mut b) {
                log.catch_up(&mut b);
            }
        }
    }
    log.catch_up(&mut a);
    log.catch_up(&mut b);
    assert_eq!(a.working().to_text(), b.working().to_text());
    // No edit lost: all 30 lines plus the original.
    assert_eq!(a.working().len(), 31);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Randomized sessions across seeds, site counts and depths.
    #[test]
    fn randomized_sessions_converge(seed in 0u64..5000, sites in 2usize..6, rounds in 1usize..12) {
        run_session(seed, sites, rounds);
    }
}

#[test]
fn op_inversion_undoes() {
    let mut doc = Document::from_text("a\nb\nc");
    let op = TextOp::ins(1, "x", 1);
    doc.apply(&op).unwrap();
    doc.apply(&op.invert()).unwrap();
    assert_eq!(doc.to_text(), "a\nb\nc");

    let op = TextOp::del(2, "c", 1);
    let mut doc2 = Document::from_text("a\nb\nc");
    doc2.apply(&op).unwrap();
    doc2.apply(&op.invert()).unwrap();
    assert_eq!(doc2.to_text(), "a\nb\nc");
}
