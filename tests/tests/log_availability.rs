//! `exp_paper`'s a2 setup on seed `0xA203`: 16 peers, n = 3 log
//! locations per record (`Hr`), no DHT successor replicas, 15 records
//! published one at a time, then 4 peers crashed, drawn from
//! `seed ^ 0xBEEF` as `crash_and_retrieve` draws them. The crash set
//! holds the document's Master-key and its Master-Succ. Every record
//! keeps at least one of its 3 locations on a live peer, yet the new
//! Master-key reports ts 0 and a fresh reader stays at ts 0: the log is
//! there, but nobody reads it (ROADMAP, Known issues).

use p2p_ltr::harness::LtrNet;
use p2p_ltr::LtrConfig;
use simnet::{Duration, NetConfig, Rng64};

const DOC: &str = "wiki/Main";
const SEED: u64 = 0xA203;
const PATCHES: u64 = 15;
const N: usize = 3;
const CRASHES: usize = 4;

struct Outcome {
    /// Per record (ts 1..=PATCHES): locations held by a live peer.
    surviving: Vec<usize>,
    /// The last timestamp the new Master-key reports for the document
    /// once the reader has asked it.
    master_ts: u64,
    /// Where the fresh reader got to.
    reader_ts: u64,
    master_crashed: bool,
    succ_crashed: bool,
}

fn run() -> Outcome {
    let mut cfg = LtrConfig::default();
    cfg.log.replication = N;
    cfg.chord.storage_replicas = 0;
    let mut net = LtrNet::build(SEED, NetConfig::lan(), 16, cfg, Duration::from_millis(150));
    net.settle(20 + 16 / 4);
    let (editor, reader) = (net.peers[0], net.peers[1]);
    net.open_doc(&[editor], DOC, "seed");
    net.settle(1);
    for i in 0..PATCHES {
        let cur = net.node(editor).doc_text(DOC).expect("open at the editor");
        net.edit(editor, DOC, &format!("{cur}\npatch-{i}"));
        net.run_until_quiet(&[DOC], 60);
    }
    let (master, succ) = net.master_and_succ(DOC);
    let mut crashed: Vec<_> = net
        .alive_peers()
        .into_iter()
        .filter(|p| p.addr != editor.addr && p.addr != reader.addr)
        .collect();
    Rng64::new(SEED ^ 0xBEEF).shuffle(&mut crashed);
    crashed.truncate(CRASHES);
    for p in &crashed {
        net.crash(*p);
    }
    net.settle(15);
    let alive = net.alive_peers();
    let surviving = (1..=PATCHES)
        .map(|ts| {
            p2plog::log_locations(N, DOC, ts)
                .into_iter()
                .filter(|&key| {
                    alive
                        .iter()
                        .any(|p| net.node(*p).chord().storage().contains(key))
                })
                .count()
        })
        .collect();
    net.open_doc(&[reader], DOC, "seed");
    net.settle(30);
    net.run_until_quiet(&[DOC], 120);
    net.settle(10);
    let new_master = net.master_of(DOC);
    let master_ts = net.node(new_master).kts().last_ts(p2plog::ht(DOC));
    let hit = |x: chord::NodeRef| crashed.iter().any(|p| p.addr == x.addr);
    Outcome {
        surviving,
        master_ts,
        reader_ts: net.node(reader).doc_ts(DOC).unwrap_or(0),
        master_crashed: hit(master),
        succ_crashed: hit(succ),
    }
}

#[test]
#[ignore = "red: a key whose Master-key and Master-Succ both crash reads as ts 0 (ROADMAP Known issues)"]
fn a_reader_retrieves_every_record_that_kept_a_log_peer() {
    let o = run();
    assert!(o.master_crashed && o.succ_crashed, "the crash set changed");
    assert!(
        o.surviving.iter().all(|&n| n >= 1),
        "a record lost all {N} locations: {:?}",
        o.surviving
    );
    assert_eq!(
        (o.master_ts, o.reader_ts),
        (PATCHES, PATCHES),
        "(new Master-key's ts, reader's ts) with live locations per record {:?}",
        o.surviving
    );
}
