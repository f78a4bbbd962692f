//! Turn-key construction of whole P2P-LTR networks over the simulator —
//! the equivalent of the paper's prototype GUI ("create the DHT, add/remove
//! peers, store/retrieve data, monitor the data stored at each peer").

use chord::{Id, NodeRef};
use simnet::{Duration, FaultPlan, NetConfig, NodeId, NodeState, Sim, Time};
use store::{RecoveredState, Store, StoreError};
use wire::Encode;

use crate::config::LtrConfig;
use crate::node::LtrNode;
use crate::payload::{Payload, UserCmd};

/// What a crash-with-disk local recovery found and rebuilt
/// (see [`LtrNet::restart_from_store`]).
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Journal entries replayed from the store.
    pub entries: u64,
    /// Bytes dropped from a torn final record (0 = clean shutdown).
    pub torn_bytes: u64,
    /// Entries covered by a verified Merkle checkpoint (file backend).
    pub verified_entries: Option<u64>,
    /// Log items restored into the DHT storage (primary + replica).
    pub log_items: usize,
    /// Authoritative timestamp-table entries restored.
    pub kts_entries: usize,
    /// Backup entries restored.
    pub kts_backups: usize,
    /// Documents reopened.
    pub docs: usize,
}

/// A built network plus the handles the experiments need.
pub struct LtrNet {
    /// The simulator.
    pub sim: Sim<Payload>,
    /// Ring refs of the initially created peers, in creation order.
    pub peers: Vec<NodeRef>,
    /// The node configuration used (for adding more peers later).
    pub cfg: LtrConfig,
}

impl LtrNet {
    /// Build `n` peers with deterministic ids; joins staggered by
    /// `join_gap`. Run [`LtrNet::settle`] before using the network.
    /// Durability is off (every peer gets a `NullStore`).
    pub fn build(seed: u64, net: NetConfig, n: usize, cfg: LtrConfig, join_gap: Duration) -> Self {
        Self::build_with_stores(seed, net, n, cfg, join_gap, |_| Box::new(store::NullStore))
    }

    /// [`LtrNet::build`] with a per-peer durable store: `store_for(i)`
    /// supplies peer `i`'s journal (e.g. a `MemStore` handle kept by the
    /// test, or a `FileStore` in a scratch directory), enabling
    /// crash-with-disk restarts via [`LtrNet::restart_from_store`].
    pub fn build_with_stores(
        seed: u64,
        net: NetConfig,
        n: usize,
        cfg: LtrConfig,
        join_gap: Duration,
        mut store_for: impl FnMut(usize) -> Box<dyn Store>,
    ) -> Self {
        assert!(n >= 1);
        let mut sim = Sim::new(seed, net);
        let mut peers = Vec::with_capacity(n);
        let mut first: Option<NodeRef> = None;
        for i in 0..n {
            let id = Id::hash(format!("ltr-peer-{i}").as_bytes());
            let addr = NodeId(sim.node_count() as u32);
            let me = NodeRef::new(addr, id);
            let (bootstrap, delay) = match first {
                None => (None, Duration::ZERO),
                Some(f) => (Some(f), join_gap * i as u64),
            };
            let assigned = sim.add_node(LtrNode::with_store(
                me,
                cfg.clone(),
                bootstrap,
                delay,
                store_for(i),
            ));
            assert_eq!(assigned, addr);
            if first.is_none() {
                first = Some(me);
            }
            peers.push(me);
        }
        LtrNet { sim, peers, cfg }
    }

    /// Turn on wire accounting: every message is sized through the real
    /// binary codec (frame overhead included) and counted into
    /// `wire.bytes.total` / `wire.bytes.<class>`. With
    /// [`NetConfig::bandwidth`] set, per-message latency additionally
    /// charges the encoded size; without it (the default) behaviour is
    /// unchanged — metering only observes.
    pub fn enable_wire_accounting(&mut self) {
        self.sim
            .set_wire_meter(Box::new(|p: &Payload| simnet::MsgMeta {
                bytes: wire::frame_len(p),
                class: p.wire_class(),
            }));
    }

    /// Start the run fingerprint ([`Sim::set_fingerprint`]) over the
    /// messages' wire encoding; read it with `self.sim.fingerprint()`.
    /// Call it before the first step. It changes no behaviour, but encodes
    /// every delivered message once more.
    pub fn enable_fingerprint(&mut self) {
        self.sim
            .set_fingerprint(Box::new(|p: &Payload, out: &mut Vec<u8>| p.encode(out)));
    }

    /// Install a seeded [`FaultPlan`] on the underlying simulator: link
    /// faults (drop / duplicate / reorder / jitter per class), directional
    /// cuts and scheduled crashes — the fault envelope the scenario matrix
    /// (`workload::scenario`) runs the protocol through. Decisions draw
    /// from the plan's own RNG, so a network with an inert plan behaves
    /// byte-identically to one without any.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.sim
            .set_fault_plan(plan, Box::new(|p: &Payload| p.clone()));
    }

    /// Add one more peer now (joins immediately via the first peer).
    pub fn add_peer(&mut self, name: &str) -> NodeRef {
        self.add_peer_with_store(name, Box::new(store::NullStore))
    }

    /// [`LtrNet::add_peer`] with a durable store for the new peer.
    pub fn add_peer_with_store(&mut self, name: &str, store: Box<dyn Store>) -> NodeRef {
        let id = Id::hash(name.as_bytes());
        let addr = NodeId(self.sim.node_count() as u32);
        let me = NodeRef::new(addr, id);
        let bootstrap = self
            .alive_peers()
            .first()
            .copied()
            .expect("network has at least one live peer");
        let assigned = self.sim.add_node(LtrNode::with_store(
            me,
            self.cfg.clone(),
            Some(bootstrap),
            Duration::ZERO,
            store,
        ));
        assert_eq!(assigned, addr);
        self.peers.push(me);
        me
    }

    /// Run the simulation for `secs` simulated seconds.
    pub fn settle(&mut self, secs: u64) {
        self.sim.run_for(Duration::from_secs(secs));
    }

    /// Run for a sub-second duration.
    pub fn run_for(&mut self, d: Duration) {
        self.sim.run_for(d);
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Open `doc` with identical initial content at every listed peer.
    pub fn open_doc(&mut self, peers: &[NodeRef], doc: &str, initial: &str) {
        for p in peers {
            self.sim.send_external(
                p.addr,
                Payload::Cmd(UserCmd::OpenDoc {
                    doc: doc.to_owned(),
                    initial: initial.to_owned(),
                }),
            );
        }
    }

    /// Inject a save at a peer.
    pub fn edit(&mut self, peer: NodeRef, doc: &str, new_text: &str) {
        self.sim.send_external(
            peer.addr,
            Payload::Cmd(UserCmd::Edit {
                doc: doc.to_owned(),
                new_text: new_text.to_owned(),
            }),
        );
    }

    /// Trigger an immediate anti-entropy pull at a peer.
    pub fn sync(&mut self, peer: NodeRef, doc: &str) {
        self.sim.send_external(
            peer.addr,
            Payload::Cmd(UserCmd::Sync {
                doc: doc.to_owned(),
            }),
        );
    }

    /// Gracefully remove a peer (timestamp + key handoff, ring splice).
    pub fn leave(&mut self, peer: NodeRef) {
        self.sim
            .send_external(peer.addr, Payload::Cmd(UserCmd::Leave));
    }

    /// Crash-stop a peer.
    pub fn crash(&mut self, peer: NodeRef) {
        self.sim.crash(peer.addr);
    }

    /// Restart a crashed peer from its own durable store: replay + verify
    /// the journal the dead incarnation wrote, rebuild its key table,
    /// timestamp state, log items and open documents, and rejoin the ring
    /// through a surviving peer — the paper's availability story extended
    /// with a *local* recovery leg (no Master-Succ handoff required).
    pub fn restart_from_store(&mut self, peer: NodeRef) -> Result<RecoveryReport, StoreError> {
        assert_eq!(
            self.sim.node_state(peer.addr),
            NodeState::Crashed,
            "restart_from_store needs a crashed peer"
        );
        let store = self
            .sim
            .node_as::<LtrNode>(peer.addr)
            .expect("peer is an LtrNode")
            .store_handle();
        let replay = store.replay()?;
        let state = RecoveredState::rebuild(&replay.entries);
        let report = RecoveryReport {
            entries: replay.stats.entries,
            torn_bytes: replay.stats.torn_bytes,
            verified_entries: replay.stats.verified_entries,
            log_items: state.primary.len() + state.replica.len(),
            kts_entries: state.kts_entries.len(),
            kts_backups: state.kts_backups.len(),
            docs: state.docs.len(),
        };
        let bootstrap = self
            .alive_peers()
            .first()
            .copied()
            .expect("a surviving peer to rejoin through");
        let node = LtrNode::recover(
            peer,
            self.cfg.clone(),
            Some(bootstrap),
            Duration::ZERO,
            store,
            state,
        );
        self.sim.restart_node(peer.addr, node);
        Ok(report)
    }

    /// Borrow a peer's node state.
    pub fn node(&self, peer: NodeRef) -> &LtrNode {
        self.sim
            .node_as::<LtrNode>(peer.addr)
            .expect("peer is an LtrNode")
    }

    /// Ring refs of all currently live peers.
    pub fn alive_peers(&self) -> Vec<NodeRef> {
        self.sim
            .alive_nodes()
            .into_iter()
            .filter_map(|a| self.sim.node_as::<LtrNode>(a).map(|n| n.me()))
            .collect()
    }

    /// The peer currently responsible for `ht(doc)` per the sorted-ring
    /// oracle (ground truth for experiments: "who is the master?").
    pub fn master_of(&self, doc: &str) -> NodeRef {
        let key = p2plog::ht(doc);
        let mut alive = self.alive_peers();
        assert!(!alive.is_empty());
        alive.sort_by_key(|r| key.distance_to(r.id));
        alive[0]
    }

    /// The current master and its ring successor for `ht(doc)` — the pair
    /// every takeover/handoff scenario needs (the successor holds the
    /// timestamp backup and takes over on a master crash).
    pub fn master_and_succ(&self, doc: &str) -> (NodeRef, NodeRef) {
        let key = p2plog::ht(doc);
        let mut alive = self.alive_peers();
        assert!(alive.len() >= 2, "need at least two live peers");
        alive.sort_by_key(|r| key.distance_to(r.id));
        (alive[0], alive[1])
    }

    /// Wait until no peer is busy with `docs` or `max_secs` elapsed;
    /// returns true when quiescent. Always advances the clock at least one
    /// step so commands injected just before the call get delivered.
    pub fn run_until_quiet(&mut self, docs: &[&str], max_secs: u64) -> bool {
        let deadline = self.sim.now() + Duration::from_secs(max_secs);
        loop {
            self.sim.run_for(Duration::from_millis(200));
            let busy = self.sim.alive_nodes().into_iter().any(|a| {
                self.sim
                    .node_as::<LtrNode>(a)
                    .map(|n| docs.iter().any(|d| n.is_busy(d)))
                    .unwrap_or(false)
            });
            if !busy {
                return true;
            }
            if self.sim.now() >= deadline {
                return false;
            }
        }
    }
}
