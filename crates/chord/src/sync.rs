//! Merkle-diff anti-entropy for replica synchronization.
//!
//! Every storage owner keeps its successors' replicas in step with
//! content-addressed set reconciliation in the spirit of the Merkle-tree
//! log-savings construction of Barontini (arXiv:2110.02103) and the
//! structural-sharing prolly-tree design: the owner summarizes its primary
//! range as a fixed-shape Merkle tree, the replica compares digests, and
//! only the subtrees that differ are expanded. A round ships exactly the
//! records the replica proved missing or stale, not the owner's store.
//!
//! ## Tree shape
//!
//! The 2^64 key ring is cut into [`BUCKETS`] = 256 leaf buckets by the top
//! byte of the key ([`bucket_of`]), grouped 16-per-node into one interior
//! level, with a single root above — a fixed-shape radix-16 tree of depth
//! 2. Each bucket's digest is itself composed over [`SUBS`] = 16
//! sub-buckets, cut by the next four key bits ([`sub_of`]); that level is
//! never shipped — descent still ends at a bucket's leaf listing — it only
//! bounds what a write costs to summarize. Empty buckets and sub-buckets
//! are omitted everywhere, so the digests cover exactly the keys present:
//!
//! * entry: `SHA-1(0x02 ‖ key-LE ‖ value)` ([`entry_digest`]);
//! * sub-bucket: the store's Merkle root over its entry digests in
//!   ascending key order (reusing [`crate::merkle`] — the same
//!   domain-separated tree the durable log store checkpoints with);
//! * leaf bucket: the interior digest at `(LEAF_DEPTH, bucket)` over its
//!   non-empty `(nibble, sub-root)` pairs ([`bucket_root`];
//!   [`bucket_digest`] computes it from a leaf listing);
//! * interior/root: `SHA-1(0x03 ‖ depth ‖ prefix-LE ‖ (child-index ‖
//!   digest)*)` over the non-empty children ([`interior_digest`]);
//! * an empty range has the fixed root `SHA-1("p2p-ltr/sync-empty")`.
//!
//! ## What a summary costs
//!
//! [`crate::storage::Storage`] answers a summary read in O(occupied
//! buckets of the arc + records of the sub-buckets written since the last
//! read), and never hashes a value twice:
//!
//! * every stored record carries its entry digest and that digest
//!   leaf-hashed (40 bytes), computed the first time a summary read
//!   reaches the record and kept while its bytes stay — also when it moves
//!   between the primary and the replica bucket;
//! * each view caches, per bucket, the root over the bucket's whole key
//!   span and the 16 sub-roots under it, each valid while its bit in a
//!   16-bit mask is set; plus roots of the (at most two) buckets an arc
//!   covers only partly, keyed by `(bucket, from, to)`;
//! * a put or delete clears its one sub-bucket's bit, the bucket root and
//!   the bucket's edge roots. The next read folds only the sub-buckets
//!   whose bit is clear, from their records' cached leaf digests — about
//!   `n / 16 − 1` one-block hashes for `n` records in the bucket — and
//!   then one interior hash over the sub-roots. An edge bucket reuses the
//!   cached sub-roots of the sub-buckets its arc covers whole. A bucket
//!   with no valid sub-root, and the rest of an edge bucket, is folded in
//!   one ordered walk grouped by nibble, so small buckets pay no probe
//!   per sub-bucket;
//! * occupied buckets are found by one ordered `range` probe per bucket,
//!   not by visiting the keys;
//! * an owner whose successors have all acknowledged the current
//!   `store_version` reads no summary at all.
//!
//! The entry, sub-bucket and interior *definitions* above are frozen, and
//! a bucket digest is exactly their composition: the storage tests
//! compare every cached summary and leaf listing with a from-scratch
//! recompute over random mutation sequences ([`bucket_digest`] is that
//! oracle), and count [`entry_digest`] calls, Merkle combines and interior
//! hashes.
//!
//! ## Protocol
//!
//! Three phases over four messages, owner-driven, restartable at any
//! point:
//!
//! 1. **Root** — the owner sends `SyncRoot { ver, from, to, root }` for
//!    its primary range `(pred, me]`. The replica compares against its own
//!    summary (union view: primary-preferred, covering the promotion
//!    window) over the same range; equal roots ack immediately — the
//!    steady-state cost of a round is this ~45-byte exchange.
//! 2. **Descent** — on mismatch the replica walks the tree with
//!    `SyncDiff { wants }` / `SyncNodes` rounds (root → 16 interior nodes
//!    → leaf listings), descending only into children whose digests
//!    differ. Leaf listings carry per-key entry digests; from them the
//!    replica learns which keys are missing/stale (`need`) and which of
//!    its replica-bucket keys the owner no longer has (deleted — pruned
//!    locally, never touching the replica's own primary bucket).
//! 3. **Transfer** — the owner answers `need` with a `Replicate` carrying
//!    exactly those records. When the replica's recomputed root matches
//!    the session root it sends `SyncAck { ver }`, and only then does the
//!    owner advance its `replicated_to` cursor — a lost message anywhere
//!    simply leaves the cursor behind, and the next replicate tick
//!    restarts the round.
//!
//! Every message echoes the owner's `store_version` (`ver`); stale rounds
//! are discarded on both sides. If the owner's store mutates mid-descent,
//! the replica converges toward the new contents, the final root check
//! against the old session root fails, and the round restarts cheaply at
//! the next tick.

use std::collections::{BTreeMap, BTreeSet};

use crate::id::Id;
use crate::merkle;
use crate::msg::{ChordMsg, NodeRef};
use crate::sha1::{sha1, Digest, Sha1};
use crate::storage::SyncView;
use simnet::NodeId;

/// Number of leaf buckets (the top byte of the key).
pub const BUCKETS: usize = 256;
/// Bits below the bucket number.
pub const BUCKET_SHIFT: u32 = 56;
/// Mask of the in-bucket key bits.
pub const BUCKET_SPAN_MASK: u64 = (1u64 << BUCKET_SHIFT) - 1;
/// Tree depth of a leaf-bucket coordinate in `SyncDiff::wants`.
pub const LEAF_DEPTH: u8 = 2;
/// Number of sub-buckets under each leaf bucket (the next key nibble).
pub const SUBS: usize = 16;
/// Bits below the sub-bucket number.
pub const SUB_SHIFT: u32 = BUCKET_SHIFT - 4;
/// Mask of the in-sub-bucket key bits.
const SUB_SPAN_MASK: u64 = (1u64 << SUB_SHIFT) - 1;

/// Domain prefixes for the sync digests, disjoint from the generic tree's
/// leaf/node prefixes (0x00/0x01 in [`crate::merkle`]).
const ENTRY_PREFIX: u8 = 0x02;
const INTERIOR_PREFIX: u8 = 0x03;

/// Leaf bucket holding `key`.
#[inline]
pub fn bucket_of(key: Id) -> u32 {
    (key.0 >> BUCKET_SHIFT) as u32
}

/// Sub-bucket (nibble) of `key` within its leaf bucket.
#[inline]
pub fn sub_of(key: Id) -> u8 {
    ((key.0 >> SUB_SHIFT) & 0xF) as u8
}

/// Is the key span `[lo, hi]` (contiguous, never wrapping) contained in
/// the arc `(from, to]`? Both endpoints inside the arc, and the arc's
/// excluded point `from` not inside the span: these three checks are
/// exact. Conservative for the degenerate whole-ring arc (`from == to`):
/// the span holding `from` fails the third clause.
fn span_covered(lo: u64, hi: u64, from: Id, to: Id) -> bool {
    Id(lo).in_half_open(from, to) && Id(hi).in_half_open(from, to) && !(lo..=hi).contains(&from.0)
}

/// Is bucket `b`'s entire key span contained in the arc `(from, to]`?
/// Only then may a cached whole-bucket digest stand in for the
/// range-filtered one. Conservative: a misclassification as "partial"
/// merely costs a recompute, never correctness — so the degenerate
/// whole-ring arc (`from == to`) is never "covered" for `from`'s own
/// bucket.
pub fn bucket_covered(bucket: u32, from: Id, to: Id) -> bool {
    let lo = (bucket as u64) << BUCKET_SHIFT;
    span_covered(lo, lo | BUCKET_SPAN_MASK, from, to)
}

/// Is sub-bucket `nibble` of bucket `bucket` wholly inside the arc
/// `(from, to]`? Then its cached root over the whole sub-span stands in
/// for the range-filtered one — conservative exactly as
/// [`bucket_covered`].
pub fn sub_covered(bucket: u32, nibble: u8, from: Id, to: Id) -> bool {
    let lo = ((bucket as u64) << BUCKET_SHIFT) | ((nibble as u64) << SUB_SHIFT);
    span_covered(lo, lo | SUB_SPAN_MASK, from, to)
}

/// Digest of an empty range.
pub fn empty_digest() -> Digest {
    sha1(b"p2p-ltr/sync-empty")
}

/// Content digest of one stored entry.
pub fn entry_digest(key: Id, value: &[u8]) -> Digest {
    #[cfg(test)]
    ENTRY_DIGESTS.with(|n| n.set(n.get() + 1));
    let mut h = Sha1::new();
    h.update(&[ENTRY_PREFIX]);
    h.update(&key.0.to_le_bytes());
    h.update(value);
    h.finalize()
}

#[cfg(test)]
thread_local! {
    /// [`entry_digest`] computations on this thread — the deterministic
    /// operation count the storage tests gate the summary cache with.
    pub(crate) static ENTRY_DIGESTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// [`interior_digest`] computations on this thread (bucket roots
    /// included).
    pub(crate) static INTERIOR_DIGESTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Digest of leaf bucket `bucket` from its non-empty `(nibble, sub-root)`
/// pairs, ascending by nibble, a sub-root being the generic Merkle root
/// over the sub-bucket's entry digests in key order. No other interior
/// uses `(LEAF_DEPTH, bucket)`.
pub fn bucket_root(bucket: u32, subs: &[(u8, Digest)]) -> Digest {
    interior_digest(LEAF_DEPTH, bucket, subs)
}

/// Digest of leaf bucket `bucket` straight from its leaf listing (entry
/// digests in ascending key order, as
/// [`crate::storage::Storage::sync_leaf`] returns them): the definition
/// the storage's cached summaries are checked against.
pub fn bucket_digest(bucket: u32, entries: &[(Id, Digest)]) -> Digest {
    let mut subs = Vec::new();
    for run in entries.chunk_by(|a, b| sub_of(a.0) == sub_of(b.0)) {
        let ds: Vec<Digest> = run.iter().map(|(_, d)| *d).collect();
        subs.push((sub_of(run[0].0), merkle::root_of_entry_hashes(&ds)));
    }
    bucket_root(bucket, &subs)
}

/// Digest of an interior node (or the root, at depth 0) from its
/// non-empty children.
pub fn interior_digest(depth: u8, prefix: u32, children: &[(u8, Digest)]) -> Digest {
    #[cfg(test)]
    INTERIOR_DIGESTS.with(|n| n.set(n.get() + 1));
    let mut h = Sha1::new();
    h.update(&[INTERIOR_PREFIX, depth]);
    h.update(&prefix.to_le_bytes());
    for (i, d) in children {
        h.update(&[*i]);
        h.update(d);
    }
    h.finalize()
}

/// Children of the tree node at `(depth, prefix)`, computed from the flat
/// list of non-empty `(bucket, digest)` pairs (ascending bucket order).
/// Depth 0 is the root (its children are the 16 interior nodes, index =
/// `bucket >> 4`); depth 1 children are leaf buckets (index = low nibble).
pub fn children_of(pairs: &[(u32, Digest)], depth: u8, prefix: u32) -> Vec<(u8, Digest)> {
    match depth {
        0 => {
            let mut out = Vec::new();
            let mut idx = 0;
            while idx < pairs.len() {
                let group = pairs[idx].0 >> 4;
                let mut kids = Vec::new();
                while idx < pairs.len() && pairs[idx].0 >> 4 == group {
                    kids.push(((pairs[idx].0 & 0xF) as u8, pairs[idx].1));
                    idx += 1;
                }
                out.push((group as u8, interior_digest(1, group, &kids)));
            }
            out
        }
        1 => pairs
            .iter()
            .filter(|(b, _)| b >> 4 == prefix)
            .map(|(b, d)| ((b & 0xF) as u8, *d))
            .collect(),
        _ => Vec::new(),
    }
}

/// Root digest over the whole range summary.
pub fn range_root(pairs: &[(u32, Digest)]) -> Digest {
    if pairs.is_empty() {
        empty_digest()
    } else {
        interior_digest(0, 0, &children_of(pairs, 0, 0))
    }
}

/// Owner-side state of one in-flight sync round with one replica. The
/// range and version are pinned at round start: descent answers always
/// describe the range the `SyncRoot` advertised, and the cursor advance
/// on ack is exactly the pinned version.
#[derive(Clone, Copy, Debug)]
pub struct SyncOut {
    /// `store_version` the round's root summarizes.
    pub ver: u64,
    /// Range start, exclusive.
    pub from: Id,
    /// Range end, inclusive.
    pub to: Id,
}

/// Replica-side state of one in-flight sync round with one owner.
#[derive(Clone, Copy, Debug)]
pub struct SyncIn {
    /// Round version echoed in every message.
    pub ver: u64,
    /// Range start, exclusive.
    pub from: Id,
    /// Range end, inclusive.
    pub to: Id,
    /// The owner's advertised root — the convergence target.
    pub root: Digest,
}

impl crate::node::ChordNode {
    /// Replicate tick: open (or restart) a sync round toward
    /// every storage successor whose cursor is behind `store_version`.
    pub(crate) fn tick_replicate_merkle(&mut self) {
        let version = self.store_version;
        // Settled — every cursor at `version` — is the common case, and
        // it reads no summary at all.
        let behind: Vec<NodeRef> = self
            .succs
            .iter()
            .filter(|s| s.id != self.me.id)
            .take(self.cfg.storage_replicas)
            .filter(|s| self.replicated_to.get(&s.addr) != Some(&version))
            .copied()
            .collect();
        if behind.is_empty() || self.store.primary_len() == 0 {
            return;
        }
        // With no (or a self-pointing) predecessor we would claim the arc
        // (me, me] — the whole ring — and a replica comparing against that
        // range would prune every replica it holds for other owners. Wait
        // for stabilization to link us in.
        let pred = match self.pred {
            Some(p) if p.id != self.me.id => p,
            _ => return,
        };
        let (from, to) = (pred.id, self.me.id);
        let pairs = self.store.sync_bucket_digests(SyncView::Primary, from, to);
        let root = range_root(&pairs);
        for s in behind {
            self.sync_out.insert(
                s.addr,
                SyncOut {
                    ver: version,
                    from,
                    to,
                },
            );
            self.send(
                s.addr,
                ChordMsg::SyncRoot {
                    ver: version,
                    from,
                    to,
                    root,
                },
            );
        }
    }

    /// Replica: an owner opened a sync round over `(from, to]`.
    pub(crate) fn on_sync_root(&mut self, src: NodeId, ver: u64, from: Id, to: Id, root: Digest) {
        self.sync_in.insert(
            src,
            SyncIn {
                ver,
                from,
                to,
                root,
            },
        );
        self.advance_sync(src, true);
    }

    /// Replica: compare our summary against the session root; ack when
    /// they match, otherwise (at round start) open the descent.
    pub(crate) fn advance_sync(&mut self, src: NodeId, descend: bool) {
        let sess = match self.sync_in.get(&src) {
            Some(s) => *s,
            None => return,
        };
        let pairs = self
            .store
            .sync_bucket_digests(SyncView::Union, sess.from, sess.to);
        if range_root(&pairs) == sess.root {
            self.sync_in.remove(&src);
            self.send(src, ChordMsg::SyncAck { ver: sess.ver });
        } else if descend {
            self.send(
                src,
                ChordMsg::SyncDiff {
                    ver: sess.ver,
                    wants: vec![(0, 0)],
                    need: Vec::new(),
                },
            );
        }
        // On mismatch without a descent request (owner mutated
        // mid-round), the round stalls and the owner's next replicate
        // tick restarts it with a fresh root.
    }

    /// Owner: the replica asks for tree nodes to be expanded and/or for
    /// the records it proved missing or stale.
    pub(crate) fn on_sync_diff(
        &mut self,
        src: NodeId,
        ver: u64,
        wants: Vec<(u8, u32)>,
        need: Vec<Id>,
    ) {
        let sess = match self.sync_out.get(&src) {
            Some(s) if s.ver == ver => *s,
            _ => return,
        };
        let pairs = self
            .store
            .sync_bucket_digests(SyncView::Primary, sess.from, sess.to);
        let wants: BTreeSet<(u8, u32)> = wants.into_iter().collect();
        let mut nodes = Vec::new();
        let mut leaves = Vec::new();
        for (depth, prefix) in wants {
            match depth {
                0 => nodes.push((0u8, 0u32, children_of(&pairs, 0, 0))),
                1 if prefix < 16 => nodes.push((1u8, prefix, children_of(&pairs, 1, prefix))),
                // A leaf listing may be empty — that is the signal that
                // lets the replica prune a bucket the owner dropped.
                _ if depth == LEAF_DEPTH && prefix < BUCKETS as u32 => leaves.push((
                    prefix,
                    self.store
                        .sync_leaf(SyncView::Primary, prefix, sess.from, sess.to),
                )),
                _ => {}
            }
        }
        let need: BTreeSet<Id> = need
            .into_iter()
            .filter(|k| k.in_half_open(sess.from, sess.to))
            .collect();
        let mut items = Vec::with_capacity(need.len());
        for key in need {
            if let Some(v) = self.store.get_primary(key) {
                items.push((key, v.clone()));
            }
        }
        if !(nodes.is_empty() && leaves.is_empty()) {
            self.send(src, ChordMsg::SyncNodes { ver, nodes, leaves });
        }
        if !items.is_empty() {
            self.send(src, ChordMsg::Replicate { items });
        }
    }

    /// Replica: digested tree expansions from the owner. Diff each level
    /// against our own summary, descend where digests differ, collect
    /// missing/stale keys from leaf listings, and prune replica-bucket
    /// keys the owner no longer holds.
    pub(crate) fn on_sync_nodes(
        &mut self,
        src: NodeId,
        ver: u64,
        nodes: Vec<(u8, u32, Vec<(u8, Digest)>)>,
        leaves: Vec<(u32, Vec<(Id, Digest)>)>,
    ) {
        let sess = match self.sync_in.get(&src) {
            Some(s) if s.ver == ver => *s,
            _ => return,
        };
        let pairs = self
            .store
            .sync_bucket_digests(SyncView::Union, sess.from, sess.to);
        let mut wants: BTreeSet<(u8, u32)> = BTreeSet::new();
        let mut need: BTreeSet<Id> = BTreeSet::new();
        for (depth, prefix, theirs) in nodes {
            if depth > 1 || (depth == 1 && prefix >= 16) {
                continue;
            }
            let mine: BTreeMap<u8, Digest> =
                children_of(&pairs, depth, prefix).into_iter().collect();
            let theirs: BTreeMap<u8, Digest> = theirs.into_iter().collect();
            let indices: BTreeSet<u8> = mine.keys().chain(theirs.keys()).copied().collect();
            for i in indices {
                // Differing on either side — including present on exactly
                // one — descends one level; depth-1 children are leaves.
                if mine.get(&i) != theirs.get(&i) {
                    let child = match depth {
                        0 => i as u32,
                        _ => (prefix << 4) | i as u32,
                    };
                    wants.insert((depth + 1, child));
                }
            }
        }
        for (bucket, theirs) in leaves {
            if bucket >= BUCKETS as u32 {
                continue;
            }
            let mine: BTreeMap<Id, Digest> = self
                .store
                .sync_leaf(SyncView::Union, bucket, sess.from, sess.to)
                .into_iter()
                .collect();
            let theirs: BTreeMap<Id, Digest> = theirs.into_iter().collect();
            for (k, d) in &theirs {
                if k.in_half_open(sess.from, sess.to) && mine.get(k) != Some(d) {
                    need.insert(*k);
                }
            }
            for k in mine.keys() {
                // The owner's listing is authoritative for its range: a
                // key we hold that it lacks was deleted (e.g. GC'd).
                // Prune only our replica copy — our own primary bucket is
                // never deleted from; overlapping ownership claims heal
                // via ring repair, not data loss.
                if !theirs.contains_key(k) && self.store.get_primary(*k).is_none() {
                    self.store.remove_replica(*k);
                }
            }
        }
        if wants.is_empty() && need.is_empty() {
            self.advance_sync(src, false);
        } else {
            self.send(
                src,
                ChordMsg::SyncDiff {
                    ver,
                    wants: wants.into_iter().collect(),
                    need: need.into_iter().collect(),
                },
            );
        }
    }

    /// Owner: the replica proved its contents match version `ver`'s root.
    /// Only now does the `replicated_to` cursor advance — under loss the
    /// cursor stays behind and the next tick retries.
    pub(crate) fn on_sync_ack(&mut self, src: NodeId, ver: u64) {
        match self.sync_out.get(&src) {
            Some(s) if s.ver == ver => {}
            _ => return,
        }
        self.sync_out.remove(&src);
        self.replicated_to.insert(src, ver);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(b: u8) -> Digest {
        [b; 20]
    }

    #[test]
    fn settled_ring_reads_no_digest() {
        // An owner whose successors have all acked the current
        // `store_version` must not summarize its range just to find that
        // out: once the ring has settled, replicate ticks go by with no
        // digest read on any node.
        use crate::harness::{build_ring, ChordDriver, Cmd, DriverMsg};
        use crate::storage::DIGEST_READS;
        use simnet::{Duration, NetConfig, Sim};
        let mut sim: Sim<DriverMsg> = Sim::new(11, NetConfig::lan());
        let refs = build_ring(
            &mut sim,
            4,
            &crate::ChordConfig::default(),
            Duration::from_millis(100),
        );
        sim.run_for(Duration::from_secs(10));
        let before_puts = DIGEST_READS.with(|n| n.get());
        for i in 0..64u32 {
            let key = Id::hash(format!("settled-{i}").as_bytes());
            let put = Cmd::Put(
                key,
                bytes::Bytes::from_static(b"v"),
                crate::PutMode::Overwrite,
            );
            sim.send_external(refs[i as usize % 4].addr, DriverMsg::Cmd(put));
        }
        sim.run_for(Duration::from_secs(10));
        let settled = DIGEST_READS.with(|n| n.get());
        assert!(
            settled > before_puts,
            "the puts were replicated by sync rounds"
        );
        for r in &refs {
            let node = &sim.node_as::<ChordDriver>(r.addr).expect("alive").node;
            assert!(node.storage().primary_len() > 0 && node.storage().replica_len() > 0);
        }
        sim.run_for(Duration::from_secs(5));
        assert_eq!(
            DIGEST_READS.with(|n| n.get()),
            settled,
            "five replicate ticks on each of four settled nodes"
        );
    }

    #[test]
    fn bucket_of_is_top_byte() {
        assert_eq!(bucket_of(Id(0)), 0);
        assert_eq!(bucket_of(Id(BUCKET_SPAN_MASK)), 0);
        assert_eq!(bucket_of(Id(1u64 << 56)), 1);
        assert_eq!(bucket_of(Id(u64::MAX)), 255);
    }

    #[test]
    fn bucket_covered_is_sound() {
        // Exhaustive-ish cross-check against the definition: covered must
        // imply every key in the bucket span lies in the arc. Probe the
        // span's endpoints and midpoint for a grid of arcs.
        let arcs = [
            (Id(0), Id(u64::MAX)),
            (Id(u64::MAX), Id(0)),
            (Id(3u64 << 56), Id(7u64 << 56)),
            (Id((200u64 << 56) | 5), Id(9u64 << 56)), // wraps
            (Id(42), Id(42)),                         // whole ring
            (Id(5u64 << 56), Id((5u64 << 56) | 99)),  // tiny arc inside one bucket
        ];
        for (from, to) in arcs {
            for b in 0u32..256 {
                let lo = (b as u64) << BUCKET_SHIFT;
                let probes = [lo, lo | (BUCKET_SPAN_MASK / 2), lo | BUCKET_SPAN_MASK];
                if bucket_covered(b, from, to) {
                    for p in probes {
                        assert!(
                            Id(p).in_half_open(from, to),
                            "bucket {b} claimed covered by ({from:?},{to:?}] but {p:#x} outside"
                        );
                    }
                }
                for n in 0..SUBS as u8 {
                    let lo = lo | (n as u64) << SUB_SHIFT;
                    let probes = [lo, lo | (SUB_SPAN_MASK / 2), lo | SUB_SPAN_MASK];
                    if sub_covered(b, n, from, to) {
                        for p in probes {
                            assert!(
                                Id(p).in_half_open(from, to),
                                "sub-bucket {b}.{n} claimed covered but {p:#x} outside"
                            );
                        }
                    }
                }
            }
        }
        // And it is not vacuous: interior buckets of a wide arc do get
        // the cache path, and so do the sub-buckets of an edge bucket
        // that the arc covers whole — but never the one holding `from`
        // of a whole-ring arc.
        assert!(bucket_covered(5, Id(3u64 << 56), Id(7u64 << 56)));
        assert!(!bucket_covered(3, Id(3u64 << 56), Id(7u64 << 56)));
        assert!(sub_covered(3, 1, Id(3u64 << 56), Id(7u64 << 56)));
        assert!(!sub_covered(3, 0, Id(3u64 << 56), Id(7u64 << 56)));
        assert!(sub_covered(0, 1, Id(42), Id(42)));
        assert!(!sub_covered(0, 0, Id(42), Id(42)));
    }

    #[test]
    fn entry_digest_binds_key_and_value() {
        let base = entry_digest(Id(1), b"v");
        assert_ne!(entry_digest(Id(2), b"v"), base);
        assert_ne!(entry_digest(Id(1), b"w"), base);
        assert_eq!(entry_digest(Id(1), b"v"), base);
    }

    #[test]
    fn empty_range_root_is_sentinel() {
        assert_eq!(range_root(&[]), empty_digest());
        assert_ne!(range_root(&[(0, d(1))]), empty_digest());
    }

    #[test]
    fn children_group_buckets_by_high_nibble() {
        // Buckets 0x01, 0x0F (group 0), 0x12 (group 1), 0xF0 (group 15).
        let pairs = vec![(0x01, d(1)), (0x0F, d(2)), (0x12, d(3)), (0xF0, d(4))];
        let root_kids = children_of(&pairs, 0, 0);
        let groups: Vec<u8> = root_kids.iter().map(|(i, _)| *i).collect();
        assert_eq!(groups, vec![0, 1, 15]);
        let g0 = children_of(&pairs, 1, 0);
        assert_eq!(
            g0.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0x1, 0xF]
        );
        let g1 = children_of(&pairs, 1, 1);
        assert_eq!(g1, vec![(0x2, d(3))]);
        assert!(children_of(&pairs, 1, 7).is_empty());
        // Interior digests commit to their children: group 0's digest in
        // the root listing matches recomputing it from the leaf pairs.
        let (_, g0_digest) = root_kids[0];
        assert_eq!(g0_digest, interior_digest(1, 0, &g0));
    }

    #[test]
    fn range_root_moves_with_any_bucket() {
        let pairs = vec![(3u32, d(1)), (130, d(2))];
        let base = range_root(&pairs);
        assert_ne!(range_root(&[(3, d(9)), (130, d(2))]), base, "changed");
        assert_ne!(range_root(&[(3, d(1))]), base, "dropped");
        assert_ne!(range_root(&[(4, d(1)), (130, d(2))]), base, "moved");
        assert_eq!(range_root(&pairs.clone()), base);
    }

    #[test]
    fn depth_domains_are_separated() {
        // A one-child interior node at depth 1 differs from the same
        // child listed at the root: depth and prefix are hashed in.
        let kid = [(0u8, d(5))];
        assert_ne!(interior_digest(0, 0, &kid), interior_digest(1, 0, &kid));
        assert_ne!(interior_digest(1, 0, &kid), interior_digest(1, 1, &kid));
    }
}
