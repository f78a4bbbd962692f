//! Per-node key-value storage with primary/replica buckets.
//!
//! A node is *primary* for the keys in `(pred, me]`; it additionally holds
//! *replica* copies of its predecessors' items (the paper's Log-Peers-Succ
//! role). Replicas are promoted to primary when responsibility shifts after
//! a failure.

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::id::Id;
use crate::merkle;
use crate::sha1::Digest;
use crate::sync;

/// One observed mutation of a [`Storage`] — the journaling upcall the
/// durability layer (the `store` crate) consumes. Deltas are recorded only
/// while journaling is enabled ([`Storage::set_journaling`]), so the
/// default path pays nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageDelta {
    /// An item was stored (or overwritten) in the primary bucket.
    PutPrimary {
        /// The key.
        key: Id,
        /// The stored value.
        value: Bytes,
    },
    /// An item was stored (or overwritten) in the replica bucket.
    PutReplica {
        /// The key.
        key: Id,
        /// The stored value.
        value: Bytes,
    },
    /// An item left the primary bucket.
    DelPrimary {
        /// The key.
        key: Id,
    },
    /// An item left the replica bucket.
    DelReplica {
        /// The key.
        key: Id,
    },
    /// A fence floor was raised on a key (see [`Storage::raise_fence`]).
    SetFence {
        /// The key.
        key: Id,
        /// The new floor: the minimum rank a record must carry to land.
        floor: u64,
        /// The fencing master's identity (its ring id bits).
        origin: u64,
    },
}

/// Magic prefix marking a *ranked* stored value: epoch-stamped log
/// records start with this tag followed by the rank (the master epoch)
/// as a little-endian u64. Legacy values never start with it — a legacy
/// log record opens with its doc-name length, and a name of ~827 MB
/// (the magic read as a length) fails decoding long before storage.
pub const RANK_MAGIC: [u8; 4] = *b"LRE1";

/// The arbitration rank of a stored value: the embedded master epoch of
/// a ranked record, 0 for every legacy (unranked) value.
pub fn value_rank(v: &[u8]) -> u64 {
    if v.len() >= 12 && v[..4] == RANK_MAGIC {
        u64::from_le_bytes(v[4..12].try_into().expect("4..12 is 8 bytes"))
    } else {
        0
    }
}

/// Which key population a Merkle sync digest summarizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncView {
    /// Primary bucket only — what an owner advertises.
    Primary,
    /// Primary ∪ replica with primary preferred (the [`Storage::get`]
    /// read semantics) — what a replica compares against an owner's
    /// advertisement, so items already promoted locally still count.
    Union,
}

/// The two digests the sync tree needs of one stored record (40 bytes):
/// its entry digest, which leaf listings ship, and that digest
/// leaf-hashed, which a bucket root folds.
#[derive(Clone, Copy, Debug)]
struct LeafDigests {
    entry: Digest,
    leaf: Digest,
}

/// A stored value with its sync digests. They are a function of
/// `(key, value)` alone, so they are computed at most once — on the first
/// digest read that reaches the record — and travel with it when it moves
/// between the primary and replica buckets.
#[derive(Clone, Debug)]
struct Record {
    value: Bytes,
    digests: Option<LeafDigests>,
}

impl Record {
    fn new(value: Bytes) -> Self {
        Record {
            value,
            digests: None,
        }
    }

    fn digests(&mut self, key: Id) -> LeafDigests {
        *self.digests.get_or_insert_with(|| {
            let entry = sync::entry_digest(key, &self.value);
            LeafDigests {
                entry,
                leaf: merkle::leaf(&entry),
            }
        })
    }
}

/// Cached roots of one bucket in one [`SyncView`], all over whole key
/// spans: the bucket root, and the root of sub-bucket `n` (`None` when it
/// is empty) while bit `n` of `known` is set.
#[derive(Clone, Default)]
struct BucketRoots {
    root: Option<Digest>,
    known: u16,
    subs: [Option<Digest>; sync::SUBS],
}

/// Cached roots of one [`SyncView`]: per bucket its [`BucketRoots`], and
/// roots of buckets an arc covers only partly, keyed by that arc. A
/// mutation clears its sub-bucket's root, its bucket's root and every
/// edge root of its bucket.
#[derive(Clone, Default)]
struct RootCache {
    buckets: BTreeMap<u32, BucketRoots>,
    edges: Vec<(u32, Id, Id, Digest)>,
}

impl RootCache {
    /// Edge roots kept; a node serves its own arc and those of its few
    /// storage predecessors, two edge buckets each. Arcs retired by churn
    /// go when their bucket is next written or the cache fills.
    const MAX_EDGES: usize = 32;

    fn invalidate(&mut self, key: Id) {
        let bucket = sync::bucket_of(key);
        if let Some(b) = self.buckets.get_mut(&bucket) {
            b.root = None;
            b.known &= !(1 << sync::sub_of(key));
        }
        self.edges.retain(|e| e.0 != bucket);
    }

    /// `edge` is the arc `(from, to]` when it covers `bucket` only
    /// partly, `None` for the root over the bucket's whole span.
    fn get(&self, bucket: u32, edge: Option<(Id, Id)>) -> Option<Digest> {
        match edge {
            None => self.buckets.get(&bucket).and_then(|b| b.root),
            Some((from, to)) => self
                .edges
                .iter()
                .find(|e| (e.0, e.1, e.2) == (bucket, from, to))
                .map(|e| e.3),
        }
    }

    fn insert_edge(&mut self, bucket: u32, from: Id, to: Id, root: Digest) {
        if self.edges.len() >= Self::MAX_EDGES {
            self.edges.clear();
        }
        self.edges.push((bucket, from, to, root));
    }
}

impl std::fmt::Debug for RootCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (buckets, edges) = (self.buckets.len(), self.edges.len());
        write!(f, "RootCache({buckets} buckets, {edges} edge roots)")
    }
}

/// Primary + replica item store for one node.
#[derive(Clone, Debug, Default)]
pub struct Storage {
    primary: BTreeMap<Id, Record>,
    replica: BTreeMap<Id, Record>,
    /// Per-key fence floors: `key → (floor, origin)`. A fenced key only
    /// accepts ranked records of rank ≥ floor. Floors are local write
    /// barriers, not data: they are journaled for crash recovery but
    /// never Merkle-synced or transferred between nodes.
    fences: BTreeMap<Id, (u64, u64)>,
    /// Record mutations as [`StorageDelta`]s for the embedding layer.
    journaling: bool,
    deltas: Vec<StorageDelta>,
    /// Bucket-root caches of the two sync views, indexed by
    /// `SyncView as usize`.
    roots: [RootCache; 2],
}

/// Extract the keys of `map` lying in the clockwise arc `(from, to]`,
/// handling wrap-around. Uses ordered `range` traversal so a stabilization
/// transfer touches only the keys in the arc, not the whole map.
fn keys_in_range<V>(map: &BTreeMap<Id, V>, from: Id, to: Id) -> Vec<Id> {
    use std::ops::Bound::{Excluded, Included, Unbounded};
    if from == to {
        // Degenerate arc `(a, a]` = the whole ring (single-node ownership),
        // matching `Id::in_half_open`.
        map.keys().copied().collect()
    } else if from < to {
        // No wrap: plain ordered sub-range (from, to].
        map.range((Excluded(from), Included(to)))
            .map(|(k, _)| *k)
            .collect()
    } else {
        // Wraps past zero: (from, MAX] ∪ [MIN, to].
        map.range((Excluded(from), Unbounded))
            .chain(map.range((Unbounded, Included(to))))
            .map(|(k, _)| *k)
            .collect()
    }
}

/// The clockwise arc `(from, to]` as inclusive key spans in *ascending*
/// key order (a wrapping arc yields its low piece first); `from == to` is
/// the whole ring, matching `Id::in_half_open`.
fn arc_spans(from: Id, to: Id) -> impl Iterator<Item = (u64, u64)> {
    let spans = if from == to {
        [Some((0, u64::MAX)), None]
    } else if from < to {
        [Some((from.0 + 1, to.0)), None]
    } else {
        [
            Some((0, to.0)),
            from.0.checked_add(1).map(|lo| (lo, u64::MAX)),
        ]
    };
    spans.into_iter().flatten()
}

impl Storage {
    /// Fresh empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn mutation journaling on or off. While on, every bucket change
    /// is mirrored as a [`StorageDelta`]; the embedding layer drains them
    /// with [`Storage::take_deltas`] after each protocol upcall and
    /// appends them to its durable store.
    pub fn set_journaling(&mut self, on: bool) {
        self.journaling = on;
        if !on {
            self.deltas.clear();
        }
    }

    /// Drain the deltas recorded since the last call.
    pub fn take_deltas(&mut self) -> Vec<StorageDelta> {
        std::mem::take(&mut self.deltas)
    }

    #[inline]
    fn journal(&mut self, delta: impl FnOnce() -> StorageDelta) {
        if self.journaling {
            self.deltas.push(delta());
        }
    }

    /// Primary-bucket mutation: drops the cached roots over the key in
    /// both sync views (the union view reads through the primary).
    #[inline]
    fn touch_primary(&mut self, key: Id) {
        self.roots.iter_mut().for_each(|r| r.invalidate(key));
    }

    /// Replica-bucket mutation: dirties the union view only.
    #[inline]
    fn touch_replica(&mut self, key: Id) {
        self.roots[SyncView::Union as usize].invalidate(key);
    }

    /// Store as primary (unconditional overwrite).
    pub fn put_primary(&mut self, key: Id, value: Bytes) {
        self.journal(|| StorageDelta::PutPrimary {
            key,
            value: value.clone(),
        });
        self.touch_primary(key);
        self.primary.insert(key, Record::new(value));
    }

    /// Store as primary only if absent or equal; on mismatch returns the
    /// existing value (first-writer-wins arbitration).
    pub fn put_primary_first_writer(&mut self, key: Id, value: Bytes) -> Result<(), Bytes> {
        match self.primary.get(&key) {
            Some(existing) if existing.value != value => Err(existing.value.clone()),
            _ => {
                self.journal(|| StorageDelta::PutPrimary {
                    key,
                    value: value.clone(),
                });
                self.touch_primary(key);
                self.primary.insert(key, Record::new(value));
                Ok(())
            }
        }
    }

    /// Raise the fence floor for `key` to `floor` on behalf of `origin`.
    /// Strict: succeeds only when the floor strictly increases, or when
    /// the *same* origin re-asserts the floor it already holds (its own
    /// retry after a lost ack). A different origin at the same floor is
    /// rejected — two masters fencing the same epoch cannot both hold
    /// the fence. `Err` carries the current (winning) floor.
    pub fn raise_fence(&mut self, key: Id, floor: u64, origin: u64) -> Result<(), u64> {
        match self.fences.get(&key) {
            Some(&(cur, cur_origin)) if floor < cur || (floor == cur && origin != cur_origin) => {
                Err(cur)
            }
            _ => {
                self.journal(|| StorageDelta::SetFence { key, floor, origin });
                self.fences.insert(key, (floor, origin));
                Ok(())
            }
        }
    }

    /// The fence floor currently in force for `key` (0 when unfenced).
    pub fn fence_floor(&self, key: Id) -> u64 {
        self.fences.get(&key).map(|&(f, _)| f).unwrap_or(0)
    }

    /// Re-install a fence floor from a recovery replay (max-merge; not
    /// journaled — the entry that seeded it is already durable).
    pub fn restore_fence(&mut self, key: Id, floor: u64, origin: u64) {
        let e = self.fences.entry(key).or_insert((floor, origin));
        if floor > e.0 {
            *e = (floor, origin);
        }
    }

    /// Store a ranked record: the value's embedded rank (master epoch)
    /// arbitrates against both the key's fence floor and any record
    /// already present. Equal bytes are idempotent; a strictly higher
    /// rank overwrites a superseded record; anything else is rejected,
    /// returning the surviving record (`None` when the slot is fenced
    /// but still empty).
    pub fn put_primary_ranked(&mut self, key: Id, value: Bytes) -> Result<(), Option<Bytes>> {
        let rank = value_rank(&value);
        if let Some(existing) = self.get_primary(key) {
            if *existing == value {
                return Ok(());
            }
            // Equal ranks keep the incumbent: first-writer-wins within
            // an epoch, exactly the legacy arbitration.
            if rank <= value_rank(existing) {
                return Err(Some(existing.clone()));
            }
        }
        if rank < self.fence_floor(key) {
            return Err(self.get_primary(key).cloned());
        }
        self.journal(|| StorageDelta::PutPrimary {
            key,
            value: value.clone(),
        });
        self.touch_primary(key);
        self.primary.insert(key, Record::new(value));
        Ok(())
    }

    /// Store a replica copy. Ranked records arbitrate (higher rank wins;
    /// equal ranks converge on the byte-wise greater record so every
    /// replica settles on the same survivor without coordination);
    /// unranked values keep the legacy unconditional overwrite.
    pub fn put_replica(&mut self, key: Id, value: Bytes) {
        if let Some(existing) = self.replica.get(&key).map(|r| &r.value) {
            let (new_r, cur_r) = (value_rank(&value), value_rank(existing));
            if (new_r > 0 || cur_r > 0)
                && *existing != value
                && (cur_r > new_r || (cur_r == new_r && **existing > *value))
            {
                return;
            }
        }
        self.journal(|| StorageDelta::PutReplica {
            key,
            value: value.clone(),
        });
        self.touch_replica(key);
        self.replica.insert(key, Record::new(value));
    }

    /// Read, preferring primary, falling back to the replica bucket (covers
    /// the window between a predecessor's crash and promotion).
    pub fn get(&self, key: Id) -> Option<&Bytes> {
        self.primary
            .get(&key)
            .or_else(|| self.replica.get(&key))
            .map(|r| &r.value)
    }

    /// Read only the primary bucket.
    pub fn get_primary(&self, key: Id) -> Option<&Bytes> {
        self.primary.get(&key).map(|r| &r.value)
    }

    /// Does either bucket hold the key?
    pub fn contains(&self, key: Id) -> bool {
        self.primary.contains_key(&key) || self.replica.contains_key(&key)
    }

    /// All primary items (for replica pushes and graceful handoff).
    pub fn primary_items(&self) -> Vec<(Id, Bytes)> {
        self.iter_primary().map(|(k, v)| (*k, v.clone())).collect()
    }

    /// Remove and return primary items in `(from, to]` — the handoff set
    /// when a new predecessor takes over that arc.
    pub fn extract_primary_range(&mut self, from: Id, to: Id) -> Vec<(Id, Bytes)> {
        let keys = keys_in_range(&self.primary, from, to);
        keys.into_iter()
            .map(|k| {
                let rec = self.primary.remove(&k).expect("key listed but missing");
                let v = rec.value.clone();
                // Keep a replica copy: we are the new owner's successor.
                self.journal(|| StorageDelta::DelPrimary { key: k });
                self.journal(|| StorageDelta::PutReplica {
                    key: k,
                    value: v.clone(),
                });
                self.touch_primary(k);
                self.replica.insert(k, rec);
                (k, v)
            })
            .collect()
    }

    /// Promote replica items in `(from, to]` to primary (post-failure
    /// takeover of a predecessor's arc).
    pub fn promote_replicas_in_range(&mut self, from: Id, to: Id) -> usize {
        let keys = keys_in_range(&self.replica, from, to);
        let n = keys.len();
        for k in keys {
            let rec = self.replica.remove(&k).expect("key listed but missing");
            let v = &rec.value;
            self.journal(|| StorageDelta::DelReplica { key: k });
            // A ranked replica that outranks the resident primary record
            // replaces it (the resident lost the epoch arbitration);
            // otherwise keep the incumbent, as the legacy path always did.
            let replace = match self.get_primary(k) {
                None => true,
                Some(cur) if cur != v => {
                    let (vr, cr) = (value_rank(v), value_rank(cur));
                    vr > cr || (vr == cr && vr > 0 && v > cur)
                }
                Some(_) => false,
            };
            if replace {
                self.journal(|| StorageDelta::PutPrimary {
                    key: k,
                    value: v.clone(),
                });
                self.primary.insert(k, rec);
            }
            self.touch_primary(k);
        }
        n
    }

    /// Drop replica items that fall inside our own primary range (they were
    /// promoted elsewhere or are stale).
    pub fn prune_replicas_in_range(&mut self, from: Id, to: Id) -> usize {
        let keys = keys_in_range(&self.replica, from, to);
        let n = keys.len();
        for k in keys {
            self.replica.remove(&k);
            self.journal(|| StorageDelta::DelReplica { key: k });
            self.touch_replica(k);
        }
        n
    }

    /// Number of primary items.
    pub fn primary_len(&self) -> usize {
        self.primary.len()
    }

    /// Number of replica items.
    pub fn replica_len(&self) -> usize {
        self.replica.len()
    }

    /// Iterate primary entries without cloning (e.g. for GC sweeps).
    pub fn iter_primary(&self) -> impl Iterator<Item = (&Id, &Bytes)> {
        self.primary.iter().map(|(k, r)| (k, &r.value))
    }

    /// Primary entries with keys in the arc `(from, to]`, by ordered range
    /// query (entries outside the arc are never visited), in ascending
    /// key order — not clockwise: a wrapping arc yields its low piece
    /// first, the order a filter over [`Storage::iter_primary`] gives.
    pub fn primary_in_arc(&self, from: Id, to: Id) -> impl Iterator<Item = (&Id, &Bytes)> {
        arc_spans(from, to)
            .flat_map(|(lo, hi)| self.primary.range(Id(lo)..=Id(hi)))
            .map(|(k, r)| (k, &r.value))
    }

    /// Iterate replica entries without cloning.
    pub fn iter_replica(&self) -> impl Iterator<Item = (&Id, &Bytes)> {
        self.replica.iter().map(|(k, r)| (k, &r.value))
    }

    /// Move a primary item into the replica bucket (re-homing: we held it
    /// as primary for a range we turned out not to own). Keeps the bytes
    /// — a replica copy still serves takeover promotion — but stops
    /// advertising ownership. Returns false when the key is not primary.
    pub fn demote_to_replica(&mut self, key: Id) -> bool {
        match self.primary.remove(&key) {
            Some(rec) => {
                self.journal(|| StorageDelta::DelPrimary { key });
                self.journal(|| StorageDelta::PutReplica {
                    key,
                    value: rec.value.clone(),
                });
                self.touch_primary(key);
                self.replica.insert(key, rec);
                true
            }
            None => false,
        }
    }

    /// Remove a key from both buckets; true if anything was removed.
    pub fn remove(&mut self, key: Id) -> bool {
        let a = self.primary.remove(&key).is_some();
        let b = self.replica.remove(&key).is_some();
        if a {
            self.journal(|| StorageDelta::DelPrimary { key });
            self.touch_primary(key);
        }
        if b {
            self.journal(|| StorageDelta::DelReplica { key });
            self.touch_replica(key);
        }
        a || b
    }

    /// Remove a key from the replica bucket only (Merkle-sync pruning of
    /// an item the owner deleted); true if it was present.
    pub fn remove_replica(&mut self, key: Id) -> bool {
        if self.replica.remove(&key).is_some() {
            self.journal(|| StorageDelta::DelReplica { key });
            self.touch_replica(key);
            true
        } else {
            false
        }
    }

    // ----- Merkle sync summaries ------------------------------------------
    //
    // Cost model: a summary read is O(occupied buckets of the arc) ordered
    // probes and cached roots, plus, for each sub-bucket written since its
    // root was last folded, one pass over the sub-bucket's cached leaf
    // digests, and one interior hash per bucket written. A value is
    // SHA-1'd once, when a read first reaches it.

    /// Visit the view's records with keys in the span `[lo, hi]` that lie
    /// in the arc `(from, to]`, ascending by key, with their digests
    /// (computed here for records no read has reached yet). Only the part
    /// of the span inside the arc is walked. A replica record shadowed by
    /// a primary one is skipped, as in [`Storage::get`].
    fn visit_leaves(
        &mut self,
        view: SyncView,
        (lo, hi): (u64, u64),
        from: Id,
        to: Id,
        mut f: impl FnMut(Id, LeafDigests),
    ) {
        for (a, z) in arc_spans(from, to) {
            let (lo, hi) = (Id(a.max(lo)), Id(z.min(hi)));
            if lo > hi {
                continue;
            }
            let mut primary = self.primary.range_mut(lo..=hi).peekable();
            let mut replica = (view == SyncView::Union)
                .then(|| self.replica.range_mut(lo..=hi))
                .into_iter()
                .flatten()
                .peekable();
            loop {
                let next_primary = primary.peek().map(|(k, _)| **k);
                let next_replica = replica.peek().map(|(k, _)| **k);
                let next = match (next_primary, next_replica) {
                    (Some(p), Some(r)) if p <= r => {
                        if p == r {
                            replica.next();
                        }
                        primary.next()
                    }
                    (Some(_), None) => primary.next(),
                    (_, Some(_)) => replica.next(),
                    (None, None) => break,
                };
                let (key, rec) = next.expect("peeked");
                f(*key, rec.digests(*key));
            }
        }
    }

    /// Fold the roots of the sub-buckets of `bucket` in the mask `need`
    /// over their keys in the arc `(from, to]` into `roots` (`None` for
    /// one with no such key). Each run of adjacent sub-buckets is one
    /// ordered walk, grouped by nibble.
    fn fold_subs(
        &mut self,
        view: SyncView,
        bucket: u32,
        need: u16,
        (from, to): (Id, Id),
        roots: &mut [Option<Digest>; sync::SUBS],
    ) {
        let base = (bucket as u64) << sync::BUCKET_SHIFT;
        let mut leaves: Vec<(u8, Digest)> = Vec::new();
        let mut n = 0;
        while n < sync::SUBS {
            if need & (1 << n) == 0 {
                n += 1;
                continue;
            }
            let first = n;
            while n < sync::SUBS && need & (1 << n) != 0 {
                roots[n] = None;
                n += 1;
            }
            let span = (
                base | (first as u64) << sync::SUB_SHIFT,
                base | (((n as u64) << sync::SUB_SHIFT) - 1),
            );
            leaves.clear();
            self.visit_leaves(view, span, from, to, |key, d| {
                leaves.push((sync::sub_of(key), d.leaf))
            });
            for run in leaves.chunk_by(|a, b| a.0 == b.0) {
                let run_leaves: Vec<Digest> = run.iter().map(|l| l.1).collect();
                roots[run[0].0 as usize] = Some(merkle::root(&run_leaves));
            }
        }
    }

    /// The view's digest of `bucket` over its keys in `(from, to]`: the
    /// cached root, or one composed from sub-roots — the cached ones of
    /// the sub-buckets the arc covers whole, folded for the rest — and
    /// then cached, with the sub-roots it folded over whole sub-spans.
    fn bucket_root(&mut self, view: SyncView, bucket: u32, from: Id, to: Id) -> Digest {
        let edge = (!sync::bucket_covered(bucket, from, to)).then_some((from, to));
        let cache = &self.roots[view as usize];
        if let Some(root) = cache.get(bucket, edge) {
            return root;
        }
        let whole: u16 = (0..sync::SUBS as u8)
            .filter(|&n| sync::sub_covered(bucket, n, from, to))
            .fold(0, |mask, n| mask | 1 << n);
        let (known, mut roots) = cache
            .buckets
            .get(&bucket)
            .map_or((0, [None; sync::SUBS]), |b| (b.known & whole, b.subs));
        self.fold_subs(view, bucket, !known, (from, to), &mut roots);
        let subs: Vec<(u8, Digest)> = (0..sync::SUBS as u8)
            .filter_map(|n| roots[n as usize].map(|d| (n, d)))
            .collect();
        let root = sync::bucket_root(bucket, &subs);
        let cache = &mut self.roots[view as usize];
        let cached = cache.buckets.entry(bucket).or_default();
        for n in (0..sync::SUBS).filter(|n| whole & (1 << n) != 0) {
            cached.subs[n] = roots[n];
        }
        cached.known |= whole;
        match edge {
            None => cached.root = Some(root),
            Some((from, to)) => cache.insert_edge(bucket, from, to, root),
        }
        root
    }

    /// The non-empty leaf buckets of the view's keys in `(from, to]`,
    /// ascending: one ordered probe per occupied bucket, hopping from
    /// bucket to bucket, never visiting the keys in between.
    fn occupied_buckets(&self, view: SyncView, from: Id, to: Id) -> Vec<u32> {
        let mut out = Vec::new();
        for (mut lo, hi) in arc_spans(from, to) {
            loop {
                let first =
                    |map: &BTreeMap<Id, Record>| map.range(Id(lo)..=Id(hi)).next().map(|(k, _)| *k);
                let key = match view {
                    SyncView::Primary => first(&self.primary),
                    SyncView::Union => first(&self.primary)
                        .into_iter()
                        .chain(first(&self.replica))
                        .min(),
                };
                let Some(key) = key else { break };
                let b = sync::bucket_of(key);
                // A wrapping arc may begin and end in one bucket: the
                // second span meets it again; list it once.
                if out.last() != Some(&b) {
                    out.push(b);
                }
                if b as usize + 1 == sync::BUCKETS {
                    break;
                }
                lo = (b as u64 + 1) << sync::BUCKET_SHIFT;
                if lo > hi {
                    break;
                }
            }
        }
        out
    }

    /// Per-key entry digests of the view's keys in leaf bucket `bucket`
    /// restricted to the arc `(from, to]`, in ascending key order — the
    /// leaf listing shipped in `SyncNodes`, whose [`sync::bucket_digest`]
    /// is the bucket's entry in [`Storage::sync_bucket_digests`].
    pub fn sync_leaf(
        &mut self,
        view: SyncView,
        bucket: u32,
        from: Id,
        to: Id,
    ) -> Vec<(Id, Digest)> {
        let lo = (bucket as u64) << sync::BUCKET_SHIFT;
        let mut out = Vec::new();
        self.visit_leaves(view, (lo, lo | sync::BUCKET_SPAN_MASK), from, to, |k, d| {
            out.push((k, d.entry))
        });
        out
    }

    /// The non-empty leaf buckets of the view's keys in `(from, to]`,
    /// each with its bucket digest, ascending by bucket number — the flat
    /// summary [`sync::range_root`] and [`sync::children_of`] consume.
    /// Roots come from the per-view cache; in a bucket written since its
    /// root was cached, only the written sub-buckets are folded again
    /// from their records' cached leaf digests.
    pub fn sync_bucket_digests(&mut self, view: SyncView, from: Id, to: Id) -> Vec<(u32, Digest)> {
        #[cfg(test)]
        DIGEST_READS.with(|n| n.set(n.get() + 1));
        self.occupied_buckets(view, from, to)
            .into_iter()
            .map(|b| (b, self.bucket_root(view, b, from, to)))
            .collect()
    }
}

#[cfg(test)]
thread_local! {
    /// Calls of [`Storage::sync_bucket_digests`] on this thread.
    pub(crate) static DIGEST_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn demote_to_replica_moves_item_and_journals() {
        let mut s = Storage::new();
        s.put_primary(Id(5), b("v"));
        s.set_journaling(true);
        assert!(s.demote_to_replica(Id(5)));
        assert_eq!(s.primary_len(), 0);
        assert_eq!(s.get(Id(5)), Some(&b("v")));
        let deltas = s.take_deltas();
        assert!(matches!(deltas[0], StorageDelta::DelPrimary { key: Id(5) }));
        assert!(matches!(
            deltas[1],
            StorageDelta::PutReplica { key: Id(5), .. }
        ));
        // Not primary: no-op.
        assert!(!s.demote_to_replica(Id(5)));
        assert!(s.take_deltas().is_empty());
    }

    #[test]
    fn put_get_roundtrip() {
        let mut s = Storage::new();
        s.put_primary(Id(5), b("v"));
        assert_eq!(s.get(Id(5)), Some(&b("v")));
        assert_eq!(s.get(Id(6)), None);
    }

    #[test]
    fn first_writer_wins_rejects_conflicts() {
        let mut s = Storage::new();
        assert!(s.put_primary_first_writer(Id(1), b("a")).is_ok());
        // Idempotent re-put of the same value is fine.
        assert!(s.put_primary_first_writer(Id(1), b("a")).is_ok());
        // A different value is rejected and the original returned.
        let err = s.put_primary_first_writer(Id(1), b("z")).unwrap_err();
        assert_eq!(err, b("a"));
        assert_eq!(s.get(Id(1)), Some(&b("a")));
    }

    #[test]
    fn get_falls_back_to_replica() {
        let mut s = Storage::new();
        s.put_replica(Id(9), b("r"));
        assert_eq!(s.get(Id(9)), Some(&b("r")));
        assert_eq!(s.get_primary(Id(9)), None);
    }

    #[test]
    fn extract_range_moves_to_replica_bucket() {
        let mut s = Storage::new();
        s.put_primary(Id(10), b("x"));
        s.put_primary(Id(20), b("y"));
        s.put_primary(Id(30), b("z"));
        let moved = s.extract_primary_range(Id(5), Id(20));
        let keys: Vec<Id> = moved.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![Id(10), Id(20)]);
        assert_eq!(s.primary_len(), 1);
        // Extracted items remain as replicas (we are the new owner's succ).
        assert_eq!(s.get(Id(10)), Some(&b("x")));
        assert_eq!(s.replica_len(), 2);
    }

    #[test]
    fn extract_range_handles_wraparound() {
        let mut s = Storage::new();
        s.put_primary(Id(u64::MAX - 1), b("a"));
        s.put_primary(Id(3), b("b"));
        s.put_primary(Id(1000), b("c"));
        let moved = s.extract_primary_range(Id(u64::MAX - 5), Id(5));
        assert_eq!(moved.len(), 2);
        assert_eq!(s.primary_len(), 1);
        assert!(s.get_primary(Id(1000)).is_some());
    }

    #[test]
    fn keys_in_range_matches_predicate_filter() {
        // The ordered-range traversal must select exactly the keys the
        // in_half_open predicate selects, for wrap, no-wrap and degenerate
        // arcs alike.
        let mut map = BTreeMap::new();
        let keys = [0u64, 1, 7, 100, 1000, u64::MAX / 2, u64::MAX - 3, u64::MAX];
        for k in keys {
            map.insert(Id(k), b("v"));
        }
        let arcs = [
            (Id(0), Id(1000)),                // no wrap
            (Id(1000), Id(0)),                // wrap through MAX
            (Id(u64::MAX - 5), Id(5)),        // tight wrap
            (Id(7), Id(7)),                   // degenerate: whole ring
            (Id(u64::MAX), Id(u64::MAX - 3)), // wrap, bounds on stored keys
        ];
        for (from, to) in arcs {
            let got = keys_in_range(&map, from, to);
            let mut expect: Vec<Id> = map
                .keys()
                .copied()
                .filter(|k| k.in_half_open(from, to))
                .collect();
            let mut sorted = got.clone();
            sorted.sort();
            expect.sort();
            assert_eq!(sorted, expect, "arc ({from:?}, {to:?}]");
        }
    }

    #[test]
    fn wraparound_range_is_clockwise_ordered() {
        let mut map = BTreeMap::new();
        for k in [3u64, 900, u64::MAX - 1] {
            map.insert(Id(k), b("v"));
        }
        // (MAX-5, 5]: clockwise walk passes MAX-1 before 3.
        assert_eq!(
            keys_in_range(&map, Id(u64::MAX - 5), Id(5)),
            vec![Id(u64::MAX - 1), Id(3)]
        );
    }

    #[test]
    fn promote_replicas_takes_over_range() {
        let mut s = Storage::new();
        s.put_replica(Id(10), b("x"));
        s.put_replica(Id(50), b("y"));
        let n = s.promote_replicas_in_range(Id(0), Id(20));
        assert_eq!(n, 1);
        assert_eq!(s.get_primary(Id(10)), Some(&b("x")));
        assert_eq!(s.get_primary(Id(50)), None);
        assert_eq!(s.replica_len(), 1);
    }

    #[test]
    fn promote_does_not_clobber_existing_primary() {
        let mut s = Storage::new();
        s.put_primary(Id(10), b("new"));
        s.put_replica(Id(10), b("old"));
        s.promote_replicas_in_range(Id(0), Id(20));
        assert_eq!(s.get_primary(Id(10)), Some(&b("new")));
    }

    #[test]
    fn journaling_mirrors_every_mutation() {
        let mut s = Storage::new();
        // Off by default: no deltas, no cost.
        s.put_primary(Id(1), b("a"));
        assert!(s.take_deltas().is_empty());

        s.set_journaling(true);
        s.put_primary(Id(1), b("a2"));
        s.put_replica(Id(2), b("r"));
        assert!(s.put_primary_first_writer(Id(3), b("fw")).is_ok());
        assert!(s.put_primary_first_writer(Id(3), b("other")).is_err());
        s.remove(Id(1));
        let deltas = s.take_deltas();
        assert_eq!(
            deltas,
            vec![
                StorageDelta::PutPrimary {
                    key: Id(1),
                    value: b("a2")
                },
                StorageDelta::PutReplica {
                    key: Id(2),
                    value: b("r")
                },
                StorageDelta::PutPrimary {
                    key: Id(3),
                    value: b("fw")
                },
                StorageDelta::DelPrimary { key: Id(1) },
            ]
        );
        assert!(s.take_deltas().is_empty(), "drained");

        // Range ops journal per-key moves.
        s.promote_replicas_in_range(Id(0), Id(10));
        let deltas = s.take_deltas();
        assert_eq!(
            deltas,
            vec![
                StorageDelta::DelReplica { key: Id(2) },
                StorageDelta::PutPrimary {
                    key: Id(2),
                    value: b("r")
                },
            ]
        );
        s.extract_primary_range(Id(1), Id(3));
        let deltas = s.take_deltas();
        assert!(deltas.contains(&StorageDelta::DelPrimary { key: Id(2) }));
        assert!(deltas.contains(&StorageDelta::PutReplica {
            key: Id(2),
            value: b("r")
        }));
    }

    #[test]
    fn prune_replicas() {
        let mut s = Storage::new();
        s.put_replica(Id(10), b("x"));
        s.put_replica(Id(30), b("y"));
        assert_eq!(s.prune_replicas_in_range(Id(5), Id(15)), 1);
        assert_eq!(s.replica_len(), 1);
    }

    #[test]
    fn remove_replica_leaves_primary_alone() {
        let mut s = Storage::new();
        s.put_primary(Id(7), b("p"));
        s.put_replica(Id(7), b("r"));
        s.set_journaling(true);
        assert!(s.remove_replica(Id(7)));
        assert!(!s.remove_replica(Id(7)));
        assert_eq!(s.get_primary(Id(7)), Some(&b("p")));
        assert_eq!(
            s.take_deltas(),
            vec![StorageDelta::DelReplica { key: Id(7) }]
        );
    }

    // ----- Ranked records and fence floors -----

    /// Build a ranked value: magic + rank + body.
    fn ranked(rank: u64, body: &str) -> Bytes {
        let mut v = Vec::new();
        v.extend_from_slice(&RANK_MAGIC);
        v.extend_from_slice(&rank.to_le_bytes());
        v.extend_from_slice(body.as_bytes());
        Bytes::from(v)
    }

    #[test]
    fn value_rank_reads_magic_or_zero() {
        assert_eq!(value_rank(&ranked(7, "x")), 7);
        assert_eq!(value_rank(b"plain legacy bytes"), 0);
        assert_eq!(value_rank(b""), 0);
        assert_eq!(value_rank(b"LRE1"), 0, "truncated rank is unranked");
    }

    #[test]
    fn raise_fence_is_strictly_monotonic_per_origin() {
        let mut s = Storage::new();
        assert_eq!(s.fence_floor(Id(1)), 0);
        assert!(s.raise_fence(Id(1), 3, 100).is_ok());
        assert_eq!(s.fence_floor(Id(1)), 3);
        // Same origin may re-assert its own floor (ack was lost).
        assert!(s.raise_fence(Id(1), 3, 100).is_ok());
        // A different origin at the same floor is rejected.
        assert_eq!(s.raise_fence(Id(1), 3, 200), Err(3));
        // Lower floors are rejected; higher floors win regardless of origin.
        assert_eq!(s.raise_fence(Id(1), 2, 100), Err(3));
        assert!(s.raise_fence(Id(1), 4, 200).is_ok());
        assert_eq!(s.fence_floor(Id(1)), 4);
    }

    #[test]
    fn ranked_put_respects_fence_and_rank() {
        let mut s = Storage::new();
        s.raise_fence(Id(9), 2, 1).unwrap();
        // Below the floor, even on an empty slot: rejected, nothing stored.
        assert_eq!(s.put_primary_ranked(Id(9), ranked(1, "old")), Err(None));
        assert_eq!(s.get_primary(Id(9)), None);
        // At the floor: lands.
        assert!(s.put_primary_ranked(Id(9), ranked(2, "new")).is_ok());
        // Idempotent re-put.
        assert!(s.put_primary_ranked(Id(9), ranked(2, "new")).is_ok());
        // Equal rank, different bytes: first writer wins.
        assert_eq!(
            s.put_primary_ranked(Id(9), ranked(2, "other")),
            Err(Some(ranked(2, "new")))
        );
        // Higher rank overwrites a superseded record.
        assert!(s.put_primary_ranked(Id(9), ranked(3, "fresh")).is_ok());
        assert_eq!(s.get_primary(Id(9)), Some(&ranked(3, "fresh")));
        // Lower rank bounces off the resident record.
        assert_eq!(
            s.put_primary_ranked(Id(9), ranked(2, "stale")),
            Err(Some(ranked(3, "fresh")))
        );
    }

    #[test]
    fn ranked_replicas_arbitrate_unranked_overwrite() {
        let mut s = Storage::new();
        // Legacy: unranked replica writes overwrite unconditionally.
        s.put_replica(Id(4), b("a"));
        s.put_replica(Id(4), b("b"));
        assert_eq!(s.get(Id(4)), Some(&b("b")));
        // Ranked: higher rank wins in either order.
        s.put_replica(Id(5), ranked(2, "win"));
        s.put_replica(Id(5), ranked(1, "lose"));
        assert_eq!(s.get(Id(5)), Some(&ranked(2, "win")));
        s.put_replica(Id(6), ranked(1, "lose"));
        s.put_replica(Id(6), ranked(2, "win"));
        assert_eq!(s.get(Id(6)), Some(&ranked(2, "win")));
        // Equal ranks: byte-wise max survives in either order.
        let (lo, hi) = (ranked(3, "aaa"), ranked(3, "bbb"));
        s.put_replica(Id(7), lo.clone());
        s.put_replica(Id(7), hi.clone());
        assert_eq!(s.get(Id(7)), Some(&hi));
        s.put_replica(Id(8), hi.clone());
        s.put_replica(Id(8), lo.clone());
        assert_eq!(s.get(Id(8)), Some(&hi));
    }

    #[test]
    fn promote_prefers_higher_ranked_replica() {
        let mut s = Storage::new();
        s.put_primary(Id(10), ranked(1, "stale"));
        s.put_replica(Id(10), ranked(2, "winner"));
        s.promote_replicas_in_range(Id(0), Id(20));
        assert_eq!(s.get_primary(Id(10)), Some(&ranked(2, "winner")));
        // Unranked conflict keeps the incumbent (legacy behaviour).
        let mut s = Storage::new();
        s.put_primary(Id(11), b("new"));
        s.put_replica(Id(11), b("old"));
        s.promote_replicas_in_range(Id(0), Id(20));
        assert_eq!(s.get_primary(Id(11)), Some(&b("new")));
    }

    #[test]
    fn fences_journal_and_restore() {
        let mut s = Storage::new();
        s.set_journaling(true);
        s.raise_fence(Id(2), 5, 77).unwrap();
        assert_eq!(
            s.take_deltas(),
            vec![StorageDelta::SetFence {
                key: Id(2),
                floor: 5,
                origin: 77
            }]
        );
        let mut r = Storage::new();
        r.restore_fence(Id(2), 5, 77);
        r.restore_fence(Id(2), 3, 99); // max-merge: lower floor ignored
        assert_eq!(r.fence_floor(Id(2)), 5);
        assert!(r.take_deltas().is_empty(), "restore does not journal");
    }

    // ----- Merkle sync summaries -----

    /// The oracle: leaf listings recomputed from scratch, straight from
    /// the digest *definitions* — every key of the view visited, every
    /// value hashed, nothing cached. This is the recompute the cache
    /// replaced; equality with it freezes the definitions.
    fn fresh_leaves(
        s: &Storage,
        view: SyncView,
        from: Id,
        to: Id,
    ) -> BTreeMap<u32, Vec<(Id, Digest)>> {
        let mut merged: BTreeMap<Id, &Bytes> = BTreeMap::new();
        if view == SyncView::Union {
            merged.extend(s.iter_replica().map(|(k, v)| (*k, v)));
        }
        merged.extend(s.iter_primary().map(|(k, v)| (*k, v)));
        let mut leaves: BTreeMap<u32, Vec<(Id, Digest)>> = BTreeMap::new();
        for (k, v) in merged {
            if k.in_half_open(from, to) {
                leaves
                    .entry(sync::bucket_of(k))
                    .or_default()
                    .push((k, sync::entry_digest(k, v)));
            }
        }
        leaves
    }

    fn fresh_digests(s: &Storage, view: SyncView, from: Id, to: Id) -> Vec<(u32, Digest)> {
        fresh_leaves(s, view, from, to)
            .iter()
            .map(|(b, leaf)| (*b, sync::bucket_digest(*b, leaf)))
            .collect()
    }

    /// Both views' summaries and leaf listings over `(from, to]` equal
    /// the oracle's.
    fn assert_matches_oracle(s: &mut Storage, from: Id, to: Id, probe_bucket: u32) {
        for view in [SyncView::Primary, SyncView::Union] {
            let ctx = format!("{view:?} ({from:?},{to:?}]");
            let got = s.sync_bucket_digests(view, from, to);
            assert_eq!(got, fresh_digests(s, view, from, to), "{ctx}");
            let leaves = fresh_leaves(s, view, from, to);
            // Every listed bucket, and one that may well be empty.
            for b in got.iter().map(|(b, _)| *b).chain([probe_bucket]) {
                assert_eq!(
                    s.sync_leaf(view, b, from, to),
                    leaves.get(&b).cloned().unwrap_or_default(),
                    "{ctx} leaf {b}"
                );
            }
        }
    }

    #[test]
    fn sync_leaf_orders_and_filters() {
        let mut s = Storage::new();
        let in_b3 = |low: u64| Id((3u64 << 56) | low);
        s.put_primary(in_b3(10), b("a"));
        s.put_primary(in_b3(2), b("b"));
        s.put_primary(Id(5), b("other-bucket"));
        let leaf = s.sync_leaf(SyncView::Primary, 3, Id(0), Id(u64::MAX));
        assert_eq!(
            leaf.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![in_b3(2), in_b3(10)],
            "ascending key order, bucket 3 only"
        );
        // Range filter: exclude key 2 via the arc.
        let leaf = s.sync_leaf(SyncView::Primary, 3, in_b3(5), Id(u64::MAX));
        assert_eq!(
            leaf.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![in_b3(10)]
        );
    }

    #[test]
    fn union_view_prefers_primary() {
        let mut s = Storage::new();
        s.put_primary(Id(1), b("p"));
        s.put_replica(Id(1), b("r"));
        s.put_replica(Id(2), b("only-replica"));
        let leaf = s.sync_leaf(SyncView::Union, 0, Id(u64::MAX), Id(u64::MAX - 1));
        assert_eq!(leaf.len(), 2);
        assert_eq!(leaf[0], (Id(1), crate::sync::entry_digest(Id(1), b"p")));
        assert_eq!(
            leaf[1],
            (Id(2), crate::sync::entry_digest(Id(2), b"only-replica"))
        );
    }

    #[test]
    fn primary_in_arc_matches_filter_order() {
        let mut s = Storage::new();
        for k in [0u64, 1, 7, 100, 1000, u64::MAX / 2, u64::MAX - 3, u64::MAX] {
            s.put_primary(Id(k), b("v"));
        }
        let arcs = [
            (Id(0), Id(1000)),
            (Id(1000), Id(0)),
            (Id(u64::MAX - 5), Id(5)),
            (Id(7), Id(7)),
            (Id(u64::MAX), Id(u64::MAX - 3)),
            (Id(u64::MAX), Id(u64::MAX)),
        ];
        for (from, to) in arcs {
            let got: Vec<Id> = s.primary_in_arc(from, to).map(|(k, _)| *k).collect();
            let expect: Vec<Id> = s
                .iter_primary()
                .map(|(k, _)| *k)
                .filter(|k| k.in_half_open(from, to))
                .collect();
            assert_eq!(got, expect, "arc ({from:?}, {to:?}]");
        }
    }

    #[test]
    fn cached_digests_track_mutations() {
        // After any sequence of mutator calls, cached summaries and leaf
        // listings equal the from-scratch oracle. Keys, values and arc
        // endpoints come from small pools so that overwrites (with equal
        // and with different bytes), shadowed replicas, removals that hit,
        // repeated arcs (cache hits) and arcs sharing an edge bucket are
        // all common. Low bits on and next to sub-bucket boundaries, and
        // inside sub-buckets other than the first and last, make arcs that
        // end at a boundary and arcs that split a sub-bucket of an edge
        // bucket common too.
        const BUCKET_POOL: [u64; 8] = [0, 1, 2, 3, 127, 128, 254, 255];
        const SUB: u64 = 1 << sync::SUB_SHIFT;
        const LOW_POOL: [u64; 16] = [
            0,
            1,
            5,
            1 << 40,
            SUB - 1,
            SUB,
            7 * SUB - 1,
            7 * SUB,
            7 * SUB + 1,
            7 * SUB + 5,
            8 * SUB - 1,
            8 * SUB,
            15 * SUB - 1,
            15 * SUB,
            sync::BUCKET_SPAN_MASK - 1,
            sync::BUCKET_SPAN_MASK,
        ];
        fn low(rng: &mut simnet::Rng64) -> u64 {
            LOW_POOL[rng.index(LOW_POOL.len())]
        }
        fn key(rng: &mut simnet::Rng64) -> Id {
            let bucket = BUCKET_POOL[rng.index(8)];
            Id((bucket << 56) | low(rng))
        }
        fn value(rng: &mut simnet::Rng64) -> Bytes {
            match rng.index(6) {
                0 => b("a"),
                1 => b("b"),
                2 => b("a rather longer value, more than one SHA-1 block of it, for good measure"),
                3 => ranked(1, "x"),
                4 => ranked(2, "y"),
                _ => ranked(2, "z"),
            }
        }
        /// `(from, to]` with both ends in bucket `bucket`; wraps (covers
        /// nearly the whole ring) when `from`'s low bits exceed `to`'s.
        fn arc_in_bucket(rng: &mut simnet::Rng64) -> (Id, Id) {
            let bucket = BUCKET_POOL[rng.index(8)];
            let (a, b) = (low(rng), low(rng));
            (Id((bucket << 56) | a), Id((bucket << 56) | b))
        }
        let mut rng = simnet::Rng64::new(0x5359_4e43);
        let mut s = Storage::new();
        let mut reads = 0u32;
        for step in 0..2_400 {
            let k = key(&mut rng);
            match rng.index(13) {
                0 | 1 => s.put_primary(k, value(&mut rng)),
                2 => {
                    // Overwrite with the bytes already there.
                    if let Some(v) = s.get_primary(k).cloned() {
                        s.put_primary(k, v);
                    }
                }
                3 => drop(s.put_primary_first_writer(k, value(&mut rng))),
                4 => {
                    if rng.chance(0.2) {
                        s.raise_fence(k, 2, 1).ok();
                    }
                    drop(s.put_primary_ranked(k, value(&mut rng)));
                }
                5 | 6 => s.put_replica(k, value(&mut rng)),
                7 => drop(s.extract_primary_range(k, key(&mut rng))),
                8 => drop(s.promote_replicas_in_range(k, key(&mut rng))),
                9 => drop(s.prune_replicas_in_range(k, key(&mut rng))),
                10 => drop(s.demote_to_replica(k)),
                11 => drop(s.remove(k)),
                _ => drop(s.remove_replica(k)),
            }
            // Read after about half the calls, so caches are sometimes one
            // mutation stale and sometimes several.
            if rng.chance(0.5) {
                continue;
            }
            let probe = BUCKET_POOL[rng.index(8)] as u32;
            let shared_to = key(&mut rng);
            let arcs = [
                (key(&mut rng), key(&mut rng)), // any, wrapping or not
                (k, k),                         // whole ring
                arc_in_bucket(&mut rng),
                (key(&mut rng), shared_to), // two arcs sharing `to`'s
                (key(&mut rng), shared_to), // edge bucket
                (Id(u64::MAX), key(&mut rng)),
                (key(&mut rng), Id(u64::MAX)),
            ];
            for (from, to) in arcs {
                assert_matches_oracle(&mut s, from, to, probe);
                reads += 1;
            }
            assert!(s.primary_len() + s.replica_len() > 0 || step < 64);
        }
        assert!(reads > 2_000, "{reads} arcs read");
    }

    #[test]
    fn cached_roots_are_served_until_the_bucket_is_written() {
        let mut s = Storage::new();
        let key = |b: u64, low: u64| Id((b << 56) | low);
        s.put_primary(key(10, 5), b("x"));
        s.put_primary(key(20, 5), b("y"));
        // Bucket 10 is covered by the arc, bucket 20 is its edge.
        let arc = (key(5, 0), key(20, 9));
        let first = s.sync_bucket_digests(SyncView::Primary, arc.0, arc.1);
        assert_eq!(first.len(), 2);
        // Mutate the underlying map *without* the invalidation hook to
        // prove the second read is served from the cache. (White-box: we
        // reach into the private field on purpose.)
        s.primary.insert(key(10, 6), Record::new(b("sneaky")));
        s.primary.insert(key(20, 6), Record::new(b("sneaky")));
        let second = s.sync_bucket_digests(SyncView::Primary, arc.0, arc.1);
        assert_eq!(first, second, "cached roots served despite raw changes");
        // A hooked write drops the roots of its bucket, and of no other.
        s.put_primary(key(20, 7), b("seen"));
        let third = s.sync_bucket_digests(SyncView::Primary, arc.0, arc.1);
        assert_eq!(first[0], third[0]);
        assert_ne!(first[1], third[1]);
        // Within a bucket, a hooked write drops the root of its own
        // sub-bucket only: bucket 10 is composed again from the new
        // record's sub-bucket and the cached root of sub-bucket 0, which
        // still does not see the raw record.
        let far = key(10, 9 << sync::SUB_SHIFT);
        s.put_primary(far, b("far"));
        let fourth = s.sync_bucket_digests(SyncView::Primary, arc.0, arc.1);
        let listing =
            [(key(10, 5), b("x")), (far, b("far"))].map(|(k, v)| (k, sync::entry_digest(k, &v)));
        assert_eq!(fourth[0], (10, sync::bucket_digest(10, &listing)));
    }

    /// Merkle combines and interior hashes of one primary-view summary
    /// read of `(from, to]`.
    fn read_cost(s: &mut Storage, from: Id, to: Id) -> (u64, u64) {
        let count = || {
            let combines = merkle::COMBINES.with(|n| n.get());
            (combines, sync::INTERIOR_DIGESTS.with(|n| n.get()))
        };
        let before = count();
        s.sync_bucket_digests(SyncView::Primary, from, to);
        let after = count();
        (after.0 - before.0, after.1 - before.1)
    }

    #[test]
    fn a_write_refolds_one_sub_bucket() {
        // The operation-count gate on the fold: after one put, a read
        // costs the written sub-bucket's fold plus one interior hash,
        // whatever the size of the bucket around it, and a repeated read
        // costs nothing. Both buckets hold four records in the written
        // sub-bucket; the rest of the 64 and of the 4 096 are spread over
        // the other fifteen.
        let mut s = Storage::new();
        let key = |b: u64, sub: u64, low: u64| Id((b << 56) | (sub << sync::SUB_SHIFT) | low);
        for (bucket, n) in [(40u64, 64u64), (41, 4_096)] {
            for i in 0..n {
                let sub = if i < 4 { 0 } else { 1 + i % 15 };
                s.put_primary(key(bucket, sub, i), b("v"));
            }
        }
        let (from, to) = (key(39, 0, 0), key(42, 0, 0));
        read_cost(&mut s, from, to);
        let mut costs = Vec::new();
        for bucket in [40, 41] {
            s.put_primary(key(bucket, 0, 1_000_000), b("new"));
            costs.push(read_cost(&mut s, from, to));
            let again = read_cost(&mut s, from, to);
            assert_eq!(again, (0, 0), "repeated read, bucket {bucket}");
        }
        assert_eq!(costs[0], costs[1], "a bucket of 64 and one of 4 096");
        // Five leaves: four combines, then the bucket's interior hash.
        assert_eq!(costs[0], (4, 1));
    }

    /// `entry_digest` computations during `f` on this thread.
    fn entry_digests_during(f: impl FnOnce()) -> u64 {
        let before = sync::ENTRY_DIGESTS.with(|n| n.get());
        f();
        sync::ENTRY_DIGESTS.with(|n| n.get()) - before
    }

    #[test]
    fn a_value_is_hashed_once() {
        // The operation-count gate on the summary cache: steady-state
        // rounds hash nothing, a put costs one entry digest, and neither
        // another arc over the same buckets, nor the other view, nor a
        // record changing buckets hashes anything again.
        let mut s = Storage::new();
        let key = |b: u64, low: u64| Id((b << 56) | low);
        for bucket in 8..16 {
            for low in 0..50 {
                s.put_primary(key(bucket, low), b("primary value"));
                s.put_replica(key(bucket + 16, low), b("replica value"));
            }
        }
        // Edge buckets 8 and 15 (primary), 24 and 31 (replicas).
        let arc = (key(8, 10), key(31, 40));
        let both = |s: &mut Storage, (from, to): (Id, Id)| {
            s.sync_bucket_digests(SyncView::Primary, from, to);
            s.sync_bucket_digests(SyncView::Union, from, to);
            s.sync_leaf(SyncView::Union, 8, from, to);
        };
        assert_eq!(
            entry_digests_during(|| both(&mut s, arc)),
            50 * 8 - 11 + 50 * 8 - 9,
            "first read: every record in the arc, once for both views"
        );
        assert_eq!(entry_digests_during(|| both(&mut s, arc)), 0, "second read");
        s.put_primary(key(9, 7), b("changed"));
        assert_eq!(entry_digests_during(|| both(&mut s, arc)), 1, "one put");
        let other = (key(8, 20), key(31, 30));
        assert_eq!(
            entry_digests_during(|| both(&mut s, other)),
            0,
            "a different arc sharing the buckets"
        );
        s.demote_to_replica(key(9, 7));
        s.promote_replicas_in_range(key(24, 0), key(25, 0));
        s.extract_primary_range(key(12, 0), key(13, 0));
        assert_eq!(
            entry_digests_during(|| both(&mut s, arc)),
            0,
            "digests travel with a record between the buckets"
        );
    }
}
