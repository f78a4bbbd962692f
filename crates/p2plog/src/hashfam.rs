//! The hash-function family of P2P-LTR placement (RR-6497 §2):
//!
//! * `ht` locates the **Master-key peer** of a document;
//! * `Hr = {h1 … hn}` — the pairwise-independent **replication hash
//!   functions** — locate the `n` Log-Peers of each `(document, ts)` record:
//!   `Put(h1(key+ts), patch) … Put(hn(key+ts), patch)`.
//!
//! All are salted SHA-1 truncations: distinct one-byte salts give
//! independent placements (domain separation). The hashed material is
//! `salt ':' doc` for `ht` and `salt ':' doc '#' ts` for `h_i` — the digest
//! layout is **pinned** (see `placement_digests_are_pinned`); changing it
//! moves every record in every deployed ring.
//!
//! Derivation is allocation-free: the timestamp suffix is formatted into a
//! stack buffer and streamed into an incremental hasher, and [`DocHashes`]
//! caches one SHA-1 midstate per `(salt, doc)` so repeated derivations for
//! the same document (a publish fan-out, a retrieval window, a probe) only
//! hash the `#ts` tail.

use chord::sha1::Sha1;
use chord::Id;

use chord::DocName;

/// Salt reserved for the timestamp hash `ht`.
const HT_SALT: u8 = 0;

/// Largest permitted replication index (fits the one-byte salt space,
/// leaving salt 0 for `ht`).
const MAX_HR: usize = 250;

/// Format `#ts` (decimal) into `buf`, returning the used prefix.
/// Matches the old `format!("{doc}#{ts}")` byte-for-byte.
#[inline]
fn ts_suffix(buf: &mut [u8; 21], ts: u64) -> &[u8] {
    buf[0] = b'#';
    let mut digits = [0u8; 20];
    let mut n = 0;
    let mut v = ts;
    loop {
        digits[n] = b'0' + (v % 10) as u8;
        v /= 10;
        n += 1;
        if v == 0 {
            break;
        }
    }
    for i in 0..n {
        buf[1 + i] = digits[n - 1 - i];
    }
    &buf[..1 + n]
}

/// Finish a midstate that has absorbed `salt ':' doc` with the `#ts` tail.
#[inline]
fn finish_with_ts(mut state: Sha1, ts: u64) -> Id {
    let mut buf = [0u8; 21];
    state.update(ts_suffix(&mut buf, ts));
    Id(state.finalize_u64())
}

/// The master-key location of a document: `ht(name)`.
pub fn ht(doc: &str) -> Id {
    Id::hash_salted(HT_SALT, doc.as_bytes())
}

/// The `i`-th replication hash (1-based, `1 ..= n`): `h_i(name # ts)`.
pub fn hr(i: usize, doc: &str, ts: u64) -> Id {
    debug_assert!((1..=MAX_HR).contains(&i), "replication index out of range");
    let mut state = Id::salted_hasher(i as u8);
    state.update(doc.as_bytes());
    finish_with_ts(state, ts)
}

/// All `n` log locations for `(doc, ts)`, in retrieval preference order.
pub fn log_locations(n: usize, doc: &str, ts: u64) -> Vec<Id> {
    log_locations_iter(n, doc, ts).collect()
}

/// Iterator form of [`log_locations`]: stamps `n` replicas without
/// materializing a `Vec` per patch (the master's publish fan-out path).
pub fn log_locations_iter(n: usize, doc: &str, ts: u64) -> impl Iterator<Item = Id> + '_ {
    (1..=n).map(move |i| hr(i, doc, ts))
}

/// Cached SHA-1 midstates for one document: `ht` fully evaluated, and one
/// partial state per replication hash with `salt ':' doc` already absorbed.
/// Deriving `h_i(doc#ts)` is then a ~100-byte state clone plus the `#ts`
/// tail — the document name is never re-hashed.
#[derive(Clone, Debug)]
pub struct DocHashes {
    doc: DocName,
    ht: Id,
    /// `mids[i-1]` is the midstate for replication hash `h_i`.
    mids: Vec<Sha1>,
}

impl DocHashes {
    /// Precompute midstates for `doc` with replication degree `n`.
    pub fn new(doc: impl Into<DocName>, n: usize) -> Self {
        let doc = doc.into();
        assert!((1..=MAX_HR).contains(&n), "replication degree out of range");
        let mids = (1..=n)
            .map(|i| {
                let mut s = Id::salted_hasher(i as u8);
                s.update(doc.as_bytes());
                s
            })
            .collect();
        DocHashes {
            ht: ht(&doc),
            doc,
            mids,
        }
    }

    /// The document this cache belongs to.
    pub fn doc(&self) -> &DocName {
        &self.doc
    }

    /// Replication degree the cache was built for.
    pub fn n(&self) -> usize {
        self.mids.len()
    }

    /// `ht(doc)` (cached).
    pub fn ht(&self) -> Id {
        self.ht
    }

    /// `h_i(doc#ts)` from the cached midstate; `i` is 1-based and must be
    /// `<= n`.
    pub fn hr(&self, i: usize, ts: u64) -> Id {
        finish_with_ts(self.mids[i - 1].clone(), ts)
    }

    /// All `n` log locations for `ts`, in retrieval preference order.
    pub fn locations(&self, ts: u64) -> impl Iterator<Item = Id> + '_ {
        self.mids
            .iter()
            .map(move |mid| finish_with_ts(mid.clone(), ts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ht_is_deterministic_and_distinct_per_doc() {
        assert_eq!(ht("a"), ht("a"));
        assert_ne!(ht("a"), ht("b"));
    }

    #[test]
    fn replication_hashes_are_pairwise_distinct() {
        let locs = log_locations(8, "doc", 3);
        let set: BTreeSet<_> = locs.iter().collect();
        assert_eq!(set.len(), 8);
    }

    #[test]
    fn hashes_differ_from_ht() {
        // The log locations must not collide with the master location.
        let master = ht("doc");
        for id in log_locations(8, "doc", 1) {
            assert_ne!(id, master);
        }
    }

    #[test]
    fn each_ts_gets_fresh_locations() {
        let a = log_locations(3, "doc", 1);
        let b = log_locations(3, "doc", 2);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_ne!(x, y);
        }
    }

    #[test]
    fn doc_ts_separator_prevents_aliasing() {
        // ("doc#1", ts=2) must not alias ("doc#12", ts=...) etc.
        assert_ne!(hr(1, "doc#1", 2), hr(1, "doc", 12));
        assert_ne!(hr(1, "doc1", 2), hr(1, "doc", 12));
    }

    /// Placement digests pinned to their values as of the first release
    /// (independently recomputed with Python's hashlib over the same
    /// `salt ':' doc ['#' ts]` construction). Any change to `hr`/`ht` —
    /// including midstate caching or encoding tweaks — moves every record
    /// in every deployed ring, so these must never change.
    #[test]
    fn placement_digests_are_pinned() {
        assert_eq!(ht("wiki/Main"), Id(0x56e34f51d6fa31be));
        assert_eq!(ht("doc"), Id(0x64bb0a26fbb26e49));
        assert_eq!(hr(1, "wiki/Main", 42), Id(0xdd388e923a0c98a3));
        assert_eq!(hr(2, "wiki/Main", 42), Id(0x05a2f359989d0a91));
        assert_eq!(hr(3, "wiki/Main", 42), Id(0xe0f544466c49d146));
        assert_eq!(hr(1, "doc", 1), Id(0x598a70a808d47d54));
        assert_eq!(hr(7, "doc", 184467), Id(0x48791d7a9a7d0a33));
        assert_eq!(hr(1, "doc", 0), Id(0x07014d8b60960331));
        assert_eq!(hr(250, "d", u64::MAX), Id(0x6f539dca31d90c1c));
    }

    #[test]
    fn ts_suffix_matches_format_macro() {
        for ts in [0u64, 1, 9, 10, 42, 184467, u64::MAX - 1, u64::MAX] {
            let mut buf = [0u8; 21];
            assert_eq!(ts_suffix(&mut buf, ts), format!("#{ts}").as_bytes());
        }
    }

    #[test]
    fn midstate_cache_matches_direct_derivation() {
        let h = DocHashes::new("wiki/Some/Long/Page", 5);
        assert_eq!(h.ht(), ht("wiki/Some/Long/Page"));
        for ts in [0u64, 1, 42, 1_000_000, u64::MAX] {
            for i in 1..=5 {
                assert_eq!(h.hr(i, ts), hr(i, "wiki/Some/Long/Page", ts));
            }
            let via_iter: Vec<Id> = h.locations(ts).collect();
            assert_eq!(via_iter, log_locations(5, "wiki/Some/Long/Page", ts));
        }
    }

    #[test]
    fn iter_matches_vec_variant() {
        let v = log_locations(4, "doc", 7);
        let it: Vec<Id> = log_locations_iter(4, "doc", 7).collect();
        assert_eq!(v, it);
    }

    #[test]
    fn placement_is_uniformish() {
        // 400 locations over the top-nibble buckets: no bucket empty, none
        // holding more than a quarter (very loose uniformity sanity check).
        let mut buckets = [0usize; 16];
        for ts in 0..100u64 {
            for id in log_locations(4, "balance-doc", ts) {
                buckets[(id.raw() >> 60) as usize] += 1;
            }
        }
        assert!(buckets.iter().all(|&c| c > 0));
        assert!(buckets.iter().all(|&c| c < 100));
    }
}
