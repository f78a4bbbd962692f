//! Generic domain-separated SHA-1 Merkle-tree hashing, shared by the log
//! store's tamper-evidence layer (the `store` crate's segment roots and
//! checkpoints) and the anti-entropy replication digests
//! ([`crate::sync`]): both use [`leaf`], [`combine`] and [`root`] as they
//! are — the store over a segment's entries (kept as a [`Frontier`] while
//! the segment grows), sync over one sub-bucket's entries.
//!
//! The construction follows the Merkle/KDF log-notarization design of
//! Barontini (arXiv:2110.02103): leaf and interior domains are separated
//! by a prefix byte (the classic second-preimage fix), an odd node is
//! promoted unpaired to the next level (Bitcoin-style duplication would
//! let two different inputs share a root), and the empty tree has a fixed
//! sentinel root.
//!
//! A tree that only ever grows at its right edge — a log segment, the
//! list of sealed segments — need not be rebuilt from its leaves to learn
//! its root: [`Frontier`] keeps the roots of its maximal perfect subtrees
//! (its *peaks*, one per set bit of the leaf count) and reproduces
//! [`root`] exactly. Appending a leaf costs amortised one [`combine`], a
//! root costs one [`combine`] per peak, O(log n) — the per-entry cost
//! model of Barontini's Merkle batching.

use crate::sha1::{sha1, Digest, Sha1};

/// Domain-separation prefixes: a leaf can never be confused with an
/// interior node.
const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

/// Hash a raw leaf digest into its tree-leaf form.
pub fn leaf(digest: &Digest) -> Digest {
    #[cfg(test)]
    LEAVES.with(|n| n.set(n.get() + 1));
    let mut h = Sha1::new();
    h.update(&[LEAF_PREFIX]);
    h.update(digest);
    h.finalize()
}

/// Hash two child digests into their parent.
pub fn combine(a: &Digest, b: &Digest) -> Digest {
    #[cfg(test)]
    COMBINES.with(|n| n.set(n.get() + 1));
    let mut h = Sha1::new();
    h.update(&[NODE_PREFIX]);
    h.update(a);
    h.update(b);
    h.finalize()
}

#[cfg(test)]
thread_local! {
    /// [`combine`] computations on this thread — the operation count the
    /// storage tests gate the summary fold with.
    pub(crate) static COMBINES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// [`leaf`] computations on this thread — with [`COMBINES`], what a
    /// [`Frontier`] checkpoint costs in hashes.
    static LEAVES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Merkle root over `leaves` (already leaf-hashed). An empty tree has the
/// fixed root `sha1("p2p-ltr/empty-merkle")`; an odd node is promoted
/// unpaired to the next level.
pub fn root(leaves: &[Digest]) -> Digest {
    if leaves.is_empty() {
        return sha1(b"p2p-ltr/empty-merkle");
    }
    let mut level: Vec<Digest> = leaves.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            match pair {
                [a, b] => next.push(combine(a, b)),
                [a] => next.push(*a),
                _ => unreachable!("chunks(2)"),
            }
        }
        level = next;
    }
    level[0]
}

/// Convenience: leaf-hash raw entry digests, then compute the root.
pub fn root_of_entry_hashes(entry_hashes: &[Digest]) -> Digest {
    let leaves: Vec<Digest> = entry_hashes.iter().map(leaf).collect();
    root(&leaves)
}

/// An append-only Merkle tree held as its frontier: the `(height, root)`
/// of each maximal perfect subtree, heights strictly decreasing left to
/// right. [`Frontier::root_with`] equals [`root`] over the same leaves for
/// every leaf count.
#[derive(Clone, Debug, Default)]
pub struct Frontier {
    peaks: Vec<(u32, Digest)>,
}

impl Frontier {
    /// Append one (already leaf-hashed) leaf: it merges with every peak of
    /// equal height, as [`root`] pairs the same nodes level by level.
    pub fn push(&mut self, leaf: Digest) {
        let (mut height, mut node) = (0, leaf);
        while let Some(&(h, peak)) = self.peaks.last() {
            if h != height {
                break;
            }
            self.peaks.pop();
            node = combine(&peak, &node);
            height += 1;
        }
        self.peaks.push((height, node));
    }

    /// The root over the pushed leaves followed by `extra`, when given,
    /// without pushing it. Peaks fold right to left: [`root`] promotes an
    /// odd node unpaired, so the smaller right subtrees pair up first.
    pub fn root_with(&self, extra: Option<Digest>) -> Digest {
        let mut peaks = self.peaks.iter().rev().map(|(_, peak)| peak);
        let Some(mut acc) = extra.or_else(|| peaks.next().copied()) else {
            return root(&[]);
        };
        for peak in peaks {
            acc = combine(peak, &acc);
        }
        acc
    }

    /// Leaves pushed so far.
    pub fn len(&self) -> u64 {
        self.peaks.iter().map(|(h, _)| 1u64 << h).sum()
    }

    /// No leaf pushed yet.
    pub fn is_empty(&self) -> bool {
        self.peaks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(b: u8) -> Digest {
        [b; 20]
    }

    #[test]
    fn empty_root_is_fixed() {
        assert_eq!(root(&[]), root(&[]));
        assert_ne!(root(&[]), root(&[leaf(&d(0))]));
    }

    #[test]
    fn single_leaf_root_is_the_leaf() {
        let l = leaf(&d(7));
        assert_eq!(root(&[l]), l);
    }

    #[test]
    fn order_matters() {
        let a = leaf(&d(1));
        let b = leaf(&d(2));
        assert_ne!(root(&[a, b]), root(&[b, a]));
    }

    #[test]
    fn any_leaf_change_moves_the_root() {
        let leaves: Vec<Digest> = (0u8..7).map(|i| leaf(&d(i))).collect();
        let base = root(&leaves);
        for i in 0..leaves.len() {
            let mut changed = leaves.clone();
            changed[i] = leaf(&d(0xEE));
            assert_ne!(root(&changed), base, "leaf {i}");
        }
        // Dropping the tail moves it too (length extension is visible).
        assert_ne!(root(&leaves[..6]), base);
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A two-leaf tree's root must differ from the leaf-hash of the
        // concatenation — the prefixes keep the domains apart.
        let a = d(3);
        let b = d(4);
        let two = root(&[leaf(&a), leaf(&b)]);
        let mut cat = Vec::new();
        cat.extend_from_slice(&a);
        cat.extend_from_slice(&b);
        assert_ne!(two, sha1(&cat));
    }

    #[test]
    fn frontier_matches_root_for_every_length() {
        let leaves: Vec<Digest> = (0u32..=2_101)
            .map(|i| leaf(&sha1(&i.to_le_bytes())))
            .collect();
        let mut roots = (0..leaves.len()).map(|n| root(&leaves[..n]));
        let mut want = roots.next().expect("n = 0");
        let mut frontier = Frontier::default();
        for (n, &next) in leaves.iter().enumerate().take(2_101) {
            let with_next = roots.next().expect("n + 1 <= 2 101");
            assert_eq!(frontier.len(), n as u64);
            assert_eq!(frontier.root_with(None), want, "{n} leaves");
            assert_eq!(
                frontier.root_with(Some(next)),
                with_next,
                "{n} leaves + extra"
            );
            frontier.push(next);
            want = with_next;
        }
    }

    fn hashes() -> u64 {
        LEAVES.with(|n| n.get()) + COMBINES.with(|n| n.get())
    }

    #[test]
    fn a_checkpoint_costs_the_same_at_1k_and_64k_entries() {
        // The store's checkpoint, as `store::FileStore` makes it: fold the
        // entries appended since the last checkpoint into the live
        // segment's frontier, root it, and root the tree over the sealed
        // segment roots with the live root as its last leaf.
        // The default `checkpoint_every`, and about a 64 KiB segment.
        const BATCH: usize = 128;
        const SEGMENT: usize = 1_000;
        let checkpoint = |journal: usize| {
            let entries: Vec<Digest> = (0..journal as u32)
                .map(|i| sha1(&i.to_le_bytes()))
                .collect();
            let folded = journal - BATCH;
            let (sealed, live) = entries.split_at(folded / SEGMENT * SEGMENT);
            let sealed_roots: Vec<Digest> =
                sealed.chunks(SEGMENT).map(root_of_entry_hashes).collect();
            let mut sealed_top = Frontier::default();
            sealed_roots.iter().for_each(|r| sealed_top.push(leaf(r)));
            let mut frontier = Frontier::default();
            let (live_folded, unfolded) = live.split_at(live.len() - BATCH);
            live_folded.iter().for_each(|h| frontier.push(leaf(h)));

            let before = hashes();
            unfolded.iter().for_each(|h| frontier.push(leaf(h)));
            let top = sealed_top.root_with(Some(leaf(&frontier.root_with(None))));
            let cost = hashes() - before;

            // What re-hashing the live segment and every sealed root costs.
            let before = hashes();
            let mut top_leaves: Vec<Digest> = sealed_roots.iter().map(leaf).collect();
            top_leaves.push(leaf(&root_of_entry_hashes(live)));
            assert_eq!(root(&top_leaves), top);
            let rehash = hashes() - before;
            assert_eq!(rehash, 2 * (live.len() + sealed_roots.len()) as u64);
            cost
        };
        // 2 × BATCH + 3 ⌈log₂ journal⌉ + 1, against a re-hash of 2 048
        // hashes at 1 k and 1 202 at 64 k (it follows the live segment).
        let bound =
            |journal: usize| 2 * BATCH as u64 + 3 * journal.next_power_of_two().ilog2() as u64 + 1;
        let (small, large) = (checkpoint(1 << 10), checkpoint(1 << 16));
        assert!(small <= bound(1 << 10), "{small} hashes at 1 k");
        assert!(large <= bound(1 << 16), "{large} hashes at 64 k");
        assert!(
            large <= small + 3 * 6,
            "{small} → {large} hashes, 1 k → 64 k"
        );
    }
}
