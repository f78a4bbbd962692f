//! Generic domain-separated SHA-1 Merkle-tree hashing, shared by the log
//! store's tamper-evidence layer (`store::merkle`) and the anti-entropy
//! replication digests ([`crate::sync`]): both use [`leaf`], [`combine`]
//! and [`root`] as they are — the store over a segment's entries, sync
//! over one sub-bucket's entries.
//!
//! The construction follows the Merkle/KDF log-notarization design of
//! Barontini (arXiv:2110.02103): leaf and interior domains are separated
//! by a prefix byte (the classic second-preimage fix), an odd node is
//! promoted unpaired to the next level (Bitcoin-style duplication would
//! let two different inputs share a root), and the empty tree has a fixed
//! sentinel root.

use crate::sha1::{sha1, Digest, Sha1};

/// Domain-separation prefixes: a leaf can never be confused with an
/// interior node.
const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

/// Hash a raw leaf digest into its tree-leaf form.
pub fn leaf(digest: &Digest) -> Digest {
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
}
