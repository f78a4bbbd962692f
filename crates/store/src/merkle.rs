//! Merkle-tree roots over SHA-1 leaves — the tamper-evidence layer of the
//! log store, after the Merkle/KDF log-notarization design of Barontini
//! (arXiv:2110.02103) and the tamper-evident large-scale logging of
//! Koisser & Sadeghi (arXiv:2308.05557).
//!
//! Each stored entry hashes to a leaf
//! ([`StoreEntry::leaf_hash`](crate::StoreEntry::leaf_hash)); a segment's
//! root covers its entries, and a checkpoint's top root covers the segment
//! roots. Verification at recovery recomputes the same tree from the
//! replayed bytes: any divergence inside the checkpointed horizon — a
//! flipped bit that still passes CRC by chance, a substituted record, a
//! reordered segment — moves the root.
//!
//! The generic tree hashing (leaf/combine/root with domain-separated
//! prefixes) lives in [`chord::merkle`] so the anti-entropy replication
//! digests (`chord::sync`) share the identical construction; this module
//! re-exports it under the store's historical path. The writer keeps its
//! trees as [`Frontier`]s, so a checkpoint folds only what was appended
//! since the last one.

pub use chord::merkle::{combine, leaf, root, root_of_entry_hashes, Frontier};

#[cfg(test)]
mod tests {
    use super::*;
    use chord::sha1::{sha1, Digest};

    #[test]
    fn reexport_matches_chord_merkle() {
        // The store's checkpoint roots and chord's sync digests must use
        // the *same* tree: a drift here would silently fork the two.
        let hashes: Vec<Digest> = (0u8..5).map(|i| sha1(&[i])).collect();
        assert_eq!(
            root_of_entry_hashes(&hashes),
            chord::merkle::root_of_entry_hashes(&hashes)
        );
        let l = leaf(&sha1(b"x"));
        assert_eq!(root(&[l]), l);
        assert_ne!(combine(&l, &l), l);
    }
}
