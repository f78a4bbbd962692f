//! SHA-1 (FIPS 180-1), implemented from scratch.
//!
//! The paper locates Master-key peers and Log-Peers by hashing document
//! names/keys with SHA-1 (reference \[11\] of RR-6497 is the Secure Hash
//! Standard). No SHA crate is in the offline dependency set, so we implement
//! the 1995 standard directly, tested against the official test vectors.
//!
//! Every layer runs this kernel: ring ids, the log placement family, the
//! Merkle sync digests, and the store's entry hashes, checkpoint fold and
//! recovery check. The compression is therefore written for speed in safe,
//! portable Rust: 80 unrolled rounds over a rolling 16-word schedule, with
//! the three-operation `ch` and four-operation `maj` round functions
//! (≈ 2× the rolled form). The rolled form stays as a `#[cfg(test)]` oracle
//! that a seeded differential test compares against at every input length
//! up to 1 100 bytes and every split point of an incremental update.
//!
//! The implementation is **incremental** ([`Sha1`]): input is absorbed in
//! 64-byte blocks with a small stack buffer for the tail, and padding is
//! applied on a stack copy at finalization — no heap allocation anywhere.
//! Incremental hashing also enables **midstate caching**: the placement
//! hash family in `p2plog` absorbs `salt ':' doc` once per document and
//! clones the ~100-byte state per timestamp instead of re-hashing the
//! document name for every key derivation.
//!
//! SHA-1's cryptographic weaknesses (collision attacks) are irrelevant here:
//! the DHT only needs uniform dispersion, exactly as in the original Chord
//! paper.

/// Output size in bytes.
pub const DIGEST_LEN: usize = 20;

/// A SHA-1 digest.
pub type Digest = [u8; DIGEST_LEN];

const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// One compression of a 64-byte block: 80 unrolled rounds over a rolling
/// 16-word message schedule. Every index is a constant after unrolling, so
/// the schedule and the five working words stay in registers.
fn compress(h: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (wi, word) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *wi = u32::from_be_bytes(*word);
    }
    // The round functions: `ch` is `(b & c) | (!b & d)` in three
    // operations, `maj` the bitwise majority in four.
    let ch = |b: u32, c: u32, d: u32| d ^ (b & (c ^ d));
    let parity = |b: u32, c: u32, d: u32| b ^ c ^ d;
    let maj = |b: u32, c: u32, d: u32| (b & c) | (d & (b | c));
    let [mut a, mut b, mut c, mut d, mut e] = *h;
    // Round i adds into the register that plays `e` and rotates the one
    // that plays `b`; the five names then shift one place, so no register
    // is ever moved.
    macro_rules! round {
        ($f:ident, $k:expr, $i:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
            if $i >= 16 {
                let x = w[($i + 13) & 15] ^ w[($i + 8) & 15] ^ w[($i + 2) & 15] ^ w[$i & 15];
                w[$i & 15] = x.rotate_left(1);
            }
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add($f($b, $c, $d))
                .wrapping_add($k)
                .wrapping_add(w[$i & 15]);
            $b = $b.rotate_left(30);
        };
    }
    // Twenty rounds of one function and constant, five at a time.
    macro_rules! twenty {
        ($f:ident, $k:expr, $($i:expr),+) => {$(
            round!($f, $k, $i, a, b, c, d, e);
            round!($f, $k, $i + 1, e, a, b, c, d);
            round!($f, $k, $i + 2, d, e, a, b, c);
            round!($f, $k, $i + 3, c, d, e, a, b);
            round!($f, $k, $i + 4, b, c, d, e, a);
        )+};
    }
    twenty!(ch, 0x5A82_7999, 0, 5, 10, 15);
    twenty!(parity, 0x6ED9_EBA1, 20, 25, 30, 35);
    twenty!(maj, 0x8F1B_BCDC, 40, 45, 50, 55);
    twenty!(parity, 0xCA62_C1D6, 60, 65, 70, 75);
    for (x, y) in h.iter_mut().zip([a, b, c, d, e]) {
        *x = x.wrapping_add(y);
    }
}

/// Incremental SHA-1 state: absorb with [`Sha1::update`], read the digest
/// with [`Sha1::finalize`]. `finalize` borrows immutably, so a state can be
/// cloned/reused — the basis of midstate caching for key derivation.
#[derive(Clone, Debug)]
pub struct Sha1 {
    h: [u32; 5],
    /// Total bytes absorbed.
    len: u64,
    /// Tail bytes not yet forming a full block.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Sha1 {
            h: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len += data.len() as u64;
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return; // everything fit in the tail buffer
            }
            let block = self.buf;
            compress(&mut self.h, &block);
            self.buf_len = 0;
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.h, block);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// The digest of everything absorbed so far. Pads a stack copy of the
    /// state, leaving `self` usable for further updates.
    pub fn finalize(&self) -> Digest {
        let mut h = self.h;
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros to 56 mod 64, then the 64-bit bit length —
        // at most two blocks, built on the stack.
        let mut block = [0u8; 64];
        block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        block[self.buf_len] = 0x80;
        if self.buf_len >= 56 {
            compress(&mut h, &block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut h, &block);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// First 8 bytes of the digest as a big-endian `u64` — the ring id.
    pub fn finalize_u64(&self) -> u64 {
        let d = self.finalize();
        u64::from_be_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]])
    }
}

/// Compute the SHA-1 digest of `data` (one-shot convenience).
pub fn sha1(data: &[u8]) -> Digest {
    let mut s = Sha1::new();
    s.update(data);
    s.finalize()
}

/// First 8 bytes of the digest as a big-endian `u64` — the ring id.
pub fn sha1_u64(data: &[u8]) -> u64 {
    let mut s = Sha1::new();
    s.update(data);
    s.finalize_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rolled FIPS 180-1 compression (an 80-word schedule and a `match`
    /// per round): the oracle the unrolled [`compress`] is tested against.
    fn compress_reference(h: &mut [u32; 5], block: &[u8]) {
        debug_assert_eq!(block.len(), 64);
        let mut w = [0u32; 80];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
    }

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // Official FIPS 180-1 / RFC 3174 test vectors.
    #[test]
    fn vector_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn vector_empty() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn vector_448_bits() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha1(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn vector_quick_brown_fox() {
        assert_eq!(
            hex(&sha1(b"The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn boundary_lengths_pad_correctly() {
        // 55, 56, 63, 64, 65 bytes cross the padding boundaries.
        for len in [55usize, 56, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0x5a; len];
            let d = sha1(&data);
            // Re-hash must be identical (determinism) and non-degenerate.
            assert_eq!(d, sha1(&data));
            assert_ne!(d, [0u8; 20]);
        }
    }

    /// The textbook recipe over the rolled compression: pad the whole
    /// message, then compress every block.
    fn reference_sha1(data: &[u8]) -> Digest {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut h = H0;
        for block in msg.chunks_exact(64) {
            compress_reference(&mut h, block);
        }
        let mut out = [0u8; DIGEST_LEN];
        for (o, word) in out.chunks_exact_mut(4).zip(h) {
            o.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = simnet::Rng64::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn reference_recipe_meets_the_rfc_vectors() {
        assert_eq!(
            hex(&reference_sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&reference_sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn unrolled_compress_matches_the_rolled_reference() {
        let mut rng = simnet::Rng64::new(0x5A1_C0DE);
        for _ in 0..2_000 {
            let state: [u32; 5] = std::array::from_fn(|_| rng.next_u64() as u32);
            let block: [u8; 64] = std::array::from_fn(|_| rng.next_u64() as u8);
            let (mut got, mut want) = (state, state);
            compress(&mut got, &block);
            compress_reference(&mut want, &block);
            assert_eq!(got, want, "state {state:08x?}");
        }
    }

    #[test]
    fn every_length_to_1100_matches_the_reference() {
        let data = seeded_bytes(0x5A1_0001, 1_100);
        for len in 0..=data.len() {
            assert_eq!(
                sha1(&data[..len]),
                reference_sha1(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn incremental_matches_oneshot_all_split_points() {
        // Every length across three blocks, split at every point, against
        // the reference recipe.
        let data = seeded_bytes(0x5A1_0002, 200);
        for len in 0..=data.len() {
            let expect = reference_sha1(&data[..len]);
            for split in 0..=len {
                let mut s = Sha1::new();
                s.update(&data[..split]);
                s.update(&data[split..len]);
                assert_eq!(s.finalize(), expect, "len {len}, split at {split}");
            }
        }
        // Byte-at-a-time.
        let mut s = Sha1::new();
        for &b in &data {
            s.update(&[b]);
        }
        assert_eq!(s.finalize(), reference_sha1(&data));
    }

    #[test]
    fn finalize_is_nondestructive_and_cloneable() {
        let mut s = Sha1::new();
        s.update(b"abc");
        let first = s.finalize();
        assert_eq!(s.finalize(), first, "finalize must not consume state");
        // A cloned midstate diverges independently.
        let mut fork = s.clone();
        fork.update(b"def");
        s.update(b"xyz");
        assert_eq!(fork.finalize(), sha1(b"abcdef"));
        assert_eq!(s.finalize(), sha1(b"abcxyz"));
        assert_eq!(first, sha1(b"abc"));
    }

    #[test]
    fn u64_prefix_matches_digest() {
        let d = sha1(b"abc");
        let expect = u64::from_be_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]]);
        assert_eq!(sha1_u64(b"abc"), expect);
        assert_eq!(sha1_u64(b"abc"), 0xa9993e364706816a);
    }

    #[test]
    fn distinct_inputs_distinct_u64() {
        // Sanity: no accidental collisions among a few thousand keys.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..5000u32 {
            assert!(seen.insert(sha1_u64(format!("doc-{i}").as_bytes())));
        }
    }
}
