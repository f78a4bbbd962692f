//! Inclusion transformation (IT) for line operations, with the TP1
//! convergence property, plus the sequence-level transforms the SOCT4-style
//! merge needs.
//!
//! P2P-LTR's continuous total order means TP2 is never required: every site
//! integrates *validated* patches in the identical timestamp order, and only
//! its own pending operations are ever transformed forward (So6 inherits the
//! same property from its central timestamper, SOCT4's key insight).

use crate::op::TextOp;

/// Transform `a` against a concurrent `b` (both defined on the same state),
/// producing the operation that applies *after* `b`. Returns `None` when `a`
/// is annihilated (both deleted the same line).
pub fn transform_op(a: &TextOp, b: &TextOp) -> Option<TextOp> {
    use TextOp::*;
    let out = match (a, b) {
        (
            Ins {
                pos: p1,
                content: c1,
                site: s1,
            },
            Ins {
                pos: p2,
                content: c2,
                site: s2,
            },
        ) => {
            // Ties at the same position break on (site, content) so the two
            // sides order the duplicates identically (TP1). Identical ops
            // may both keep their position: the results coincide anyway.
            let new_pos = if p1 < p2 {
                *p1
            } else if p1 > p2 {
                p1 + 1
            } else if (s1, c1) <= (s2, c2) {
                *p1
            } else {
                p1 + 1
            };
            Ins {
                pos: new_pos,
                content: c1.clone(),
                site: *s1,
            }
        }
        (
            Ins {
                pos: p1,
                content,
                site,
            },
            Del { pos: p2, .. },
        ) => {
            let new_pos = if p1 <= p2 { *p1 } else { p1 - 1 };
            Ins {
                pos: new_pos,
                content: content.clone(),
                site: *site,
            }
        }
        (
            Del {
                pos: p1,
                content,
                site,
            },
            Ins { pos: p2, .. },
        ) => {
            let new_pos = if p1 < p2 { *p1 } else { p1 + 1 };
            Del {
                pos: new_pos,
                content: content.clone(),
                site: *site,
            }
        }
        (
            Del {
                pos: p1,
                content,
                site,
            },
            Del { pos: p2, .. },
        ) => {
            if p1 == p2 {
                // Both removed the same line: nothing left to do.
                return None;
            }
            let new_pos = if p1 < p2 { *p1 } else { p1 - 1 };
            Del {
                pos: new_pos,
                content: content.clone(),
                site: *site,
            }
        }
    };
    Some(out)
}

/// Transform a single op against a *sequence* (each element of `seq` is
/// defined on the state left by its predecessor — i.e. `seq` is a patch).
pub fn transform_op_seq(a: &TextOp, seq: &[TextOp]) -> Option<TextOp> {
    let mut cur = a.clone();
    for b in seq {
        cur = transform_op(&cur, b)?;
    }
    Some(cur)
}

/// Symmetrically transform two concurrent *sequences* defined on the same
/// base state. Returns `(a', b')` such that `base ∘ b ∘ a' == base ∘ a ∘ b'`
/// (sequence-level TP1, property-tested in this module).
pub fn transform_seqs(a: &[TextOp], b: &[TextOp]) -> (Vec<TextOp>, Vec<TextOp>) {
    // b_cur: `b` progressively transformed over the prefix of `a` processed
    // so far. Each op of `a` is transformed over b_cur to emit a'.
    let mut b_cur: Vec<TextOp> = b.to_vec();
    let mut a_out: Vec<TextOp> = Vec::with_capacity(a.len());
    for op_a in a {
        // Transform op_a over the whole b_cur (a patch), while updating
        // b_cur against op_a.
        let mut x = Some(op_a.clone());
        let mut b_next: Vec<TextOp> = Vec::with_capacity(b_cur.len());
        for op_b in &b_cur {
            match x {
                Some(ref xa) => {
                    let b_t = transform_op(op_b, xa);
                    let x_t = transform_op(xa, op_b);
                    if let Some(bt) = b_t {
                        b_next.push(bt);
                    }
                    x = x_t;
                }
                None => b_next.push(op_b.clone()),
            }
        }
        if let Some(xa) = x {
            a_out.push(xa);
        }
        b_cur = b_next;
    }
    (a_out, b_cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;
    use crate::op::TextOp;
    use proptest::prelude::*;

    fn doc(lines: &[&str]) -> Document {
        Document::from_lines(lines.iter().map(|s| s.to_string()).collect())
    }

    // --- unit cases for every transform branch -------------------------

    #[test]
    fn ins_ins_independent() {
        let a = TextOp::ins(1, "a", 1);
        let b = TextOp::ins(3, "b", 2);
        assert_eq!(transform_op(&a, &b), Some(TextOp::ins(1, "a", 1)));
        assert_eq!(transform_op(&b, &a), Some(TextOp::ins(4, "b", 2)));
    }

    #[test]
    fn ins_ins_same_pos_site_tiebreak() {
        let a = TextOp::ins(2, "low-site", 1);
        let b = TextOp::ins(2, "high-site", 9);
        // Lower site keeps position; higher site shifts.
        assert_eq!(transform_op(&a, &b), Some(TextOp::ins(2, "low-site", 1)));
        assert_eq!(transform_op(&b, &a), Some(TextOp::ins(3, "high-site", 9)));
    }

    #[test]
    fn ins_del_before_and_after() {
        let ins = TextOp::ins(2, "x", 1);
        assert_eq!(
            transform_op(&ins, &TextOp::del(5, "y", 2)),
            Some(TextOp::ins(2, "x", 1))
        );
        assert_eq!(
            transform_op(&ins, &TextOp::del(0, "y", 2)),
            Some(TextOp::ins(1, "x", 1))
        );
        // Delete at exactly the insert position: insert stays.
        assert_eq!(
            transform_op(&ins, &TextOp::del(2, "y", 2)),
            Some(TextOp::ins(2, "x", 1))
        );
    }

    #[test]
    fn del_ins_shifts() {
        let del = TextOp::del(2, "x", 1);
        assert_eq!(
            transform_op(&del, &TextOp::ins(5, "y", 2)),
            Some(TextOp::del(2, "x", 1))
        );
        assert_eq!(
            transform_op(&del, &TextOp::ins(0, "y", 2)),
            Some(TextOp::del(3, "x", 1))
        );
        // Insert at the delete position pushes the target down.
        assert_eq!(
            transform_op(&del, &TextOp::ins(2, "y", 2)),
            Some(TextOp::del(3, "x", 1))
        );
    }

    #[test]
    fn del_del_same_line_annihilates() {
        let a = TextOp::del(2, "x", 1);
        let b = TextOp::del(2, "x", 2);
        assert_eq!(transform_op(&a, &b), None);
    }

    #[test]
    fn del_del_distinct() {
        let a = TextOp::del(4, "x", 1);
        assert_eq!(
            transform_op(&a, &TextOp::del(1, "y", 2)),
            Some(TextOp::del(3, "x", 1))
        );
        assert_eq!(
            transform_op(&a, &TextOp::del(6, "y", 2)),
            Some(TextOp::del(4, "x", 1))
        );
    }

    // --- TP1 ------------------------------------------------------------

    /// Apply helper: base ∘ first ∘ IT(second, first).
    fn converge(base: &Document, x: &TextOp, y: &TextOp) -> Document {
        let mut d = base.clone();
        d.apply(x).unwrap();
        if let Some(y2) = transform_op(y, x) {
            d.apply(&y2).unwrap();
        }
        d
    }

    #[test]
    fn tp1_concrete_cases() {
        let base = doc(&["l0", "l1", "l2", "l3"]);
        let cases = vec![
            (TextOp::ins(1, "A", 1), TextOp::ins(1, "B", 2)),
            (TextOp::ins(1, "A", 2), TextOp::ins(1, "B", 1)),
            (TextOp::ins(2, "A", 1), TextOp::del(2, "l2", 2)),
            (TextOp::del(1, "l1", 1), TextOp::del(1, "l1", 2)),
            (TextOp::del(0, "l0", 1), TextOp::del(3, "l3", 2)),
            (TextOp::ins(4, "A", 1), TextOp::del(0, "l0", 2)),
        ];
        for (a, b) in cases {
            let left = converge(&base, &a, &b);
            let right = converge(&base, &b, &a);
            assert_eq!(
                left.lines(),
                right.lines(),
                "TP1 violated for a={a:?} b={b:?}"
            );
        }
    }

    fn arb_op(max_pos: usize) -> impl Strategy<Value = TextOp> {
        (
            0..=max_pos,
            prop::sample::select(vec!["alpha", "beta", "gamma"]),
            1u64..5,
            prop::bool::ANY,
        )
            .prop_map(move |(pos, content, site, is_ins)| {
                if is_ins {
                    TextOp::ins(pos, content, site)
                } else {
                    TextOp::del(pos.min(max_pos.saturating_sub(1)), content, site)
                }
            })
    }

    proptest! {
        /// TP1 over random op pairs on a 6-line document. Deletes must name
        /// the actual line content to apply cleanly, so we rewrite content.
        #[test]
        fn tp1_random_pairs(a in arb_op(6), b in arb_op(6)) {
            let base = doc(&["l0", "l1", "l2", "l3", "l4", "l5"]);
            let fix = |op: TextOp| -> TextOp {
                match op {
                    TextOp::Del { pos, site, .. } => {
                        TextOp::del(pos, format!("l{pos}"), site)
                    }
                    other => other,
                }
            };
            let a = fix(a);
            let b = fix(b);
            let left = converge(&base, &a, &b);
            let right = converge(&base, &b, &a);
            prop_assert_eq!(left.lines(), right.lines());
        }

        /// Sequence-level TP1: base ∘ a ∘ b' == base ∘ b ∘ a'.
        #[test]
        fn tp1_sequences(seed_a in 0u64..1000, seed_b in 0u64..1000, len_a in 0usize..5, len_b in 0usize..5) {
            let base = doc(&["l0", "l1", "l2", "l3", "l4", "l5", "l6", "l7"]);
            // Build two valid patches by applying random ops to clones.
            let gen = |seed: u64, len: usize, site: u64| -> Vec<TextOp> {
                let mut d = base.clone();
                let mut ops = Vec::new();
                let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(site);
                for i in 0..len {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let r = (s >> 33) as usize;
                    let op = if r.is_multiple_of(2) || d.is_empty() {
                        TextOp::ins(r % (d.len() + 1), format!("s{site}-{i}"), site)
                    } else {
                        let pos = r % d.len();
                        TextOp::del(pos, d.line(pos).unwrap().to_string(), site)
                    };
                    d.apply(&op).unwrap();
                    ops.push(op);
                }
                ops
            };
            let a = gen(seed_a, len_a, 1);
            let b = gen(seed_b, len_b, 2);
            let (a2, b2) = transform_seqs(&a, &b);

            let mut left = base.clone();
            for op in a.iter().chain(b2.iter()) {
                left.apply(op).unwrap();
            }
            let mut right = base.clone();
            for op in b.iter().chain(a2.iter()) {
                right.apply(op).unwrap();
            }
            prop_assert_eq!(left.lines(), right.lines());
        }
    }

    #[test]
    fn transform_op_seq_folds() {
        let a = TextOp::ins(5, "x", 1);
        let seq = vec![TextOp::del(0, "a", 2), TextOp::del(0, "b", 2)];
        assert_eq!(transform_op_seq(&a, &seq), Some(TextOp::ins(3, "x", 1)));
    }

    #[test]
    fn transform_seqs_with_annihilation() {
        // Both sides delete line 1; a also inserts afterwards.
        let a = vec![TextOp::del(1, "l1", 1), TextOp::ins(1, "new", 1)];
        let b = vec![TextOp::del(1, "l1", 2)];
        let (a2, b2) = transform_seqs(&a, &b);
        // a's delete is annihilated; its insert survives.
        assert_eq!(a2, vec![TextOp::ins(1, "new", 1)]);
        // b's delete is annihilated against a's delete.
        assert_eq!(b2, Vec::<TextOp>::new());

        let base = doc(&["l0", "l1", "l2"]);
        let mut left = base.clone();
        for op in a.iter().chain(b2.iter()) {
            left.apply(op).unwrap();
        }
        let mut right = base.clone();
        for op in b.iter().chain(a2.iter()) {
            right.apply(op).unwrap();
        }
        assert_eq!(left.lines(), right.lines());
        assert_eq!(left.lines(), &["l0".to_string(), "new".into(), "l2".into()]);
    }
}
