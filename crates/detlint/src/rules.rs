//! Rule definitions and the per-file scanning pass.
//!
//! Every rule has a stable ID, a one-line summary, and an `--explain` text
//! describing the invariant it protects, why it matters for this codebase,
//! and how to silence a justified finding.

use crate::lexer;

/// Crates whose state machines run under the deterministic simulator: any
/// observable iteration-order dependence breaks same-seed reproducibility.
pub const DET_CRATES: &[&str] = &["simnet", "kts", "chord", "core", "p2plog", "workload"];

/// Static description of one rule.
pub struct Rule {
    /// Stable identifier used in findings, allows, and the baseline.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Long-form `--explain` text.
    pub explain: &'static str,
}

/// All rules, in display order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "DET-HASH",
        summary: "HashMap/HashSet in a sim-deterministic crate",
        explain: "\
The simulator is byte-deterministic: the same seed must replay the same
run, and the committed bench baselines diff deterministic fields exactly.
std's HashMap/HashSet use a randomly seeded hasher, so *any* iteration
(including retain, values(), keys(), Debug formatting) observes a
different order per process — the class of bug PR 1 fixed in the kts
master handoff.

Scope: crates {simnet, kts, chord, core, p2plog, workload}. `use` lines
are not flagged — declaration and construction sites are the enforcement
points.

Fix: switch to BTreeMap/BTreeSet, or — when the container is provably
never iterated (keyed get/insert/remove only) — keep it and annotate the
line with `// detlint::allow(DET-HASH, <why it is never iterated>)`.",
    },
    Rule {
        id: "DET-CLOCK",
        summary: "wall-clock source outside bench wall-time measurement",
        explain: "\
Instant::now / SystemTime::now read the host clock. Inside simulated or
protocol code they smuggle real time into logic that must be a pure
function of the seed; results stop replaying and the fault matrix loses
its exact-drift gate.

Scope: everything except crates/bench (whose whole point is wall-time
measurement). Real-time components (the TCP transport/runner) are exempt
by design: annotate the file once with
`// detlint::allow-file(DET-CLOCK, <why this module is wall-clock by
contract>)`.",
    },
    Rule {
        id: "DET-RNG",
        summary: "unseeded randomness (thread_rng/from_entropy/OsRng)",
        explain: "\
All randomness must flow from the run's seeds (simnet::rng): the fault
engine (PR 5) replays byte-identically only because every decision draws
from a seeded stream. thread_rng / from_entropy / from_os_rng / OsRng /
getrandom inject OS entropy and break replay everywhere, including
benches (workloads must be reproducible even when wall time is not).

Fix: plumb a seeded Rng handle; for genuinely independent streams derive
a child seed (seed_from_u64) from the parent.",
    },
    Rule {
        id: "TOT-PANIC",
        summary: "panic path (unwrap/expect/panic!/indexing) in a decode or on_* handler",
        explain: "\
The wire decoder is property-tested to be *total*: hostile bytes return
Err, never panic (PR 3). Message handlers (`fn on_*`) sit behind it — a
panic there lets one malformed or unexpected message take down a node,
turning a protocol hiccup into a crash fault.

Scope: all of crates/wire/src/{varint,codec,frame,proto}.rs, plus the
bodies of functions whose names start with `on_` in every scanned crate.
Flagged: .unwrap(), .expect(, panic!, unreachable!, todo!,
unimplemented!, and literal/range slice indexing like buf[..4] or s[0]
(a heuristic: index expressions starting with a digit or `..`).

Fix: return the typed error (WireError or the handler's action list); if
the operation is infallible by construction, annotate with
`// detlint::allow(TOT-PANIC, <the invariant that makes it infallible>)`.",
    },
    Rule {
        id: "WIRE-TAGS",
        summary: "codec/envelope tag drift against crates/wire/TAGS.lock",
        explain: "\
Wire tags are frozen: append new variants, never renumber. detlint
extracts every `N => Variant` line of the `wire_enum!` declarations and
every integer tag arm of the hand-written Decode impls (plus the literal
tags on their Encode side as a cross-check) in
crates/wire/src/{codec,proto}.rs, crates/core/src/wire_impls.rs and
crates/store/src/entry.rs, and diffs them against the committed
crates/wire/TAGS.lock manifest. A tag that is
added, removed, renumbered, renamed, or duplicated without touching the
lock file fails the build — silent renumbering is how mixed-version
rings corrupt each other.

Fix: if the change is an intentional, append-only addition, regenerate
the manifest with `cargo run -p detlint -- --write-tags` and commit it
alongside the codec change (the frozen_encodings tests must still pass).",
    },
    Rule {
        id: "ALLOW-SYNTAX",
        summary: "malformed detlint::allow annotation",
        explain: "\
Every suppression must carry a written reason:
`// detlint::allow(RULE, reason)` on the finding's line or the line
above, or `// detlint::allow-file(RULE, reason)` anywhere in the file.
An allow with no reason, an unknown rule ID, or one that suppresses
nothing (reported under --deny) is itself an error — stale suppressions
are how enforced invariants rot.",
    },
];

/// Look up a rule by ID.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One raw (pre-suppression) finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Path relative to the scanned root, with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule ID.
    pub rule: &'static str,
    /// Human message.
    pub msg: String,
}

impl Finding {
    /// Render as `file:line: [RULE] message`.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// Crate name for a `crates/<name>/…` relative path, if any.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// Does `hay` contain `needle` as a whole word (ident-boundary on both
/// sides)? Returns the byte offset of the first such match.
fn find_word(hay: &str, needle: &str) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(off) = hay[from..].find(needle) {
        let at = from + off;
        let before_ok = at == 0 || !bytes[at - 1].is_ascii_alphanumeric() && bytes[at - 1] != b'_';
        let end = at + needle.len();
        let after_ok =
            end >= bytes.len() || !bytes[end].is_ascii_alphanumeric() && bytes[end] != b'_';
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + needle.len();
    }
    None
}

/// Literal/range slice-index heuristic: `ident[<digit-or-..>` — the
/// shapes that panic on short input (buf[..4], s[0], b[4..]).
fn has_literal_index(line: &str) -> bool {
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1];
        if !(prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')') {
            continue; // not an index expression (array literal, vec![, …)
        }
        let rest = line[i + 1..].trim_start();
        if rest.starts_with("..") || rest.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return true;
        }
    }
    false
}

/// Scan one file's source. `rel` is the root-relative path. Returned
/// findings are pre-suppression (allow/baseline filtering happens in the
/// caller, which also owns the workspace-level WIRE-TAGS pass).
pub fn scan_file(rel: &str, src: &str) -> Vec<Finding> {
    let masked = lexer::mask_cfg_test(&lexer::mask_source(src));
    let mut out = Vec::new();

    let in_det_crate = crate_of(rel).is_some_and(|c| DET_CRATES.contains(&c));
    let in_bench = crate_of(rel) == Some("bench");
    let wire_decode_file = matches!(
        rel,
        "crates/wire/src/varint.rs"
            | "crates/wire/src/codec.rs"
            | "crates/wire/src/frame.rs"
            | "crates/wire/src/proto.rs"
    );
    let handler_ranges = lexer::fn_body_ranges(&masked, "on_");

    let mut offset = 0usize;
    for (idx, line) in masked.lines().enumerate() {
        let lineno = idx + 1;
        let line_start = offset;
        offset += line.len() + 1;
        let trimmed = line.trim_start();

        // DET-HASH ------------------------------------------------------
        if in_det_crate && !trimmed.starts_with("use ") {
            for ty in ["HashMap", "HashSet"] {
                if find_word(line, ty).is_some() {
                    out.push(Finding {
                        file: rel.to_string(),
                        line: lineno,
                        rule: "DET-HASH",
                        msg: format!(
                            "{ty} in sim-deterministic crate `{}`: iteration order is \
                             per-process random; use BTreeMap/BTreeSet or justify \
                             non-iteration with an allow",
                            crate_of(rel).unwrap_or("?")
                        ),
                    });
                }
            }
        }

        // DET-CLOCK -----------------------------------------------------
        if !in_bench {
            for src_pat in ["Instant::now", "SystemTime::now"] {
                if line.contains(src_pat) {
                    out.push(Finding {
                        file: rel.to_string(),
                        line: lineno,
                        rule: "DET-CLOCK",
                        msg: format!(
                            "{src_pat} outside crates/bench: wall time must not reach \
                             deterministic logic"
                        ),
                    });
                }
            }
        }

        // DET-RNG -------------------------------------------------------
        for rng_pat in [
            "thread_rng",
            "from_entropy",
            "from_os_rng",
            "OsRng",
            "getrandom",
        ] {
            if find_word(line, rng_pat).is_some() {
                out.push(Finding {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "DET-RNG",
                    msg: format!("{rng_pat}: all randomness must derive from the run's seeds"),
                });
            }
        }

        // TOT-PANIC -----------------------------------------------------
        let in_handler = handler_ranges
            .iter()
            .any(|&(s, e)| line_start >= s && line_start < e);
        if wire_decode_file || in_handler {
            let where_ = if wire_decode_file {
                "wire decode/frame path"
            } else {
                "message handler (fn on_*)"
            };
            for pat in [
                ".unwrap()",
                ".expect(",
                "panic!",
                "unreachable!",
                "todo!",
                "unimplemented!",
            ] {
                if line.contains(pat) {
                    out.push(Finding {
                        file: rel.to_string(),
                        line: lineno,
                        rule: "TOT-PANIC",
                        msg: format!("{pat} in {where_}: must return an error, never panic"),
                    });
                }
            }
            if has_literal_index(line) {
                out.push(Finding {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "TOT-PANIC",
                    msg: format!(
                        "literal/range slice index in {where_}: panics on short input; \
                         use get()/first_chunk()/take()"
                    ),
                });
            }
        }
    }
    out
}
