//! End-to-end tests for the linter: per-rule positives and negatives over
//! the fixture files, allow/baseline suppression, the masking tripwire
//! (strings, comments, `#[cfg(test)]` must never yield findings), and the
//! WIRE-TAGS freeze — including the canonical "renumbered tag fails the
//! build" demonstration.

use std::fs;
use std::path::{Path, PathBuf};

use detlint::{scan_root, suppress, write_tags, Options};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

fn count(findings: &[detlint::Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

// ---------------------------------------------------------------------------
// Rule positives / negatives (pure scan_file, no filesystem)
// ---------------------------------------------------------------------------

#[test]
fn det_hash_fires_in_det_crates_only() {
    let src = fixture("det_hash_pos.rs");
    // Two declarations + two constructions; the `use` line is exempt.
    let hits = detlint::rules::scan_file("crates/kts/src/bad.rs", &src);
    assert_eq!(count(&hits, "DET-HASH"), 4, "{hits:#?}");

    // Same source outside the deterministic crates: silent.
    let hits = detlint::rules::scan_file("crates/store/src/ok.rs", &src);
    assert_eq!(count(&hits, "DET-HASH"), 0, "{hits:#?}");
}

#[test]
fn masking_tripwire_docs_strings_and_tests_never_fire() {
    let src = fixture("det_hash_neg.rs");
    let hits = detlint::rules::scan_file("crates/kts/src/ok.rs", &src);
    assert!(
        hits.is_empty(),
        "HashMap in doc comments, string literals, raw strings and \
         #[cfg(test)] items must be invisible: {hits:#?}"
    );
}

#[test]
fn det_clock_and_rng_positives() {
    let src = fixture("det_clock_rng_pos.rs");
    let hits = detlint::rules::scan_file("crates/chord/src/bad.rs", &src);
    // Instant::now and SystemTime::now on the same line: two findings.
    assert_eq!(count(&hits, "DET-CLOCK"), 2, "{hits:#?}");
    assert_eq!(count(&hits, "DET-RNG"), 1, "{hits:#?}");

    // The bench crate is exempt from DET-CLOCK but not DET-RNG.
    let hits = detlint::rules::scan_file("crates/bench/src/bad.rs", &src);
    assert_eq!(count(&hits, "DET-CLOCK"), 0, "{hits:#?}");
    assert_eq!(count(&hits, "DET-RNG"), 1, "{hits:#?}");
}

#[test]
fn tot_panic_in_handlers_and_wire_files() {
    let src = fixture("tot_panic_pos.rs");
    // Inside `fn on_message`: literal index, .unwrap(), panic! — three.
    // `helper` is outside any on_* body, so its unwrap_or is silent.
    let hits = detlint::rules::scan_file("crates/core/src/handlers.rs", &src);
    assert_eq!(count(&hits, "TOT-PANIC"), 3, "{hits:#?}");

    // A wire decode-path file is whole-file scope; still three here.
    let hits = detlint::rules::scan_file("crates/wire/src/frame.rs", &src);
    assert_eq!(count(&hits, "TOT-PANIC"), 3, "{hits:#?}");

    // Any other file outside handlers: nothing.
    let hits = detlint::rules::scan_file("crates/wire/src/runner.rs", &src);
    // runner.rs is not a decode-path file, so only the on_* body counts.
    assert_eq!(count(&hits, "TOT-PANIC"), 3, "{hits:#?}");
}

// ---------------------------------------------------------------------------
// Suppression: inline allows and the baseline
// ---------------------------------------------------------------------------

#[test]
fn allows_suppress_and_malformed_allows_are_findings() {
    let rel = "crates/kts/src/allow.rs";
    let src = fixture("allow_cases.rs");
    let mut raw = detlint::rules::scan_file(rel, &src);
    let mut allows = suppress::parse_allows(rel, &src, &mut raw);
    // Two malformed annotations (missing reason, unknown rule).
    assert_eq!(count(&raw, "ALLOW-SYNTAX"), 2, "{raw:#?}");

    let mut baseline = suppress::Baseline::parse("");
    let surviving = suppress::filter_file(raw, &src, &mut allows, &mut baseline);
    // The covered and trailing-covered findings are gone; the two
    // violations next to malformed allows survive, as do the syntax errors.
    assert_eq!(count(&surviving, "DET-HASH"), 2, "{surviving:#?}");
    assert_eq!(count(&surviving, "ALLOW-SYNTAX"), 2, "{surviving:#?}");
    assert!(allows.iter().all(|a| a.used > 0), "{allows:#?}");
}

/// Build a throwaway mini-workspace under the cargo tmpdir.
fn mini_workspace(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    for (rel, contents) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, contents).unwrap();
    }
    root
}

#[test]
fn baseline_grandfathers_exact_lines_and_flags_stale_entries() {
    let bad = "pub struct S {\n    m: HashMap<u64, u64>,\n}\n";
    let root = mini_workspace(
        "detlint-baseline",
        &[
            ("crates/kts/src/bad.rs", bad),
            (
                "detlint.baseline",
                "DET-HASH\tcrates/kts/src/bad.rs\tm: HashMap<u64, u64>,\n",
            ),
        ],
    );
    let report = scan_root(&root, &Options::default()).unwrap();
    assert!(report.clean(), "{:#?}", report.findings);
    assert_eq!(report.suppressed, 1);

    // A stale entry is an error under --deny.
    fs::write(
        root.join("detlint.baseline"),
        "DET-HASH\tcrates/kts/src/bad.rs\tm: HashMap<u64, u64>,\n\
         DET-HASH\tcrates/kts/src/gone.rs\tnope\n",
    )
    .unwrap();
    let report = scan_root(&root, &Options { deny: true }).unwrap();
    assert_eq!(count(&report.findings, "ALLOW-SYNTAX"), 1, "{report:#?}");

    // Without the baseline, the finding itself comes back.
    fs::write(root.join("detlint.baseline"), "").unwrap();
    let report = scan_root(&root, &Options::default()).unwrap();
    assert_eq!(count(&report.findings, "DET-HASH"), 1, "{report:#?}");
}

#[test]
fn unused_allow_is_an_error_under_deny() {
    let src = "// detlint::allow(DET-HASH, nothing here needs this)\n\
               pub struct S;\n";
    let root = mini_workspace("detlint-unused-allow", &[("crates/kts/src/ok.rs", src)]);
    let report = scan_root(&root, &Options::default()).unwrap();
    assert!(report.clean(), "{:#?}", report.findings);
    let report = scan_root(&root, &Options { deny: true }).unwrap();
    assert_eq!(count(&report.findings, "ALLOW-SYNTAX"), 1, "{report:#?}");
}

// ---------------------------------------------------------------------------
// WIRE-TAGS freeze
// ---------------------------------------------------------------------------

/// The freeze cases every tag source must fail: `fixture` declares
/// `Msg::Ping = 0` and `Msg::Pong = 1`, and `pong_line` / `gone_line` add
/// tag 2 to it. Returns the workspace root, holding the fresh lock.
fn wire_tags_freeze_cases(fixture_name: &str, pong_line: &str, gone_line: &str) -> PathBuf {
    let proto = fixture(fixture_name);
    let root = mini_workspace(
        &format!("detlint-tags-{fixture_name}"),
        &[("crates/wire/src/proto.rs", proto.as_str())],
    );

    // Freshly generated manifest: scan is clean.
    let text = write_tags(&root).unwrap();
    assert!(text.contains("crates/wire/src/proto.rs | Msg | 0 = Ping"));
    assert!(text.contains("crates/wire/src/proto.rs | Msg | 1 = Pong"));
    let report = scan_root(&root, &Options { deny: true }).unwrap();
    assert!(report.clean(), "{:#?}", report.findings);

    // Deliberately renumber the two variants in the lock: the scan must
    // fail — this is the regression CI is gated on.
    let tampered = text
        .replace("0 = Ping", "0 = Pong")
        .replace("1 = Pong", "1 = Ping");
    fs::write(root.join("crates/wire/TAGS.lock"), &tampered).unwrap();
    let report = scan_root(&root, &Options { deny: true }).unwrap();
    assert_eq!(count(&report.findings, "WIRE-TAGS"), 2, "{report:#?}");
    assert!(!report.clean());

    // A locked tag that vanished from the code is also fatal.
    let grown = format!("{text}crates/wire/src/proto.rs | Msg | 2 = Gone\n");
    fs::write(root.join("crates/wire/TAGS.lock"), &grown).unwrap();
    let report = scan_root(&root, &Options { deny: true }).unwrap();
    assert_eq!(count(&report.findings, "WIRE-TAGS"), 1, "{report:#?}");

    // And a code-side addition without regenerating the lock.
    fs::write(root.join("crates/wire/TAGS.lock"), &text).unwrap();
    let extended = proto.replace(pong_line, &format!("{pong_line}\n{gone_line}"));
    assert_ne!(extended, proto);
    fs::write(root.join("crates/wire/src/proto.rs"), extended).unwrap();
    let report = scan_root(&root, &Options { deny: true }).unwrap();
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.msg.contains("Msg tag 2 = Gone not in TAGS.lock")),
        "{report:#?}"
    );
    fs::write(root.join("crates/wire/src/proto.rs"), proto).unwrap();
    root
}

#[test]
fn wire_tags_roundtrip_then_renumber_fails() {
    // Hand-written Encode / Decode impls.
    let root = wire_tags_freeze_cases(
        "wire_proto_mini.rs",
        "            1 => Ok(Msg::Pong),",
        "            2 => Ok(Msg::Gone),",
    );
    // The unlocked decode arm also trips the encode/decode cross-check
    // (the encoder still never emits tag 2).
    let proto = fixture("wire_proto_mini.rs");
    let extended = proto.replace(
        "            1 => Ok(Msg::Pong),",
        "            1 => Ok(Msg::Pong),\n            2 => Ok(Msg::Gone),",
    );
    fs::write(root.join("crates/wire/src/proto.rs"), extended).unwrap();
    let report = scan_root(&root, &Options::default()).unwrap();
    assert_eq!(count(&report.findings, "WIRE-TAGS"), 2, "{report:#?}");

    // Encode/decode cross-check: pushing a tag the decoder never matches.
    let skewed = proto.replace("Msg::Pong => out.push(1)", "Msg::Pong => out.push(9)");
    assert_ne!(skewed, proto);
    fs::write(root.join("crates/wire/src/proto.rs"), skewed).unwrap();
    let report = scan_root(&root, &Options::default()).unwrap();
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "WIRE-TAGS" && f.msg.contains("disagree")),
        "{report:#?}"
    );

    // A `wire_enum!` declaration: its `N => Variant` lines are the tags,
    // and the same three drifts fail `--deny`.
    let root = wire_tags_freeze_cases(
        "wire_decl_mini.rs",
        "    1 => Pong { op, #[trailing] epoch } = \"msg.pong\",",
        "    2 => Gone = \"msg.gone\",",
    );
    let report = scan_root(&root, &Options { deny: true }).unwrap();
    assert!(report.clean(), "{:#?}", report.findings);
}

// ---------------------------------------------------------------------------
// --loc: the tracked line count
// ---------------------------------------------------------------------------

#[test]
fn loc_counts_product_code_after_a_test_only_counter() {
    // A `#[cfg(test)] thread_local!` above the product code must hide only
    // itself: the product function after it (doc and plain comment lines
    // included) counts, the gated statement inside it and `mod tests` do
    // not. Counting up to the first `#[cfg(test)]` line would give 1.
    let src = fixture("loc_counter_then_code.rs");
    assert_eq!(detlint::product_lines(&src), 6);

    // Per crate, over every crate's src/ — the linter's own included.
    let root = mini_workspace(
        "detlint-loc",
        &[
            ("crates/kts/src/lib.rs", src.as_str()),
            ("crates/kts/src/blank.rs", "\n\n"),
            ("crates/detlint/src/lib.rs", "pub fn f() {}\n"),
            ("crates/kts/tests/t.rs", "pub fn not_src() {}\n"),
        ],
    );
    let per_crate = detlint::loc_by_crate(&root);
    let expect: Vec<(String, usize)> = vec![("detlint".into(), 1), ("kts".into(), 6)];
    assert_eq!(per_crate.into_iter().collect::<Vec<_>>(), expect);
}

#[test]
fn loc_masks_test_items_with_a_semicolon_in_brackets() {
    // The `;` of an array type (`[u32; 5]`) in a gated signature or type
    // does not end the item: the oracle's body and the gated constant's
    // initializer stay masked, and only the product function (with its
    // doc line and the file's doc line) counts.
    let src = fixture("loc_array_signature.rs");
    assert_eq!(detlint::product_lines(&src), 5);
}

// ---------------------------------------------------------------------------
// The real tree
// ---------------------------------------------------------------------------

#[test]
fn workspace_is_clean_under_deny() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/detlint sits two levels below the workspace root")
        .to_path_buf();
    assert!(
        root.join("detlint.baseline").is_file(),
        "not the repo root?"
    );
    let report = scan_root(&root, &Options { deny: true }).unwrap();
    assert!(
        report.clean(),
        "the committed tree must pass `detlint --deny`:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_rule_has_explain_text() {
    for r in detlint::RULES {
        assert!(!r.summary.is_empty(), "{}", r.id);
        assert!(
            r.explain.len() > 80,
            "--explain {} should actually explain something",
            r.id
        );
    }
}
