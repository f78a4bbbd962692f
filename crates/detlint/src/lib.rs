//! detlint — the workspace determinism & protocol-safety linter.
//!
//! A self-contained, dependency-free static-analysis pass over the
//! workspace sources (`crates/*/src` and `examples/`). Three rule
//! families protect the invariants the whole reproduction rests on:
//!
//! | family      | rules                          | invariant |
//! |-------------|--------------------------------|-----------|
//! | determinism | `DET-HASH` `DET-CLOCK` `DET-RNG` | same seed ⇒ byte-identical run |
//! | totality    | `TOT-PANIC`                    | hostile bytes / odd messages ⇒ `Err`, never a crash |
//! | wire freeze | `WIRE-TAGS`                    | codec tags append-only vs `crates/wire/TAGS.lock` |
//!
//! The scanner is comment/string/raw-string aware and skips
//! `#[cfg(test)]` items, so it never false-positives on docs or tests
//! (see [`lexer`]). Findings are suppressed by inline
//! `// detlint::allow(RULE, reason)` annotations or the committed
//! `detlint.baseline` (see [`suppress`]); everything else fails the run.
//!
//! Run `cargo run -p detlint -- --explain RULE` for the long-form text of
//! any rule.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod suppress;
pub mod tags;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use rules::{rule, Finding, Rule, RULES};

/// Scan configuration.
#[derive(Clone, Debug, Default)]
pub struct Options {
    /// Also surface unused allows / baseline entries as findings
    /// (`--deny`, the CI mode).
    pub deny: bool,
}

/// Result of a workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings suppressed by allows or the baseline.
    pub suppressed: usize,
    /// Per-rule counts of surviving findings.
    pub per_rule: BTreeMap<&'static str, usize>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the tree is clean.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Collect the `.rs` files under `crates/*/src` and `examples/`,
/// deterministically sorted.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates) {
        let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            // The linter does not lint itself: its sources quote rule ids
            // and annotation syntax in docs and string literals.
            if d.file_name().is_some_and(|n| n == "detlint") {
                continue;
            }
            collect_rs(&d.join("src"), &mut out);
        }
    }
    collect_rs(&root.join("examples"), &mut out);
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// The tracked size of the product code: per crate, the lines of
/// `crates/<crate>/src/**/*.rs` that [`product_lines`] counts. Every crate
/// is counted, the linter included.
pub fn loc_by_crate(root: &Path) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return out;
    };
    for dir in entries.flatten().map(|e| e.path()) {
        let mut files = Vec::new();
        collect_rs(&dir.join("src"), &mut files);
        if files.is_empty() {
            continue;
        }
        let lines = files
            .iter()
            .filter_map(|f| std::fs::read_to_string(f).ok())
            .map(|src| product_lines(&src))
            .sum();
        let name = dir.file_name().map(|n| n.to_string_lossy().into_owned());
        out.insert(name.unwrap_or_default(), lines);
    }
    out
}

/// Lines of product code in one file: the non-blank lines whose first
/// non-blank byte lies outside every `#[cfg(test)]` item
/// ([`lexer::cfg_test_spans`]). Comment lines count.
pub fn product_lines(src: &str) -> usize {
    let spans = lexer::cfg_test_spans(&lexer::mask_source(src));
    let mut at = 0;
    let mut lines = 0;
    for line in src.split_inclusive('\n') {
        if let Some(off) = line.find(|c: char| !c.is_whitespace()) {
            let first = at + off;
            if !spans.iter().any(|&(s, e)| (s..e).contains(&first)) {
                lines += 1;
            }
        }
        at += line.len();
    }
    lines
}

/// Root-relative path with `/` separators.
fn rel_of(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Scan the workspace rooted at `root`.
pub fn scan_root(root: &Path, opts: &Options) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut findings = Vec::new();

    let baseline_text = std::fs::read_to_string(root.join("detlint.baseline")).unwrap_or_default();
    let mut baseline = suppress::Baseline::parse(&baseline_text);

    for path in workspace_files(root) {
        let rel = rel_of(root, &path);
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue; // non-UTF-8: nothing for a text linter to do
        };
        report.files_scanned += 1;
        let mut raw = rules::scan_file(&rel, &src);
        let mut allows = suppress::parse_allows(&rel, &src, &mut raw);
        let before = raw.len();
        let surviving = suppress::filter_file(raw, &src, &mut allows, &mut baseline);
        report.suppressed += before - surviving.len();
        findings.extend(surviving);
        if opts.deny {
            for a in &allows {
                if a.used == 0 {
                    findings.push(Finding {
                        file: rel.clone(),
                        line: a.line,
                        rule: "ALLOW-SYNTAX",
                        msg: format!(
                            "unused allow({}) — it suppresses nothing; remove it",
                            a.rule
                        ),
                    });
                }
            }
        }
    }

    // Workspace-level wire-tag freeze.
    let (decode, encode) = tags::extract_root(root, &mut findings);
    let lock_text = std::fs::read_to_string(root.join(tags::TAGS_LOCK)).ok();
    tags::check(&decode, &encode, lock_text.as_deref(), &mut findings);

    if opts.deny {
        for entry in baseline.unused() {
            findings.push(Finding {
                file: "detlint.baseline".to_string(),
                line: 1,
                rule: "ALLOW-SYNTAX",
                msg: format!("stale baseline entry matches nothing: `{entry}`"),
            });
        }
    }

    findings.sort();
    findings.dedup();
    for f in &findings {
        *report.per_rule.entry(f.rule).or_insert(0) += 1;
    }
    report.findings = findings;
    Ok(report)
}

/// Regenerate `crates/wire/TAGS.lock` from the code. Returns the manifest
/// text written.
pub fn write_tags(root: &Path) -> std::io::Result<String> {
    let mut scratch = Vec::new();
    let (decode, _) = tags::extract_root(root, &mut scratch);
    let text = tags::render_lock(&decode);
    std::fs::write(root.join(tags::TAGS_LOCK), &text)?;
    Ok(text)
}
