//! CLI for the workspace determinism & protocol-safety linter.
//!
//! ```text
//! cargo run -p detlint                  # scan, print findings, exit 1 if any
//! cargo run -p detlint -- --deny        # CI mode: also fail on stale allows
//! cargo run -p detlint -- --explain DET-HASH
//! cargo run -p detlint -- --write-tags  # regenerate crates/wire/TAGS.lock
//! cargo run -p detlint -- --summary-md out.md   # append per-rule counts
//! cargo run -p detlint -- --loc         # non-test lines per crate (markdown)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use detlint::{rules, scan_root, write_tags, Options, RULES};

fn usage() -> &'static str {
    "detlint — workspace determinism & protocol-safety linter

USAGE: detlint [--root PATH] [--deny] [--explain RULE] [--list-rules]
               [--write-tags] [--summary-md PATH] [--loc]

  --root PATH        workspace root to scan (default: nearest ancestor of
                     the current directory containing detlint.baseline or
                     Cargo.toml)
  --deny             CI mode: unused allows and stale baseline entries are
                     errors too
  --explain RULE     print the long-form rationale for one rule and exit
  --list-rules       print the rule table and exit
  --write-tags       regenerate crates/wire/TAGS.lock from the code
  --summary-md PATH  append a per-rule markdown summary (GITHUB_STEP_SUMMARY)
  --loc              print the non-blank lines outside #[cfg(test)] items
                     of crates/*/src per crate, as a markdown table, and exit

Findings print as `file:line: [RULE] message`. Exit is nonzero on any
finding not covered by an inline `// detlint::allow(RULE, reason)`
annotation or the committed detlint.baseline."
}

/// Default root: walk up from cwd to the first dir holding Cargo.toml
/// with a `crates/` sibling (the workspace root, not a member).
fn find_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut opts = Options::default();
    let mut explain: Option<String> = None;
    let mut list_rules = false;
    let mut do_write_tags = false;
    let mut summary_md: Option<PathBuf> = None;
    let mut loc = false;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--deny" => opts.deny = true,
            "--explain" => explain = args.next(),
            "--list-rules" => list_rules = true,
            "--write-tags" => do_write_tags = true,
            "--summary-md" => summary_md = args.next().map(PathBuf::from),
            "--loc" => loc = true,
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    if list_rules {
        for r in RULES {
            println!("{:<12} {}", r.id, r.summary);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(id) = explain {
        match rules::rule(&id) {
            Some(r) => {
                println!("{} — {}\n\n{}", r.id, r.summary, r.explain);
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!(
                    "unknown rule `{id}`; known rules: {}",
                    RULES.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }

    let root = root.unwrap_or_else(find_root);

    if loc {
        let per_crate = detlint::loc_by_crate(&root);
        println!("| crate | non-test lines |\n|---|---:|");
        for (name, lines) in &per_crate {
            println!("| {name} | {lines} |");
        }
        println!("| **total** | **{}** |", per_crate.values().sum::<usize>());
        return ExitCode::SUCCESS;
    }

    if do_write_tags {
        return match write_tags(&root) {
            Ok(text) => {
                let lines = text.lines().filter(|l| !l.starts_with('#')).count();
                println!("wrote {} ({lines} tags)", detlint::tags::TAGS_LOCK);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("failed to write TAGS.lock: {e}");
                ExitCode::from(2)
            }
        };
    }

    let report = match scan_root(&root, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    for f in &report.findings {
        println!("{}", f.render());
    }
    let mut summary = String::new();
    summary.push_str("### detlint\n\n| rule | findings |\n|---|---|\n");
    for r in RULES {
        let n = report.per_rule.get(r.id).copied().unwrap_or(0);
        summary.push_str(&format!("| `{}` | {} |\n", r.id, n));
    }
    summary.push_str(&format!(
        "\n{} file(s) scanned, {} finding(s), {} suppressed by allow/baseline.\n",
        report.files_scanned,
        report.findings.len(),
        report.suppressed
    ));
    if let Some(path) = summary_md {
        if let Err(e) = append_file(&path, &summary) {
            eprintln!("could not append summary to {}: {e}", path.display());
        }
    }
    eprintln!(
        "detlint: {} file(s), {} finding(s), {} suppressed{}",
        report.files_scanned,
        report.findings.len(),
        report.suppressed,
        if opts.deny { " (--deny)" } else { "" }
    );
    if !report.per_rule.is_empty() {
        for (rule, n) in &report.per_rule {
            eprintln!("  {rule}: {n}");
        }
    }

    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn append_file(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(text.as_bytes())
}
