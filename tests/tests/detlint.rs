//! Red twins of the determinism and totality rules. Each rule is a rustc
//! or clippy lint at the level the committed config declares (the root
//! `Cargo.toml`'s `[workspace.lints]`, a crate's own `[lints]`, its root
//! `#![deny]`s, and `clippy.toml`'s disallowed lists), so each drill runs
//! `clippy-driver` on a fixture under those levels and pins the errors.
//! The scope tests keep the levels where the rules need them: a new
//! message handler or simulated crate cannot slip out of its lint.
//!
//! The wire-tag freeze is `crates/core/tests/wire_tags.rs`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Crates whose state machines run under the deterministic simulator.
const DET_CRATES: &[&str] = &["simnet", "kts", "chord", "core", "p2plog", "workload"];

/// The panic lints every message-handler and wire-decode module denies.
const PANIC_LINTS: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::indexing_slicing",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

/// The wire files that decode outside bytes: whole-module panic scope.
const WIRE_DECODE_FILES: &[&str] = &[
    "crates/wire/src/varint.rs",
    "crates/wire/src/codec.rs",
    "crates/wire/src/frame.rs",
    "crates/wire/src/proto.rs",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the tests package sits below the workspace root")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(level, lint)` pairs of the `#![level(lint, …)]` lines of a module.
fn inner_lint_attrs(src: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for line in src.lines() {
        let Some(body) = line.trim().strip_prefix("#![") else {
            continue;
        };
        let Some((level, rest)) = body.split_once('(') else {
            continue;
        };
        if !["allow", "warn", "deny", "forbid"].contains(&level) {
            continue;
        }
        let names = rest.trim_end_matches(")]").split(',');
        out.extend(names.map(|n| (level.to_string(), n.trim().to_string())));
    }
    out
}

/// The `--level lint` flags cargo passes for `krate`: its manifest's
/// `[lints]` tables (or the workspace's, when it inherits them), then its
/// crate root's `#![level(…)]` lines.
fn lint_flags(krate: &str) -> Vec<String> {
    let root = root();
    let manifest = read(&root.join("crates").join(krate).join("Cargo.toml"));
    let (text, prefix) = if manifest.contains("[lints]\nworkspace = true") {
        (read(&root.join("Cargo.toml")), "[workspace.lints.")
    } else {
        (manifest, "[lints.")
    };
    let mut flags = Vec::new();
    let mut tool = None;
    for line in text.lines() {
        if line.starts_with('[') {
            tool = match line.strip_prefix(prefix) {
                Some("rust]") => Some(""),
                Some("clippy]") => Some("clippy::"),
                _ => None,
            };
        } else if let (Some(tool), Some((name, level))) = (tool, line.split_once(" = ")) {
            flags.push(format!("--{}", level.trim_matches('"')));
            flags.push(format!("{tool}{name}"));
        }
    }
    let lib = read(&root.join("crates").join(krate).join("src/lib.rs"));
    for (level, lint) in inner_lint_attrs(&lib) {
        flags.push(format!("--{level}"));
        flags.push(lint);
    }
    assert!(!flags.is_empty(), "{krate} declares no lint levels");
    flags
}

/// `clippy-driver` from the toolchain running the tests.
fn clippy_driver() -> PathBuf {
    match std::env::var_os("CARGO") {
        Some(cargo) => Path::new(&cargo).with_file_name("clippy-driver"),
        None => PathBuf::from("clippy-driver"),
    }
}

/// Compile `src` as a library crate root under `krate`'s lint levels and
/// the workspace `clippy.toml`. Returns each error as `(line, lint)`,
/// sorted; an error without a lint (a syntax or resolution error) reads
/// `?`, so a fixture that stops compiling cannot pass as clean.
fn clippy_errors(name: &str, src: &str, krate: &str) -> Vec<(usize, String)> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-drills");
    fs::create_dir_all(&dir).unwrap();
    let file = dir.join(format!("{name}.rs"));
    fs::write(&file, src).unwrap();
    let driver = clippy_driver();
    let out = Command::new(&driver)
        .env("CLIPPY_CONF_DIR", root())
        .args([
            "--edition",
            "2021",
            "--crate-type",
            "lib",
            "--emit",
            "metadata",
        ])
        .args(["--error-format", "json", "--crate-name", name, "-o"])
        .arg(dir.join(format!("lib{name}.rmeta")))
        .arg(&file)
        .args(lint_flags(krate))
        .output()
        .unwrap_or_else(|e| {
            panic!(
                "{} did not run ({e}): the lint drills need clippy (`rustup component add clippy`)",
                driver.display()
            )
        });
    let stderr = String::from_utf8_lossy(&out.stderr);
    let field = |text: &str, key: &str| -> Option<String> {
        let rest = &text[text.find(key)? + key.len()..];
        Some(rest[..rest.find([',', '"', '}'])?].to_string())
    };
    let mut errors = Vec::new();
    for line in stderr
        .lines()
        .filter(|l| l.contains(r#""$message_type":"diagnostic""#))
    {
        // The diagnostic's own level and code precede its spans.
        let head = &line[..line.find(r#""spans":"#).unwrap_or(line.len())];
        if field(head, r#""level":""#).as_deref() != Some("error") {
            continue;
        }
        let Some(at) = field(line, r#""line_start":"#) else {
            continue; // the closing "aborting due to …" summary
        };
        let lint = field(head, r#""code":{"code":""#).unwrap_or_else(|| "?".into());
        errors.push((at.parse().unwrap(), lint));
    }
    errors.sort();
    assert_eq!(out.status.success(), errors.is_empty(), "{stderr}");
    errors
}

fn fixture_errors(name: &str, krate: &str) -> Vec<(usize, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let stem = name.trim_end_matches(".rs");
    clippy_errors(&format!("{stem}_{krate}"), &read(&path), krate)
}

fn at(pairs: &[(usize, &str)]) -> Vec<(usize, String)> {
    pairs
        .iter()
        .map(|&(l, lint)| (l, lint.to_string()))
        .collect()
}

// ---------------------------------------------------------------------------
// The drills: one per rule fixture
// ---------------------------------------------------------------------------

#[test]
fn det_hash_fires_in_det_crates_only() {
    let t = "clippy::disallowed_types";
    // The `use`, the two field types and the two constructors.
    let want = at(&[(3, t), (3, t), (6, t), (7, t), (13, t), (14, t)]);
    assert_eq!(fixture_errors("det_hash_pos.rs", "kts"), want);
    // Outside the simulated crates the same source compiles.
    assert_eq!(fixture_errors("det_hash_pos.rs", "ot"), at(&[]));
}

#[test]
fn masking_tripwire_docs_strings_and_tests_never_fire() {
    // HashMap in doc comments, string literals, raw strings and
    // #[cfg(test)] items is invisible to the compiler.
    assert_eq!(fixture_errors("det_hash_neg.rs", "kts"), at(&[]));
}

#[test]
fn det_clock_and_rng_positives() {
    let m = "clippy::disallowed_methods";
    let want = at(&[(6, m), (6, m), (10, m)]);
    assert_eq!(fixture_errors("det_clock_rng_pos.rs", "chord"), want);
    assert_eq!(fixture_errors("det_clock_rng_pos.rs", "ot"), want);
    // The benchmarks measure wall time: DET-CLOCK does not apply there.
    assert_eq!(fixture_errors("det_clock_rng_pos.rs", "bench"), at(&[]));

    // The other entropy sources have no compiler lint: the vendored `rand`
    // has no constructor for them, so any use fails to resolve.
    let rand = read(&root().join("vendor/rand/src/lib.rs"));
    for name in [
        "thread_rng",
        "from_entropy",
        "from_os_rng",
        "OsRng",
        "getrandom",
    ] {
        assert!(!rand.contains(name), "vendor/rand grew `{name}`");
    }
}

#[test]
fn tot_panic_in_handlers_and_wire_files() {
    let want = at(&[
        (13, "clippy::indexing_slicing"),
        (14, "clippy::unwrap_used"),
        (16, "clippy::panic"),
    ]);
    // The module attribute carries the scope: the crate does not matter.
    assert_eq!(fixture_errors("tot_panic_pos.rs", "core"), want);
    assert_eq!(fixture_errors("tot_panic_pos.rs", "ot"), want);
}

#[test]
fn allows_suppress_and_malformed_allows_are_findings() {
    let want = at(&[
        (9, "clippy::allow_attributes_without_reason"),
        (12, "unknown_lints"),
        (15, "clippy::allow_attributes"),
    ]);
    assert_eq!(fixture_errors("allow_cases.rs", "kts"), want);
}

#[test]
fn unused_allow_is_an_error_under_deny() {
    let src = "#[expect(clippy::disallowed_types, reason = \"nothing here needs this\")]\n\
               pub struct S;\n";
    let want = at(&[(1, "unfulfilled_lint_expectations")]);
    assert_eq!(clippy_errors("stale_expect", src, "kts"), want);
}

// ---------------------------------------------------------------------------
// Scope: the levels stay where the rules need them
// ---------------------------------------------------------------------------

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A module's product lines: comment lines and top-level
/// `#[cfg(test)] mod … { … }` blocks dropped (rustfmt closes a top-level
/// block with `}` in column 0).
fn product_code(src: &str) -> String {
    let mut out = String::new();
    let mut lines = src.lines().peekable();
    while let Some(line) = lines.next() {
        if line == "#[cfg(test)]" && lines.peek().is_some_and(|l| l.starts_with("mod ")) {
            lines.by_ref().find(|l| *l == "}");
        } else if !line.trim_start().starts_with("//") {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn every_handler_module_denies_the_panic_lints() {
    let root = root();
    let mut files = Vec::new();
    rs_files(&root.join("crates"), &mut files);
    files.retain(|f| f.components().any(|c| c.as_os_str() == "src"));
    files.sort();
    let mut covered = Vec::new();
    let mut missing = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let src = read(&file);
        let code = product_code(&src);
        let handler = code.split("fn on_").count() > 1;
        if !handler && !WIRE_DECODE_FILES.contains(&rel.as_str()) {
            continue;
        }
        let denied: Vec<String> = inner_lint_attrs(&src)
            .into_iter()
            .filter(|(level, _)| level == "deny" || level == "forbid")
            .map(|(_, lint)| lint)
            .collect();
        let absent: Vec<&str> = PANIC_LINTS
            .iter()
            .copied()
            .filter(|l| !denied.iter().any(|d| d == l))
            .collect();
        if absent.is_empty() {
            covered.push(rel);
        } else {
            missing.push(format!("{rel}: {absent:?}"));
        }
    }
    assert!(
        missing.is_empty(),
        "modules with a message handler (`fn on_*`) or a wire decoder must \
         `#![deny]` every panic lint:\n{}",
        missing.join("\n")
    );
    assert!(covered.len() > WIRE_DECODE_FILES.len(), "{covered:?}");
}

#[test]
fn det_crates_deny_disallowed_types_and_every_crate_has_lints() {
    let root = root();
    for krate in DET_CRATES {
        let flags = lint_flags(krate);
        let level = flags
            .windows(2)
            .filter(|w| w[1] == "clippy::disallowed_types")
            .map(|w| w[0].as_str())
            .next_back();
        assert!(
            matches!(level, Some("--deny" | "--forbid")),
            "{krate} must deny clippy::disallowed_types (DET-HASH): {flags:?}"
        );
    }
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .collect();
    crates.push(root.join("tests"));
    for dir in crates {
        let manifest = read(&dir.join("Cargo.toml"));
        assert!(
            manifest.contains("\n[lints"),
            "{} has no [lints] table",
            dir.display()
        );
    }
}
