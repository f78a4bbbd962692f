//! The `--loc` recipe (`scripts/loc.py`) over its fixtures: test items are
//! masked exactly, and every crate's `src/` is counted.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
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

/// `(crate, lines)` rows of the script's table over `root`, total last.
fn loc_by_crate(root: &Path) -> Vec<(String, usize)> {
    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("../scripts/loc.py");
    let out = Command::new("python3")
        .arg(script)
        .arg("--root")
        .arg(root)
        .output()
        .expect("python3 runs scripts/loc.py");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .skip(2)
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(|c| c.trim().trim_matches('*')).collect();
            (cells[1].to_string(), cells[2].parse().unwrap())
        })
        .collect()
}

#[test]
fn loc_counts_product_code_after_a_test_only_counter() {
    // A `#[cfg(test)] thread_local!` above the product code must hide only
    // itself: the product function after it (doc and plain comment lines
    // included) counts, the gated statement inside it and `mod tests` do
    // not. Counting up to the first `#[cfg(test)]` line would give 1.
    // Per crate, over every crate's src/ and nothing else.
    let src = fixture("loc_counter_then_code.rs");
    let root = mini_workspace(
        "loc-counter",
        &[
            ("crates/kts/src/lib.rs", src.as_str()),
            ("crates/kts/src/blank.rs", "\n\n"),
            ("crates/ot/src/lib.rs", "pub fn f() {}\n"),
            ("crates/kts/tests/t.rs", "pub fn not_src() {}\n"),
        ],
    );
    let expect = [("kts", 6), ("ot", 1), ("total", 7)].map(|(c, n)| (c.to_string(), n));
    assert_eq!(loc_by_crate(&root), expect);
}

#[test]
fn loc_masks_test_items_with_a_semicolon_in_brackets() {
    // The `;` of an array type (`[u32; 5]`) in a gated signature or type
    // does not end the item: the oracle's body and the gated constant's
    // initializer stay masked, and only the product function (with its
    // doc line and the file's doc line) counts.
    let src = fixture("loc_array_signature.rs");
    let root = mini_workspace("loc-array", &[("crates/sha/src/lib.rs", src.as_str())]);
    let expect = [("sha", 5), ("total", 5)].map(|(c, n)| (c.to_string(), n));
    assert_eq!(loc_by_crate(&root), expect);
}
