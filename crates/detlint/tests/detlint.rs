//! The `--loc` recipe over its fixtures: test items are masked exactly,
//! and every crate's `src/` is counted.

use std::fs;
use std::path::{Path, PathBuf};

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

#[test]
fn loc_counts_product_code_after_a_test_only_counter() {
    // A `#[cfg(test)] thread_local!` above the product code must hide only
    // itself: the product function after it (doc and plain comment lines
    // included) counts, the gated statement inside it and `mod tests` do
    // not. Counting up to the first `#[cfg(test)]` line would give 1.
    let src = fixture("loc_counter_then_code.rs");
    assert_eq!(detlint::product_lines(&src), 6);

    // Per crate, over every crate's src/ — this one's included.
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
