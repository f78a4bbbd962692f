//! The tracked size of the product code: per crate, the non-blank lines of
//! `crates/<crate>/src/**/*.rs` outside every `#[cfg(test)]` item, comment
//! lines included (ROADMAP aim 2). The determinism rules the crate is
//! named for are rustc and clippy lints (ARCHITECTURE.md, "Determinism
//! rules").
//!
//! Test items are found on a masked copy of the source, in which comment
//! bodies and string or char literal contents are blanked, so a brace or
//! a `#[cfg(test)]` inside a string or comment cannot confuse the count.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Per crate under `root/crates`, the lines of its `src/**/*.rs` that
/// [`product_lines`] counts. Every crate is counted, this one included.
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

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for p in entries.flatten().map(|e| e.path()) {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Lines of product code in one file: the non-blank lines whose first
/// non-blank byte lies outside every `#[cfg(test)]` item.
pub fn product_lines(src: &str) -> usize {
    let spans = cfg_test_spans(&mask_source(src));
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

/// Blank `len` bytes starting at `start`, preserving newlines.
fn blank(out: &mut [u8], start: usize, len: usize) {
    for b in out.iter_mut().skip(start).take(len) {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// A same-length copy of `src` with comments (nested block comments too)
/// and the contents of string, raw-string, byte-string and char literals
/// blanked; a plain string keeps its quotes, and a lifetime is not a char.
fn mask_source(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let n = bytes.len();
    let mut i = 0;
    while i < n {
        match bytes[i] {
            b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                let end = src[i..].find('\n').map(|o| i + o).unwrap_or(n);
                blank(&mut out, i, end - i);
                i = end;
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if i + 1 < n && bytes[i] == b'/' && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if i + 1 < n && bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start, i - start);
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < n {
                    match bytes[i] {
                        b'\\' => i = (i + 2).min(n),
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                if i - start > 2 {
                    blank(&mut out, start + 1, i - start - 2);
                }
            }
            b'r' | b'b' | b'c' => {
                // A literal prefix (`r"`, `r#"`, `br"`, `b"`, `cr#"`) unless
                // it is the tail of an identifier such as `attr`.
                let start = i;
                let mut j = i;
                while j < n && matches!(bytes[j], b'r' | b'b' | b'c') && j - i < 2 {
                    j += 1;
                }
                let mut k = j;
                while k < n && bytes[k] == b'#' {
                    k += 1;
                }
                let hashes = k - j;
                let raw = j > i && src[i..j].contains('r');
                let literal = k < n && bytes[k] == b'"' && (raw || (hashes == 0 && j == i + 1));
                if !literal || (i > 0 && is_ident(bytes[i - 1])) {
                    i += 1;
                } else if raw {
                    let mut closer = vec![b'"'];
                    closer.extend(std::iter::repeat_n(b'#', hashes));
                    let mut m = k + 1;
                    while m < n {
                        if bytes[m..].starts_with(&closer) {
                            m += closer.len();
                            break;
                        }
                        m += 1;
                    }
                    blank(&mut out, start, m - start);
                    i = m;
                } else {
                    i = k; // `b"…"`: the quote is masked as a plain string
                }
            }
            b'\'' => {
                // `'x'`, `'\…'` or a multi-byte char; a lifetime has no
                // closing quote nearby.
                let is_char = (i + 1 < n && bytes[i + 1] == b'\\')
                    || (i + 2 < n && bytes[i + 2] == b'\'')
                    || (i + 1 < n
                        && bytes[i + 1] >= 0x80
                        && bytes[i + 1..(i + 6).min(n)].contains(&b'\''));
                if is_char {
                    let start = i;
                    i += 1;
                    while i < n {
                        match bytes[i] {
                            b'\\' => i = (i + 2).min(n),
                            b'\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    if i - start > 2 {
                        blank(&mut out, start + 1, i - start - 2);
                    }
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    // Only bytes inside literals and comments became ASCII spaces, so the
    // result is UTF-8 whenever the input was.
    String::from_utf8(out).unwrap_or_default()
}

/// Byte ranges `[start, end)` of every `#[cfg(test)]` attribute plus the
/// item it gates, in ascending order, found in masked text.
fn cfg_test_spans(masked: &str) -> Vec<(usize, usize)> {
    const NEEDLE: &str = "#[cfg(test)]";
    let mut spans = Vec::new();
    let mut from = 0usize;
    while let Some(o) = masked[from..].find(NEEDLE) {
        let hit = from + o;
        let end = gated_item_end(masked.as_bytes(), hit + NEEDLE.len());
        spans.push((hit, end));
        from = end;
    }
    spans
}

/// From just past a `#[cfg(test)]`, the end (exclusive) of the gated item:
/// skip further attributes, then brace-match the first `{` or stop at a
/// `;` outside every bracket, paren and brace (so the `;` of `[u32; 5]`
/// in a signature does not end the item).
fn gated_item_end(bytes: &[u8], mut i: usize) -> usize {
    let n = bytes.len();
    let mut brace_depth = 0usize;
    let mut group_depth = 0usize;
    while i < n {
        match bytes[i] {
            b'#' if brace_depth == 0 && i + 1 < n && bytes[i + 1] == b'[' => {
                let mut depth = 0usize;
                while i < n {
                    match bytes[i] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            b'{' => {
                brace_depth += 1;
                i += 1;
            }
            b'}' => {
                brace_depth = brace_depth.saturating_sub(1);
                i += 1;
                if brace_depth == 0 {
                    return i;
                }
            }
            b'[' | b'(' if brace_depth == 0 => {
                group_depth += 1;
                i += 1;
            }
            b']' | b')' if brace_depth == 0 => {
                group_depth = group_depth.saturating_sub(1);
                i += 1;
            }
            b';' if brace_depth == 0 && group_depth == 0 => return i + 1,
            _ => i += 1,
        }
    }
    n
}
