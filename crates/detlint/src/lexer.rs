//! Source masking: produce a same-length view of a Rust source file in
//! which comment bodies, string/char-literal contents, and (optionally)
//! `#[cfg(test)]` items are blanked to spaces.
//!
//! Rules then run plain substring matching over the masked text and can
//! never false-positive on prose in a doc comment, a pattern name inside a
//! string literal, or test-only code. Newlines are always preserved, so
//! byte offsets and line numbers in the masked text match the original.
//!
//! The lexer is a hand-rolled state machine over bytes. It understands:
//!
//! * line comments (`//`, `///`, `//!`) and nested block comments;
//! * string literals with escapes (delimiting quotes are *kept* so a rule
//!   can still see that an argument is a literal, `("`);
//! * raw strings `r"…"`, `r#"…"#` (any hash depth), byte/raw-byte strings;
//! * char literals vs lifetimes (`'a'` vs `<'a>`), including escaped and
//!   multi-byte chars;
//! * `#[cfg(test)]`-gated items: the attribute plus the item it gates
//!   (through the matching close brace or terminating semicolon) are
//!   blanked when `mask_cfg_test` is on.

/// Blank `len` bytes starting at `start`, preserving newlines.
fn blank(out: &mut [u8], start: usize, len: usize) {
    for b in out.iter_mut().skip(start).take(len) {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

/// Is `b` part of an identifier?
fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Mask comments and literal contents in `src`. Returns a same-length
/// string (newlines preserved; string-delimiting quotes preserved).
pub fn mask_source(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let n = bytes.len();
    let mut i = 0;
    while i < n {
        let b = bytes[i];
        match b {
            b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                let end = src[i..].find('\n').map(|o| i + o).unwrap_or(n);
                blank(&mut out, i, end - i);
                i = end;
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                // Nested block comments, per the Rust grammar.
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
                // Plain string: keep both quotes, blank the contents.
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
                // Possible raw/byte/C string prefix: r" r#" br" b" rb is not
                // a thing, but br#" and cr#" are. Scan the prefix.
                let start = i;
                let mut j = i;
                while j < n
                    && (bytes[j] == b'r' || bytes[j] == b'b' || bytes[j] == b'c')
                    && j - i < 2
                {
                    j += 1;
                }
                let mut hashes = 0usize;
                let mut k = j;
                while k < n && bytes[k] == b'#' {
                    hashes += 1;
                    k += 1;
                }
                let raw = j > i && src[i..j].contains('r');
                if k < n && bytes[k] == b'"' && (raw || (hashes == 0 && j == i + 1)) {
                    // Identifier chars immediately before mean this is just
                    // the tail of a name like `attr` — not a literal prefix.
                    if i > 0 && is_ident(bytes[i - 1]) {
                        i += 1;
                        continue;
                    }
                    if raw {
                        // Raw string: blank everything including delimiters.
                        let closer: Vec<u8> = {
                            let mut c = vec![b'"'];
                            c.extend(std::iter::repeat(b'#').take(hashes));
                            c
                        };
                        let mut m = k + 1;
                        while m < n {
                            if bytes[m] == b'"' && bytes[m..].starts_with(&closer) {
                                m += closer.len();
                                break;
                            }
                            m += 1;
                        }
                        blank(&mut out, start, m - start);
                        i = m;
                    } else {
                        // b"..." — treat like a plain string from the quote.
                        i = k; // the quote; next loop iteration handles it
                    }
                } else {
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal or lifetime. A char literal is 'x', '\…', or
                // a multi-byte scalar; a lifetime has no closing quote
                // nearby ('a>, 'a,, 'static).
                let is_char = if i + 1 < n && bytes[i + 1] == b'\\' {
                    true
                } else if i + 2 < n && bytes[i + 2] == b'\'' {
                    true
                } else if i + 1 < n && bytes[i + 1] >= 0x80 {
                    // Multi-byte char: closing quote within the next few.
                    bytes[i + 1..(i + 6).min(n)].contains(&b'\'')
                } else {
                    false
                };
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
    // Masking only ever replaces bytes with ASCII spaces at literal/comment
    // content positions; code bytes are copied verbatim, so the result is
    // valid UTF-8 whenever the input was.
    String::from_utf8(out).unwrap_or_default()
}

/// Blank every `#[cfg(test)]` attribute and the item it gates (through the
/// matching `}` or terminating `;`). Operates on an already-masked buffer
/// so braces inside strings or comments cannot confuse the matcher.
pub fn mask_cfg_test(masked: &str) -> String {
    let mut out = masked.as_bytes().to_vec();
    for (start, end) in cfg_test_spans(masked) {
        blank(&mut out, start, end - start);
    }
    String::from_utf8(out).unwrap_or_default()
}

/// Byte ranges `[start, end)` of every `#[cfg(test)]` attribute plus the
/// item it gates, in ascending order, found in already-masked text.
pub fn cfg_test_spans(masked: &str) -> Vec<(usize, usize)> {
    const NEEDLE: &str = "#[cfg(test)]";
    let mut spans = Vec::new();
    let mut search_from = 0usize;
    while let Some(o) = masked[search_from..].find(NEEDLE) {
        let hit = search_from + o;
        let item_end = gated_item_end(masked.as_bytes(), hit + NEEDLE.len());
        spans.push((hit, item_end));
        search_from = item_end;
    }
    spans
}

/// From just past a `#[cfg(test)]` attribute, find the end (exclusive) of
/// the gated item: skip further attributes, then brace-match the first `{`
/// or stop at a top-level `;` — one outside every bracket, paren and
/// brace, so the `;` of an array type (`[u32; 5]`) in a signature does
/// not end the item.
fn gated_item_end(bytes: &[u8], mut i: usize) -> usize {
    let n = bytes.len();
    let mut brace_depth = 0usize;
    // Bracket and paren nesting outside any brace.
    let mut group_depth = 0usize;
    while i < n {
        match bytes[i] {
            b'#' if brace_depth == 0 && i + 1 < n && bytes[i + 1] == b'[' => {
                // Another attribute: skip its bracketed body.
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

/// Byte ranges (start, end) of the bodies of functions whose names start
/// with `prefix` (e.g. `on_`), found in masked text. Used to scope the
/// totality rule to message handlers.
pub fn fn_body_ranges(masked: &str, prefix: &str) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let n = bytes.len();
    let pat = format!("fn {prefix}");
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(off) = masked[from..].find(&pat) {
        let at = from + off;
        from = at + pat.len();
        // `fn` must be a standalone keyword.
        if at > 0 && is_ident(bytes[at - 1]) {
            continue;
        }
        // Find the body opening brace; a `;` first means a trait method
        // declaration with no body.
        let mut i = at + 3;
        let mut body_start = None;
        while i < n {
            match bytes[i] {
                b'{' => {
                    body_start = Some(i);
                    break;
                }
                b';' => break,
                _ => i += 1,
            }
        }
        let Some(start) = body_start else { continue };
        let mut depth = 0usize;
        let mut j = start;
        while j < n {
            match bytes[j] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        out.push((start, j));
        from = j;
    }
    out
}

/// 1-based line number of byte offset `pos`.
pub fn line_of(src: &str, pos: usize) -> usize {
    src.as_bytes()[..pos.min(src.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}
