//! WIRE-TAGS: extract every frozen codec/envelope/journal tag from the
//! `wire_enum!` declarations and the hand-written Encode / Decode impls,
//! and diff them against the committed manifest (`crates/wire/TAGS.lock`).
//!
//! Extraction is syntactic but runs on masked, test-stripped source, so
//! doc examples and the frozen-encodings test vectors never leak in:
//!
//! * inside a `wire_enum! { T;` declaration, every `<int> => <Variant>`
//!   line is a (tag, variant) pair — the declaration is the only place
//!   the tag is written;
//! * inside `impl Decode for T` blocks, every match arm of the form
//!   `<int> => <variant-expr>` is a (tag, variant) pair — the decode side
//!   names both the number and the variant, so it is the source of truth;
//! * inside `impl Encode for T` blocks, every `out.push(<int>)` and every
//!   `<pat> => <int>` arm contributes to a tag multiset cross-checked
//!   against the decode side (only when the encode side has literal tags
//!   at all — primitive impls encode computed bytes).

use std::collections::BTreeMap;

use crate::lexer;
use crate::rules::Finding;

/// Files whose tag constants are frozen by the manifest, relative to the
/// workspace root.
pub const TAG_FILES: &[&str] = &[
    "crates/wire/src/codec.rs",
    "crates/wire/src/proto.rs",
    "crates/core/src/wire_impls.rs",
    "crates/store/src/entry.rs",
];

/// Manifest location relative to the workspace root.
pub const TAGS_LOCK: &str = "crates/wire/TAGS.lock";

/// One extracted tag: `(file, type) -> tag -> (variant, line)`.
pub type TagTable = BTreeMap<(String, String), BTreeMap<u64, (String, usize)>>;

/// Strip an arm expression down to its variant name: `Ok(PutMode::Overwrite)`
/// → `Overwrite`, `ChordMsg::FindSuccessor {` → `FindSuccessor`,
/// `Ok(Some(T::decode(r)?))` → `Some`, `Ok(false)` → `false`,
/// `Stop = "msg.stop",` → `Stop`.
fn variant_name(expr: &str) -> String {
    let mut s = expr.trim();
    if let Some(rest) = s.strip_prefix("Ok(") {
        s = rest;
    }
    let end = s
        .find(|c: char| matches!(c, '(' | '{' | ',' | ')') || c.is_whitespace())
        .unwrap_or(s.len());
    let head = s[..end].trim();
    head.rsplit("::").next().unwrap_or(head).trim().to_string()
}

/// A line like `impl Decode for ChordMsg {` or
/// `impl<T: Encode> Encode for Option<T> {` → (kind, type name).
fn impl_header(line: &str) -> Option<(&'static str, String)> {
    let t = line.trim_start();
    // A `wire_enum! { Type;` declaration: its `N => Variant` lines are
    // the whole wire form, so they scan like decode arms.
    if let Some(rest) = t.strip_prefix("wire_enum! {") {
        return Some(("Decode", rest.trim().trim_end_matches(';').to_string()));
    }
    if !t.starts_with("impl") {
        return None;
    }
    for kind in ["Encode", "Decode"] {
        if let Some(pos) = t.find(&format!(" {kind} for ")) {
            let rest = &t[pos + kind.len() + 6..];
            let ty = rest.trim_end().trim_end_matches('{').trim();
            if !ty.is_empty() {
                let kind_static = if kind == "Encode" { "Encode" } else { "Decode" };
                return Some((kind_static, ty.to_string()));
            }
        }
    }
    None
}

/// Extract decode tags and encode tag multisets from one masked source.
pub fn extract(
    rel: &str,
    masked: &str,
    decode: &mut TagTable,
    encode: &mut BTreeMap<(String, String), Vec<u64>>,
    findings: &mut Vec<Finding>,
) {
    let mut cur: Option<(&'static str, String)> = None;
    let mut depth_at_impl = 0usize;
    let mut depth = 0usize;
    for (idx, line) in masked.lines().enumerate() {
        let lineno = idx + 1;
        if cur.is_none() {
            if let Some(h) = impl_header(line) {
                cur = Some(h);
                depth_at_impl = depth;
            }
        }
        let opens = line.bytes().filter(|&b| b == b'{').count();
        let closes = line.bytes().filter(|&b| b == b'}').count();
        if let Some((kind, ty)) = cur.clone() {
            let key = (rel.to_string(), ty.clone());
            match kind {
                "Decode" => {
                    // `<int> => <expr>` arms.
                    let t = line.trim_start();
                    if let Some((pat, rest)) = t.split_once("=>") {
                        if let Ok(tag) = pat.trim().parse::<u64>() {
                            let variant = variant_name(rest);
                            let slot = decode.entry(key).or_default();
                            if let Some((prev, prev_line)) = slot.get(&tag) {
                                findings.push(Finding {
                                    file: rel.to_string(),
                                    line: lineno,
                                    rule: "WIRE-TAGS",
                                    msg: format!(
                                        "duplicate tag {tag} for {ty}: `{variant}` collides \
                                         with `{prev}` (line {prev_line})"
                                    ),
                                });
                            } else {
                                slot.insert(tag, (variant, lineno));
                            }
                        }
                    }
                }
                "Encode" => {
                    let slot = encode.entry(key).or_default();
                    // `out.push(<int>)` occurrences.
                    let mut rest = line;
                    while let Some(off) = rest.find("out.push(") {
                        let arg = &rest[off + 9..];
                        let end = arg.find(')').unwrap_or(arg.len());
                        if let Ok(tag) = arg[..end].trim().parse::<u64>() {
                            slot.push(tag);
                        }
                        rest = &arg[end.min(arg.len())..];
                    }
                    // `<pat> => <int>,` arms (C-like enum encodes).
                    let t = line.trim();
                    if let Some((_, rhs)) = t.split_once("=>") {
                        if let Ok(tag) = rhs.trim().trim_end_matches(',').parse::<u64>() {
                            slot.push(tag);
                        }
                    }
                }
                _ => {}
            }
        }
        depth += opens;
        depth = depth.saturating_sub(closes);
        if cur.is_some() && closes > 0 && depth <= depth_at_impl {
            cur = None;
        }
    }
}

/// Render the manifest text for a decode table.
pub fn render_lock(decode: &TagTable) -> String {
    let mut out = String::new();
    out.push_str(
        "# Frozen wire-tag manifest — machine-checked by detlint (rule WIRE-TAGS).\n\
         # One line per tag: <file> | <type> | <tag> = <variant>\n\
         # Tags are a wire contract: append new variants, NEVER renumber.\n\
         # Regenerate after an intentional append-only change with:\n\
         #   cargo run -p detlint -- --write-tags\n",
    );
    for ((file, ty), tags) in decode {
        for (tag, (variant, _)) in tags {
            out.push_str(&format!("{file} | {ty} | {tag} = {variant}\n"));
        }
    }
    out
}

/// Parse a manifest back into `(file, type) -> tag -> variant`.
fn parse_lock(text: &str) -> Result<BTreeMap<(String, String), BTreeMap<u64, String>>, String> {
    let mut out: BTreeMap<(String, String), BTreeMap<u64, String>> = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = t.splitn(3, '|').map(str::trim).collect();
        let (file, ty, rest) = match parts.as_slice() {
            [f, ty, rest] => (*f, *ty, *rest),
            _ => {
                return Err(format!(
                    "line {}: expected `file | type | tag = variant`",
                    idx + 1
                ))
            }
        };
        let (tag, variant) = rest
            .split_once('=')
            .ok_or_else(|| format!("line {}: missing `tag = variant`", idx + 1))?;
        let tag: u64 = tag
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad tag `{}`", idx + 1, tag.trim()))?;
        out.entry((file.to_string(), ty.to_string()))
            .or_default()
            .insert(tag, variant.trim().to_string());
    }
    Ok(out)
}

/// Diff extracted tags against the manifest and cross-check encode vs
/// decode. Produces WIRE-TAGS findings.
pub fn check(
    decode: &TagTable,
    encode: &BTreeMap<(String, String), Vec<u64>>,
    lock_text: Option<&str>,
    findings: &mut Vec<Finding>,
) {
    // Encode/decode cross-check (per type, only when encode has literals).
    for ((file, ty), enc_tags) in encode {
        if enc_tags.is_empty() {
            continue;
        }
        let mut enc = enc_tags.clone();
        enc.sort_unstable();
        enc.dedup();
        let dec: Vec<u64> = decode
            .get(&(file.clone(), ty.clone()))
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        if enc != dec {
            findings.push(Finding {
                file: file.clone(),
                line: 1,
                rule: "WIRE-TAGS",
                msg: format!(
                    "{ty}: encode-side tags {enc:?} disagree with decode-side {dec:?} — \
                     one direction was changed without the other"
                ),
            });
        }
    }

    let Some(lock_text) = lock_text else {
        if decode.is_empty() {
            return; // nothing frozen in this tree, no manifest required
        }
        findings.push(Finding {
            file: TAGS_LOCK.to_string(),
            line: 1,
            rule: "WIRE-TAGS",
            msg: "manifest missing: run `cargo run -p detlint -- --write-tags` and commit it"
                .to_string(),
        });
        return;
    };
    let locked = match parse_lock(lock_text) {
        Ok(l) => l,
        Err(e) => {
            findings.push(Finding {
                file: TAGS_LOCK.to_string(),
                line: 1,
                rule: "WIRE-TAGS",
                msg: format!("manifest unparsable: {e}"),
            });
            return;
        }
    };

    for ((file, ty), tags) in decode {
        let locked_ty = locked.get(&(file.clone(), ty.clone()));
        for (tag, (variant, line)) in tags {
            match locked_ty.and_then(|m| m.get(tag)) {
                None => findings.push(Finding {
                    file: file.clone(),
                    line: *line,
                    rule: "WIRE-TAGS",
                    msg: format!(
                        "{ty} tag {tag} = {variant} not in TAGS.lock — if this is an \
                         intentional append-only addition, regenerate with --write-tags"
                    ),
                }),
                Some(locked_variant) if locked_variant != variant => findings.push(Finding {
                    file: file.clone(),
                    line: *line,
                    rule: "WIRE-TAGS",
                    msg: format!(
                        "{ty} tag {tag} renumbered/renamed: code says `{variant}`, \
                         TAGS.lock says `{locked_variant}` — frozen byte pins must not move"
                    ),
                }),
                Some(_) => {}
            }
        }
    }
    for ((file, ty), tags) in &locked {
        for (tag, variant) in tags {
            let present = decode
                .get(&(file.clone(), ty.clone()))
                .is_some_and(|m| m.contains_key(tag));
            if !present {
                findings.push(Finding {
                    file: TAGS_LOCK.to_string(),
                    line: 1,
                    rule: "WIRE-TAGS",
                    msg: format!(
                        "{file}: {ty} tag {tag} = {variant} is locked but no longer in the \
                         code — removing a frozen variant breaks old peers"
                    ),
                });
            }
        }
    }
}

/// Extract decode/encode tables from the given root, reading each tag file
/// if present. Returns `(decode, encode)`.
pub fn extract_root(
    root: &std::path::Path,
    findings: &mut Vec<Finding>,
) -> (TagTable, BTreeMap<(String, String), Vec<u64>>) {
    let mut decode = TagTable::new();
    let mut encode = BTreeMap::new();
    for rel in TAG_FILES {
        let path = root.join(rel);
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let masked = lexer::mask_cfg_test(&lexer::mask_source(&src));
        extract(rel, &masked, &mut decode, &mut encode, findings);
    }
    (decode, encode)
}
