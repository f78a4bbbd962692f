#!/usr/bin/env python3
"""The tracked size of the product code, per crate, as a markdown table.

Counts the non-blank lines of crates/<crate>/src/**/*.rs whose first
non-blank character lies outside every #[cfg(test)] item; comment lines
count. Test items are found on a masked copy of the source, in which
comment bodies and string or char literal contents are blanked, so a brace
or a #[cfg(test)] inside a string or comment cannot confuse the count.

    python3 scripts/loc.py [--root PATH]

PATH defaults to the repository holding this script.
"""

import argparse
import re
from pathlib import Path

NEEDLE = "#[cfg(test)]"
# A string literal's prefix: up to two of r, b, c, then raw-string hashes.
LITERAL_PREFIX = re.compile(r'([rbc]{1,2})(#*)"')


def is_ident(c):
    return c.isalnum() or c == "_" or ord(c) >= 0x80


def mask(src):
    """A same-length copy of `src` with comments (nested block comments
    too) and the contents of string, raw-string, byte-string and char
    literals blanked; a plain string keeps its quotes, and a lifetime is
    not a char. Newlines are kept."""
    out = list(src)
    n = len(src)

    def blank(start, end):
        for k in range(start, min(end, n)):
            if out[k] != "\n":
                out[k] = " "

    i = 0
    while i < n:
        c = src[i]
        if src.startswith("//", i):
            end = src.find("\n", i)
            end = n if end < 0 else end
            blank(i, end)
            i = end
        elif src.startswith("/*", i):
            start, depth = i, 1
            i += 2
            while i < n and depth > 0:
                if src.startswith("/*", i):
                    depth += 1
                    i += 2
                elif src.startswith("*/", i):
                    depth -= 1
                    i += 2
                else:
                    i += 1
            blank(start, i)
        elif c == '"':
            start = i
            i += 1
            while i < n:
                if src[i] == "\\":
                    i = min(i + 2, n)
                elif src[i] == '"':
                    i += 1
                    break
                else:
                    i += 1
            blank(start + 1, i - 1)
        elif c in "rbc":
            # A literal prefix (r", r#", br", b", cr#") unless it is the
            # tail of an identifier such as `attr`.
            m = LITERAL_PREFIX.match(src, i)
            prefix = m.group(1) if m else ""
            raw = "r" in prefix
            literal = m and (raw or (not m.group(2) and len(prefix) == 1))
            if not literal or (i > 0 and is_ident(src[i - 1])):
                i += 1
            elif raw:
                closer = '"' + m.group(2)
                end = src.find(closer, m.end())
                end = n if end < 0 else end + len(closer)
                blank(i, end)
                i = end
            else:
                i = m.end() - 1  # b"…": the quote is masked as a plain string
        elif c == "'":
            # 'x', '\…' or a multi-byte char; a lifetime has no closing
            # quote nearby (within the next five bytes).
            is_char = (
                src.startswith("\\", i + 1)
                or src.startswith("'", i + 2)
                or (
                    i + 1 < n
                    and ord(src[i + 1]) >= 0x80
                    and b"'" in src[i + 1 : i + 6].encode()[:5]
                )
            )
            if is_char:
                start = i
                i += 1
                while i < n:
                    if src[i] == "\\":
                        i = min(i + 2, n)
                    elif src[i] == "'":
                        i += 1
                        break
                    else:
                        i += 1
                blank(start + 1, i - 1)
            else:
                i += 1
        else:
            i += 1
    return "".join(out)


def gated_item_end(masked, i):
    """From just past a #[cfg(test)], the end (exclusive) of the gated
    item: skip further attributes, then brace-match the first `{` or stop
    at a `;` outside every bracket, paren and brace (so the `;` of
    `[u32; 5]` in a signature does not end the item)."""
    n = len(masked)
    braces = groups = 0
    while i < n:
        c = masked[i]
        if c == "#" and braces == 0 and masked.startswith("#[", i):
            depth = 0
            while i < n:
                if masked[i] == "[":
                    depth += 1
                elif masked[i] == "]":
                    depth -= 1
                    if depth == 0:
                        i += 1
                        break
                i += 1
            continue
        i += 1
        if c == "{":
            braces += 1
        elif c == "}":
            braces = max(braces - 1, 0)
            if braces == 0:
                return i
        elif c in "[(" and braces == 0:
            groups += 1
        elif c in "])" and braces == 0:
            groups = max(groups - 1, 0)
        elif c == ";" and braces == 0 and groups == 0:
            return i
    return n


def product_lines(src):
    """Non-blank lines whose first non-blank character lies outside every
    #[cfg(test)] item."""
    masked = mask(src)
    spans = []
    at = masked.find(NEEDLE)
    while at >= 0:
        end = gated_item_end(masked, at + len(NEEDLE))
        spans.append((at, end))
        at = masked.find(NEEDLE, end)
    lines = at = 0
    for line in src.split("\n"):
        body = line.lstrip()
        first = at + len(line) - len(body)
        if body and not any(s <= first < e for s, e in spans):
            lines += 1
        at += len(line) + 1
    return lines


def loc_by_crate(root):
    out = {}
    for krate in sorted(p for p in (root / "crates").iterdir() if p.is_dir()):
        files = sorted((krate / "src").rglob("*.rs"))
        if files:
            out[krate.name] = sum(product_lines(f.read_text("utf-8")) for f in files)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    per_crate = loc_by_crate(ap.parse_args().root)
    print("| crate | non-test lines |\n|---|---:|")
    for name, lines in per_crate.items():
        print(f"| {name} | {lines} |")
    print(f"| **total** | **{sum(per_crate.values())}** |")


if __name__ == "__main__":
    main()
