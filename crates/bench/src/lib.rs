//! Shared helpers for the experiment binaries (`exp_paper` checks the
//! paper's claims; see `EXPERIMENTS.md` at the workspace root for every
//! `exp_*` binary), and the centralized reconciler the paper argues
//! against ([`baseline`]).

#![forbid(unsafe_code)]

pub mod baseline;

use p2p_ltr::harness::LtrNet;
use p2p_ltr::LtrConfig;
use simnet::{Duration, NetConfig};

/// Print one line to stdout; a closed pipe (`exp_perf | head`) ends the
/// run quietly with status 0 instead of `println!`'s panic.
pub fn emit(line: &str) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    if let Err(e) = writeln!(out, "{line}").and_then(|_| out.flush()) {
        std::process::exit(i32::from(e.kind() != std::io::ErrorKind::BrokenPipe));
    }
}

/// Build a network and let the ring stabilize.
pub fn settled_net(seed: u64, net_cfg: NetConfig, peers: usize, cfg: LtrConfig) -> LtrNet {
    settled_net_with(seed, net_cfg, peers, cfg, |_| {})
}

/// [`settled_net`] with a configuration hook that runs *before* the ring
/// settles (e.g. `|net| net.enable_wire_accounting()` so stabilization
/// traffic is metered too).
pub fn settled_net_with(
    seed: u64,
    net_cfg: NetConfig,
    peers: usize,
    cfg: LtrConfig,
    configure: impl FnOnce(&mut LtrNet),
) -> LtrNet {
    let mut net = LtrNet::build(seed, net_cfg, peers, cfg, Duration::from_millis(150));
    configure(&mut net);
    // Stabilization horizon grows slowly with network size.
    let secs = 20 + (peers as u64) / 4;
    net.settle(secs);
    net
}

/// Fixed-width table printer for experiment output (the paper's tables are
/// regenerated as plain text so runs diff cleanly).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::from("| ");
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$} | ", c, w = widths[i]));
        }
        out
    };
    println!("{}", line(headers.iter().map(|s| s.to_string()).collect()));
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

/// Format a boolean as a check.
pub fn ok(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "NO".into()
    }
}

/// Keys of the optional top-level sections merged into
/// `BENCH_hotpath.json` by the non-`exp_perf` harnesses, in their
/// canonical file order. `exp_perf` rewrites the whole file (scenarios +
/// totals); each other harness replaces only its own section via
/// [`merge_bench_section`], preserving the rest.
pub const BENCH_SECTIONS: [&str; 3] = ["recovery", "faults", "net"];

/// Replace (or append) the top-level `"<key>": { … }` section of the
/// bench JSON at `path`, preserving the base document and every *other*
/// known section. `body` must be the full section rendering, starting
/// with `  "<key>": {` and ending with `  }\n`. Writes a skeleton when
/// the file does not exist (`exp_perf` normally creates it first).
pub fn merge_bench_section(path: &std::path::Path, key: &str, body: &str) {
    assert!(BENCH_SECTIONS.contains(&key), "unknown bench section {key}");
    assert!(body.starts_with(&format!("  \"{key}\": {{")), "bad body");
    let existing = std::fs::read_to_string(path).unwrap_or_else(|_| {
        "{\n  \"schema\": \"p2p-ltr/bench-hotpath/v1\",\n  \"quick\": true,\n  \
         \"scenarios\": [],\n  \"totals\": {}\n}\n"
            .to_string()
    });
    let trimmed = existing.trim_end();
    let close = trimmed.rfind('}').expect("bench json has a closing brace");
    // Split off every known optional section; the head is everything
    // before the first of them (or before the final `}`).
    let mut markers: Vec<(usize, &str)> = BENCH_SECTIONS
        .iter()
        .filter_map(|k| {
            trimmed
                .find(&format!(",\n  \"{k}\": {{"))
                .map(|at| (at, *k))
        })
        .collect();
    markers.sort_unstable();
    let head_end = markers.iter().map(|(at, _)| *at).min().unwrap_or(close);
    let head = trimmed[..head_end].trim_end().trim_end_matches(',');
    let mut sections: Vec<(&str, String)> = Vec::new();
    for (i, &(at, k)) in markers.iter().enumerate() {
        let start = at + 2; // skip ",\n"
        let end = markers.get(i + 1).map(|(next, _)| *next).unwrap_or(close);
        sections.push((k, format!("{}\n", trimmed[start..end].trim_end())));
    }
    sections.retain(|(k, _)| *k != key);
    sections.push((key, body.to_string()));
    // Canonical order keeps the file diff-stable however the harnesses ran.
    sections.sort_by_key(|(k, _)| BENCH_SECTIONS.iter().position(|s| s == k));
    let mut out = String::from(head);
    for (_, text) in &sections {
        out.push_str(",\n");
        out.push_str(text.trim_end());
    }
    out.push_str("\n}\n");
    std::fs::write(path, out).expect("write BENCH json");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
