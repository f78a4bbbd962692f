//! **The bench harness.** Runs every section of `BENCH_hotpath.json` —
//! [`perf`] (`scenarios` + `totals`), [`recovery`], [`faults`] and
//! [`net`] — prints each section's tables, writes the whole file at once
//! and exits non-zero when any section's checks failed (the file is
//! still written, so the failure can be read). The faults table also
//! goes to `$GITHUB_STEP_SUMMARY` when that is set.
//!
//! Run: `cargo run -p ltr_bench --release --bin exp_bench`
//! Flags: `--quick` (small matrices and short phases, CI mode), `--out
//! PATH` (default `BENCH_hotpath.json` in the current directory).
//! `scripts/check_bench.py` validates the file and gates its
//! deterministic fields on `BENCH_baseline_quick.json`.

mod faults;
mod net;
mod perf;
mod recovery;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ltr_bench::emit;
use ltr_bench::table::{Json, Section};

/// A section's name (for the failure line) and the function that runs it,
/// given `--quick`.
type Entry = (&'static str, fn(bool) -> Section);

/// The sections in file order.
const SECTIONS: &[Entry] = &[
    ("perf", perf::section),
    ("recovery", recovery::section),
    ("faults", faults::section),
    ("net", net::section),
];

/// Run `sections`, write the file to `out` and return true when every
/// section's checks held.
fn run(sections: &[Entry], quick: bool, out: &Path) -> bool {
    let mut keys = vec![
        ("schema", Json::Str("p2p-ltr/bench-hotpath/v1".into())),
        ("quick", Json::Bool(quick)),
    ];
    let mut failed = Vec::new();
    let mut summary = String::new();
    for (name, section) in sections {
        let s = section(quick);
        emit(&s.text);
        keys.extend(s.keys);
        summary.push_str(&s.markdown);
        if !s.holds {
            failed.push(*name);
        }
    }
    std::fs::write(out, Json::obj(keys).render() + "\n").expect("write the bench file");
    emit(&format!("\nwrote {}\n", out.display()));
    if let Some(path) = std::env::var_os("GITHUB_STEP_SUMMARY").filter(|_| !summary.is_empty()) {
        use std::io::Write as _;
        if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(path) {
            let _ = f.write_all(summary.as_bytes());
        }
    }
    if !failed.is_empty() {
        eprintln!("FAIL: a check failed in {}", failed.join(", "));
    }
    failed.is_empty()
}

/// `--quick` and `--out PATH`; anything else is an error.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(bool, PathBuf), String> {
    let (mut quick, mut out) = (false, PathBuf::from("BENCH_hotpath.json"));
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().ok_or("--out needs a path")?.into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((quick, out))
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok((quick, out)) if run(SECTIONS, quick, &out) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}\nusage: exp_bench [--quick] [--out PATH]");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section(holds: bool) -> Section {
        Section {
            keys: vec![(
                if holds { "rows_true" } else { "rows_false" },
                Json::List(vec![Json::obj([("holds", Json::Bool(holds))])]),
            )],
            text: String::new(),
            markdown: String::new(),
            holds,
        }
    }

    #[test]
    fn a_failing_section_fails_the_run() {
        let out = std::env::temp_dir().join(format!("exp-bench-test-{}.json", std::process::id()));
        let written = |sections: &[Entry]| {
            let holds = run(sections, true, &out);
            let file = std::fs::read_to_string(&out).expect("the file is written");
            std::fs::remove_file(&out).expect("remove the test file");
            (holds, file)
        };
        let head = "{\n  \"schema\": \"p2p-ltr/bench-hotpath/v1\",\n  \"quick\": true,\n";
        let (holds, file) = written(&[("ok", |_| section(true))]);
        assert!(holds);
        let ok_rows = "  \"rows_true\": [\n    {\"holds\": true}\n  ]";
        assert_eq!(file, format!("{head}{ok_rows}\n}}\n"));
        let (holds, file) = written(&[("ok", |_| section(true)), ("bad", |_| section(false))]);
        assert!(!holds);
        assert_eq!(
            file,
            format!("{head}{ok_rows},\n  \"rows_false\": [\n    {{\"holds\": false}}\n  ]\n}}\n")
        );
    }

    #[test]
    fn only_quick_and_out_are_accepted() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()));
        assert_eq!(parse(&[]), Ok((false, PathBuf::from("BENCH_hotpath.json"))));
        assert_eq!(
            parse(&["--out", "x.json", "--quick"]),
            Ok((true, PathBuf::from("x.json")))
        );
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--require-net"]).is_err());
    }
}
