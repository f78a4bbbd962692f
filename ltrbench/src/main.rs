//! `ltrbench` — the stamped-edit benchmark of the P2P-LTR reproduction.
//!
//! One command measures what the paper's product costs: a *stamped edit*
//! (save → `ht(doc)` lookup → `Validate` → probe/fence → publish at
//! `h1..hn` → `Granted` → every open replica integrates), end to end and
//! layer by layer, on the simulator, over real sockets and on the on-disk
//! journal. See `README.md` next to this package and `BENCHMARK.json` at
//! the repository root for the contract.
//!
//! ```text
//! ltrbench --workload <name|all> --seed <u64> --seconds <n> --trace <0|1>
//!          [--out <file>] [--selftest]
//! ```
//!
//! Every number is taken from outside the product crates; the benchmark
//! claims no gain.

#![warn(missing_docs)]

mod layers;
mod load;
mod report;
mod simrun;
mod sockrun;
mod stats;
mod storerun;
mod trace;

use std::io::Write;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use report::RunResult;
use stats::Metric;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 5] = [
    "sim_collab",
    "sim_hotdoc",
    "sim_faults",
    "sock_collab",
    "store_journal",
];

/// Seed used when `--seed` is absent (recorded in `BENCHMARK.json`).
const DEFAULT_SEED: u64 = 20080824;
/// `--seconds` used when absent (`run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 10;
/// A workload that runs this long is stuck: exit non-zero, do not hang.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Parsed command line.
#[derive(Clone)]
pub struct Args {
    workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Nominal length of the measured window.
    pub seconds: u64,
    /// Traced run: per-layer metrics and the span file.
    pub trace: bool,
    out: Option<PathBuf>,
    selftest: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: ltrbench --workload <{}|all> [--seed <u64>] [--seconds <1..60>] \
         [--trace <0|1>] [--out <file>] [--selftest]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value())),
            "--selftest" => args.selftest = true,
            _ => usage(),
        }
    }
    if !(1..=60).contains(&args.seconds)
        || (args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()))
    {
        usage();
    }
    args
}

/// Where the benchmark may write: next to its own executable, inside the
/// build directory of the checkout (never a system temp directory).
pub fn work_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("ltrbench-work")
}

/// This process's scratch directory (journals); removed on exit.
pub fn scratch_dir() -> PathBuf {
    work_dir().join(format!("tmp-{}", std::process::id()))
}

fn clean_scratch() {
    let _ = std::fs::remove_dir_all(scratch_dir());
}

/// Print one line; a closed pipe (`ltrbench | head`) ends the run quietly.
fn emit(line: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = writeln!(out, "{line}").and_then(|_| out.flush()) {
        clean_scratch();
        std::process::exit(if e.kind() == std::io::ErrorKind::BrokenPipe {
            0
        } else {
            1
        });
    }
}

fn run_workload(name: &str, args: &Args) -> RunResult {
    // The watchdog: a workload that never finishes becomes a non-zero
    // exit with a message. The channel lets a finished run dismiss it.
    let (done, wait) = mpsc::channel::<()>();
    let label = name.to_owned();
    let dog = std::thread::spawn(move || {
        if wait.recv_timeout(WATCHDOG) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!("ltrbench: workload {label} exceeded {WATCHDOG:?}; giving up");
            clean_scratch();
            std::process::exit(3);
        }
    });
    let dispatch = |args: &Args| match name {
        "sim_collab" => simrun::run(&simrun::COLLAB, args),
        "sim_hotdoc" => simrun::run(&simrun::HOTDOC, args),
        "sim_faults" => simrun::run(&simrun::FAULTS, args),
        "sock_collab" => sockrun::run(args),
        "store_journal" => storerun::run(args),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let mut result = dispatch(args);
    if args.trace {
        // Tracing overhead: the same workload and seed once more, untraced.
        let plain = dispatch(&Args {
            trace: false,
            ..args.clone()
        });
        let cpu = |r: &RunResult| {
            r.end_to_end
                .iter()
                .find(|m| m.name == "cpu_us_per_edit")
                .map_or(0.0, |m| m.value)
        };
        let overhead = stats::ratio(cpu(&result), cpu(&plain));
        if let Some(m) = result
            .per_layer
            .iter_mut()
            .find(|m| m.name == "trace.overhead_ratio")
        {
            m.value = overhead;
        }
    }
    drop(done);
    dog.join().expect("watchdog thread panicked");
    result
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The contract's result object, one line.
fn json_result(r: &RunResult, trace: bool) -> String {
    let metrics = if trace { &r.per_layer } else { &r.end_to_end };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        json_metrics(metrics)
    )
}

fn report(name: &str, r: &RunResult, trace: bool) {
    for note in &r.notes {
        emit(&format!("# {name} {note}"));
    }
    let metrics = if trace { &r.per_layer } else { &r.end_to_end };
    for m in metrics {
        let n = if m.samples > 0 {
            format!(" (n={})", m.samples)
        } else {
            String::new()
        };
        emit(&format!("{name} {} {} {}{n}", m.name, m.value, m.unit));
    }
}

/// `--selftest`: simulated-time metrics and counts must repeat bit for
/// bit; wall-clock metrics are shown with their run-to-run spread.
fn selftest(args: &Args) -> bool {
    let verdict = |same: bool| {
        if same {
            "repeats exactly"
        } else {
            "DIFFERS BETWEEN RUNS"
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        let runs: Vec<RunResult> = (0..3).map(|_| run_workload(name, args)).collect();
        ok &= runs.iter().all(|r| r.correct);
        for (i, m) in runs[0].end_to_end.iter().enumerate() {
            let vals: Vec<f64> = runs.iter().map(|r| r.end_to_end[i].value).collect();
            let wall =
                !name.starts_with("sim_") || m.name == "setup_s" || m.name == "cpu_us_per_edit";
            if wall {
                let s = stats::sorted(vals);
                emit(&format!(
                    "{name} {} min {} median {} max {} {} (wall clock, 3 runs)",
                    m.name, s[0], s[1], s[2], m.unit
                ));
            } else {
                let same = vals.iter().all(|v| v.to_bits() == vals[0].to_bits());
                ok &= same;
                emit(&format!(
                    "{name} {} {} {} ({})",
                    m.name,
                    vals[0],
                    m.unit,
                    verdict(same)
                ));
            }
        }
        if name.starts_with("sim_") {
            let same = runs
                .iter()
                .all(|r| (r.attempted, r.failed) == (runs[0].attempted, runs[0].failed));
            ok &= same;
            emit(&format!(
                "{name} attempted {} failed {} ({})",
                runs[0].attempted,
                runs[0].failed,
                verdict(same)
            ));
        }
    }
    ok
}

fn main() {
    let args = parse_args();
    if args.selftest {
        let ok = selftest(&args);
        clean_scratch();
        emit(if ok { "selftest OK" } else { "selftest FAILED" });
        std::process::exit(if ok { 0 } else { 1 });
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_ok = true;
    let mut lines = Vec::new();
    for name in names {
        let r = run_workload(name, &args);
        report(name, &r, args.trace);
        all_ok &= r.correct;
        lines.push((name, json_result(&r, args.trace)));
    }
    clean_scratch();
    if let Some(path) = &args.out {
        let body: Vec<String> = lines.iter().map(|(n, l)| format!("\"{n}\": {l}")).collect();
        if let Err(e) = std::fs::write(path, format!("{{{}}}\n", body.join(",\n "))) {
            eprintln!("ltrbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    for (_, line) in &lines {
        emit(line);
    }
    if !all_ok {
        eprintln!("ltrbench: an output check failed");
        std::process::exit(1);
    }
}
