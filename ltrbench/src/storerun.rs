//! `store_journal`: the on-disk journal alone. One closed-loop client
//! appends entries in the mix a peer writes to a `FileStore` with the
//! shipped configuration (a Merkle checkpoint, two `sync_all`s, every 128
//! appends and at every segment seal), then the handle is dropped and
//! the journal is recovered — opened, replayed, verified and reduced to
//! the peer's tables — the way a restarted peer would.
//!
//! The store does all the work here and none in the `sim_*` workloads.
//! The protocol metrics read naturally on it: an entry is *stamped* when
//! `append` returns and, having no other replica to reach, *converged*
//! at the same instant; the *outage* is how long the recovery takes.
//!
//! Wall-clock append throughput follows the disk: on the virtual disks
//! this benchmark runs on, the latency of one `sync_all` drifts by ±20 %
//! from minute to minute, and the kernel's CPU share drifts with it. So
//! `cpu_us_per_edit` counts user-mode CPU only here and `goodput_eps` is
//! entries per second of it — what the store's own code costs. The
//! wall-clock figure and the kernel's share are per-layer metrics
//! (`store.append_us`, `store.sys_cpu_us`).

use std::path::Path;
use std::time::Instant;

use store::{FileStore, RecoveredState, Store, StoreConfig, StoreEntry};

use crate::layers::{self, journal_entries, Corpus};
use crate::report::RunResult;
use crate::stats::{cpu_micros, median, metric, percentile, ratio, sorted, user_cpu_micros};
use crate::trace::Trace;
use crate::Args;

/// Entries appended per `--seconds` second.
const ENTRIES_PER_SECOND: usize = 24_000;
/// Set-ups per run; `setup_s` is their median. A set-up takes 60 ms here,
/// so it is cheap to make many.
const SETUPS: usize = 9;
/// Passes over the window, after each of the last set-ups.
const PASSES: usize = 3;
/// Recoveries of the finished journal; `outage_ms` is the quickest.
const RECOVERIES: usize = 3;

/// Generate the run's entries and open an empty journal.
fn set_up(seed: u64, n: usize, dir: &Path) -> (Vec<StoreEntry>, FileStore) {
    let _ = std::fs::remove_dir_all(dir);
    let entries = journal_entries(seed, n);
    let (store, _) = FileStore::open(dir, StoreConfig::default()).expect("create journal");
    (entries, store)
}

/// Segment files and total bytes of one journal directory.
pub fn dir_size(dir: &Path) -> (u64, u64) {
    let mut segments = 0;
    let mut bytes = 0;
    for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        bytes += e.metadata().map_or(0, |m| m.len());
        segments += e.file_name().to_string_lossy().starts_with("seg-") as u64;
    }
    (segments, bytes)
}

/// Delete a journal and push the deletion to disk now, so that the file
/// system's work for it (journal commit, discards) is paid here and not
/// inside the next pass's or the next run's window.
fn discard(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::File::open(parent).and_then(|d| d.sync_all());
    }
}

/// One pass over the window: every entry appended to a fresh journal.
struct Pass {
    /// User-mode CPU time of the pass, µs.
    user_us: f64,
    /// User + kernel CPU time of the pass, µs.
    cpu_us: f64,
    wall_s: f64,
    /// Wall time of each `append`, ms, ascending.
    append_ms: Vec<f64>,
    errors: u64,
}

/// Append `entries` to `store`, timing each call.
fn append_all(store: &mut FileStore, entries: &[StoreEntry]) -> Pass {
    let mut append_ms = Vec::with_capacity(entries.len());
    let mut errors = 0u64;
    let wall0 = Instant::now();
    let (cpu0, user0) = (cpu_micros(), user_cpu_micros());
    for e in entries {
        let t = Instant::now();
        errors += store.append(e).is_err() as u64;
        append_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Pass {
        user_us: (user_cpu_micros() - user0) as f64,
        cpu_us: (cpu_micros() - cpu0) as f64,
        wall_s: wall0.elapsed().as_secs_f64(),
        append_ms: sorted(append_ms),
        errors,
    }
}

/// The least of the passes' values of `f`.
fn least(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    passes.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// Run `store_journal`.
pub fn run(args: &Args) -> RunResult {
    let dir = crate::scratch_dir().join("journal");
    let n = args.seconds as usize * ENTRIES_PER_SECOND;
    // The window is run after each of the last `PASSES` set-ups: every
    // pass appends the same entries to an empty journal, so what one pass
    // takes longer than another is the machine's doing, not the store's,
    // and each timing is the least of the passes'. The last pass's
    // journal is the one recovered and checked.
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut built = None;
    for rep in 0..SETUPS {
        if built.take().is_some() {
            discard(&dir);
        }
        let t = Instant::now();
        let (entries, mut store) = set_up(args.seed, n, &dir);
        setups.push(t.elapsed().as_secs_f64());
        if rep + PASSES >= SETUPS {
            passes.push(append_all(&mut store, &entries));
        }
        drop(store);
        built = Some(entries);
    }
    let entries = built.expect("SETUPS >= 1");
    let errors: u64 = passes.iter().map(|p| p.errors).sum();
    let appended = (n * passes.len()) as u64;
    let user_us = least(&passes, |p| p.user_us);
    let wall_s = least(&passes, |p| p.wall_s);

    // Recovery, several times over the same journal.
    let mut trace = Trace::new("store_journal", args.seed);
    let mut recover_ms = Vec::new();
    let mut verified = true;
    let mut replay_s = 0.0;
    for _ in 0..RECOVERIES {
        let (ok, took) = trace.probe("store.recover", || {
            let t = Instant::now();
            let Ok((_, replay)) = FileStore::open(&dir, StoreConfig::default()) else {
                return false;
            };
            replay_s = t.elapsed().as_secs_f64();
            let state = RecoveredState::rebuild(&replay.entries);
            // Output check: what comes back is what was appended, in
            // order, verified by the last checkpoint, and it reduces to
            // a non-empty state.
            replay.entries == entries
                && replay.stats.torn_bytes == 0
                && replay.stats.verified_entries.is_some()
                && !state.is_empty()
        });
        verified &= ok;
        recover_ms.push(took.as_secs_f64() * 1e3);
    }
    let (segments, bytes) = dir_size(&dir);
    let correct = verified && errors == 0;
    let mut notes = vec![format!(
        "outputs: {} entries appended {} times over, quickest in {wall_s:.2} s, {errors} errors, \
         replay {} the appended entries over {RECOVERIES} recoveries; {segments} segments, \
         {bytes} bytes",
        n,
        passes.len(),
        if verified { "equals" } else { "DIFFERS FROM" },
    )];

    let p50 = least(&passes, |p| percentile(&p.append_ms, 0.50));
    let p90 = least(&passes, |p| percentile(&p.append_ms, 0.90));
    let p99 = least(&passes, |p| percentile(&p.append_ms, 0.99));
    let recover_ms = recover_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let end_to_end = vec![
        metric("setup_s", median(&setups), "s", setups.len()),
        metric("stamp_p50_ms", p50, "ms", n),
        metric("stamp_p90_ms", p90, "ms", n),
        metric("converge_p50_ms", p50, "ms", n),
        metric("converge_p90_ms", p90, "ms", n),
        metric("goodput_eps", ratio(n as f64 * 1e6, user_us), "1/s", n),
        metric(
            "done_ratio",
            ratio((appended - errors) as f64, appended as f64),
            "ratio",
            appended as usize,
        ),
        metric("cpu_us_per_edit", ratio(user_us, n as f64), "us", n),
        metric("outage_ms", recover_ms, "ms", RECOVERIES),
    ];

    let mut per_layer = Vec::new();
    if args.trace {
        let mut values = layers::Values::new();
        values.insert("store.appends_per_edit", 1.0);
        values.insert("store.append_errors", errors as f64);
        values.insert("store.append_us", ratio(wall_s * 1e6, n as f64));
        values.insert("store.recover_ms", recover_ms);
        values.insert("store.segments", segments as f64);
        values.insert("store.bytes_per_entry", ratio(bytes as f64, n as f64));
        values.insert("core.stamp_p99_ms", p99);
        values.insert("core.converge_p99_ms", p99);
        values.insert("trace.cpu_us_per_edit", ratio(user_us, n as f64));
        values.insert(
            "store.sys_cpu_us",
            ratio(least(&passes, |p| p.cpu_us - p.user_us), n as f64),
        );
        layers::probes(&Corpus::default(), &[], &mut values, &mut trace);
        // The probe replays a 20 k journal; this workload has the real one.
        values.insert("store.replay_entries_per_s", ratio(n as f64, replay_s));
        per_layer = layers::finish(&values);
    }
    if args.trace {
        notes.push(trace.write());
    }
    discard(&dir);

    RunResult {
        correct,
        attempted: appended,
        failed: if correct { errors } else { appended },
        end_to_end,
        per_layer,
        notes,
    }
}
