//! The span file of a traced run. Spans are kept in memory and written
//! once, at the end: one JSON object per line with `span`, `parent`,
//! `name`, `start_us`, `end_us` and the `(doc, ts)` id the spans of one
//! edit share. Edit spans are on the protocol clock (simulated or wall
//! µs since the network was built); probe spans are wall µs since the
//! probes began and carry no id.

use std::fmt::Write as _;
use std::time::Instant;

use crate::report::WindowSummary;

/// Spans collected during one traced run.
pub struct Trace {
    workload: &'static str,
    seed: u64,
    lines: String,
    next: u64,
    probes_began: Instant,
}

impl Trace {
    /// An empty trace for `workload` run with `seed`.
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Trace {
            workload,
            seed,
            lines: String::new(),
            next: 0,
            probes_began: Instant::now(),
        }
    }

    fn span(
        &mut self,
        parent: Option<u64>,
        name: &str,
        start: u64,
        end: u64,
        id: Option<(u32, u64)>,
    ) -> u64 {
        let span = self.next;
        self.next += 1;
        let parent = parent.map_or("null".to_owned(), |p| p.to_string());
        let id = id.map_or("null".to_owned(), |(d, ts)| format!("[{d},{ts}]"));
        let _ = writeln!(
            self.lines,
            "{{\"span\":{span},\"parent\":{parent},\"name\":\"{name}\",\"start_us\":{start},\"end_us\":{end},\"id\":{id}}}"
        );
        span
    }

    /// One root span `edit` (due → converged) per converged save of the
    /// window, with children `to_grant`, `grant_delivery`, `propagation`
    /// that tile it exactly.
    pub fn edits(&mut self, w: &WindowSummary) {
        for &(doc, ts, due, granted, stamped, done) in &w.spans {
            let id = Some((doc, ts));
            let root = self.span(None, "edit", due, done, id);
            self.span(Some(root), "to_grant", due, granted, id);
            self.span(Some(root), "grant_delivery", granted, stamped, id);
            self.span(Some(root), "propagation", stamped, done, id);
        }
    }

    /// Time one probe batch and record it as `probe.<layer>.<fn>`.
    pub fn probe<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, std::time::Duration) {
        let start = self.probes_began.elapsed();
        let t = Instant::now();
        let out = f();
        let took = t.elapsed();
        self.span(
            None,
            &format!("probe.{name}"),
            start.as_micros() as u64,
            (start + took).as_micros() as u64,
            None,
        );
        (out, took)
    }

    /// Write the file under the work directory; returns a note naming it.
    pub fn write(self) -> String {
        let dir = crate::work_dir().join("trace");
        let path = dir.join(format!("{}-{}.jsonl", self.workload, self.seed));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &self.lines)) {
            Ok(()) => format!("trace: {} spans in {}", self.next, path.display()),
            Err(e) => format!("trace: could not write {}: {e}", path.display()),
        }
    }
}
