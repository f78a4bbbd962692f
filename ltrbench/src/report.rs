//! What a finished run reports: the verdict, the operation counts and
//! the metric list, plus the reduction of a protocol window's beats to
//! the end-to-end numbers.

use simnet::Time;

use crate::load::{Load, Outcome, Phase};
use crate::stats::{metric, percentile, ratio, sorted, Metric};

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (saves injected, or entries appended).
    pub attempted: u64,
    /// Operations that never completed — all of them when a check failed.
    pub failed: u64,
    /// End-to-end metrics (always) …
    pub end_to_end: Vec<Metric>,
    /// … and per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines about the checks (printed before the result).
    pub notes: Vec<String>,
}

/// The beats of the measured window, reduced.
#[derive(Debug, Default)]
pub struct WindowSummary {
    /// Beats that fell due in the window (refused ones included).
    pub due: usize,
    /// Beats that waited for the session's previous save.
    pub held: usize,
    /// Beats refused because one was already held.
    pub refused: usize,
    /// Saves whose patch cancelled to nothing.
    pub absorbed: usize,
    /// Saves that got a timestamp.
    pub stamped: usize,
    /// Stamped saves every holder integrated.
    pub converged: usize,
    /// Due → `OwnPublished`, ms, ascending.
    pub stamp_ms: Vec<f64>,
    /// Due → last `Integrated`, ms, ascending.
    pub converge_ms: Vec<f64>,
    /// Due → `MasterGranted`, ms, ascending.
    pub to_grant_ms: Vec<f64>,
    /// `MasterGranted` → `OwnPublished`, ms, ascending.
    pub grant_delivery_ms: Vec<f64>,
    /// `OwnPublished` → last `Integrated`, ms, ascending.
    pub propagation_ms: Vec<f64>,
    /// `Integrated` events per stamped save.
    pub integrations: u64,
    /// Largest lateness of a beat that was not held, ms.
    pub late_ms_max: f64,
    /// One span tuple per converged save, for the trace file:
    /// `(doc, ts, due, granted, stamped, converged)` in protocol µs.
    pub spans: Vec<(u32, u64, u64, u64, u64, u64)>,
}

fn ms(from: Time, to: Time) -> f64 {
    to.since(from).as_millis_f64()
}

impl WindowSummary {
    /// Reduce the window beats of `load`. Call before the crash drill:
    /// convergence is judged against the holders of each document now.
    pub fn of(load: &Load) -> Self {
        let mut w = WindowSummary::default();
        for b in load.beats.iter().filter(|b| b.phase == Phase::Window) {
            w.due += 1;
            w.held += b.held as usize;
            if !b.held && b.outcome != Outcome::Refused {
                w.late_ms_max = w.late_ms_max.max(ms(b.due, b.issued));
            }
            match b.outcome {
                Outcome::Refused => w.refused += 1,
                Outcome::Absorbed => w.absorbed += 1,
                Outcome::Stamped { at, ts } => {
                    w.stamped += 1;
                    w.stamp_ms.push(ms(b.due, at));
                    let slot = load.slots.get(&(b.doc, ts)).copied().unwrap_or_default();
                    w.integrations += slot.integrations as u64;
                    let holders = load.holders[b.doc as usize].len() as u32;
                    if slot.integrations >= holders {
                        let done = slot.last_integrated.max(at);
                        w.converged += 1;
                        w.converge_ms.push(ms(b.due, done));
                        w.propagation_ms.push(ms(at, done));
                        // A grant the master could not record (it only
                        // shows in the replicas' events) has no span.
                        if let Some(g) = slot.granted {
                            let g = g.max(b.due).min(at);
                            w.to_grant_ms.push(ms(b.due, g));
                            w.grant_delivery_ms.push(ms(g, at));
                            w.spans.push((
                                b.doc,
                                ts,
                                b.due.as_micros(),
                                g.as_micros(),
                                at.as_micros(),
                                done.as_micros(),
                            ));
                        }
                    }
                }
                Outcome::Pending | Outcome::PeerCrashed => {}
            }
        }
        for v in [
            &mut w.stamp_ms,
            &mut w.converge_ms,
            &mut w.to_grant_ms,
            &mut w.grant_delivery_ms,
            &mut w.propagation_ms,
        ] {
            *v = sorted(std::mem::take(v));
        }
        w
    }

    /// Pool another ring's window into this one. `doc_base` keeps the
    /// span ids of different rings apart.
    pub fn merge(&mut self, o: &WindowSummary, doc_base: u32) {
        self.due += o.due;
        self.held += o.held;
        self.refused += o.refused;
        self.absorbed += o.absorbed;
        self.stamped += o.stamped;
        self.converged += o.converged;
        self.integrations += o.integrations;
        self.late_ms_max = self.late_ms_max.max(o.late_ms_max);
        for (mine, theirs) in [
            (&mut self.stamp_ms, &o.stamp_ms),
            (&mut self.converge_ms, &o.converge_ms),
            (&mut self.to_grant_ms, &o.to_grant_ms),
            (&mut self.grant_delivery_ms, &o.grant_delivery_ms),
            (&mut self.propagation_ms, &o.propagation_ms),
        ] {
            mine.extend(theirs);
            *mine = sorted(std::mem::take(mine));
        }
        self.spans.extend(
            o.spans
                .iter()
                .map(|&(d, ts, a, b, c, e)| (d + doc_base, ts, a, b, c, e)),
        );
    }

    /// The eight end-to-end metrics a protocol window yields (`setup_s`
    /// is added by the caller). `window_s` is the window in protocol
    /// seconds, `cpu_us_per_edit` the process CPU time spent over it per
    /// stamped edit, `outage_ms` the drill's figure over `drills` drills.
    pub fn end_to_end(
        &self,
        window_s: f64,
        cpu_us_per_edit: f64,
        outage_ms: f64,
        drills: usize,
    ) -> Vec<Metric> {
        let n = self.stamp_ms.len();
        let c = self.converge_ms.len();
        vec![
            metric("stamp_p50_ms", percentile(&self.stamp_ms, 0.50), "ms", n),
            metric("stamp_p90_ms", percentile(&self.stamp_ms, 0.90), "ms", n),
            metric(
                "converge_p50_ms",
                percentile(&self.converge_ms, 0.50),
                "ms",
                c,
            ),
            metric(
                "converge_p90_ms",
                percentile(&self.converge_ms, 0.90),
                "ms",
                c,
            ),
            metric("goodput_eps", ratio(n as f64, window_s), "1/s", n),
            metric(
                "done_ratio",
                ratio((self.stamped + self.absorbed) as f64, self.due as f64),
                "ratio",
                self.due,
            ),
            metric("cpu_us_per_edit", cpu_us_per_edit, "us", n),
            metric("outage_ms", outage_ms, "ms", drills),
        ]
    }
}
