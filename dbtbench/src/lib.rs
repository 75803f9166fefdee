//! # smarq-dbtbench — end-to-end benchmark of the SMARQ dynamic optimizer
//!
//! A closed-loop batch benchmark: one client runs seeded guest programs back
//! to back through the public runtime API, in one process, and checks every
//! result bit for bit against plain interpretation. Three workloads stress
//! different layers (see [`inputs::Workload`]).
//!
//! The untraced run ([`end_to_end`]) reports what a user of the system
//! sees. The traced run ([`trace::traced`]) times every dispatch step from
//! outside, attributes it to a layer by the statistics it moved, and
//! replays the translation sub-layers of every formed region.

pub mod inputs;
pub mod report;
pub mod run;
pub mod trace;

use inputs::{Inputs, Workload};
use report::Metrics;
use run::{Counts, Failure, Pass};
use std::time::Duration;

/// The seed the benchmark runs when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, to confirm a claim made on other seeds.
pub const HELD_OUT_SEED: u64 = 20_121_205;

/// What one benchmark run found, besides its metrics.
#[derive(Debug)]
pub struct Outcome {
    /// Every program matched its reference and every pass repeated the
    /// first pass's exact counts (see [`Counts::repeated_by`]).
    pub correct: bool,
    /// Programs attempted.
    pub attempted: u64,
    /// Programs failed.
    pub failed: u64,
    /// The first failure, if any.
    pub first_failure: Option<Failure>,
    /// Exact counts of one pass.
    pub counts: Counts,
    /// Passes whose counts differ from the first pass's.
    pub count_mismatches: Vec<Counts>,
}

impl Outcome {
    /// Folds checked passes into an outcome; the first pass's counts are
    /// the reference every later pass must repeat.
    pub fn of<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> Outcome {
        let mut out = Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            first_failure: None,
            counts: Counts::default(),
            count_mismatches: Vec::new(),
        };
        for (i, p) in passes.into_iter().enumerate() {
            out.attempted += p.attempted;
            out.failed += p.failures.len() as u64;
            if out.first_failure.is_none() {
                out.first_failure = p.failures.first().cloned();
            }
            if i == 0 {
                out.counts = p.counts;
            } else if !out.counts.repeated_by(&p.counts, p.threaded) {
                out.count_mismatches.push(p.counts);
            }
        }
        out.correct = out.failed == 0 && out.count_mismatches.is_empty();
        out
    }

    /// Adds the programs and failures of a pass whose counts are not
    /// comparable with the others (a different schedule).
    pub fn absorb_failures(&mut self, p: &Pass) {
        self.attempted += p.attempted;
        self.failed += p.failures.len() as u64;
        if self.first_failure.is_none() {
            self.first_failure = p.failures.first().cloned();
        }
        self.correct &= p.failures.is_empty();
    }
}

/// The untraced run: the closed loop for `seconds`, reduced to the
/// end-to-end metrics over each program's fastest run (see
/// [`run::Measurement::best_program_ms`]).
pub fn end_to_end(inputs: &Inputs, seconds: Duration) -> Result<(Metrics, Outcome), String> {
    let m = run::measure(inputs, seconds);
    let outcome = Outcome::of(std::iter::once(&m.warmup).chain(&m.passes));
    let best = m.best_program_ms();
    let (tail_p, tail_ms) = report::tail(&best)
        .ok_or_else(|| format!("{} programs are too few for a tail percentile", best.len()))?;
    eprintln!(
        "{}: seed {} passes {} programs {}; tail = p{tail_p} of {} per-program times",
        inputs.workload.name(),
        inputs.seed,
        m.passes.len(),
        outcome.attempted,
        best.len()
    );
    let best_s: f64 = best.iter().sum::<f64>() / 1e3;
    let mut metrics = Metrics::default();
    metrics.add(
        "guest_mips",
        outcome.counts.guest_instrs as f64 / best_s / 1e6,
        "MIPS",
    );
    metrics.add("program_ms_p50", report::median(&best), "ms");
    metrics.add("program_ms_tail", tail_ms, "ms");
    metrics.add("sim_cycles", outcome.counts.sim_cycles as f64, "cycles");
    let ok = 1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64;
    metrics.add("ok_frac", ok, "frac");
    metrics.add("peak_rss_mb", report::peak_rss_mb()?, "MiB");
    metrics.add("setup_s", m.best_setup_s(), "s");
    Ok((metrics, outcome))
}

/// Parses a workload name, listing the valid ones on error.
pub fn parse_workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (expected one of {names:?})")
    })
}
