//! The untraced closed loop: one client runs the workload's programs back
//! to back, one pass over the inputs after another, and checks every
//! result against its reference.

use crate::inputs::{Case, Inputs, Workload};
use smarq::range::NospecRanges;
use smarq_runtime::{
    run_multi, DynOptSystem, ExecTier, GuestContext, HubConfig, HubStats, StopReason, SystemConfig,
    SystemStats, TranslationHub, DEFAULT_SLICE_STEPS,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The system configuration of a workload, pinned explicitly so no
/// `SMARQ_*` environment variable can change what is measured.
pub fn system_config(workload: Workload) -> SystemConfig {
    let (exec_tier, verify_translations) = match workload {
        Workload::SpecCycle => (ExecTier::CycleSim, false),
        Workload::TranslateChurn => (ExecTier::Functional, true),
        Workload::MultiguestFast => (ExecTier::Functional, false),
    };
    let mut cfg = SystemConfig {
        exec_tier,
        verify_translations,
        async_translate: false,
        nospec_ranges: NospecRanges::none(),
        ..SystemConfig::default()
    };
    cfg.opt.nospec = NospecRanges::none();
    cfg
}

/// The hub configuration of `multiguest_fast`: inline translation (no
/// worker threads).
pub fn hub_config() -> HubConfig {
    let mut cfg = HubConfig::from_system(&system_config(Workload::MultiguestFast));
    cfg.workers = 0;
    cfg
}

/// Scheduler threads of `multiguest_fast`: the host's parallelism, at
/// most two.
pub fn scheduler_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Deterministic counts of one pass. Two passes over the same inputs
/// must produce equal counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Guest instructions retired (interpreted plus in regions).
    pub guest_instrs: u64,
    /// Modeled cycles: interpretation plus cycle-simulated regions. On
    /// the functional tier regions carry no timing model, so this is the
    /// interpreted share only.
    pub sim_cycles: u64,
    /// First translations plus conservative retranslations.
    pub regions_translated: u64,
    /// Alias-exception rollbacks.
    pub rollbacks: u64,
    /// Translations published by the shared hub (`multiguest_fast` only).
    pub hub_translations: u64,
}

impl Counts {
    /// Adds a single-guest system, which translates for itself.
    pub(crate) fn add_system(&mut self, s: &SystemStats) {
        self.add_guest(s);
        self.regions_translated += (s.regions_formed + s.retranslations) as u64;
        self.rollbacks += s.rollbacks;
    }

    /// Adds a hub guest (its translations are counted by [`Self::add_hub`]).
    pub(crate) fn add_guest(&mut self, s: &SystemStats) {
        self.guest_instrs += s.guest_instrs();
        self.sim_cycles += s.total_cycles();
    }

    /// Adds a batch's hub.
    pub(crate) fn add_hub(&mut self, h: &HubStats) {
        self.regions_translated += h.translations_started + h.retranslations;
        self.rollbacks += h.rollbacks;
        self.hub_translations += h.translations_published;
    }

    /// Whether `other` repeats these counts: exactly, or, after a threaded
    /// multi-guest schedule, in the counts no interleaving can change
    /// (which regions the hub translated and published). How long a guest
    /// interprets while another translates, and whether two copies both
    /// roll back on one stale region, depend on the interleaving.
    pub fn repeated_by(&self, other: &Counts, threaded: bool) -> bool {
        if threaded {
            self.regions_translated == other.regions_translated
                && self.hub_translations == other.hub_translations
        } else {
            self == other
        }
    }

    /// The counts as `name=value` pairs.
    pub fn fields(&self) -> [(&'static str, u64); 5] {
        [
            ("guest_instrs", self.guest_instrs),
            ("sim_cycles", self.sim_cycles),
            ("regions_translated", self.regions_translated),
            ("rollbacks", self.rollbacks),
            ("hub_translations", self.hub_translations),
        ]
    }
}

/// A program that failed: which one, and why.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The case's label.
    pub label: String,
    /// What went wrong.
    pub reason: String,
}

/// The result of one pass over a workload's inputs.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Exact counts.
    pub counts: Counts,
    /// Host milliseconds per program (per batch on `multiguest_fast`), in
    /// input order.
    pub program_ms: Vec<f64>,
    /// Host seconds spent running programs (construction excluded).
    pub run_s: f64,
    /// Host seconds spent constructing systems, hubs and contexts.
    pub setup_s: f64,
    /// Programs attempted.
    pub attempted: u64,
    /// Programs that failed.
    pub failures: Vec<Failure>,
    /// The hub's counters after each batch (`multiguest_fast` only).
    pub hub: Vec<HubStats>,
    /// Guests ran on more than one scheduler thread.
    pub threaded: bool,
}

/// Checks a finished guest against its reference and the runtime's own
/// error counters.
pub fn check_guest(
    case: &Case,
    halted: bool,
    stats: &SystemStats,
    state: smarq_guest::ArchState,
) -> Result<(), String> {
    if !halted {
        return Err("did not halt within its budget".into());
    }
    if stats.verify_errors != 0 || stats.chain_errors != 0 {
        return Err(format!(
            "verify_errors={} chain_errors={}",
            stats.verify_errors, stats.chain_errors
        ));
    }
    if stats.tier_sample_mismatches != 0 {
        return Err(format!(
            "tier_sample_mismatches={}",
            stats.tier_sample_mismatches
        ));
    }
    if state.regs != case.reference.regs {
        return Err("integer registers differ from the reference".into());
    }
    if state.fregs != case.reference.fregs {
        return Err("FP registers differ from the reference".into());
    }
    if state.mem != case.reference.mem {
        return Err("memory differs from the reference".into());
    }
    Ok(())
}

/// Checks the hub's ledger after a batch: nothing left in flight, no
/// verify errors, every started translation accounted for.
pub fn check_hub(s: &HubStats) -> Result<(), String> {
    if s.inflight_keys != 0
        || s.verify_errors != 0
        || s.translations_started + s.retranslations
            != s.translations_published + s.publish_conflicts
    {
        return Err(format!("hub ledger does not balance: {s:?}"));
    }
    Ok(())
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// One pass of a single-guest workload: every case on its own system. All
/// systems are set up first, back to back, then run one after another.
fn single_guest_pass(inputs: &Inputs, cfg: &SystemConfig) -> Pass {
    let mut pass = Pass::default();
    let parts: Vec<_> = inputs
        .cases
        .iter()
        .map(|c| (c.program.clone(), cfg.clone()))
        .collect();
    let t0 = Instant::now();
    let systems: Vec<_> = parts
        .into_iter()
        .map(|(p, cfg)| catch_unwind(AssertUnwindSafe(|| DynOptSystem::new(p, cfg))))
        .collect();
    pass.setup_s = t0.elapsed().as_secs_f64();
    for (case, sys) in inputs.cases.iter().zip(systems) {
        pass.attempted += 1;
        let verdict = match sys {
            Ok(mut sys) => {
                let t1 = Instant::now();
                let stop = catch_unwind(AssertUnwindSafe(|| sys.run_to_completion(case.budget())));
                let run_s = t1.elapsed().as_secs_f64();
                pass.run_s += run_s;
                pass.program_ms.push(run_s * 1e3);
                match stop {
                    Ok(stop) => {
                        pass.counts.add_system(sys.stats());
                        let halted = stop == StopReason::Halted;
                        check_guest(case, halted, sys.stats(), sys.interp().arch_state())
                    }
                    Err(p) => Err(format!("panicked: {}", panic_message(&*p))),
                }
            }
            Err(p) => {
                pass.program_ms.push(0.0);
                Err(format!("set-up panicked: {}", panic_message(&*p)))
            }
        };
        if let Err(reason) = verdict {
            pass.failures.push(Failure {
                label: case.label.clone(),
                reason,
            });
        }
    }
    pass
}

/// One pass of `multiguest_fast`: every batch, each over a fresh hub.
fn multiguest_pass(inputs: &Inputs, threads: usize) -> Pass {
    let mut pass = Pass {
        threaded: threads > 1,
        ..Pass::default()
    };
    for batch in &inputs.batches {
        run_batch(&mut pass, inputs, batch, threads);
    }
    pass
}

/// Runs one batch of guests (indices into `inputs.cases`) over a fresh
/// hub on `threads` scheduler threads, folding it into `pass`.
fn run_batch(pass: &mut Pass, inputs: &Inputs, batch: &[usize], threads: usize) {
    let programs: Vec<_> = batch
        .iter()
        .map(|&i| inputs.cases[i].program.clone())
        .collect();
    let budget = batch
        .iter()
        .map(|&i| inputs.cases[i].budget())
        .max()
        .unwrap_or(0);
    pass.attempted += batch.len() as u64;
    let cfg = hub_config();
    let t0 = Instant::now();
    let hub = TranslationHub::new(cfg);
    let guests: Vec<GuestContext> = programs
        .into_iter()
        .enumerate()
        .map(|(id, p)| GuestContext::new(id, p, &hub))
        .collect();
    let t1 = Instant::now();
    let done = catch_unwind(AssertUnwindSafe(|| {
        run_multi(&hub, guests, threads, budget, DEFAULT_SLICE_STEPS)
    }));
    let t2 = Instant::now();
    pass.setup_s += (t1 - t0).as_secs_f64();
    pass.run_s += (t2 - t1).as_secs_f64();
    pass.program_ms.push((t2 - t1).as_secs_f64() * 1e3);
    let guests = match done {
        Ok(guests) => guests,
        Err(p) => {
            let reason = format!("batch panicked: {}", panic_message(&*p));
            pass.failures.extend(batch_failures(inputs, batch, &reason));
            return;
        }
    };
    let hs = hub.stats();
    pass.counts.add_hub(&hs);
    pass.hub.push(hs);
    if let Err(reason) = check_hub(&hs) {
        // A broken ledger taints the whole batch.
        pass.failures.extend(batch_failures(inputs, batch, &reason));
        return;
    }
    for g in &guests {
        pass.counts.add_guest(g.stats());
        let case = &inputs.cases[batch[g.id()]];
        if let Err(reason) = check_guest(case, g.halted(), g.stats(), g.interp().arch_state()) {
            pass.failures.push(Failure {
                label: format!("guest {} ({})", g.id(), case.label),
                reason,
            });
        }
    }
}

/// Every guest of `batch`, failed for `reason`.
pub fn batch_failures(inputs: &Inputs, batch: &[usize], reason: &str) -> Vec<Failure> {
    batch
        .iter()
        .enumerate()
        .map(|(id, &i)| Failure {
            label: format!("guest {id} ({})", inputs.cases[i].label),
            reason: reason.to_string(),
        })
        .collect()
}

/// Runs one untraced pass over `inputs`. Unless `threaded`,
/// `multiguest_fast` runs its batch on one scheduler thread, a
/// deterministic schedule.
pub fn run_pass(inputs: &Inputs, threaded: bool) -> Pass {
    match inputs.workload {
        Workload::MultiguestFast => {
            multiguest_pass(inputs, if threaded { scheduler_threads() } else { 1 })
        }
        w => single_guest_pass(inputs, &system_config(w)),
    }
}

/// The closed loop: one warm-up pass, then timed passes back to back
/// until `seconds` have elapsed (at least one timed pass).
pub struct Measurement {
    /// The warm-up pass (checked, not timed; on the deterministic
    /// schedule, so its counts are exact).
    pub warmup: Pass,
    /// The timed passes.
    pub passes: Vec<Pass>,
}

impl Measurement {
    /// Each program's (each batch's) fastest time over the timed passes,
    /// ms. Other work on the host only ever adds time, so the fastest of
    /// many runs is the program's own cost.
    pub fn best_program_ms(&self) -> Vec<f64> {
        let n = self
            .passes
            .iter()
            .map(|p| p.program_ms.len())
            .min()
            .unwrap_or(0);
        (0..n)
            .map(|i| {
                self.passes
                    .iter()
                    .map(|p| p.program_ms[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// The fastest pass's set-up time, s.
    pub fn best_setup_s(&self) -> f64 {
        self.passes
            .iter()
            .map(|p| p.setup_s)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Measures `inputs` for `seconds`.
pub fn measure(inputs: &Inputs, seconds: Duration) -> Measurement {
    let warmup = run_pass(inputs, false);
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(run_pass(inputs, true));
        if start.elapsed() >= seconds {
            return Measurement { warmup, passes };
        }
    }
}
