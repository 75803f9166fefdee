//! The traced run: every dispatch step timed from outside the runtime,
//! classified by the statistics it moved, and the translation sub-layers
//! of every formed region replayed and timed call by call.
//!
//! A step is `run_bounded(…, 1, …)`: one interpreted block or one region
//! chain. Its class is decided by the deltas it caused, in this order:
//! regions formed or retranslated (`step_translate`), tier-down samples
//! taken (`step_sample`), region entries (`step_region`), otherwise
//! `step_interp`. Steps have no child spans, so a step's self time is its
//! duration.
//!
//! Spans (name, start, end, parent, program id) are kept in memory and
//! written as JSON when the run ends.

use crate::inputs::{Inputs, Workload};
use crate::report::{json_str, Metrics};
use crate::run::{self, check_guest, check_hub, system_config, Failure, Pass};
use crate::Outcome;
use smarq::{AllocScratch, DepGraph};
use smarq_guest::{Interpreter, Program};
use smarq_ir::{form_superblock, unroll_superblock};
use smarq_opt::{fastcomp, optimize_superblock_traced_ranged};
use smarq_runtime::{
    DynOptSystem, ExecTier, GuestContext, HubStats, RunStatus, SystemConfig, SystemStats,
    TranslationHub,
};
use std::hint::black_box;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Spans kept for the trace file; later spans are still accounted in the
/// metrics but not written.
const SPAN_CAP: usize = 1 << 17;

/// One traced interval.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    program: u32,
}

/// A span opened by [`Tracer::open`]; `id` is `None` once the span cap
/// is reached.
#[derive(Clone, Copy)]
struct Open {
    id: Option<usize>,
    start_ns: u64,
}

/// In-memory span recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span; returns its id for children to name as
    /// their parent.
    fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        program: u32,
    ) -> Option<usize> {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            program,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose end is filled in by [`Self::close`].
    fn open(&mut self, name: &'static str, parent: Option<usize>, program: u32) -> Open {
        let start_ns = self.now();
        let id = self.record(name, start_ns, start_ns, parent, program);
        Open { id, start_ns }
    }

    /// Closes `span`; returns its duration (measured even when the span
    /// itself was not kept).
    fn close(&mut self, span: Open) -> u64 {
        let now = self.now();
        if let Some(i) = span.id {
            self.spans[i].end_ns = now;
        }
        now - span.start_ns
    }

    fn write(&self, path: &Path, inputs: &Inputs, counts: &run::Counts) -> Result<(), String> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 256);
        out.push_str(&format!(
            "{{\"workload\": {}, \"seed\": {}, \"dropped_spans\": {}, \"counts\": {{",
            json_str(inputs.workload.name()),
            inputs.seed,
            self.dropped
        ));
        let counts: Vec<String> = counts
            .fields()
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        out.push_str(&counts.join(", "));
        out.push_str("},\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"program\": {}}}{}\n",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.program,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        f.write_all(out.as_bytes())
            .and_then(|()| f.flush())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Step classes, in classification order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Translate,
    Sample,
    Region,
    Interp,
}

impl Class {
    const ALL: [Class; 4] = [
        Class::Interp,
        Class::Translate,
        Class::Region,
        Class::Sample,
    ];

    fn name(self) -> &'static str {
        match self {
            Class::Interp => "step_interp",
            Class::Translate => "step_translate",
            Class::Region => "step_region",
            Class::Sample => "step_sample",
        }
    }
}

/// The statistics a step's class is decided by, plus what its cost is
/// normalized by.
#[derive(Clone, Copy, Default)]
struct Snap {
    translated: u64,
    samples: u64,
    entries: u64,
    interp_instrs: u64,
    vliw_cycles: u64,
}

impl Snap {
    /// A single-guest system: translations are its own.
    fn system(s: &SystemStats) -> Snap {
        Snap {
            translated: (s.regions_formed + s.retranslations) as u64,
            ..Snap::guest(s)
        }
    }

    /// A hub guest: translations are the hub's (exact while one thread
    /// runs the batch).
    fn hub_guest(s: &SystemStats, h: &HubStats) -> Snap {
        Snap {
            translated: h.translations_started + h.retranslations,
            ..Snap::guest(s)
        }
    }

    fn guest(s: &SystemStats) -> Snap {
        Snap {
            translated: 0,
            samples: s.tier_samples,
            entries: s.region_entries,
            interp_instrs: s.interp_instrs,
            vliw_cycles: s.vliw_cycles,
        }
    }
}

/// Per-class step totals.
#[derive(Clone, Copy, Default)]
struct ClassTotals {
    self_ns: u64,
    count: u64,
    interp_instrs: u64,
    entries: u64,
    vliw_cycles: u64,
}

#[derive(Default)]
struct Steps([ClassTotals; 4]);

impl Steps {
    fn add(&mut self, before: Snap, after: Snap, ns: u64) -> Class {
        let class = if after.translated > before.translated {
            Class::Translate
        } else if after.samples > before.samples {
            Class::Sample
        } else if after.entries > before.entries {
            Class::Region
        } else {
            Class::Interp
        };
        let t = &mut self.0[class as usize];
        t.self_ns += ns;
        t.count += 1;
        t.interp_instrs += after.interp_instrs - before.interp_instrs;
        t.entries += after.entries - before.entries;
        t.vliw_cycles += after.vliw_cycles - before.vliw_cycles;
        class
    }

    fn get(&self, c: Class) -> ClassTotals {
        self.0[c as usize]
    }

    fn total_ns(&self) -> u64 {
        self.0.iter().map(|t| t.self_ns).sum()
    }
}

/// Something that advances one dispatch step at a time.
trait Stepper {
    fn snap(&self) -> Snap;
    fn step(&mut self) -> RunStatus;
}

struct Solo<'a> {
    sys: &'a mut DynOptSystem,
    budget: u64,
}

impl Stepper for Solo<'_> {
    fn snap(&self) -> Snap {
        Snap::system(self.sys.stats())
    }
    fn step(&mut self) -> RunStatus {
        self.sys.run_bounded(1, self.budget)
    }
}

struct Hosted<'a> {
    guest: &'a mut GuestContext,
    hub: &'a TranslationHub,
    budget: u64,
}

impl Stepper for Hosted<'_> {
    fn snap(&self) -> Snap {
        Snap::hub_guest(self.guest.stats(), &self.hub.stats())
    }
    fn step(&mut self) -> RunStatus {
        self.guest.run_bounded(self.hub, 1, self.budget)
    }
}

/// Runs one step of `s`, timed and classified.
fn traced_step(
    tr: &mut Tracer,
    steps: &mut Steps,
    parent: Option<usize>,
    program: u32,
    s: &mut impl Stepper,
) -> RunStatus {
    let before = s.snap();
    let t0 = tr.now();
    let status = s.step();
    let t1 = tr.now();
    let class = steps.add(before, s.snap(), t1 - t0);
    tr.record(class.name(), t0, t1, parent, program);
    status
}

/// Sub-layer costs of replayed translations.
#[derive(Default)]
struct Replay {
    regions: u64,
    form_ns: u64,
    unroll_ns: u64,
    optimize_ns: u64,
    deps_ns: u64,
    alloc_ns: u64,
    check_ns: u64,
    fastcomp_ns: u64,
    ops: u64,
    mem_ops: u64,
    programs: u64,
    dataflow_ns: u64,
    /// Replayed cost of every translation the runs made: formation once
    /// per region, optimization (plus verify and fast lowering where the
    /// runtime does them) once per translation.
    predicted_ns: u64,
}

/// Times `f` as a span named `name`.
fn timed<T>(
    tr: &mut Tracer,
    name: &'static str,
    parent: Option<usize>,
    program: u32,
    acc: &mut u64,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = tr.now();
    let out = black_box(f());
    let t1 = tr.now();
    *acc += t1 - t0;
    tr.record(name, t0, t1, parent, program);
    out
}

/// Replays the translation sub-layers of every region `sys` formed; the
/// runs being reconciled made `weight` copies of each translation.
fn replay(
    tr: &mut Tracer,
    acc: &mut Replay,
    (parent, pid, weight): (Option<usize>, u32, u64),
    sys: &DynOptSystem,
    program: &Program,
    cfg: &SystemConfig,
) {
    let span = tr.open("replay", parent, pid);
    let df = timed(
        tr,
        "replay.dataflow",
        span.id,
        pid,
        &mut acc.dataflow_ns,
        || smarq_verify::analyze(program),
    );
    acc.programs += 1;
    let mut scratch = AllocScratch::new();
    let regs = cfg.opt.num_alias_regs;
    let records = &sys.stats().per_region;
    for (i, (sb, rec)) in sys.formed_superblocks().zip(records).enumerate() {
        let entry = sb.entry;
        let profile = sys.interp().profile();
        let (mut form, mut unroll, mut optimize, mut check, mut fast) = (0, 0, 0, 0, 0);
        let formed = timed(tr, "replay.form", span.id, pid, &mut form, || {
            form_superblock(program, profile, entry, cfg.formation)
        });
        timed(tr, "replay.unroll", span.id, pid, &mut unroll, || {
            unroll_superblock(&formed, cfg.unroll_factor, cfg.formation.max_ops)
        });
        // The runtime hands the optimizer the analyzed entry state only
        // when verify-on-emit (or nospec) made it compute the analysis.
        let entry_state = cfg.verify_translations.then(|| *df.entry_state(entry));
        let (opt, trace) = timed(tr, "replay.optimize", span.id, pid, &mut optimize, || {
            optimize_superblock_traced_ranged(
                sb,
                &cfg.opt,
                &cfg.machine,
                sys.blacklist(),
                &mut scratch,
                entry_state.as_ref(),
            )
        });
        timed(tr, "replay.deps", span.id, pid, &mut acc.deps_ns, || {
            DepGraph::compute(&trace.spec)
        });
        if trace.allocation.is_some() {
            let _ = timed(tr, "replay.alloc", span.id, pid, &mut acc.alloc_ns, || {
                smarq::allocate(&trace.spec, &trace.deps, &trace.mem_schedule, regs)
            });
        }
        timed(tr, "replay.verify", span.id, pid, &mut check, || {
            smarq_verify::check_trace_ranged(i, &trace, regs, Some((sb, df.entry_state(entry))))
        });
        let _ = timed(tr, "replay.fastcomp", span.id, pid, &mut fast, || {
            fastcomp::compile(&opt.vliw)
        });
        // What the runtime pays per (re)translation of this region.
        let mut each = optimize;
        if cfg.verify_translations {
            each += check;
        }
        if cfg.exec_tier == ExecTier::Functional {
            each += fast;
        }
        acc.predicted_ns += weight * (form + unroll + each * (1 + u64::from(rec.retranslations)));
        acc.form_ns += form;
        acc.unroll_ns += unroll;
        acc.optimize_ns += optimize;
        acc.check_ns += check;
        acc.fastcomp_ns += fast;
        acc.regions += 1;
        acc.ops += sb.ops.len() as u64;
        acc.mem_ops += opt.stats.mem_ops as u64;
    }
    tr.close(span);
}

/// Everything the traced passes accumulate.
#[derive(Default)]
struct Totals {
    steps: Steps,
    replay: Replay,
    /// Host ns of the traced runs (sum of `run` spans).
    traced_run_ns: u64,
    /// Host ns of the same runs untraced.
    untraced_run_ns: u64,
    ref_instrs: u64,
    ref_ns: u64,
    /// Sums of the runs' statistics (scalar counters only).
    stats: SystemStats,
    overflow_retries: u64,
    passes: u64,
}

impl Totals {
    fn add_stats(&mut self, s: &SystemStats) {
        let t = &mut self.stats;
        t.interp_instrs += s.interp_instrs;
        t.region_entries += s.region_entries;
        t.chain_follows += s.chain_follows;
        t.dispatch_lookups += s.dispatch_lookups;
        t.rollbacks += s.rollbacks;
        t.regions_formed += s.regions_formed;
        t.retranslations += s.retranslations;
        t.region_mem_ops += s.region_mem_ops;
        t.alias_entries_scanned += s.alias_entries_scanned;
        t.tier_fast_entries += s.tier_fast_entries;
        t.tier_deopts += s.tier_deopts;
        self.overflow_retries += s
            .per_region
            .iter()
            .map(|r| u64::from(r.opt.overflow_retries))
            .sum::<u64>();
    }
}

fn failure(label: &str, reason: String) -> Failure {
    Failure {
        label: label.to_string(),
        reason,
    }
}

/// One traced pass of a single-guest workload.
fn single_guest_pass(tr: &mut Tracer, tot: &mut Totals, inputs: &Inputs) -> Pass {
    let cfg = system_config(inputs.workload);
    let mut pass = Pass::default();
    let pass_span = tr.open("pass", None, u32::MAX);
    for (pid, case) in inputs.cases.iter().enumerate() {
        let pid = pid as u32;
        pass.attempted += 1;
        let prog_span = tr.open("program", pass_span.id, pid);
        let program = case.program.clone();
        let mut setup = 0;
        let mut sys = timed(tr, "setup", prog_span.id, pid, &mut setup, || {
            DynOptSystem::new(program, cfg.clone())
        });
        let run_span = tr.open("run", prog_span.id, pid);
        let steps = &mut tot.steps;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let mut solo = Solo {
                sys: &mut sys,
                budget: case.budget(),
            };
            loop {
                let st = traced_step(tr, steps, run_span.id, pid, &mut solo);
                if st != RunStatus::Running {
                    return st;
                }
            }
        }));
        let run_ns = tr.close(run_span);
        tot.traced_run_ns += run_ns;
        pass.run_s += run_ns as f64 * 1e-9;
        pass.setup_s += setup as f64 * 1e-9;
        let verdict = match ran {
            Ok(st) => {
                pass.counts.add_system(sys.stats());
                tot.add_stats(sys.stats());
                let halted = st == RunStatus::Halted;
                let v = check_guest(case, halted, sys.stats(), sys.interp().arch_state());
                if v.is_ok() {
                    let rp = (prog_span.id, pid, 1);
                    replay(tr, &mut tot.replay, rp, &sys, &case.program, &cfg);
                }
                v
            }
            Err(_) => Err("panicked".into()),
        };
        if let Err(reason) = verdict {
            pass.failures.push(failure(&case.label, reason));
        }
        tr.close(prog_span);
    }
    tr.close(pass_span);
    pass
}

/// Runs the batch on one thread, one dispatch step per guest turn, traced
/// or not.
fn round_robin(
    hub: &TranslationHub,
    guests: &mut [GuestContext],
    budget: u64,
    mut trace: Option<(&mut Tracer, &mut Steps, Option<usize>)>,
) {
    loop {
        let mut live = false;
        for g in guests.iter_mut().filter(|g| !g.halted()) {
            let pid = g.id() as u32;
            let mut s = Hosted {
                guest: g,
                hub,
                budget,
            };
            let st = match trace.as_mut() {
                Some((tr, steps, parent)) => traced_step(tr, steps, *parent, pid, &mut s),
                None => s.step(),
            };
            live |= st == RunStatus::Running;
        }
        if !live {
            return;
        }
    }
}

/// Builds a batch's hub and guests.
fn batch_guests(inputs: &Inputs, batch: &[usize]) -> (TranslationHub, Vec<GuestContext>) {
    let hub = TranslationHub::new(run::hub_config());
    let guests = batch
        .iter()
        .enumerate()
        .map(|(id, &i)| GuestContext::new(id, inputs.cases[i].program.clone(), &hub))
        .collect();
    (hub, guests)
}

/// One traced pass of `multiguest_fast`: each batch stepped on one thread
/// (so the hub deltas of a step are that step's own), then every distinct
/// program replayed from a solo run.
fn multiguest_pass(tr: &mut Tracer, tot: &mut Totals, inputs: &Inputs) -> Pass {
    let mut pass = Pass::default();
    let pass_span = tr.open("pass", None, u32::MAX);
    for (b, batch) in inputs.batches.iter().enumerate() {
        let budget = batch
            .iter()
            .map(|&i| inputs.cases[i].budget())
            .max()
            .unwrap_or(0);
        pass.attempted += batch.len() as u64;
        let batch_span = tr.open("batch", pass_span.id, b as u32);
        // The untraced twin of the traced schedule, for the overhead.
        {
            let (hub, mut guests) = batch_guests(inputs, batch);
            let t0 = Instant::now();
            round_robin(&hub, &mut guests, budget, None);
            tot.untraced_run_ns += t0.elapsed().as_nanos() as u64;
        }
        let mut setup = 0;
        let (hub, mut guests) = timed(tr, "setup", batch_span.id, b as u32, &mut setup, || {
            batch_guests(inputs, batch)
        });
        pass.setup_s += setup as f64 * 1e-9;
        let run_span = tr.open("run", batch_span.id, b as u32);
        let steps = &mut tot.steps;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            round_robin(&hub, &mut guests, budget, Some((tr, steps, run_span.id)));
        }));
        let run_ns = tr.close(run_span);
        tot.traced_run_ns += run_ns;
        pass.run_s += run_ns as f64 * 1e-9;
        tr.close(batch_span);
        if ran.is_err() {
            let failed = run::batch_failures(inputs, batch, "batch panicked");
            pass.failures.extend(failed);
            continue;
        }
        let hs = hub.stats();
        pass.counts.add_hub(&hs);
        if let Err(reason) = check_hub(&hs) {
            // A broken ledger taints the whole batch.
            pass.failures
                .extend(run::batch_failures(inputs, batch, &reason));
            continue;
        }
        for g in &guests {
            let case = &inputs.cases[batch[g.id()]];
            pass.counts.add_guest(g.stats());
            tot.add_stats(g.stats());
            if let Err(reason) = check_guest(case, g.halted(), g.stats(), g.interp().arch_state()) {
                pass.failures.push(failure(&case.label, reason));
            }
        }
    }
    // Hub guests expose no formed superblocks: replay each distinct
    // program's regions from a solo system with the same configuration.
    // Every batch runs every kernel over its own hub, so each replayed
    // translation happened once per batch.
    let cfg = system_config(Workload::MultiguestFast);
    let weight = inputs.batches.len() as u64;
    for (pid, case) in inputs.cases.iter().enumerate() {
        let mut sys = DynOptSystem::new(case.program.clone(), cfg.clone());
        sys.run_to_completion(case.budget());
        let rp = (pass_span.id, pid as u32, weight);
        replay(tr, &mut tot.replay, rp, &sys, &case.program, &cfg);
    }
    tr.close(pass_span);
    pass
}

/// Times plain interpretation of every distinct program.
fn reference_interp(tot: &mut Totals, inputs: &Inputs) {
    for case in &inputs.cases {
        let mut interp = Interpreter::new();
        let t0 = Instant::now();
        black_box(interp.run(&case.program, case.budget()));
        tot.ref_ns += t0.elapsed().as_nanos() as u64;
        tot.ref_instrs += interp.executed_instrs();
    }
}

/// The traced run: traced passes until `seconds` have elapsed (at least
/// one), reduced to the per-layer metrics; spans are written to `out`.
pub fn traced(
    inputs: &Inputs,
    seconds: Duration,
    out: &Path,
) -> Result<(Metrics, Outcome), String> {
    let multi = inputs.workload == Workload::MultiguestFast;
    // Hub counters come from the real (threaded) schedule.
    let threaded = multi.then(|| run::run_pass(inputs, true));
    let mut tr = Tracer::new();
    let mut tot = Totals::default();
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        reference_interp(&mut tot, inputs);
        if multi {
            passes.push(multiguest_pass(&mut tr, &mut tot, inputs));
        } else {
            // The untraced twin of the traced pass, for the overhead.
            let untraced = run::run_pass(inputs, false);
            tot.untraced_run_ns += (untraced.run_s * 1e9) as u64;
            passes.push(untraced);
            passes.push(single_guest_pass(&mut tr, &mut tot, inputs));
        }
        tot.passes += 1;
        if start.elapsed() >= seconds {
            break;
        }
    }
    let mut outcome = Outcome::of(&passes);
    if let Some(p) = &threaded {
        outcome.absorb_failures(p);
    }
    tr.write(out, inputs, &outcome.counts)?;
    eprintln!(
        "{}: seed {} traced passes {} spans {} (dropped {}) -> {}",
        inputs.workload.name(),
        inputs.seed,
        tot.passes,
        tr.spans.len(),
        tr.dropped,
        out.display()
    );
    let hub = threaded.map(|p| p.hub).unwrap_or_default();
    Ok((metrics(&tot, &outcome, &hub), outcome))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn metrics(tot: &Totals, outcome: &Outcome, hub: &[HubStats]) -> Metrics {
    let mut m = Metrics::default();
    let passes = tot.passes as f64;
    let steps = &tot.steps;
    let step_ns = steps.total_ns() as f64;
    for c in Class::ALL {
        let t = steps.get(c);
        m.add(
            format!("runtime.{}.self_s", c.name()),
            t.self_ns as f64 * 1e-9 / passes,
            "s",
        );
        m.add(
            format!("runtime.{}.count", c.name()),
            t.count as f64 / passes,
            "count",
        );
        eprintln!(
            "  share {:15} {:6.2}%",
            c.name(),
            100.0 * ratio(t.self_ns as f64, step_ns)
        );
    }
    let region = steps.get(Class::Region);
    let s = &tot.stats;
    m.add(
        "runtime.ns_per_region_entry",
        ratio(region.self_ns as f64, region.entries as f64),
        "ns",
    );
    m.add(
        "runtime.chain_follow_ratio",
        ratio(s.chain_follows as f64, s.region_entries as f64),
        "ratio",
    );
    m.add(
        "runtime.dispatch_lookups",
        s.dispatch_lookups as f64 / passes,
        "count",
    );
    let translate_ns = steps.get(Class::Translate).self_ns as f64;
    m.add(
        "runtime.translate_share",
        ratio(translate_ns, step_ns),
        "ratio",
    );
    m.add(
        "runtime.trace_overhead",
        ratio(tot.traced_run_ns as f64, tot.untraced_run_ns as f64) - 1.0,
        "ratio",
    );
    m.add(
        "runtime.span_gap",
        1.0 - ratio(step_ns, tot.traced_run_ns as f64),
        "ratio",
    );

    let interp = steps.get(Class::Interp);
    m.add(
        "guest.ref_mips",
        ratio(tot.ref_instrs as f64 * 1e3, tot.ref_ns as f64),
        "MIPS",
    );
    m.add(
        "guest.interp_ns_per_instr",
        ratio(interp.self_ns as f64, interp.interp_instrs as f64),
        "ns",
    );

    let r = &tot.replay;
    let per_region = |ns: u64| ratio(ns as f64 * 1e-3, r.regions as f64);
    m.add("ir.form.us_per_region", per_region(r.form_ns), "us");
    m.add("ir.unroll.us_per_region", per_region(r.unroll_ns), "us");
    m.add(
        "opt.optimize.us_per_region",
        per_region(r.optimize_ns),
        "us",
    );
    m.add("core.deps.us_per_region", per_region(r.deps_ns), "us");
    m.add("core.alloc.us_per_region", per_region(r.alloc_ns), "us");
    m.add("verify.check.us_per_region", per_region(r.check_ns), "us");
    m.add(
        "fastcomp.compile.us_per_region",
        per_region(r.fastcomp_ns),
        "us",
    );
    m.add(
        "verify.dataflow.ms_per_program",
        ratio(r.dataflow_ns as f64 * 1e-6, r.programs as f64),
        "ms",
    );
    m.add(
        "ir.ops_per_region",
        ratio(r.ops as f64, r.regions as f64),
        "ops",
    );
    m.add(
        "opt.mem_ops_per_region",
        ratio(r.mem_ops as f64, r.regions as f64),
        "ops",
    );
    m.add(
        "opt.overflow_retries",
        tot.overflow_retries as f64 / passes,
        "count",
    );
    m.add(
        "opt.regions_translated",
        outcome.counts.regions_translated as f64,
        "count",
    );
    m.add(
        "opt.retranslate_ratio",
        ratio(s.retranslations as f64, s.regions_formed as f64),
        "ratio",
    );
    m.add(
        "opt.replay_reconcile_ratio",
        ratio(r.predicted_ns as f64, translate_ns),
        "ratio",
    );

    m.add(
        "vliw.ns_per_sim_cycle",
        ratio(region.self_ns as f64, region.vliw_cycles as f64),
        "ns",
    );
    m.add(
        "vliw.rollback_rate",
        ratio(s.rollbacks as f64, s.region_entries as f64),
        "ratio",
    );
    m.add(
        "vliw.scans_per_mem_op",
        ratio(s.alias_entries_scanned as f64, s.region_mem_ops as f64),
        "ratio",
    );
    m.add("fast.entries", s.tier_fast_entries as f64 / passes, "count");
    m.add("fast.deopts", s.tier_deopts as f64 / passes, "count");

    let sum = |f: fn(&HubStats) -> u64| hub.iter().map(f).sum::<u64>() as f64;
    let started = sum(|h| h.translations_started);
    let single_flight = sum(|h| h.single_flight_hits);
    let probe_hits = sum(|h| h.probe_hits);
    m.add("hub.translations_started", started, "count");
    m.add("hub.single_flight_hits", single_flight, "count");
    m.add(
        "hub.probe_hit_ratio",
        ratio(probe_hits, probe_hits + single_flight + started),
        "ratio",
    );
    m.add("hub.rollbacks", sum(|h| h.rollbacks), "count");
    m
}
