//! Seeded inputs of the three workloads, with their reference results.
//!
//! Everything here runs before any timing starts: program generation and
//! the reference interpretation every translated run is compared against.

use smarq::prng::Prng;
use smarq_guest::{ArchState, Interpreter, Program, RunOutcome};
use smarq_workloads::{random_workload_with, scaled, RandomParams, WORKLOAD_NAMES};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 14 SPECfp stand-in kernels at three trip counts, each on its
    /// own system on the cycle-level simulator: execution-bound, the only
    /// workload whose regions carry modeled cycles.
    SpecCycle,
    /// Many distinct random loops on the functional tier with
    /// verify-on-emit: translation-bound, with true aliasing driving
    /// rollback, blacklisting and conservative retranslation.
    TranslateChurn,
    /// Batches of kernel guests (every kernel, plus duplicates) each
    /// sharing one translation hub on the functional tier: fast-tier
    /// execution plus the hub/context dispatch path.
    MultiguestFast,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SpecCycle,
        Workload::TranslateChurn,
        Workload::MultiguestFast,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecCycle => "spec_cycle",
            Workload::TranslateChurn => "translate_churn",
            Workload::MultiguestFast => "multiguest_fast",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One guest program with the reference result of plain interpretation.
pub struct Case {
    /// Human-readable label (kernel name, or the random program's seed).
    pub label: String,
    /// The guest program.
    pub program: Program,
    /// Final architectural state of [`Interpreter::run`] on `program`.
    pub reference: ArchState,
    /// Guest instructions the reference run retired.
    pub ref_instrs: u64,
}

impl Case {
    fn new(label: String, program: Program) -> Result<Case, String> {
        let mut interp = Interpreter::new();
        if interp.run(&program, REFERENCE_BUDGET) != RunOutcome::Halted {
            return Err(format!("{label}: reference run does not halt"));
        }
        Ok(Case {
            label,
            reference: interp.arch_state(),
            ref_instrs: interp.executed_instrs(),
            program,
        })
    }

    /// Guest-instruction budget of a translated run: generous, so only a
    /// run that fails to halt exhausts it.
    pub fn budget(&self) -> u64 {
        self.ref_instrs * 2 + 100_000
    }
}

/// Upper bound on a reference run; every generated program halts far
/// below it.
const REFERENCE_BUDGET: u64 = 1 << 32;

/// A workload's generated inputs.
pub struct Inputs {
    /// Which workload these are.
    pub workload: Workload,
    /// The seed they were generated from.
    pub seed: u64,
    /// Distinct programs, each with its reference result.
    pub cases: Vec<Case>,
    /// `multiguest_fast` only: the batches, each a list of indices into
    /// `cases` (one guest per entry). Empty for the single-guest
    /// workloads, which run every case once per pass.
    pub batches: Vec<Vec<usize>>,
}

/// Trip counts of the paper's kernel configurations (`smarq_workloads::all`);
/// [`generate`] checks the table against the library.
fn base_iters(name: &str) -> i64 {
    match name {
        "ammp" => 10_000,
        "sixtrack" => 15_000,
        _ => 20_000,
    }
}

/// Trip-count variants of each `spec_cycle` kernel, in thirds of the
/// paper's trip count: enough programs for a tail percentile, with the
/// paper's configuration as the largest.
const SPEC_THIRDS: [i64; 3] = [1, 2, 3];

/// The 14 kernels at one, two and three thirds of the paper's trip counts
/// plus seeded jitter, in a seeded order.
fn kernels(rng: &mut Prng) -> Result<Vec<Case>, String> {
    let mut cases = Vec::new();
    for name in WORKLOAD_NAMES {
        for thirds in SPEC_THIRDS {
            cases.push(kernel(rng, name, base_iters(name) * thirds / 3)?);
        }
    }
    rng.shuffle(&mut cases);
    Ok(cases)
}

/// Kernel `name` at `base` iterations plus up to 1/64 of seeded jitter.
fn kernel(rng: &mut Prng, name: &str, base: i64) -> Result<Case, String> {
    let iters = base + rng.bounded((base / 64).max(1) as u64) as i64;
    let w = scaled(name, iters).ok_or_else(|| format!("unknown kernel {name}"))?;
    Case::new(format!("{name}/{iters}"), w.program)
}

/// Guest instructions one loop iteration of kernel `name` retires.
fn instrs_per_iter(name: &str) -> Result<u64, String> {
    let run = |iters| {
        let w = scaled(name, iters).ok_or_else(|| format!("unknown kernel {name}"))?;
        let mut interp = Interpreter::new();
        interp.run(&w.program, REFERENCE_BUDGET);
        Ok::<u64, String>(interp.executed_instrs())
    };
    Ok((run(200)? - run(100)?) / 100)
}

/// Guest instructions each `multiguest_fast` guest retires (before
/// jitter): equal-sized guests keep the batch's makespan on two threads
/// independent of the seeded order.
const MULTI_GUEST_INSTRS: u64 = 300_000;
/// Batches in one `multiguest_fast` pass.
const MULTI_BATCHES: usize = 40;
/// Guests beyond one per kernel in each batch: seeded duplicates, whose
/// translations the hub shares.
const MULTI_DUPLICATES: usize = 2;

/// `multiguest_fast`: every kernel, sized to [`MULTI_GUEST_INSTRS`].
fn multiguest_kernels(rng: &mut Prng) -> Result<Vec<Case>, String> {
    WORKLOAD_NAMES
        .into_iter()
        .map(|name| {
            let iters = MULTI_GUEST_INSTRS / instrs_per_iter(name)?.max(1);
            kernel(rng, name, iters as i64)
        })
        .collect()
}

/// Address pools of `translate_churn` with the largest loop body drawn for
/// each: two base addresses alias almost always, 64 rarely. Every
/// rollback retranslates the whole body, so above these sizes the cost of
/// one random program varies so much that a pass's total would depend on
/// the seed more than on the code under test.
const CHURN_POOLS: [(u64, usize); 3] = [(2, 96), (8, 128), (64, 128)];
/// Programs per pool in one `translate_churn` pass.
const CHURN_PER_POOL: usize = 120;
/// Smallest loop body of `translate_churn`.
const CHURN_MIN_BODY: usize = 8;

/// `translate_churn`: for each pool, body sizes stratified evenly up to
/// the pool's largest (one draw per stratum, so every seed covers the
/// same size range), each body a distinct seeded random program.
fn churn(rng: &mut Prng) -> Result<Vec<Case>, String> {
    let mut cases = Vec::with_capacity(CHURN_POOLS.len() * CHURN_PER_POOL);
    for (pool, max_body) in CHURN_POOLS {
        let bound = |stratum: usize| {
            CHURN_MIN_BODY + stratum * (max_body - CHURN_MIN_BODY) / CHURN_PER_POOL
        };
        for stratum in 0..CHURN_PER_POOL {
            let (lo, hi) = (bound(stratum), bound(stratum + 1));
            let body_ops = rng.range_usize(lo, hi.max(lo + 1));
            let iters = rng.range_i64(256, 384);
            let program_seed = rng.next_u64();
            let params = RandomParams {
                body_ops,
                iters,
                address_pool: pool,
            };
            let w = random_workload_with(program_seed, params);
            let label = format!("random/{program_seed:#x}/ops{body_ops}/pool{pool}/iters{iters}");
            cases.push(Case::new(label, w.program)?);
        }
    }
    rng.shuffle(&mut cases);
    Ok(cases)
}

/// Generates `workload`'s inputs from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Result<Inputs, String> {
    check_kernel_table()?;
    let mut rng = Prng::new(seed ^ (workload as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let (cases, batches) = match workload {
        Workload::SpecCycle => (kernels(&mut rng)?, Vec::new()),
        Workload::TranslateChurn => (churn(&mut rng)?, Vec::new()),
        Workload::MultiguestFast => {
            // Each batch: every kernel once plus seeded duplicates, in a
            // seeded order.
            let cases = multiguest_kernels(&mut rng)?;
            let batches = (0..MULTI_BATCHES)
                .map(|_| {
                    let mut batch: Vec<usize> = (0..cases.len()).collect();
                    for _ in 0..MULTI_DUPLICATES {
                        batch.push(rng.range_usize(0, cases.len()));
                    }
                    rng.shuffle(&mut batch);
                    batch
                })
                .collect();
            (cases, batches)
        }
    };
    Ok(Inputs {
        workload,
        seed,
        cases,
        batches,
    })
}

/// The trip-count table must reproduce the paper's kernel configurations.
fn check_kernel_table() -> Result<(), String> {
    for w in smarq_workloads::all() {
        let rebuilt = scaled(w.name, base_iters(w.name)).map(|r| r.program);
        if rebuilt.as_ref() != Some(&w.program) {
            return Err(format!("trip-count table disagrees with kernel {}", w.name));
        }
    }
    Ok(())
}
