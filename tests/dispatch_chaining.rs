//! Corpus-wide check of the dispatch loop against the interpreter.
//!
//! Every minimized repro in `tests/corpus/` runs through the full
//! `DynOptSystem` on both execution tiers, under every hardware scheme,
//! with and without loop unrolling; so do the 14 benchmark kernels. Each
//! run must leave the interpreter's architectural state and retire
//! exactly its instruction count, and the corpus as a whole must exercise
//! region chaining (memoized region→region links, resident guest state).
//!
//! The targeted mid-chain alias-exception tests (unlink, rollback,
//! blacklist, re-convergence) live next to the façade in
//! `crates/runtime/src/system.rs`; this test is the breadth half.

use smarq_fuzz::{load_dir, schemes};
use smarq_guest::{Interpreter, Program};
use smarq_opt::OptConfig;
use smarq_runtime::{DynOptSystem, ExecTier, StopReason, SystemConfig};
use std::path::Path;

/// Runs `program` to completion and checks it against the interpreter:
/// architectural state and exact retired instruction count. Returns the
/// chain links the run followed.
fn check_against_interpreter(program: &Program, cfg: SystemConfig, what: &str) -> u64 {
    let mut reference = Interpreter::new();
    reference.run(program, u64::MAX);
    let mut sys = DynOptSystem::new(program.clone(), cfg);
    assert_eq!(
        sys.run_to_completion(u64::MAX),
        StopReason::Halted,
        "{what}"
    );
    assert_eq!(
        sys.interp().arch_state(),
        reference.arch_state(),
        "{what}: architectural state differs from the interpreter's"
    );
    assert_eq!(
        sys.stats().guest_instrs(),
        reference.executed_instrs(),
        "{what}: retired instruction count differs"
    );
    sys.stats().chain_follows
}

#[test]
fn corpus_matches_interpreter_on_both_tiers() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let entries = load_dir(&dir).expect("corpus directory loads");
    assert!(
        !entries.is_empty(),
        "no corpus entries in {}",
        dir.display()
    );

    for tier in [ExecTier::CycleSim, ExecTier::Functional] {
        let mut follows = 0u64;
        for (path, program) in &entries {
            for (label, opt) in schemes() {
                for unroll in [1, 4] {
                    let mut cfg = SystemConfig::with_opt(opt.clone());
                    // Low threshold so the short corpus programs form
                    // regions.
                    cfg.hot_threshold = 10;
                    cfg.exec_tier = tier;
                    cfg.unroll_factor = unroll;
                    let what = format!(
                        "{} under {label} on {tier:?}, unroll {unroll}",
                        path.display()
                    );
                    follows += check_against_interpreter(program, cfg, &what);
                }
            }
        }
        assert!(
            follows > 0,
            "no corpus entry ever followed a chain link on {tier:?}; the \
             check is not exercising the chained fast path"
        );
    }
}

/// The 14 benchmark kernels retire exactly the interpreter's instruction
/// count on both tiers, unrolled or not (an unrolled region's side exits
/// each record the iterations before them).
#[test]
fn kernels_retire_exactly_the_interpreters_instructions() {
    for name in smarq_workloads::WORKLOAD_NAMES {
        let w = smarq_workloads::scaled(name, 300).unwrap();
        for tier in [ExecTier::CycleSim, ExecTier::Functional] {
            for unroll in [1, 4] {
                let mut cfg = SystemConfig::with_opt(OptConfig::smarq(64));
                cfg.exec_tier = tier;
                cfg.unroll_factor = unroll;
                let what = format!("{name} on {tier:?}, unroll {unroll}");
                check_against_interpreter(&w.program, cfg, &what);
            }
        }
    }
}
