//! Every minimized repro captured by `smarq fuzz` is a permanent
//! regression test: each entry in `tests/corpus/` is replayed through the
//! full layered oracle stack (end-to-end state, allocation validation,
//! fast-path differentials) and must stay green — including translation
//! off the guest's thread, which is additionally swept here through a
//! stepped hub across seeded interleaving schedules at the most
//! contended queue depth.

use smarq_fuzz::{check_program, load_dir, schemes, OracleParams};
use smarq_guest::Interpreter;
use smarq_runtime::{DynOptSystem, StopReason, SystemConfig};
use std::path::Path;

#[test]
fn corpus_entries_replay_green() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let entries = load_dir(&dir).expect("corpus directory loads");
    assert!(
        entries.len() >= 3,
        "expected at least 3 corpus entries in {}, found {}",
        dir.display(),
        entries.len()
    );
    for (path, program) in &entries {
        if let Err(d) = check_program(program, &OracleParams::default()) {
            panic!("{} diverged: {d}", path.display());
        }
    }
}

/// Satellite coverage for async translation: every corpus entry, under
/// every hardware scheme, replayed through a stepped hub with a depth-1
/// queue (maximum submit/publish contention) across several interleaving
/// seeds — and every combination must leave architectural state and the
/// retired instruction count exact against the pure interpreter.
#[test]
fn corpus_replays_bit_exact_with_async_translation() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let entries = load_dir(&dir).expect("corpus directory loads");
    for (path, program) in &entries {
        let mut reference = Interpreter::new();
        reference.run(program, u64::MAX);
        let expected = reference.arch_state();
        for (label, opt) in schemes() {
            for seed in [1u64, 7, 23] {
                let mut cfg = SystemConfig::with_opt(opt.clone());
                cfg.hot_threshold = 10;
                cfg.translate_queue_depth = 1;
                let mut sys = DynOptSystem::stepped(program.clone(), cfg);
                assert_eq!(
                    sys.run_interleaved(seed, u64::MAX),
                    StopReason::Halted,
                    "{} under {label} seed {seed}: did not halt",
                    path.display()
                );
                assert_eq!(
                    sys.interp().arch_state(),
                    expected,
                    "{} under {label} seed {seed}: async replay diverged",
                    path.display()
                );
                assert_eq!(
                    sys.stats().guest_instrs(),
                    reference.executed_instrs(),
                    "{} under {label} seed {seed}: instruction count diverged",
                    path.display()
                );
            }
        }
    }
}

#[test]
fn corpus_headers_record_provenance() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    for (path, _) in load_dir(&dir).expect("corpus directory loads") {
        let src = std::fs::read_to_string(&path).unwrap();
        for field in ["; seed:", "; divergence:", "; ops:"] {
            assert!(
                src.contains(field),
                "{} is missing the `{field}` header",
                path.display()
            );
        }
    }
}
