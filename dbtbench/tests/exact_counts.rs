//! The benchmark's deterministic counts repeat exactly for a seed, and
//! the seed is what changes them.

use smarq_dbtbench::inputs::{generate, Workload};
use smarq_dbtbench::run::{run_pass, Counts};
use smarq_dbtbench::{DEFAULT_SEED, HELD_OUT_SEED};

/// Exact counts of one checked pass on the deterministic schedule.
fn counts(workload: Workload, seed: u64) -> Counts {
    let inputs = generate(workload, seed).expect("inputs generate");
    let pass = run_pass(&inputs, false);
    assert!(
        pass.failures.is_empty(),
        "{}: {:?}",
        workload.name(),
        pass.failures
    );
    pass.counts
}

#[test]
fn same_seed_repeats_exact_counts() {
    for w in Workload::ALL {
        let a = counts(w, DEFAULT_SEED);
        assert_eq!(a, counts(w, DEFAULT_SEED), "{}", w.name());
        assert!(a.guest_instrs > 0 && a.sim_cycles > 0 && a.regions_translated > 0);
    }
}

#[test]
fn spec_cycle_models_cycles_and_equake_rolls_back() {
    let c = counts(Workload::SpecCycle, DEFAULT_SEED);
    assert!(c.rollbacks >= 1, "{c:?}");
    assert_eq!(c.hub_translations, 0);
}

#[test]
fn threaded_multiguest_repeats_schedule_invariant_counts() {
    let inputs = generate(Workload::MultiguestFast, DEFAULT_SEED).expect("inputs generate");
    let exact = run_pass(&inputs, false).counts;
    assert!(
        exact.hub_translations > 0 && exact.rollbacks > 0,
        "{exact:?}"
    );
    for _ in 0..3 {
        let pass = run_pass(&inputs, true);
        assert!(pass.failures.is_empty(), "{:?}", pass.failures);
        assert!(
            exact.repeated_by(&pass.counts, pass.threaded),
            "{exact:?} vs {:?}",
            pass.counts
        );
    }
}

#[test]
fn another_seed_changes_translate_churn() {
    let a = counts(Workload::TranslateChurn, DEFAULT_SEED);
    let b = counts(Workload::TranslateChurn, HELD_OUT_SEED);
    assert_ne!(a, b);
    // Small address pools make programs truly alias: every rollback is
    // followed by a conservative retranslation.
    assert!(a.rollbacks > 0, "{a:?}");
}
