//! Command-line contract of the `smarq-run` binary: cycle metrics are
//! printed only on the tier that models cycles.

use std::process::Command;

fn run_hoist_loop(tier: &str) -> String {
    let example = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/hoist_loop.s");
    let out = Command::new(env!("CARGO_BIN_EXE_smarq-run"))
        .args([example, "--exec-tier", tier])
        .output()
        .expect("smarq-run runs");
    assert!(
        out.status.success(),
        "smarq-run --exec-tier {tier}: {out:?}"
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn functional_tier_prints_no_cycle_metrics() {
    let stdout = run_hoist_loop("functional");
    assert!(!stdout.contains("simulated cycles"), "{stdout}");
    assert!(!stdout.contains("of execution time"), "{stdout}");
    assert!(stdout.contains("functional tier:"), "{stdout}");
}

#[test]
fn cycle_tier_prints_cycle_metrics() {
    let stdout = run_hoist_loop("cycle");
    assert!(stdout.contains("simulated cycles"), "{stdout}");
    assert!(stdout.contains("of execution time"), "{stdout}");
}
