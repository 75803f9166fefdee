//! Command-line contract of the `figures` binary.

use std::process::Command;

#[test]
fn unknown_section_exits_2_before_running_the_evaluation() {
    for section in ["bogus", "bench-json"] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .arg(section)
            .output()
            .expect("figures runs");
        assert_eq!(out.status.code(), Some(2), "figures {section}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown section '{section}'")),
            "figures {section}: {stderr}"
        );
        assert!(
            !stderr.contains("running 14 benchmarks"),
            "figures {section} ran the evaluation before rejecting: {stderr}"
        );
        assert!(out.stdout.is_empty(), "figures {section} printed a section");
    }
}

#[test]
fn table_sections_print_without_the_evaluation() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("table1")
        .output()
        .expect("figures runs");
    assert!(out.status.success());
    assert!(!out.stdout.is_empty());
    assert!(!String::from_utf8_lossy(&out.stderr).contains("running 14 benchmarks"));
}
