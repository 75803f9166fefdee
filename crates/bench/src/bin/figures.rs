//! Regenerates every table and figure of the SMARQ paper's evaluation.
//!
//! Usage: `figures [table1|table2|table3|fig14|fig15|fig16|fig17|fig18|fig19|ablations|sensitivity|all]`
//! (default: `all`). An unknown section exits with status 2 before any
//! workload runs.

use smarq_bench::{figures, tables, Evaluation};

const SECTIONS: [&str; 12] = [
    "table1",
    "table2",
    "table3",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "ablations",
    "sensitivity",
    "all",
];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if !SECTIONS.contains(&arg.as_str()) {
        eprintln!("unknown section '{arg}'");
        eprintln!("sections: table1 table2 table3 fig14..fig19 ablations sensitivity all");
        std::process::exit(2);
    }
    let needs_eval = !matches!(arg.as_str(), "table1" | "table2" | "table3" | "sensitivity");
    let ev = if needs_eval {
        eprintln!("running 14 benchmarks x 5 configurations ...");
        Some(Evaluation::run())
    } else {
        None
    };
    let ev = ev.as_ref();

    let sections: Vec<(&str, String)> = vec![
        ("table1", tables::table1()),
        ("table2", tables::table2()),
        ("table3", tables::table3()),
        ("fig14", ev.map(figures::fig14).unwrap_or_default()),
        ("fig15", ev.map(figures::fig15).unwrap_or_default()),
        ("fig16", ev.map(figures::fig16).unwrap_or_default()),
        ("fig17", ev.map(figures::fig17).unwrap_or_default()),
        ("fig18", ev.map(figures::fig18).unwrap_or_default()),
        ("fig19", ev.map(figures::fig19).unwrap_or_default()),
        ("ablations", ev.map(figures::ablations).unwrap_or_default()),
        (
            "sensitivity",
            if arg == "sensitivity" || arg == "all" {
                figures::sensitivity()
            } else {
                String::new()
            },
        ),
    ];

    for (name, text) in &sections {
        if arg == "all" || arg == *name {
            println!("{text}");
        }
    }
}
