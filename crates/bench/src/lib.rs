//! # smarq-bench — evaluation harness
//!
//! Drives every workload through the dynamic optimization system under the
//! paper's hardware configurations and regenerates each table and figure
//! of the evaluation (paper §6). The `figures` binary prints them. The
//! implementation's own performance is measured end to end, layer by
//! layer, by the separate `dbtbench` benchmark at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use smarq_opt::OptConfig;
use smarq_runtime::{DynOptSystem, SystemConfig, SystemStats};
use smarq_workloads::Workload;

pub mod figures;
pub mod tables;

/// The evaluation's hardware/optimizer configurations (paper Figures 15/16).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvalConfig {
    /// No alias-detection hardware (the speedup baseline).
    Baseline,
    /// SMARQ with 64 alias registers.
    Smarq64,
    /// SMARQ limited to 16 alias registers (Efficeon-like scalability).
    Smarq16,
    /// Itanium-ALAT-like detection.
    AlatLike,
    /// SMARQ-64 with store reordering disabled (Figure 16).
    Smarq64NoStoreReorder,
}

impl EvalConfig {
    /// All configurations, baseline first.
    pub const ALL: [EvalConfig; 5] = [
        EvalConfig::Baseline,
        EvalConfig::Smarq64,
        EvalConfig::Smarq16,
        EvalConfig::AlatLike,
        EvalConfig::Smarq64NoStoreReorder,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            EvalConfig::Baseline => "no-alias-hw",
            EvalConfig::Smarq64 => "SMARQ",
            EvalConfig::Smarq16 => "SMARQ16",
            EvalConfig::AlatLike => "Itanium-like",
            EvalConfig::Smarq64NoStoreReorder => "SMARQ/no-st-reorder",
        }
    }

    /// The optimizer configuration.
    pub fn opt(self) -> OptConfig {
        match self {
            EvalConfig::Baseline => OptConfig::no_alias_hw(),
            EvalConfig::Smarq64 => OptConfig::smarq(64),
            EvalConfig::Smarq16 => OptConfig::smarq(16),
            EvalConfig::AlatLike => OptConfig::alat(),
            EvalConfig::Smarq64NoStoreReorder => OptConfig::smarq_no_store_reorder(64),
        }
    }
}

/// Runs one workload to completion under one configuration.
pub fn run_workload(w: &Workload, config: EvalConfig) -> SystemStats {
    let mut sys = DynOptSystem::new(w.program.clone(), SystemConfig::with_opt(config.opt()));
    sys.run_to_completion(u64::MAX);
    sys.stats().clone()
}

/// One benchmark's results across all configurations.
#[derive(Clone, Debug)]
pub struct BenchmarkRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Stats per configuration, indexed like [`EvalConfig::ALL`].
    pub stats: Vec<SystemStats>,
}

impl BenchmarkRow {
    /// Stats for one configuration.
    pub fn get(&self, c: EvalConfig) -> &SystemStats {
        let i = EvalConfig::ALL.iter().position(|&x| x == c).unwrap();
        &self.stats[i]
    }

    /// Speedup of `c` over the baseline.
    pub fn speedup(&self, c: EvalConfig) -> f64 {
        self.get(EvalConfig::Baseline).total_cycles() as f64 / self.get(c).total_cycles() as f64
    }

    /// The record of the hottest region (most entries) under `c`.
    pub fn hot_region(&self, c: EvalConfig) -> Option<&smarq_runtime::RegionRecord> {
        self.get(c).per_region.iter().max_by_key(|r| r.entries)
    }
}

/// Full evaluation: every workload under every configuration.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// One row per benchmark, in the paper's order.
    pub rows: Vec<BenchmarkRow>,
}

impl Evaluation {
    /// Runs the whole evaluation (14 benchmarks × 5 configurations),
    /// fanning the cells out across the machine's available parallelism.
    /// Every (workload, configuration) cell is an independent simulation,
    /// so the result is identical to a serial sweep.
    pub fn run() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::run_parallel(threads)
    }

    /// Like [`Evaluation::run`] with an explicit worker-thread count
    /// (`1` gives the serial sweep).
    pub fn run_parallel(threads: usize) -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        let workloads = smarq_workloads::all();
        let n_cfg = EvalConfig::ALL.len();
        let total = workloads.len() * n_cfg;
        // Work-stealing over a flat cell index: long-running workloads do
        // not serialize behind each other the way a per-row split would.
        let next = AtomicUsize::new(0);
        let cells: Vec<Mutex<Option<SystemStats>>> = (0..total).map(|_| Mutex::new(None)).collect();
        let workers = threads.clamp(1, total.max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let stats = run_workload(&workloads[i / n_cfg], EvalConfig::ALL[i % n_cfg]);
                    *cells[i].lock().expect("no panics while holding lock") = Some(stats);
                });
            }
        });
        let mut it = cells
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("every cell computed"));
        let rows = workloads
            .iter()
            .map(|w| BenchmarkRow {
                name: w.name,
                stats: (0..n_cfg).map(|_| it.next().unwrap()).collect(),
            })
            .collect();
        Evaluation { rows }
    }

    /// Arithmetic-mean speedup of `c` over the baseline.
    pub fn mean_speedup(&self, c: EvalConfig) -> f64 {
        self.rows.iter().map(|r| r.speedup(c)).sum::<f64>() / self.rows.len() as f64
    }

    /// Geometric-mean speedup of `c` over the baseline.
    pub fn geomean_speedup(&self, c: EvalConfig) -> f64 {
        let s: f64 = self.rows.iter().map(|r| r.speedup(c).ln()).sum();
        (s / self.rows.len() as f64).exp()
    }
}

/// Renders a unit-less horizontal ASCII bar.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max <= 0.0 {
        0
    } else {
        ((value / max) * width as f64).round() as usize
    };
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_roundtrip() {
        for c in EvalConfig::ALL {
            assert!(!c.name().is_empty());
            let _ = c.opt();
        }
        assert_eq!(EvalConfig::ALL[0], EvalConfig::Baseline);
    }

    #[test]
    fn bar_rendering() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn smarq_beats_baseline_on_a_sample() {
        let w = smarq_workloads::by_name("swim").unwrap();
        let base = run_workload(&w, EvalConfig::Baseline);
        let smarq = run_workload(&w, EvalConfig::Smarq64);
        assert!(smarq.total_cycles() < base.total_cycles());
        assert_eq!(base.guest_instrs(), smarq.guest_instrs());
    }

    #[test]
    fn benchmark_row_accessors() {
        let w = smarq_workloads::by_name("art").unwrap();
        let row = BenchmarkRow {
            name: w.name,
            stats: EvalConfig::ALL
                .iter()
                .map(|&c| run_workload(&w, c))
                .collect(),
        };
        assert!(row.speedup(EvalConfig::Smarq64) >= 1.0);
        assert!(row.hot_region(EvalConfig::Smarq64).is_some());
        assert!((row.speedup(EvalConfig::Baseline) - 1.0).abs() < 1e-12);
    }
}
