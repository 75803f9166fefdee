//! `smarq-run` — execute a guest assembly file on the dynamic optimization
//! system.
//!
//! ```text
//! smarq-run FILE.s [--hw smarq|smarq16|efficeon|alat|none]
//!                  [--regs N] [--unroll N] [--budget N]
//!                  [--exec-tier cycle|functional]
//!                  [--async-translate] [--translate-workers N]
//!                  [--translate-queue N] [--guests N] [--threads M]
//!                  [--dump-region] [--compare] [--verify]
//!                  [--nospec LO..HI[,..]]
//! ```
//!
//! Static linting of programs and corpus directories is `smarq lint`
//! (the `smarq-fuzz` crate). `--verify` enables the runtime's
//! verify-on-emit mode; with it, region→region link formation
//! additionally runs the whole-chain static analyzer. `--nospec
//! LO..HI[,..]` declares half-open unspeculatable address ranges: the
//! optimizer never schedules speculation that can touch them, and the
//! chain analyzer proves none was.
//! `--exec-tier functional` runs optimized regions on the fast functional
//! tier with sampled cycle-sim tier-down checks. `--async-translate`
//! moves region formation, optimization and verification onto background
//! worker threads: the guest keeps interpreting while translations are in
//! flight and picks finished regions up at dispatch-step boundaries.
//! `--translate-workers N` sizes that pool (at least 1; ignored without
//! `--async-translate`) and `--translate-queue N` bounds the job queue.
//!
//! `--guests N` (N >= 2) runs N tenants of the same program over one
//! shared `TranslationHub` (sharded translation cache, single-flight
//! dedup, shared blacklist), scheduled on `--threads M` host threads;
//! a single guest runs on a private hub. The translation flags mean the
//! same on both paths, and `--compare` checks every guest bit-exactly
//! against pure interpretation.

use smarq_opt::OptConfig;
use smarq_runtime::{
    run_multi, DynOptSystem, ExecTier, GuestContext, HubConfig, SystemConfig, TranslationHub,
    DEFAULT_SLICE_STEPS,
};
use std::process::ExitCode;

struct Args {
    file: String,
    hw: String,
    regs: u32,
    unroll: u32,
    budget: u64,
    exec_tier: ExecTier,
    async_translate: bool,
    translate_workers: Option<u32>,
    translate_queue: Option<u32>,
    guests: usize,
    threads: usize,
    dump_region: bool,
    compare: bool,
    verify: bool,
    nospec: smarq::range::NospecRanges,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: smarq-run FILE.s [--hw smarq|smarq16|efficeon|alat|none] \
         [--regs N] [--unroll N] [--budget N] \
         [--exec-tier cycle|functional] [--async-translate] \
         [--translate-workers N] [--translate-queue N] \
         [--guests N] [--threads M] \
         [--dump-region] [--compare] [--verify] [--nospec LO..HI[,..]]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        file: String::new(),
        hw: "smarq".into(),
        regs: 64,
        unroll: 1,
        budget: u64::MAX,
        exec_tier: ExecTier::CycleSim,
        async_translate: false,
        translate_workers: None,
        translate_queue: None,
        guests: 1,
        threads: 1,
        dump_region: false,
        compare: false,
        verify: false,
        nospec: smarq::range::NospecRanges::none(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match a.as_str() {
            "--hw" => args.hw = value("--hw")?,
            "--regs" => {
                args.regs = value("--regs")?.parse().map_err(|_| usage())?;
            }
            "--unroll" => {
                args.unroll = value("--unroll")?.parse().map_err(|_| usage())?;
            }
            "--budget" => {
                args.budget = value("--budget")?.parse().map_err(|_| usage())?;
            }
            "--exec-tier" => {
                args.exec_tier = match value("--exec-tier")?.as_str() {
                    "cycle" | "cycle-sim" => ExecTier::CycleSim,
                    "functional" | "fast" => ExecTier::Functional,
                    other => {
                        eprintln!("unknown exec tier '{other}' (cycle|functional)");
                        return Err(usage());
                    }
                };
            }
            "--async-translate" => args.async_translate = true,
            "--translate-workers" => {
                args.translate_workers =
                    Some(value("--translate-workers")?.parse().map_err(|_| usage())?);
            }
            "--translate-queue" => {
                args.translate_queue =
                    Some(value("--translate-queue")?.parse().map_err(|_| usage())?);
            }
            "--guests" => {
                args.guests = value("--guests")?.parse().map_err(|_| usage())?;
                if args.guests == 0 {
                    eprintln!("--guests must be at least 1");
                    return Err(usage());
                }
            }
            "--threads" => {
                args.threads = value("--threads")?.parse().map_err(|_| usage())?;
                if args.threads == 0 {
                    eprintln!("--threads must be at least 1");
                    return Err(usage());
                }
            }
            "--nospec" => {
                args.nospec =
                    smarq::range::NospecRanges::parse(&value("--nospec")?).map_err(|e| {
                        eprintln!("--nospec: {e}");
                        usage()
                    })?;
            }
            "--dump-region" => args.dump_region = true,
            "--compare" => args.compare = true,
            "--verify" => args.verify = true,
            "-h" | "--help" => return Err(usage()),
            other if other.starts_with('-') => {
                eprintln!("unknown flag '{other}'");
                return Err(usage());
            }
            file => {
                if !args.file.is_empty() {
                    return Err(usage());
                }
                args.file = file.to_string();
            }
        }
    }
    if args.file.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

fn opt_for(hw: &str, regs: u32) -> Option<OptConfig> {
    Some(match hw {
        "smarq" => OptConfig::smarq(regs),
        "smarq16" => OptConfig::smarq(16),
        "efficeon" => OptConfig::efficeon(),
        "alat" => OptConfig::alat(),
        "none" => OptConfig::no_alias_hw(),
        _ => return None,
    })
}

/// The `--guests N` path: N tenants of the same program over one shared
/// translation hub, scheduled on `--threads M` host threads.
fn run_multi_guests(program: smarq_guest::Program, cfg: SystemConfig, args: &Args) -> ExitCode {
    let hub = TranslationHub::new(HubConfig::from_system(&cfg));
    let guests: Vec<GuestContext> = (0..args.guests)
        .map(|i| GuestContext::new(i, program.clone(), &hub))
        .collect();
    let t0 = std::time::Instant::now();
    let guests = run_multi(&hub, guests, args.threads, args.budget, DEFAULT_SLICE_STEPS);
    let wall = t0.elapsed().as_secs_f64();
    hub.drain();
    let hs = hub.stats();

    let halted = guests.iter().filter(|g| g.halted()).count();
    let instrs: u64 = guests.iter().map(|g| g.stats().guest_instrs()).sum();
    let rollbacks: u64 = guests.iter().map(|g| g.stats().rollbacks).sum();
    println!("hardware:            {}", args.hw);
    println!(
        "multi-guest:         {} guests on {} threads, {}/{} halted, {:.3}s wall",
        args.guests, args.threads, halted, args.guests, wall
    );
    println!(
        "guest instructions:  {} total ({:.2}M/s aggregate)",
        instrs,
        instrs as f64 / wall / 1.0e6
    );
    println!(
        "shared hub:          {} translations, {} re-translations, {} cache hits, \
         {} single-flight waits, {} rollbacks, {} abandoned",
        hs.translations_started,
        hs.retranslations,
        hs.probe_hits,
        hs.single_flight_hits,
        rollbacks,
        hs.abandoned
    );
    println!(
        "publish ledger:      {} published + {} conflicts, {} keys live, epoch {}",
        hs.translations_published, hs.publish_conflicts, hs.published_keys, hs.epoch
    );

    if args.compare {
        if args.budget == u64::MAX {
            let mut reference = smarq_guest::Interpreter::new();
            reference.run(&program, u64::MAX);
            let expected = reference.arch_state();
            for g in &guests {
                if g.interp().arch_state() != expected {
                    eprintln!(
                        "state check:         guest {} MISMATCH vs pure interpretation",
                        g.id()
                    );
                    return ExitCode::from(1);
                }
            }
            println!(
                "state check:         all {} guests bit-exact vs pure interpretation",
                args.guests
            );
        } else {
            eprintln!("state check:         skipped (budgeted run)");
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let src = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.file);
            return ExitCode::from(1);
        }
    };
    let program = match smarq_guest::parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", args.file);
            return ExitCode::from(1);
        }
    };
    let Some(opt) = opt_for(&args.hw, args.regs) else {
        eprintln!("unknown hardware scheme '{}'", args.hw);
        return usage();
    };

    let mut cfg = SystemConfig::with_opt(opt);
    cfg.unroll_factor = args.unroll;
    cfg.verify_translations = args.verify;
    cfg.exec_tier = args.exec_tier;
    cfg.async_translate = args.async_translate;
    if let Some(w) = args.translate_workers {
        cfg.translate_workers = w;
    }
    if let Some(q) = args.translate_queue {
        cfg.translate_queue_depth = q;
    }
    cfg.nospec_ranges = args.nospec.clone();
    if args.guests >= 2 {
        return run_multi_guests(program, cfg, &args);
    }

    let tier = cfg.exec_tier;
    let async_on = cfg.async_translate;
    let mut sys = DynOptSystem::new(program.clone(), cfg);
    sys.run_to_completion(args.budget);
    if async_on {
        // Settle in-flight jobs so the publish counters are final.
        sys.translation_drain();
    }
    let s = sys.stats();

    println!("hardware:            {}", args.hw);
    println!("guest instructions:  {}", s.guest_instrs());
    // The functional tier models no cycles, so cycle counts (and host
    // time divided by them) would mean something else there.
    if tier == ExecTier::CycleSim {
        println!("simulated cycles:    {}", s.total_cycles());
    }
    println!(
        "regions:             {} formed, {} entries, {} rollbacks, {} re-translations",
        s.regions_formed, s.region_entries, s.rollbacks, s.retranslations
    );
    if tier == ExecTier::CycleSim {
        println!(
            "optimization:        {:.4}% of execution time",
            s.optimization_overhead() * 100.0
        );
    } else {
        println!(
            "functional tier:     {} fast entries, {} deopts, {} samples ({} mismatches, {} sampled cycles)",
            s.tier_fast_entries,
            s.tier_deopts,
            s.tier_samples,
            s.tier_sample_mismatches,
            s.tier_sampled_cycles
        );
    }
    if async_on {
        let h = sys.hub_stats();
        println!(
            "async translation:   {} started, {} published, {} conflicts, {} stale entries",
            h.translations_started + h.retranslations,
            h.translations_published,
            h.gen_conflicts + h.publish_conflicts,
            s.async_stale_entries
        );
    }
    if s.regions_verified > 0 || s.verify_errors > 0 {
        println!(
            "verification:        {} region(s) statically verified, {} error(s)",
            s.regions_verified, s.verify_errors
        );
        for d in &s.verify_diagnostics {
            println!("  {d}");
        }
        if s.verify_errors > 0 {
            return ExitCode::from(1);
        }
    }
    if let Some(r) = s.per_region.iter().max_by_key(|r| r.entries) {
        println!(
            "hot region:          {} memops, working set {}, {} checks, {} antis",
            r.opt.mem_ops, r.opt.working_set, r.opt.checks, r.opt.antis
        );
    }

    if args.dump_region {
        // Re-derive the hot region's translation for display.
        use smarq_ir::{form_superblock, unroll_superblock, FormationParams};
        let mut interp = smarq_guest::Interpreter::new();
        interp.run(&program, 100_000);
        if let Some(rec) = s.per_region.iter().max_by_key(|r| r.entries) {
            let sb = form_superblock(
                &program,
                interp.profile(),
                rec.entry,
                FormationParams::default(),
            );
            let (sb, _) = unroll_superblock(&sb, args.unroll, 512);
            let Some(opt) = opt_for(&args.hw, args.regs) else {
                unreachable!("validated above");
            };
            let o = smarq_opt::optimize_superblock(
                &sb,
                &opt,
                &smarq_vliw::MachineConfig::default(),
                sys.blacklist(),
            );
            println!("\ntranslated hot region:\n{}", o.vliw);
        }
    }

    if args.compare {
        let mut reference = smarq_guest::Interpreter::new();
        reference.run(&program, args.budget);
        if args.budget == u64::MAX {
            if sys.interp().arch_state() == reference.arch_state() {
                println!("state check:         bit-exact vs pure interpretation");
            } else {
                eprintln!("state check:         MISMATCH vs pure interpretation");
                return ExitCode::from(1);
            }
        } else {
            eprintln!("state check:         skipped (budgeted run)");
        }
    }
    ExitCode::SUCCESS
}
