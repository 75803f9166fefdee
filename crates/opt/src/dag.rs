//! Scheduling dependence DAG.
//!
//! Hard edges (register RAW/WAR/WAW, must-alias memory dependences, exit
//! barriers) constrain every schedule. May-alias memory dependences are
//! *speculation candidates*: the hardware policy decides whether they are
//! dropped (and detected at runtime) or kept hard. Dropped edges are
//! remembered in [`Dag::spec_before`] so the scheduler can re-impose them
//! while the alias register allocator is in non-speculation mode
//! (paper §5.3).

use crate::blacklist::AliasBlacklist;
use crate::config::OptConfig;
use crate::elim::Eliminations;
use smarq_ir::{AliasAnalysis, AliasRel, IrOp, Superblock};
use smarq_vliw::{HwKind, MachineConfig};

/// The post-elimination operation list the scheduler works on.
#[derive(Clone, Debug)]
pub struct WorkList {
    /// Operations (eliminated loads appear as copies; removed stores are
    /// gone).
    pub ops: Vec<IrOp>,
    /// For each work op: its index in the original superblock.
    pub orig: Vec<usize>,
}

/// Builds the work list from the superblock and the elimination outcome.
pub fn build_work_list(sb: &Superblock, elims: &Eliminations) -> WorkList {
    let mut ops = Vec::with_capacity(sb.ops.len());
    let mut orig = Vec::with_capacity(sb.ops.len());
    for (i, op) in sb.ops.iter().enumerate() {
        if elims.removed[i] {
            continue;
        }
        ops.push(elims.replaced[i].unwrap_or(*op));
        orig.push(i);
    }
    WorkList { ops, orig }
}

/// The dependence DAG. All edges run forward in work-list order.
#[derive(Clone, Debug)]
pub struct Dag {
    /// `(pred, delay)` hard predecessors per node.
    pub hard_preds: Vec<Vec<(usize, u64)>>,
    /// `(succ, delay)` hard successors per node.
    pub hard_succs: Vec<Vec<(usize, u64)>>,
    /// Earlier memory operations this op was allowed to speculate across
    /// (dropped may-alias edges); re-imposed in non-speculation mode.
    pub spec_before: Vec<Vec<usize>>,
    /// Critical-path priority (longest latency chain to a sink).
    pub priority: Vec<u64>,
}

/// Latency of the value an op produces (order-only ops get 1).
pub fn op_latency(op: &IrOp, m: &MachineConfig) -> u64 {
    u64::from(match *op {
        IrOp::Alu { op, .. } | IrOp::AluImm { op, .. } => m.alu_latency(op),
        IrOp::Fpu { op, .. } => m.fpu_latency(op),
        IrOp::Ld { .. } | IrOp::FLd { .. } => m.lat_load,
        _ => m.lat_int,
    })
}

/// Whether the policy lets the schedule drop a may-alias edge between the
/// earlier op `a` and the later op `b` (work-list order).
fn droppable(a: &IrOp, b: &IrOp, config: &OptConfig) -> bool {
    if !config.speculate_reordering {
        return false;
    }
    match config.hw {
        // Both the ordered queue and the exact bit-mask encoding can check
        // any reordered pair, including store-store.
        HwKind::Smarq | HwKind::Efficeon => {
            if a.is_store() && b.is_store() {
                config.allow_store_reorder
            } else {
                true
            }
        }
        // ALAT only supports *advanced loads*: a later load hoisted above
        // an earlier store. Store-store and store-above-load reordering are
        // undetectable (paper §2.3).
        HwKind::Alat => a.is_store() && !b.is_store(),
        HwKind::None => false,
    }
}

/// Builds the DAG over `work`.
///
/// `taint` flags per *superblock* op index the memory operations whose
/// address can touch an unspeculatable range. Every memory pair involving
/// a tainted op is pinned as a hard edge — regardless of the alias
/// relation, and including load/load pairs — so tainted accesses execute
/// in exact program order (MMIO-style side effects make even re-ordered
/// reads unsafe) and never need alias-register bits.
pub fn build_dag(
    sb: &Superblock,
    analysis: &AliasAnalysis,
    work: &WorkList,
    config: &OptConfig,
    machine: &MachineConfig,
    blacklist: &AliasBlacklist,
    taint: &[bool],
) -> Dag {
    let n = work.ops.len();
    let mut hard_preds: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    let mut hard_succs: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    let mut spec_before: Vec<Vec<usize>> = vec![Vec::new(); n];

    let add = |hp: &mut Vec<Vec<(usize, u64)>>,
               hs: &mut Vec<Vec<(usize, u64)>>,
               src: usize,
               dst: usize,
               delay: u64| {
        debug_assert!(src < dst, "edges must run forward");
        hp[dst].push((src, delay));
        hs[src].push((dst, delay));
    };

    // Register dependences.
    let mut last_def_int: [Option<usize>; 64] = [None; 64];
    let mut last_def_fp: [Option<usize>; 64] = [None; 64];
    let mut uses_int: Vec<Vec<usize>> = vec![Vec::new(); 64];
    let mut uses_fp: Vec<Vec<usize>> = vec![Vec::new(); 64];
    // Exit barriers.
    let mut last_barrier: Option<usize> = None;
    let mut since_barrier: Vec<usize> = Vec::new();

    for k in 0..n {
        let op = &work.ops[k];
        for r in op.int_uses() {
            if let Some(d) = last_def_int[r as usize] {
                let lat = op_latency(&work.ops[d], machine);
                add(&mut hard_preds, &mut hard_succs, d, k, lat);
            }
            uses_int[r as usize].push(k);
        }
        for r in op.fp_uses() {
            if let Some(d) = last_def_fp[r as usize] {
                let lat = op_latency(&work.ops[d], machine);
                add(&mut hard_preds, &mut hard_succs, d, k, lat);
            }
            uses_fp[r as usize].push(k);
        }
        if let Some(rd) = op.int_def() {
            for &u in &uses_int[rd as usize] {
                if u != k {
                    add(&mut hard_preds, &mut hard_succs, u, k, 0); // WAR
                }
            }
            if let Some(d) = last_def_int[rd as usize] {
                add(&mut hard_preds, &mut hard_succs, d, k, 0); // WAW
            }
            last_def_int[rd as usize] = Some(k);
            uses_int[rd as usize].clear();
        }
        if let Some(fd) = op.fp_def() {
            for &u in &uses_fp[fd as usize] {
                if u != k {
                    add(&mut hard_preds, &mut hard_succs, u, k, 0);
                }
            }
            if let Some(d) = last_def_fp[fd as usize] {
                add(&mut hard_preds, &mut hard_succs, d, k, 0);
            }
            last_def_fp[fd as usize] = Some(k);
            uses_fp[fd as usize].clear();
        }

        if op.is_exit() {
            for &p in &since_barrier {
                add(&mut hard_preds, &mut hard_succs, p, k, 0);
            }
            if let Some(b) = last_barrier {
                add(&mut hard_preds, &mut hard_succs, b, k, 0);
            }
            last_barrier = Some(k);
            since_barrier.clear();
        } else {
            if let Some(b) = last_barrier {
                add(&mut hard_preds, &mut hard_succs, b, k, 0);
            }
            since_barrier.push(k);
        }
    }

    // Memory dependences. The ALAT has a bounded entry file (32 on real
    // Itanium): only the first ALAT_CAPACITY loads that could benefit
    // become advanced loads; the rest keep their hard edges.
    const ALAT_CAPACITY: usize = 32;
    let mems: Vec<usize> = (0..n).filter(|&k| work.ops[k].is_mem()).collect();
    let mut alat_advanced: Vec<bool> = vec![false; n];
    if config.hw == HwKind::Alat {
        let mut count = 0usize;
        for &l in &mems {
            if work.ops[l].is_store() || taint[work.orig[l]] {
                continue; // tainted loads never advance
            }
            let wants = mems.iter().any(|&s| {
                s < l
                    && work.ops[s].is_store()
                    && analysis.relation(work.orig[s], work.orig[l]) == AliasRel::May
            });
            if wants && count < ALAT_CAPACITY {
                alat_advanced[l] = true;
                count += 1;
            }
        }
    }
    for (ai, &a) in mems.iter().enumerate() {
        for &b in &mems[ai + 1..] {
            let (oa, ob) = (work.orig[a], work.orig[b]);
            if taint[oa] || taint[ob] {
                // Unspeculatable: exact program order vs every memory op.
                add(&mut hard_preds, &mut hard_succs, a, b, 0);
                continue;
            }
            let one_store = work.ops[a].is_store() || work.ops[b].is_store();
            if !one_store {
                continue;
            }
            match analysis.relation(oa, ob) {
                AliasRel::No => {}
                AliasRel::Must => add(&mut hard_preds, &mut hard_succs, a, b, 0),
                AliasRel::May => {
                    let pinned = blacklist.contains(sb.origins[oa], sb.origins[ob])
                        || (config.hw == HwKind::Alat
                            && (!alat_advanced[b]
                                || blacklist.involves(sb.origins[oa])
                                || blacklist.involves(sb.origins[ob])));
                    if !pinned && droppable(&work.ops[a], &work.ops[b], config) {
                        spec_before[b].push(a);
                    } else {
                        add(&mut hard_preds, &mut hard_succs, a, b, 0);
                    }
                }
            }
        }
    }

    // Critical-path priorities over hard edges (edges run forward, so a
    // reverse index sweep is a reverse-topological traversal).
    let mut priority = vec![0u64; n];
    for k in (0..n).rev() {
        let own = op_latency(&work.ops[k], machine);
        let best_succ = hard_succs[k]
            .iter()
            .map(|&(s, d)| priority[s] + d)
            .max()
            .unwrap_or(0);
        priority[k] = own + best_succ;
    }

    Dag {
        hard_preds,
        hard_succs,
        spec_before,
        priority,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq_guest::BlockId;
    use smarq_ir::{IrExit, OpOrigin};

    fn mk_sb(ops: Vec<IrOp>) -> Superblock {
        let n = ops.len();
        let mut ops = ops;
        ops.push(IrOp::Exit {
            exit_id: 0,
            cond: None,
        });
        Superblock {
            origins: (0..n as u32 + 1)
                .map(|i| OpOrigin {
                    block: BlockId(0),
                    instr: i,
                })
                .collect(),
            ops,
            exits: vec![IrExit {
                target: None,
                guest_instrs: 1,
            }],
            entry: BlockId(0),
            trace: vec![BlockId(0)],
        }
    }

    fn dag_for(ops: Vec<IrOp>, config: &OptConfig) -> (Superblock, WorkList, Dag) {
        let sb = mk_sb(ops);
        let analysis = AliasAnalysis::new(&sb);
        let elims = Eliminations {
            replaced: vec![None; sb.ops.len()],
            removed: vec![false; sb.ops.len()],
            spec_load_elims: 0,
            spec_store_elims: 0,
            nonspec_elims: 0,
        };
        let work = build_work_list(&sb, &elims);
        let dag = build_dag(
            &sb,
            &analysis,
            &work,
            config,
            &MachineConfig::default(),
            &AliasBlacklist::new(),
            &vec![false; sb.ops.len()],
        );
        (sb, work, dag)
    }

    fn has_edge(dag: &Dag, a: usize, b: usize) -> bool {
        dag.hard_succs[a].iter().any(|&(s, _)| s == b)
    }

    #[test]
    fn raw_war_waw_edges() {
        let (_, _, dag) = dag_for(
            vec![
                IrOp::IConst { rd: 1, value: 1 }, // 0: def r1
                IrOp::AluImm {
                    op: smarq_guest::AluOp::Add,
                    rd: 2,
                    ra: 1,
                    imm: 0,
                }, // 1: use r1, def r2
                IrOp::IConst { rd: 1, value: 2 }, // 2: redef r1 (WAR vs 1, WAW vs 0)
            ],
            &OptConfig::smarq(64),
        );
        assert!(has_edge(&dag, 0, 1)); // RAW
        assert!(has_edge(&dag, 1, 2)); // WAR
        assert!(has_edge(&dag, 0, 2)); // WAW
    }

    #[test]
    fn may_alias_edges_follow_policy() {
        let ops = vec![
            IrOp::St {
                rs: 1,
                base: 2,
                disp: 0,
            },
            IrOp::Ld {
                rd: 3,
                base: 4,
                disp: 0,
            },
            IrOp::St {
                rs: 5,
                base: 6,
                disp: 0,
            },
        ];
        // SMARQ: both edges dropped (store-load and store-store).
        let (_, _, d) = dag_for(ops.clone(), &OptConfig::smarq(64));
        assert!(!has_edge(&d, 0, 1));
        assert!(!has_edge(&d, 0, 2));
        assert_eq!(d.spec_before[1], vec![0]);
        assert!(d.spec_before[2].contains(&0));

        // SMARQ without store reorder: store-store stays hard.
        let (_, _, d) = dag_for(ops.clone(), &OptConfig::smarq_no_store_reorder(64));
        assert!(!has_edge(&d, 0, 1));
        assert!(has_edge(&d, 0, 2));

        // ALAT: load-above-store dropped; store-store hard; also the
        // load-then-store pair (1,2) must stay hard (store cannot hoist
        // above a load).
        let (_, _, d) = dag_for(ops.clone(), &OptConfig::alat());
        assert!(!has_edge(&d, 0, 1));
        assert!(has_edge(&d, 0, 2));
        assert!(has_edge(&d, 1, 2));

        // No hardware: everything hard.
        let (_, _, d) = dag_for(ops, &OptConfig::no_alias_hw());
        assert!(has_edge(&d, 0, 1));
        assert!(has_edge(&d, 0, 2));
    }

    #[test]
    fn must_alias_is_always_hard() {
        let (_, _, d) = dag_for(
            vec![
                IrOp::St {
                    rs: 1,
                    base: 2,
                    disp: 0,
                },
                IrOp::Ld {
                    rd: 3,
                    base: 2,
                    disp: 0,
                },
            ],
            &OptConfig::smarq(64),
        );
        assert!(has_edge(&d, 0, 1));
    }

    #[test]
    fn exits_are_barriers() {
        let sb = mk_sb(vec![IrOp::IConst { rd: 1, value: 1 }]);
        // ops: [iconst, exit]; edge iconst -> exit.
        let analysis = AliasAnalysis::new(&sb);
        let elims = Eliminations {
            replaced: vec![None; sb.ops.len()],
            removed: vec![false; sb.ops.len()],
            spec_load_elims: 0,
            spec_store_elims: 0,
            nonspec_elims: 0,
        };
        let work = build_work_list(&sb, &elims);
        let dag = build_dag(
            &sb,
            &analysis,
            &work,
            &OptConfig::smarq(64),
            &MachineConfig::default(),
            &AliasBlacklist::new(),
            &vec![false; sb.ops.len()],
        );
        assert!(has_edge(&dag, 0, 1));
    }

    #[test]
    fn blacklist_pins_pairs_hard() {
        let sb = mk_sb(vec![
            IrOp::St {
                rs: 1,
                base: 2,
                disp: 0,
            },
            IrOp::Ld {
                rd: 3,
                base: 4,
                disp: 0,
            },
        ]);
        let analysis = AliasAnalysis::new(&sb);
        let elims = Eliminations {
            replaced: vec![None; sb.ops.len()],
            removed: vec![false; sb.ops.len()],
            spec_load_elims: 0,
            spec_store_elims: 0,
            nonspec_elims: 0,
        };
        let work = build_work_list(&sb, &elims);
        let mut bl = AliasBlacklist::new();
        bl.insert(sb.origins[0], sb.origins[1]);
        let dag = build_dag(
            &sb,
            &analysis,
            &work,
            &OptConfig::smarq(64),
            &MachineConfig::default(),
            &bl,
            &vec![false; sb.ops.len()],
        );
        assert!(has_edge(&dag, 0, 1));
        assert!(dag.spec_before[1].is_empty());
    }

    #[test]
    fn work_list_applies_eliminations() {
        let sb = mk_sb(vec![
            IrOp::St {
                rs: 2,
                base: 1,
                disp: 0,
            },
            IrOp::Ld {
                rd: 3,
                base: 1,
                disp: 0,
            },
        ]);
        let mut elims = Eliminations {
            replaced: vec![None; sb.ops.len()],
            removed: vec![false; sb.ops.len()],
            spec_load_elims: 0,
            spec_store_elims: 0,
            nonspec_elims: 1,
        };
        elims.replaced[1] = Some(IrOp::Copy { rd: 3, ra: 2 });
        let work = build_work_list(&sb, &elims);
        assert_eq!(work.ops.len(), 3);
        assert_eq!(work.ops[1], IrOp::Copy { rd: 3, ra: 2 });
        assert_eq!(work.orig[1], 1);
    }

    #[test]
    fn tainted_mem_pairs_are_pinned_hard() {
        // ld [r2]; ld [r4]; st [r6] — pairwise may-alias except load/load,
        // which normally carries no edge at all.
        let ops = vec![
            IrOp::Ld {
                rd: 1,
                base: 2,
                disp: 0,
            },
            IrOp::Ld {
                rd: 3,
                base: 4,
                disp: 0,
            },
            IrOp::St {
                rs: 5,
                base: 6,
                disp: 0,
            },
        ];
        let sb = mk_sb(ops);
        let analysis = AliasAnalysis::new(&sb);
        let elims = Eliminations {
            replaced: vec![None; sb.ops.len()],
            removed: vec![false; sb.ops.len()],
            spec_load_elims: 0,
            spec_store_elims: 0,
            nonspec_elims: 0,
        };
        let work = build_work_list(&sb, &elims);
        let mut taint = vec![false; sb.ops.len()];
        taint[1] = true; // the middle load is unspeculatable
        let dag = build_dag(
            &sb,
            &analysis,
            &work,
            &OptConfig::smarq(64),
            &MachineConfig::default(),
            &AliasBlacklist::new(),
            &taint,
        );
        // Tainted load is ordered against BOTH neighbors, including the
        // load/load pair, and nothing involving it is speculated.
        assert!(has_edge(&dag, 0, 1));
        assert!(has_edge(&dag, 1, 2));
        assert!(dag.spec_before[1].is_empty());
        assert!(!dag.spec_before[2].contains(&1));
        // The untainted may-alias pair (0, 2) still speculates.
        assert!(!has_edge(&dag, 0, 2));
        assert!(dag.spec_before[2].contains(&0));
    }

    #[test]
    fn priorities_reflect_latency_chains() {
        let (_, _, dag) = dag_for(
            vec![
                IrOp::Ld {
                    rd: 1,
                    base: 2,
                    disp: 0,
                }, // long chain start
                IrOp::Fpu {
                    op: smarq_guest::FpuOp::Div,
                    fd: 1,
                    fa: 1,
                    fb: 1,
                },
                IrOp::IConst { rd: 9, value: 0 }, // independent
            ],
            &OptConfig::smarq(64),
        );
        assert!(dag.priority[0] > dag.priority[2]);
    }
}
