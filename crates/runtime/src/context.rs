//! Per-guest execution context: the runtime's one region-execution loop.
//!
//! A [`GuestContext`] is everything one guest does not share: its
//! interpreter (architectural state), resident `VliwState` / `FastState`,
//! cycle and fast-functional executors (each owning its alias-detection
//! queue — per-context by construction, as the paper's software-managed
//! queue is per-hardware-context), statistics, and a per-block table of
//! *pins* into the [`crate::TranslationHub`] cache with their chain links.
//!
//! Sharing protocol: published regions are pinned as `Arc<SharedRegion>`
//! and executed without any hub interaction on the hot path. At every
//! dispatch-step boundary the context compares the hub's invalidation
//! epoch with the one it last saw and, when it moved, revalidates every
//! pin (dropping withdrawn or replaced regions and severing their chain
//! links). Mid-chain executions of a just-withdrawn region are legal stale
//! executions; the alias hardware still catches every true aliasing.
//!
//! Three hooks serve a sole guest ([`crate::DynOptSystem`]) and stay off
//! for the tenants [`GuestContext::new`] builds: tier-down sampling (a
//! sample clones guest memory), the dataflow entry state sent with each
//! translation request, and re-pinning a deopted region's inline
//! retranslation at once. Link-time chain checks run for every context
//! whose hub verifies on emit.

use crate::hub::{
    hash_program, HubConfig, HubProbe, RegionKey, RollbackVerdict, SharedRegion, TranslationHub,
    Workspace,
};
use crate::region::{ChainAccum, ChainLink, RegionCode, NO_REGION};
use crate::stats::{RegionRecord, SystemStats};
use crate::system::{ExecTier, RunStatus, StopReason};
use smarq::range::NospecRanges;
use smarq_guest::{BlockId, Interpreter, Program};
use smarq_opt::fastcomp::FastSim;
use smarq_verify::{ChainRegionView, ChainReport, ProgramDataflow};
use smarq_vliw::{
    AliasViolation, AnyAliasHw, FastState, MachineConfig, RegionOutcome, Simulator, VliwState,
};
use std::sync::Arc;

/// Everything the context knows about one guest block, in one record
/// instead of parallel tables: the region pinned there, that region's
/// chain links, its statistics record, and whether the hub gave up.
struct Block {
    /// The region dispatch enters at this block; `None` interprets it.
    pinned: Option<Arc<SharedRegion>>,
    /// Memoized chain links of the pinned region, one per exit.
    links: Vec<ChainLink>,
    /// Index of this block's record in `stats.per_region` and `formed`;
    /// [`NO_REGION`] until a region is first pinned here.
    record: u32,
    /// The hub abandoned translation of this block.
    abandoned: bool,
}

/// One guest: private architectural and resident state, executing
/// translations shared through a [`TranslationHub`].
pub struct GuestContext {
    id: usize,
    program: Arc<Program>,
    program_hash: u64,
    hot_threshold: u64,
    exec_tier: ExecTier,
    machine: MachineConfig,
    interp: Interpreter,
    vstate: VliwState,
    sim: Simulator<AnyAliasHw>,
    fast_sim: FastSim,
    fstate: FastState,
    blocks: Vec<Block>,
    /// The latest region pinned at each record's block, in first-pin
    /// order (parallel to `stats.per_region`; kept after unpinning).
    formed: Vec<Arc<SharedRegion>>,
    ws: Workspace,
    stats: SystemStats,
    /// Hub invalidation epoch last seen; pins are revalidated at the
    /// next dispatch-step boundary after it moves.
    seen_epoch: u64,
    cursor: Option<BlockId>,
    /// Tier-down sampling interval (0 = off).
    sample_interval: u64,
    /// Functional entries left until the next sample (0 = off). A
    /// countdown keeps the u64 divide off the per-entry path; it starts at
    /// 1, so the first functional entry is always cross-checked.
    sample_countdown: u64,
    /// Whole-program range analysis supplying each translation request's
    /// entry state (`None` = assume ⊤).
    dataflow: Option<ProgramDataflow>,
    /// The only guest of its hub: an inline retranslation after a deopt
    /// is pinned at once instead of on the next request.
    sole: bool,
}

impl GuestContext {
    /// Creates a context for `program`, attached to `hub` (the hub's
    /// config supplies every shared knob: hot threshold, exec tier,
    /// machine model). Tier-down sampling is off.
    pub fn new(id: usize, program: Program, hub: &TranslationHub) -> Self {
        let hash = hash_program(&program);
        Self::build(id, program, hub.config(), hash, None)
    }

    /// Builds a context; `sole` makes it the only guest of a private hub,
    /// with the given tier-down sampling interval and entry-state
    /// analysis.
    pub(crate) fn build(
        id: usize,
        program: Program,
        cfg: &HubConfig,
        program_hash: u64,
        sole: Option<(u64, Option<ProgramDataflow>)>,
    ) -> Self {
        let is_sole = sole.is_some();
        let (sample_interval, dataflow) = sole.unwrap_or_default();
        let hw = AnyAliasHw::for_kind(cfg.opt.hw, cfg.opt.num_alias_regs);
        let mut interp = Interpreter::new();
        interp.load_data(&program);
        let blocks = (0..program.num_blocks())
            .map(|_| Block {
                pinned: None,
                links: Vec::new(),
                record: NO_REGION,
                abandoned: false,
            })
            .collect();
        GuestContext {
            id,
            cursor: Some(program.entry()),
            program: Arc::new(program),
            program_hash,
            hot_threshold: cfg.hot_threshold,
            exec_tier: cfg.exec_tier,
            machine: cfg.machine,
            interp,
            vstate: VliwState::new(),
            sim: Simulator::new(cfg.machine, hw),
            fast_sim: FastSim::new(cfg.opt.hw, cfg.opt.num_alias_regs),
            fstate: FastState::new(),
            blocks,
            formed: Vec::new(),
            ws: Workspace::default(),
            stats: SystemStats::default(),
            seen_epoch: 0,
            sample_interval,
            sample_countdown: u64::from(sample_interval != 0),
            dataflow,
            sole: is_sole,
        }
    }

    /// This guest's tenant id (assigned by the creator; stable).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// The guest interpreter (architectural state lives here).
    pub fn interp(&self) -> &Interpreter {
        &self.interp
    }

    /// Whether the guest program has halted.
    pub fn halted(&self) -> bool {
        self.cursor.is_none()
    }

    /// The superblock of every region this guest has pinned, in first-pin
    /// order (zipped 1:1 with `stats().per_region`).
    pub(crate) fn formed_superblocks(&self) -> impl Iterator<Item = &smarq_ir::Superblock> + '_ {
        self.formed.iter().map(|r| &r.code.sb)
    }

    /// Runs until the guest halts or roughly `budget` guest instructions
    /// have retired (resumable).
    pub fn run_to_completion(&mut self, hub: &TranslationHub, budget: u64) -> StopReason {
        match self.run_bounded(hub, u64::MAX, budget) {
            RunStatus::Halted => StopReason::Halted,
            RunStatus::BudgetExhausted => StopReason::BudgetExhausted,
            RunStatus::Running => unreachable!("u64::MAX dispatch steps"),
        }
    }

    /// Runs at most `max_steps` dispatch steps (each an interpreted block
    /// or a region chain), stopping earlier on guest halt or once roughly
    /// `budget` guest instructions have retired. Hub publications and
    /// invalidations are picked up at each step boundary.
    pub fn run_bounded(&mut self, hub: &TranslationHub, max_steps: u64, budget: u64) -> RunStatus {
        let Some(mut cur) = self.cursor else {
            return RunStatus::Halted;
        };
        let mut steps = 0u64;
        let status = loop {
            if steps == max_steps {
                break RunStatus::Running;
            }
            steps += 1;
            let epoch = hub.epoch();
            if epoch != self.seen_epoch {
                self.revalidate(hub);
                self.seen_epoch = epoch;
            }
            if self.live_guest_instrs() >= budget {
                break RunStatus::BudgetExhausted;
            }
            match self.step(hub, cur, budget) {
                Some(b) => cur = b,
                None => break RunStatus::Halted,
            }
        };
        self.cursor = (status != RunStatus::Halted).then_some(cur);
        self.sync_stats();
        status
    }

    /// Guest instructions retired so far, computed live from the
    /// interpreter counter so the budget check needs no per-block stat
    /// sync.
    #[inline]
    fn live_guest_instrs(&self) -> u64 {
        self.interp.executed_instrs() + self.stats.region_guest_instrs
    }

    /// Brings the batched counters up to date (at every stop point).
    fn sync_stats(&mut self) {
        self.stats.interp_instrs = self.interp.executed_instrs();
        self.stats.interp_cycles = self.stats.interp_instrs * self.machine.interp_cycles_per_instr;
        self.stats.translation_ns = self.ws.translate_ns;
        self.stats.scheduling_ns = self.ws.sched_ns;
    }

    fn step(&mut self, hub: &TranslationHub, cur: BlockId, budget: u64) -> Option<BlockId> {
        self.stats.dispatch_lookups += 1;
        if self.blocks[cur.index()].pinned.is_some() {
            return self.run_regions(hub, cur.index(), budget);
        }
        let next = self.interp.step_block(&self.program, cur);
        self.maybe_request(hub, cur);
        next
    }

    /// Hot-block detection after an interpreted block: probe-or-request
    /// through the hub. Single-flight means at most one guest anywhere
    /// actually translates; everyone else subscribes by re-probing here
    /// on later dispatches of the still-hot block.
    fn maybe_request(&mut self, hub: &TranslationHub, cur: BlockId) {
        let b = &self.blocks[cur.index()];
        if b.pinned.is_some()
            || b.abandoned
            || self.interp.profile().block_count(cur) < self.hot_threshold
        {
            return;
        }
        let key = RegionKey {
            program: self.program_hash,
            entry: cur,
        };
        let entry_state = self.dataflow.as_ref().map(|d| *d.entry_state(cur));
        match hub.request(
            key,
            &self.program,
            self.interp.profile(),
            entry_state,
            &mut self.ws,
        ) {
            HubProbe::Hit(r) => self.pin(r),
            HubProbe::Pending | HubProbe::Miss => {}
            HubProbe::Abandoned => self.blocks[cur.index()].abandoned = true,
        }
    }

    /// Pins a published region at its entry block. The block's first pin
    /// creates its region record; every later pin is a retranslation and
    /// updates that record.
    fn pin(&mut self, r: Arc<SharedRegion>) {
        let code = &r.code;
        if code.trace.is_some() {
            self.stats.regions_verified += 1;
            for d in &code.diags {
                if d.severity == smarq::Severity::Error {
                    self.stats.verify_errors += 1;
                }
                self.note_diagnostic(d);
            }
        }
        let b = &mut self.blocks[code.entry.index()];
        b.links.clear();
        b.links.resize(code.vliw.exits.len(), ChainLink::Unresolved);
        if b.record == NO_REGION {
            b.record = self.formed.len() as u32;
            self.stats.regions_formed += 1;
            self.stats.per_region.push(RegionRecord {
                entry: code.entry,
                opt: code.opt_stats,
                entries: 0,
                rollbacks: 0,
                retranslations: 0,
            });
            self.formed.push(Arc::clone(&r));
        } else {
            let rec = b.record as usize;
            self.stats.retranslations += 1;
            self.stats.per_region[rec].retranslations += 1;
            self.stats.per_region[rec].opt = code.opt_stats;
            self.formed[rec] = Arc::clone(&r);
        }
        b.pinned = Some(r);
    }

    fn note_diagnostic(&mut self, d: &smarq::Diagnostic) {
        if self.stats.verify_diagnostics.len() < SystemStats::VERIFY_DIAGNOSTIC_CAP {
            self.stats.verify_diagnostics.push(d.to_json());
        }
    }

    /// Drops every pin the hub has withdrawn or replaced since the last
    /// boundary (pointer identity decides: a retranslation published a
    /// *new* `Arc`, so the old pin no longer matches).
    fn revalidate(&mut self, hub: &TranslationHub) {
        for idx in 0..self.blocks.len() {
            let Some(pin) = &self.blocks[idx].pinned else {
                continue;
            };
            let keep = match hub.probe(pin.key) {
                HubProbe::Hit(cur) => Arc::ptr_eq(&cur, pin),
                HubProbe::Abandoned => {
                    self.blocks[idx].abandoned = true;
                    false
                }
                HubProbe::Pending | HubProbe::Miss => false,
            };
            if !keep {
                self.unpin(idx);
            }
        }
    }

    /// Unpins the region at block `idx`: dispatch interprets the block
    /// again, and its own memoized links and every link chaining into it
    /// are severed.
    fn unpin(&mut self, idx: usize) {
        let b = &mut self.blocks[idx];
        if b.pinned.take().is_none() {
            return;
        }
        let resolved = b
            .links
            .iter()
            .filter(|l| **l != ChainLink::Unresolved)
            .count();
        b.links.clear();
        self.stats.chain_unlinks += resolved as u64;
        let stale = ChainLink::Region(idx as u32);
        for b in &mut self.blocks {
            for l in &mut b.links {
                if *l == stale {
                    *l = ChainLink::Unresolved;
                    self.stats.chain_unlinks += 1;
                }
            }
        }
    }

    /// The chained region-execution loop over pinned code — one body for
    /// both tiers. Guest state stays resident in the executor's register
    /// file for the whole chain and is marshalled back to the interpreter
    /// only at the translated→interpreted boundary (or after a rollback).
    /// Statistics accumulate chain-locally and are flushed once per chain
    /// (per-region entry counts once per region switch).
    fn run_regions(&mut self, hub: &TranslationHub, start: usize, budget: u64) -> Option<BlockId> {
        /// Why the chain stopped.
        enum Stop {
            Halt,
            Leave(BlockId),
            Deopt(AliasViolation),
        }
        let functional = self.exec_tier == ExecTier::Functional;
        if functional {
            self.fstate
                .load_guest(&self.interp.regs, &self.interp.fregs);
        } else {
            self.vstate
                .load_guest(&self.interp.regs, &self.interp.fregs);
        }
        // The interpreter cannot retire instructions while the chain runs,
        // so the budget check is two local adds and a compare.
        let guest_base = self.live_guest_instrs();
        let hub_gen = hub.blacklist_gen();
        let mut acc = ChainAccum::default();
        let mut idx = start;
        let mut run_entries = 0u64;
        let mut region = &self.blocks[idx]
            .pinned
            .as_ref()
            .expect("dispatched block is pinned")
            .code;
        let stop = loop {
            if region.blacklist_gen != hub_gen {
                acc.stale += 1;
            }
            let (outcome, rstats) = if functional {
                // Sampling decision *before* the fast run: the oracle
                // needs the pre-state.
                let sampled = self.sample_countdown != 0 && {
                    self.sample_countdown -= 1;
                    self.sample_countdown == 0
                };
                let pre_mem = sampled.then(|| {
                    self.sample_countdown = self.sample_interval;
                    self.fstate.copy_to_vliw(&mut self.vstate);
                    self.interp.mem.clone()
                });
                let fast = region
                    .fast
                    .as_ref()
                    .expect("functional-tier regions carry fast code");
                let (o, r) = self
                    .fast_sim
                    .run_region(fast, &mut self.fstate, &mut self.interp.mem);
                self.stats.tier_fast_entries += 1;
                if let Some(mut sim_mem) = pre_mem {
                    // Tier-down sample: replay the entry on the cycle
                    // simulator from the identical pre-state and
                    // bit-compare outcome, both register files and
                    // memory. The fast result stays canonical either way.
                    let (sim_o, sim_r) = self
                        .sim
                        .run_region_resident(
                            &region.vliw,
                            region.write_mask,
                            &mut self.vstate,
                            &mut sim_mem,
                        )
                        .expect("translated region is well formed");
                    self.stats.tier_samples += 1;
                    self.stats.tier_sampled_cycles += sim_r.cycles;
                    let fregs_agree = (self.fstate.fregs.iter())
                        .zip(self.vstate.fregs.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    if sim_o != o
                        || self.fstate.regs != self.vstate.regs
                        || !fregs_agree
                        || sim_mem != self.interp.mem
                    {
                        self.stats.tier_sample_mismatches += 1;
                    }
                }
                (o, r)
            } else {
                let (o, r) = self
                    .sim
                    .run_region_resident(
                        &region.vliw,
                        region.write_mask,
                        &mut self.vstate,
                        &mut self.interp.mem,
                    )
                    .expect("translated region is well formed");
                acc.cycles += r.cycles;
                (o, r)
            };
            acc.mem_ops += rstats.mem_ops;
            acc.scanned += rstats.entries_scanned;
            acc.entries += 1;
            run_entries += 1;
            let exit = match outcome {
                RegionOutcome::Exited { exit_id } => exit_id as usize,
                // The executor rolled the resident state back to this
                // region's entry — even mid-chain, the checkpoint taken at
                // the chained entry is exactly the pre-region guest state.
                RegionOutcome::AliasException(v) => break Stop::Deopt(v),
            };
            acc.guest += region.sb.exits[exit].guest_instrs;
            // Resolve the exit: a memoized link, a fresh block-table
            // probe, or a hand-off back to the interpreter.
            let next = match self.blocks[idx].links[exit] {
                ChainLink::Region(j) => j as usize,
                ChainLink::Unresolved => {
                    let Some(target) = region.vliw.exits[exit].guest_block else {
                        break Stop::Halt;
                    };
                    acc.lookups += 1;
                    let j = target as usize;
                    // Not pinned (yet): never memoized, so a later pin of
                    // the target is picked up here.
                    if self.blocks[j].pinned.is_none() {
                        break Stop::Leave(BlockId(target));
                    }
                    self.blocks[idx].links[exit] = ChainLink::Region(target);
                    if hub.config().verify_translations {
                        // Prove the hand-off before the link is ever
                        // followed (observation mode).
                        self.chain_check_link(&hub.config().opt.nospec, idx, j);
                    }
                    region = &self.blocks[idx].pinned.as_ref().expect("still pinned").code;
                    j
                }
            };
            // Chain boundary: stop following links once the budget is
            // spent so the caller can observe it.
            if guest_base + acc.guest >= budget {
                break Stop::Leave(BlockId(next as u32));
            }
            acc.follows += 1;
            if next != idx {
                let rec = self.blocks[idx].record as usize;
                self.stats.per_region[rec].entries += run_entries;
                run_entries = 0;
                region = &self.blocks[next]
                    .pinned
                    .as_ref()
                    .expect("linked block is pinned")
                    .code;
            }
            idx = next;
        };
        if functional {
            self.fstate
                .store_guest(&mut self.interp.regs, &mut self.interp.fregs);
        } else {
            self.vstate
                .store_guest(&mut self.interp.regs, &mut self.interp.fregs);
        }
        self.note_entries(idx, run_entries);
        let s = &mut self.stats;
        s.region_guest_instrs += acc.guest;
        s.vliw_cycles += acc.cycles;
        s.region_mem_ops += acc.mem_ops;
        s.alias_entries_scanned += acc.scanned;
        s.region_entries += acc.entries;
        s.chain_follows += acc.follows;
        s.dispatch_lookups += acc.lookups;
        s.async_stale_entries += acc.stale;
        match stop {
            Stop::Halt => None,
            Stop::Leave(b) => Some(b),
            Stop::Deopt(v) => {
                if functional {
                    self.stats.tier_deopts += 1;
                }
                self.deopt(hub, idx, v)
            }
        }
    }

    fn note_entries(&mut self, idx: usize, entries: u64) {
        let rec = self.blocks[idx].record as usize;
        self.stats.per_region[rec].entries += entries;
    }

    /// Alias-exception deopt: report the faulting pair to the hub (which
    /// blacklists it for every guest and withdraws/retranslates or
    /// abandons the region), unpin it, and make forward progress by
    /// interpreting one block from the region entry.
    fn deopt(&mut self, hub: &TranslationHub, idx: usize, v: AliasViolation) -> Option<BlockId> {
        self.stats.rollbacks += 1;
        let rec = self.blocks[idx].record as usize;
        self.stats.per_region[rec].rollbacks += 1;
        let region = Arc::clone(
            self.blocks[idx]
                .pinned
                .as_ref()
                .expect("faulting region is pinned"),
        );
        let a = region.code.tag_origin[v.checker_tag as usize];
        let b = region.code.tag_origin[v.producer_tag as usize];
        let verdict = hub.report_rollback(&region, a, b, &mut self.ws);
        self.unpin(idx);
        match verdict {
            RollbackVerdict::Abandoned => self.blocks[idx].abandoned = true,
            // The sole guest of an inline hub re-pins the just-published
            // retranslation at once, as if it were patched in place.
            RollbackVerdict::Retranslating if self.sole && !hub.queued() => {
                if let HubProbe::Hit(r) = hub.probe(region.key) {
                    self.pin(r);
                }
            }
            _ => {}
        }
        self.interp.step_block(&self.program, region.code.entry)
    }

    /// Chain-boundary verification at link time (verify-on-emit mode):
    /// when the dispatcher memoizes a region→region link, the hand-off
    /// obligations of the two regions involved — write-mask coverage,
    /// entry-state soundness, nospec protection, dead `AMOV`s and
    /// unreachable checks — are proven by the chain analyzer and the
    /// findings folded into [`SystemStats`]. Observation only.
    fn chain_check_link(&mut self, nospec: &NospecRanges, from: usize, to: usize) {
        let ids: &[usize] = if from == to { &[from] } else { &[from, to] };
        let mut views = Vec::with_capacity(ids.len());
        for &i in ids {
            let b = &self.blocks[i];
            let code = &b.pinned.as_ref().expect("linked blocks are pinned").code;
            // Regions translated without verify carry no trace; nothing
            // to re-derive facts from.
            let Some(view) = chain_view(b.record as usize, code) else {
                return;
            };
            views.push(view);
        }
        let report = smarq_verify::analyze_chain(&self.program, &views, nospec);
        self.stats.chain_checks += 1;
        for d in &report.diagnostics {
            if d.severity == smarq::Severity::Error {
                self.stats.chain_errors += 1;
            }
            self.note_diagnostic(d);
        }
    }

    /// Runs the whole-chain static analyzer over every formed region that
    /// carries an optimizer trace; `None` when none does.
    pub(crate) fn analyze_chain(&self, nospec: &NospecRanges) -> Option<ChainReport> {
        let views: Vec<ChainRegionView<'_>> = self
            .formed
            .iter()
            .enumerate()
            .filter_map(|(i, r)| chain_view(i, &r.code))
            .collect();
        (!views.is_empty()).then(|| smarq_verify::analyze_chain(&self.program, &views, nospec))
    }
}

/// The chain analyzer's view of a region (`None` without a trace).
fn chain_view(region_id: usize, code: &RegionCode) -> Option<ChainRegionView<'_>> {
    Some(ChainRegionView {
        region_id,
        sb: &code.sb,
        trace: code.trace.as_ref()?,
        vliw: &code.vliw,
        write_mask: code.write_mask,
        assumed_entry: code.assumed_entry,
    })
}
