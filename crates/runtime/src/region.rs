//! Shared region primitives: the immutable translation artifact and the
//! chain-dispatch bookkeeping types.
//!
//! The hub publishes [`RegionCode`] values frozen behind an `Arc`; each
//! guest keeps its *own* mutable chain links next to the shared code, so
//! link memoization never crosses a thread boundary.

use smarq::range::RegState;
use smarq::Diagnostic;
use smarq_guest::BlockId;
use smarq_ir::{OpOrigin, Superblock};
use smarq_opt::fastcomp::FastProgram;
use smarq_opt::{OptStats, OptTrace};
use smarq_vliw::{RegionWriteMask, VliwProgram};

/// Sentinel for "no region record yet" in a guest's per-block table.
pub(crate) const NO_REGION: u32 = u32::MAX;

/// Memoized dispatch decision for one region exit.
///
/// Link lifecycle: every exit starts `Unresolved`; the first time the
/// running region leaves through it with a region pinned at the target
/// block, the dispatcher memoizes `Region(target)` and subsequent
/// executions follow the link without consulting the block table.
/// Unpinning the region at block `n` (retranslation, abandonment,
/// invalidation) resets every `Region(n)` link, and the unpinned region's
/// own outgoing links, back to `Unresolved`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ChainLink {
    /// Not yet resolved, or invalidated: consult the block table.
    Unresolved,
    /// The exit target is block `n`, whose pinned region runs next with
    /// guest state staying resident in the executor's register file.
    Region(u32),
}

/// Per-chain statistics accumulator: the dispatch loop folds region
/// execution stats in here (registers/locals on its hot loop) and flushes
/// the totals into [`crate::SystemStats`] once per chain.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ChainAccum {
    pub guest: u64,
    pub cycles: u64,
    pub mem_ops: u64,
    pub scanned: u64,
    pub entries: u64,
    pub follows: u64,
    pub lookups: u64,
    /// Entries into regions whose blacklist snapshot is older than the
    /// hub's (stale translations kept running while a fresher one is
    /// produced).
    pub stale: u64,
}

/// The immutable product of one translation: everything a guest needs to
/// *execute* a region, and everything the runtime needs to re-optimize,
/// verify or invalidate it. The hub shares one `RegionCode` across every
/// guest behind an `Arc`.
#[derive(Debug)]
pub(crate) struct RegionCode {
    /// The emitted VLIW code.
    pub vliw: VliwProgram,
    /// Memory-op tag (as reported in alias exceptions) → guest origin.
    pub tag_origin: Vec<OpOrigin>,
    /// The formed superblock (retranslations re-optimize exactly this;
    /// its exits record the guest instructions each one retires).
    pub sb: Superblock,
    /// The region's entry block.
    pub entry: BlockId,
    /// Precomputed register write-set for masked checkpointing on the
    /// resident dispatch path.
    pub write_mask: RegionWriteMask,
    /// Fast-functional lowering of `vliw` (functional tier only).
    pub fast: Option<FastProgram>,
    /// Blacklist generation this region was optimized against. Running a
    /// region whose generation trails the hub's is a *stale* execution
    /// (legal — the alias hardware still catches every true aliasing —
    /// but counted).
    pub blacklist_gen: u64,
    /// Optimization statistics at emit time (per-region records).
    pub opt_stats: OptStats,
    /// The optimizer's trace, kept under verify-on-emit only: link-time
    /// chain checks re-derive their facts from it.
    pub trace: Option<OptTrace>,
    /// The abstract entry register state the optimizer's nospec taint
    /// assumed (`None` = ⊤). The chain analyzer proves no chained
    /// predecessor can deliver a state outside it.
    pub assumed_entry: Option<RegState>,
    /// Verify-on-emit findings (empty unless `trace` is kept).
    pub diags: Vec<Diagnostic>,
}

/// Xorshift64 step — the seeded schedule generator of
/// [`crate::run_multi_interleaved`] (state must be non-zero).
pub(crate) fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}
