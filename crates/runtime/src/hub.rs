//! The translation hub: the one translation service of the runtime, shared
//! by every guest attached to it.
//!
//! Every guest executes through a [`crate::GuestContext`] on a hub; a
//! [`crate::DynOptSystem`] is one context on a private hub. The hub owns
//! what guests share:
//!
//! * a **sharded translation cache** keyed by ([`hash_program`], entry
//!   block) — lookups take one shard mutex, and published entries are
//!   immutable [`RegionCode`]s behind `Arc`s, so guests execute shared
//!   code without further synchronization;
//! * the **alias blacklist with a generation counter** — one speculation
//!   failure anywhere teaches every guest, exactly the paper's argument
//!   that the software-managed queue makes runtime feedback cheap enough
//!   to centralize;
//! * the **translation jobs** with **single-flight dedup**: the first
//!   requester of a region claims an in-flight slot and every later
//!   requester subscribes by simply re-probing at its next dispatch
//!   boundary. A job runs in one of three places: inline on the
//!   requesting guest's thread (`workers = 0`), on the worker pool
//!   (`workers > 0`), or — on a [`TranslationHub::stepped`] hub — when the
//!   owner calls [`TranslationHub::step`], the deterministic race
//!   harness's clock.
//!
//! A job snapshots the blacklist when it is queued; publication rejects a
//! result whose snapshot generation trails the hub's and re-optimizes it
//! against a fresh one. Invalidation (deopt, retranslation, abandonment)
//! publishes through the `epoch` counter, bumped whenever a published
//! slot is withdrawn. Guests check `epoch` at dispatch-step boundaries and
//! drop pins on regions the hub withdrew. Stale *executions* (a region
//! optimized against an older blacklist) remain legal: the alias hardware
//! still catches every true aliasing, and guests count them.
//!
//! Lock order, everywhere: blacklist → rollback counts → shard → queue.

use crate::region::RegionCode;
use crate::{ExecTier, SystemConfig};
use smarq::range::RegState;
use smarq::AllocScratch;
use smarq_guest::{BlockId, Profile, Program};
use smarq_ir::{form_superblock, unroll_superblock, FormationParams, OpOrigin, Superblock};
use smarq_opt::{fastcomp, optimize_superblock_traced_ranged, AliasBlacklist, OptConfig};
use smarq_vliw::{MachineConfig, RegionWriteMask};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Instant;

/// FNV-1a hash of the program's disassembly — the guest-code identity the
/// hub keys translations by. Two guests running byte-identical code hash
/// equal and share every translation; the textual form sidesteps hashing
/// floating-point immediates bit-by-bit in the instruction encoding.
pub fn hash_program(program: &Program) -> u64 {
    let text = smarq_guest::disassemble(program);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const POISONED: &str = "a translation panicked while holding a hub lock";

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect(POISONED)
}

/// Identity of a translated region in the hub's shared cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct RegionKey {
    /// [`hash_program`] of the guest program (any constant on a private
    /// hub, which serves one program).
    pub program: u64,
    /// The region's entry block within that program.
    pub entry: BlockId,
}

/// A published translation: immutable code plus its identity, shared
/// across guests behind an `Arc`. Pointer identity doubles as version
/// identity — a retranslation publishes a *new* `SharedRegion`, so
/// `Arc::ptr_eq` tells a guest whether its pinned copy is still current.
pub(crate) struct SharedRegion {
    /// The cache key this region is published under.
    pub key: RegionKey,
    /// The guest program the region was formed from (kept so deopt-driven
    /// retranslation jobs are self-contained).
    pub program: Arc<Program>,
    /// The immutable translation artifact.
    pub code: RegionCode,
}

/// State of one key in the sharded cache.
enum Slot {
    /// Claimed by a requester; the translation is queued or computing.
    InFlight,
    /// Published and executable.
    Published(Arc<SharedRegion>),
    /// Permanently given up (blacklisting could not converge, or the
    /// rollback budget ran out). Guests interpret this entry forever.
    Abandoned,
}

/// Result of probing (or requesting) a region from the hub.
pub(crate) enum HubProbe {
    /// Published: pin the `Arc` and execute.
    Hit(Arc<SharedRegion>),
    /// A translation for this key is in flight (submitted by this call or
    /// an earlier one — single-flight: re-probe at a later boundary).
    Pending,
    /// Not cached and not requested (bounded queue was full); the block
    /// stays hot, so a later dispatch retries.
    Miss,
    /// Translation permanently abandoned for this key.
    Abandoned,
}

/// What a rollback report decided.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RollbackVerdict {
    /// The faulting pair was blacklisted and a conservative retranslation
    /// was published (inline hubs) or queued.
    Retranslating,
    /// Translation was abandoned for this key (blacklisting cannot
    /// converge, or the per-key rollback budget ran out).
    Abandoned,
    /// Another guest's rollback already withdrew this region — nothing to
    /// do beyond the blacklist insert that was just folded in.
    Raced,
}

/// Hub configuration: the translation-relevant half of [`SystemConfig`]
/// plus pool sizing. Shared by every guest attached to the hub.
#[derive(Clone, Debug)]
pub struct HubConfig {
    /// Machine model.
    pub machine: MachineConfig,
    /// Optimizer configuration (hardware scheme, speculation switches).
    pub opt: OptConfig,
    /// Region-formation parameters.
    pub formation: FormationParams,
    /// Self-loop unrolling factor (1 disables).
    pub unroll_factor: u32,
    /// Execution count at which a guest block becomes hot.
    pub hot_threshold: u64,
    /// Per-key rollbacks after which the key is abandoned.
    pub max_rollbacks_per_region: u64,
    /// Statically verify every (re)translated region, keep its optimizer
    /// trace, and chain-check every link guests memoize into it.
    pub verify_translations: bool,
    /// Execution tier of the attached guests (decides whether
    /// translations also lower regions for the fast-functional tier).
    pub exec_tier: ExecTier,
    /// Worker threads. `0` runs every translation inline on the
    /// requesting guest's thread — fully deterministic under a
    /// deterministic scheduler, the configuration the fuzz oracle drives.
    pub workers: u32,
    /// Bound of the job queue for *first* translations (deopt
    /// retranslations bypass the bound: the slot is already withdrawn,
    /// so dropping the job would strand the key in flight).
    pub queue_depth: u32,
    /// Shard count of the translation cache (rounded up to at least 1).
    pub shards: u32,
}

impl HubConfig {
    /// Derives a hub configuration from a [`SystemConfig`] (one flag set
    /// configures either runtime). Translation leaves the guests' threads
    /// only when `async_translate` is on: `workers` is then
    /// `translate_workers` (at least 1), and 0 otherwise.
    pub fn from_system(cfg: &SystemConfig) -> Self {
        HubConfig {
            machine: cfg.machine,
            opt: cfg.opt.clone(),
            formation: cfg.formation,
            unroll_factor: cfg.unroll_factor,
            hot_threshold: cfg.hot_threshold,
            max_rollbacks_per_region: cfg.max_rollbacks_per_region,
            verify_translations: cfg.verify_translations,
            exec_tier: cfg.exec_tier,
            workers: if cfg.async_translate {
                cfg.translate_workers.max(1)
            } else {
                0
            },
            queue_depth: cfg.translate_queue_depth,
            shards: 8,
        }
    }
}

/// Monotone hub counters (all `SeqCst`; snapshot via
/// [`TranslationHub::stats`]). The oracle layers assert these never
/// regress and that the publish ledger balances.
#[derive(Default)]
struct Counters {
    translations_started: AtomicU64,
    translations_published: AtomicU64,
    retranslations: AtomicU64,
    gen_conflicts: AtomicU64,
    publish_conflicts: AtomicU64,
    single_flight_hits: AtomicU64,
    probe_hits: AtomicU64,
    queue_full: AtomicU64,
    rollbacks: AtomicU64,
    rollback_races: AtomicU64,
    abandoned: AtomicU64,
    regions_verified: AtomicU64,
    verify_errors: AtomicU64,
}

/// Snapshot of the hub's counters and cache shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HubStats {
    /// Unique keys ever claimed for a first translation. With
    /// single-flight dedup this equals the number of distinct hot regions
    /// across *all* guests — independent of how many guests run the same
    /// code, which is the multi-tenant economics the hub exists for.
    pub translations_started: u64,
    /// Translations published into the shared cache (first translations
    /// and retranslations).
    pub translations_published: u64,
    /// Conservative retranslations started by rollback reports.
    pub retranslations: u64,
    /// Results discarded and recomputed because the blacklist generation
    /// advanced while the job was queued or running.
    pub gen_conflicts: u64,
    /// Finished results dropped because the slot was withdrawn (abandoned
    /// or raced) while the job was in flight.
    pub publish_conflicts: u64,
    /// Requests that found a translation already in flight and subscribed
    /// instead of submitting a duplicate (single-flight dedup hits).
    pub single_flight_hits: u64,
    /// Requests answered from the published cache.
    pub probe_hits: u64,
    /// First-translation submissions dropped on a full bounded queue.
    pub queue_full: u64,
    /// Rollbacks reported by guests.
    pub rollbacks: u64,
    /// Rollback reports that lost the race to an earlier withdrawal.
    pub rollback_races: u64,
    /// Keys permanently abandoned.
    pub abandoned: u64,
    /// Regions statically verified (verify-on-emit mode).
    pub regions_verified: u64,
    /// Error-severity verify findings (0 for a correct optimizer).
    pub verify_errors: u64,
    /// Current blacklist generation.
    pub blacklist_gen: u64,
    /// Current invalidation epoch.
    pub epoch: u64,
    /// Keys currently published.
    pub published_keys: u64,
    /// Keys currently in flight.
    pub inflight_keys: u64,
    /// Keys currently abandoned.
    pub abandoned_keys: u64,
}

/// The translating thread's workspace: allocator scratch recycled across
/// translations, plus the optimizer time they took on that thread.
#[derive(Default)]
pub(crate) struct Workspace {
    scratch: AllocScratch,
    /// Host ns of formation and optimization (the paper's Figure 18
    /// overhead; verification and fast lowering excluded).
    pub translate_ns: u64,
    /// Of `translate_ns`, the ns spent in scheduling + allocation.
    pub sched_ns: u64,
}

/// Where a job's superblock comes from.
enum JobInput {
    /// Formed by the job from a profile snapshot (first translations).
    Form(Profile),
    /// Already formed (retranslations, and recomputes after a generation
    /// conflict, reuse it).
    Ready(Superblock),
}

/// One translation request (its [`JobInput`] travels next to it), with
/// the blacklist snapshot it optimizes against.
struct Job {
    key: RegionKey,
    program: Arc<Program>,
    entry_state: Option<RegState>,
    blacklist: Arc<AliasBlacklist>,
    blacklist_gen: u64,
}

struct JobQueue {
    jobs: VecDeque<(Job, JobInput)>,
    shutdown: bool,
}

struct HubShared {
    cfg: HubConfig,
    shards: Box<[Mutex<HashMap<RegionKey, Slot>>]>,
    /// Copy-on-write: jobs hold `Arc` snapshots, and an insert clones the
    /// set only while one is outstanding.
    blacklist: Mutex<Arc<AliasBlacklist>>,
    /// Bumped under the blacklist lock on every fresh pair insert;
    /// read lock-free by guests for stale-execution accounting.
    blacklist_gen: AtomicU64,
    /// Bumped on every withdrawal of a published slot; guests revalidate
    /// their pinned regions when it moves (dispatch-boundary check).
    epoch: AtomicU64,
    rollback_counts: Mutex<HashMap<RegionKey, u64>>,
    queue: Mutex<JobQueue>,
    queue_cv: Condvar,
    c: Counters,
}

impl HubShared {
    fn shard(&self, key: RegionKey) -> &Mutex<HashMap<RegionKey, Slot>> {
        // Mix the entry index in: one guest program's regions spread
        // across shards instead of piling onto the program hash's shard.
        let h = key
            .program
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(key.entry.0));
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Builds a job against the *current* blacklist snapshot (generation
    /// read under the blacklist lock, so snapshot and counter agree).
    fn job(&self, key: RegionKey, program: Arc<Program>, entry_state: Option<RegState>) -> Job {
        let bl = lock(&self.blacklist);
        Job {
            key,
            program,
            entry_state,
            blacklist: Arc::clone(&bl),
            blacklist_gen: self.blacklist_gen.load(Ordering::SeqCst),
        }
    }

    /// Runs `job` to publication, re-optimizing against fresh blacklist
    /// snapshots for as long as the generation moves underneath it
    /// (bounded: the blacklist only grows toward the finite set of
    /// aliasing pairs).
    fn run(&self, mut job: Job, mut input: JobInput, ws: &mut Workspace) {
        loop {
            let code = translate(&self.cfg, &job, input, ws);
            let Err(sb) = self.install(job.key, &job.program, code) else {
                return;
            };
            input = JobInput::Ready(sb);
            job = self.job(job.key, job.program, job.entry_state);
        }
    }

    /// Publishes a finished translation into its claimed slot — or hands
    /// its superblock back for re-optimization when the blacklist grew
    /// past the job's snapshot. The blacklist lock is held across the slot
    /// swap so a publish can never interleave with a generation bump.
    fn install(
        &self,
        key: RegionKey,
        program: &Arc<Program>,
        code: RegionCode,
    ) -> Result<(), Superblock> {
        let _bl = lock(&self.blacklist);
        if code.blacklist_gen != self.blacklist_gen.load(Ordering::SeqCst) {
            self.c.gen_conflicts.fetch_add(1, Ordering::SeqCst);
            return Err(code.sb);
        }
        if code.trace.is_some() {
            self.c.regions_verified.fetch_add(1, Ordering::SeqCst);
            let errors = code
                .diags
                .iter()
                .filter(|d| d.severity == smarq::Severity::Error)
                .count() as u64;
            self.c.verify_errors.fetch_add(errors, Ordering::SeqCst);
        }
        let mut shard = lock(self.shard(key));
        if let Some(Slot::InFlight) = shard.get(&key) {
            let region = Arc::new(SharedRegion {
                key,
                program: Arc::clone(program),
                code,
            });
            shard.insert(key, Slot::Published(region));
            self.c.translations_published.fetch_add(1, Ordering::SeqCst);
        } else {
            // Abandoned (or withdrawn and re-claimed by a racing path)
            // while the job was in flight: drop the result.
            self.c.publish_conflicts.fetch_add(1, Ordering::SeqCst);
        }
        Ok(())
    }

    fn enqueue(&self, job: (Job, JobInput), bounded: bool) -> bool {
        let mut q = lock(&self.queue);
        if bounded && q.jobs.len() >= self.cfg.queue_depth.max(1) as usize {
            return false;
        }
        q.jobs.push_back(job);
        self.queue_cv.notify_one();
        true
    }
}

/// Translates one job: formation (unless the superblock rides along),
/// optimization against the job's blacklist snapshot, then verification
/// and fast lowering as configured.
fn translate(cfg: &HubConfig, job: &Job, input: JobInput, ws: &mut Workspace) -> RegionCode {
    let entry = job.key.entry;
    let t0 = Instant::now();
    let sb = match input {
        JobInput::Ready(sb) => sb,
        JobInput::Form(profile) => {
            let sb = form_superblock(&job.program, &profile, entry, cfg.formation);
            unroll_superblock(&sb, cfg.unroll_factor, cfg.formation.max_ops).0
        }
    };
    let (opt, trace) = optimize_superblock_traced_ranged(
        &sb,
        &cfg.opt,
        &cfg.machine,
        &job.blacklist,
        &mut ws.scratch,
        job.entry_state.as_ref(),
    );
    ws.translate_ns += t0.elapsed().as_nanos() as u64;
    ws.sched_ns += opt.stats.sched_ns;
    // Verify after the overhead clock stops: the paper's Figure 18
    // overhead metric must not be polluted by an opt-in debug mode.
    let (trace, diags) = if cfg.verify_translations {
        let diags = smarq_verify::verify_trace(entry.index(), &trace, cfg.opt.num_alias_regs);
        (Some(trace), diags)
    } else {
        (None, Vec::new())
    };
    let fast = (cfg.exec_tier == ExecTier::Functional)
        .then(|| fastcomp::compile(&opt.vliw).expect("translated region is well formed"));
    RegionCode {
        write_mask: RegionWriteMask::of(&opt.vliw),
        vliw: opt.vliw,
        tag_origin: opt.tag_origin,
        sb,
        entry,
        fast,
        blacklist_gen: job.blacklist_gen,
        opt_stats: opt.stats,
        trace,
        assumed_entry: job.entry_state,
        diags,
    }
}

fn worker_loop(inner: &HubShared) {
    let mut ws = Workspace::default();
    loop {
        let (job, input) = {
            let mut q = lock(&inner.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = inner.queue_cv.wait(q).expect(POISONED);
            }
        };
        inner.run(job, input, &mut ws);
    }
}

/// The shared, thread-safe translation service (see module docs).
pub struct TranslationHub {
    inner: Arc<HubShared>,
    workers: Vec<thread::JoinHandle<()>>,
    stepped: bool,
}

impl TranslationHub {
    /// Creates a hub and spawns its worker pool (`cfg.workers` threads;
    /// `0` selects inline translation on the requesting guest's thread).
    pub fn new(cfg: HubConfig) -> Self {
        Self::start(cfg, false)
    }

    /// Creates a *stepped* hub: no worker threads, and every translation
    /// job waits in the queue until the caller runs one to publication
    /// with [`Self::step`]. Guest progress and translation progress
    /// become two clocks a test (or the seeded schedule of
    /// [`crate::run_multi_interleaved`]) interleaves explicitly.
    pub fn stepped(cfg: HubConfig) -> Self {
        Self::start(cfg, true)
    }

    fn start(cfg: HubConfig, stepped: bool) -> Self {
        let shards = (0..cfg.shards.max(1))
            .map(|_| Mutex::new(HashMap::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let workers = if stepped { 0 } else { cfg.workers };
        let inner = Arc::new(HubShared {
            cfg,
            shards,
            blacklist: Mutex::new(Arc::new(AliasBlacklist::new())),
            blacklist_gen: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            rollback_counts: Mutex::new(HashMap::new()),
            queue: Mutex::new(JobQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            queue_cv: Condvar::new(),
            c: Counters::default(),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        TranslationHub {
            inner,
            workers: handles,
            stepped,
        }
    }

    /// The hub's configuration (guests read their shared knobs here).
    pub(crate) fn config(&self) -> &HubConfig {
        &self.inner.cfg
    }

    /// Whether this is a [`Self::stepped`] hub.
    pub(crate) fn is_stepped(&self) -> bool {
        self.stepped
    }

    /// Whether translation jobs leave the requesting guest's thread
    /// (worker pool or stepped queue).
    pub(crate) fn queued(&self) -> bool {
        self.stepped || !self.workers.is_empty()
    }

    /// Current blacklist generation (lock-free read).
    pub(crate) fn blacklist_gen(&self) -> u64 {
        self.inner.blacklist_gen.load(Ordering::SeqCst)
    }

    /// Current invalidation epoch (lock-free read). Guests compare this
    /// at dispatch-step boundaries and revalidate their pinned regions
    /// when it moved.
    pub(crate) fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// A snapshot of the accumulated blacklist.
    pub(crate) fn blacklist(&self) -> AliasBlacklist {
        AliasBlacklist::clone(&lock(&self.inner.blacklist))
    }

    /// Runs one queued translation job to publication on the calling
    /// thread; `false` when none is queued. This is the clock of a
    /// [`Self::stepped`] hub.
    pub fn step(&self) -> bool {
        let Some((job, input)) = lock(&self.inner.queue).jobs.pop_front() else {
            return false;
        };
        self.inner.run(job, input, &mut Workspace::default());
        true
    }

    /// Read-only probe: never claims or submits.
    pub(crate) fn probe(&self, key: RegionKey) -> HubProbe {
        let shard = lock(self.inner.shard(key));
        match shard.get(&key) {
            Some(Slot::Published(r)) => HubProbe::Hit(Arc::clone(r)),
            Some(Slot::InFlight) => HubProbe::Pending,
            Some(Slot::Abandoned) => HubProbe::Abandoned,
            None => HubProbe::Miss,
        }
    }

    /// Requests the region for `key`, translating at most once across all
    /// guests (single-flight): the first requester claims the slot and
    /// submits; every concurrent requester observes `Pending` and simply
    /// re-probes at a later dispatch boundary. An inline hub translates
    /// on the spot and returns `Hit` directly.
    pub(crate) fn request(
        &self,
        key: RegionKey,
        program: &Arc<Program>,
        profile: &Profile,
        entry_state: Option<RegState>,
        ws: &mut Workspace,
    ) -> HubProbe {
        let inner = &*self.inner;
        {
            let mut shard = lock(inner.shard(key));
            match shard.get(&key) {
                Some(Slot::Published(r)) => {
                    inner.c.probe_hits.fetch_add(1, Ordering::SeqCst);
                    return HubProbe::Hit(Arc::clone(r));
                }
                Some(Slot::InFlight) => {
                    inner.c.single_flight_hits.fetch_add(1, Ordering::SeqCst);
                    return HubProbe::Pending;
                }
                Some(Slot::Abandoned) => return HubProbe::Abandoned,
                None => {
                    shard.insert(key, Slot::InFlight);
                }
            }
        }
        inner.c.translations_started.fetch_add(1, Ordering::SeqCst);
        let job = inner.job(key, Arc::clone(program), entry_state);
        let input = JobInput::Form(profile.clone());
        if !self.queued() {
            inner.run(job, input, ws);
            return self.probe(key);
        }
        if inner.enqueue((job, input), true) {
            return HubProbe::Pending;
        }
        // Full queue: withdraw the claim so a later dispatch of the
        // still-hot block retries, and un-count the start — nothing was
        // translated for it.
        let mut shard = lock(inner.shard(key));
        if matches!(shard.get(&key), Some(Slot::InFlight)) {
            shard.remove(&key);
        }
        drop(shard);
        inner.c.translations_started.fetch_sub(1, Ordering::SeqCst);
        inner.c.queue_full.fetch_add(1, Ordering::SeqCst);
        HubProbe::Miss
    }

    /// Reports an alias-exception rollback of `region`, blacklisting the
    /// faulting pair for *every* guest. If the region is still current,
    /// it is withdrawn and either conservatively retranslated or — when
    /// blacklisting cannot converge (a repeat pair on a current-generation
    /// region) or the per-key rollback budget ran out — abandoned. A
    /// repeat pair on a *stale* region retranslates instead of abandoning:
    /// the cure (code built against the grown blacklist) is exactly what
    /// the retranslation produces. The epoch bump tells every other guest
    /// to drop its pin at the next dispatch boundary.
    pub(crate) fn report_rollback(
        &self,
        region: &Arc<SharedRegion>,
        a: OpOrigin,
        b: OpOrigin,
        ws: &mut Workspace,
    ) -> RollbackVerdict {
        let inner = &*self.inner;
        inner.c.rollbacks.fetch_add(1, Ordering::SeqCst);
        let key = region.key;
        let mut bl = lock(&inner.blacklist);
        let fresh = Arc::make_mut(&mut bl).insert(a, b);
        if fresh {
            inner.blacklist_gen.fetch_add(1, Ordering::SeqCst);
        }
        let gen = inner.blacklist_gen.load(Ordering::SeqCst);
        let over_budget = {
            let mut rb = lock(&inner.rollback_counts);
            let n = rb.entry(key).or_insert(0);
            *n += 1;
            *n > inner.cfg.max_rollbacks_per_region
        };
        let cannot_converge = !fresh && region.code.blacklist_gen == gen;
        let mut shard = lock(inner.shard(key));
        let verdict = match shard.get(&key) {
            Some(Slot::Published(cur)) if Arc::ptr_eq(cur, region) => {
                inner.epoch.fetch_add(1, Ordering::SeqCst);
                if over_budget || cannot_converge {
                    shard.insert(key, Slot::Abandoned);
                    inner.c.abandoned.fetch_add(1, Ordering::SeqCst);
                    RollbackVerdict::Abandoned
                } else {
                    shard.insert(key, Slot::InFlight);
                    inner.c.retranslations.fetch_add(1, Ordering::SeqCst);
                    RollbackVerdict::Retranslating
                }
            }
            _ => {
                inner.c.rollback_races.fetch_add(1, Ordering::SeqCst);
                RollbackVerdict::Raced
            }
        };
        drop(shard);
        drop(bl);
        if verdict == RollbackVerdict::Retranslating {
            // Conservative retranslation against the just-grown snapshot;
            // the region's superblock rides along, so only optimization
            // re-runs.
            let job = inner.job(key, Arc::clone(&region.program), region.code.assumed_entry);
            let input = JobInput::Ready(region.code.sb.clone());
            if self.queued() {
                // Unbounded: the slot is already withdrawn, so dropping
                // the job would strand the key in flight forever.
                inner.enqueue((job, input), false);
            } else {
                inner.run(job, input, ws);
            }
        }
        verdict
    }

    /// Runs every queued job on the calling thread, then waits until no
    /// translation is in flight — the quiesce point benches and tests use
    /// before reading final counters. Only meaningful once guests stop
    /// submitting.
    pub fn drain(&self) {
        while self.step() {}
        while self
            .inner
            .shards
            .iter()
            .any(|s| lock(s).values().any(|v| matches!(v, Slot::InFlight)))
        {
            thread::yield_now();
        }
    }

    /// Snapshot of the hub counters and cache shape.
    pub fn stats(&self) -> HubStats {
        let c = &self.inner.c;
        let (mut published, mut inflight, mut abandoned_keys) = (0u64, 0u64, 0u64);
        for s in self.inner.shards.iter() {
            for slot in lock(s).values() {
                match slot {
                    Slot::Published(_) => published += 1,
                    Slot::InFlight => inflight += 1,
                    Slot::Abandoned => abandoned_keys += 1,
                }
            }
        }
        HubStats {
            translations_started: c.translations_started.load(Ordering::SeqCst),
            translations_published: c.translations_published.load(Ordering::SeqCst),
            retranslations: c.retranslations.load(Ordering::SeqCst),
            gen_conflicts: c.gen_conflicts.load(Ordering::SeqCst),
            publish_conflicts: c.publish_conflicts.load(Ordering::SeqCst),
            single_flight_hits: c.single_flight_hits.load(Ordering::SeqCst),
            probe_hits: c.probe_hits.load(Ordering::SeqCst),
            queue_full: c.queue_full.load(Ordering::SeqCst),
            rollbacks: c.rollbacks.load(Ordering::SeqCst),
            rollback_races: c.rollback_races.load(Ordering::SeqCst),
            abandoned: c.abandoned.load(Ordering::SeqCst),
            regions_verified: c.regions_verified.load(Ordering::SeqCst),
            verify_errors: c.verify_errors.load(Ordering::SeqCst),
            blacklist_gen: self.blacklist_gen(),
            epoch: self.epoch(),
            published_keys: published,
            inflight_keys: inflight,
            abandoned_keys,
        }
    }
}

impl Drop for TranslationHub {
    fn drop(&mut self) {
        {
            // Setting the flag leaves the queue valid even if a job
            // panicked while holding its lock; Drop must not panic.
            let mut q = self
                .inner
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            q.shutdown = true;
            q.jobs.clear();
        }
        self.inner.queue_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}
