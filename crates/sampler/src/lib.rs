//! `ft-sampler`: O(1)-samples race detection.
//!
//! The guard layer (`fasttrack::guard`) treats sampling as an emergency
//! fallback under memory pressure. This crate turns it into a *first-class
//! detector tier* in the spirit of "Dynamic Race Detection with O(1)
//! Samples": a seeded, budgeted sampler that
//!
//! * keeps **constant shadow bytes per variable** — at most
//!   [`SamplerConfig::budget`] sampled access epochs per variable, regardless
//!   of how many threads touch it (no `Rvc` inflation, ever);
//! * maintains **exact** vector clocks on synchronization operations (the
//!   rare ~3% of events), so every happens-before verdict on a sampled pair
//!   is precise;
//! * replays each admitted access against the variable's stored samples
//!   through the *real* Figure 5 transition rules ([`fasttrack::rules`]) —
//!   the same code the FastTrack detector runs;
//! * is **sound but incomplete**: it may miss races the budget or the
//!   admission rate skipped, but every warning it reports is a genuine
//!   concurrent conflicting pair, so full FastTrack also warns on that
//!   variable. The escalation story is: run the sampler always-on, and
//!   re-run FastTrack on anything it flags.
//!
//! Admission is a seeded geometric-gap process over the access stream
//! (Vitter's skip-counting): between admissions the per-event cost is one
//! counter decrement, which is what keeps the pass within a few percent of
//! an EMPTY replay. For a fixed [`SamplerConfig::seed`] and trace the
//! admitted set — and therefore the report — is bit-for-bit deterministic.
//!
//! # Quick start
//!
//! ```
//! use ft_sampler::{Sampler, SamplerConfig};
//! use fasttrack::Detector;
//! use ft_trace::{TraceBuilder, VarId};
//! use ft_clock::Tid;
//!
//! // Two threads write x without synchronization: a write-write race.
//! let mut b = TraceBuilder::with_threads(2);
//! b.write(Tid::new(0), VarId::new(0))?;
//! b.write(Tid::new(1), VarId::new(0))?;
//! let trace = b.finish();
//!
//! // rate = 1.0 admits every access, so the race is caught deterministically.
//! let mut s = Sampler::with_config(SamplerConfig::default().with_rate(1.0));
//! s.run(&trace);
//! assert_eq!(s.warnings().len(), 1);
//! # Ok::<(), ft_trace::FeasibilityError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use fasttrack::rules::{self, RuleHits};
use fasttrack::{
    base_registry, AccessSummary, Detector, Disposition, Empty, FastTrackConfig, Provenance,
    ReadHistory, Stats, ThreadState, VarState, VolatileClock, Warning, WarningKind,
};
use ft_clock::{Epoch, Tid, VcPool, VectorClock};
use ft_obs::Snapshot;
use ft_trace::{AccessKind, LockId, Op, Prng, Trace, VarId};
use std::time::Instant;

/// Configuration for the [`Sampler`] detector.
///
/// The two knobs that matter operationally are [`budget`](Self::budget)
/// (how many sampled accesses each variable retains — the "O(1)" constant)
/// and [`rate`](Self::rate) (what fraction of the access stream is admitted
/// at all). See `docs/OPERATIONS.md` §7 for sizing guidance derived from
/// `BENCH_sampling.json`.
///
/// # Examples
///
/// ```
/// use ft_sampler::SamplerConfig;
///
/// let cfg = SamplerConfig::default();
/// assert_eq!(cfg.budget, 4);
/// assert_eq!(cfg.overhead_budget_pct, 10.0);
///
/// let tuned = SamplerConfig::default()
///     .with_budget(8)
///     .with_seed(7)
///     .with_rate(0.05);
/// assert_eq!(tuned.budget, 8);
/// assert_eq!(tuned.seed, 7);
/// assert!((tuned.rate - 0.05).abs() < 1e-12);
/// ```
///
/// A budget of zero is valid and means "admit but retain nothing": the
/// sampler then reports no races (and must not panic):
///
/// ```
/// use ft_sampler::SamplerConfig;
/// let cfg = SamplerConfig::default().with_budget(0);
/// assert_eq!(cfg.budget, 0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SamplerConfig {
    /// Maximum sampled accesses retained per variable (the O(1) constant).
    /// `0` disables retention entirely: nothing is stored, nothing reported.
    pub budget: usize,
    /// Seed for the admission and eviction draws. Reports are deterministic
    /// per `(seed, trace)` pair.
    pub seed: u64,
    /// Expected fraction of data accesses admitted for sampling, in
    /// `[0.0, 1.0]`. `1.0` admits every access; `0.0` admits none. The
    /// admission gap between samples is geometric with mean `1/rate`.
    pub rate: f64,
    /// The self-measurement target: the run-time overhead over an EMPTY
    /// pass, in percent, that this configuration is expected to stay under.
    /// Purely *reported* (see [`Sampler::measured_overhead_pct`]) — it never
    /// feeds back into admission, which would break determinism.
    pub overhead_budget_pct: f64,
    /// Report every sampled race instead of at most one per variable.
    pub report_all: bool,
    /// Disable the lazy epoch-only sync summary and copy lock clocks
    /// eagerly at every release (the pre-lazy behaviour). Kept as the
    /// measured baseline for `ft-bench --bin sync` and the agreement
    /// property suite; reports are identical either way.
    pub eager_sync: bool,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            budget: 4,
            seed: 0x5eed_ca11,
            // ~1 admission per thousand accesses: low enough that the
            // admission slow path (a cold hash probe plus the Figure 5
            // checks) stays invisible next to an EMPTY pass, the regime a
            // deploy-everywhere tier lives in. Raise it (or the budget)
            // when escalating a suspicious workload to higher recall.
            rate: 0.001,
            overhead_budget_pct: 10.0,
            report_all: false,
            eager_sync: false,
        }
    }
}

impl SamplerConfig {
    /// Sets the per-variable sample budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the admission seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the admission rate (clamped to `[0.0, 1.0]`).
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the reported overhead target in percent.
    pub fn with_overhead_budget_pct(mut self, pct: f64) -> Self {
        self.overhead_budget_pct = pct;
        self
    }

    /// Reports every sampled race instead of deduplicating per variable.
    pub fn with_report_all(mut self, report_all: bool) -> Self {
        self.report_all = report_all;
        self
    }

    /// Switches lock-clock maintenance back to eager per-release copies.
    pub fn with_eager_sync(mut self, eager_sync: bool) -> Self {
        self.eager_sync = eager_sync;
        self
    }
}

/// One retained sample: the accessing thread's epoch at access time, plus
/// whether the access was a write. 8 bytes on 64-bit targets.
#[derive(Copy, Clone, Debug)]
struct SampleSlot {
    epoch: Epoch,
    write: bool,
}

impl Default for SampleSlot {
    fn default() -> Self {
        SampleSlot {
            epoch: Epoch::MIN,
            write: false,
        }
    }
}

/// Samples stored inline in [`VarSamples`] before spilling to the heap.
/// Covers the default budget (4), so a default-configured run never
/// allocates per-variable sample storage at all.
const INLINE_SLOTS: usize = 4;

/// Per-variable sample state: at most `budget` slots plus a reservoir
/// counter. The footprint is independent of the thread count — the property
/// that distinguishes this tier from FastTrack's adaptive `Rvc`.
#[derive(Clone, Debug, Default)]
struct VarSamples {
    /// Admitted accesses ever seen on this variable (reservoir denominator).
    seen: u64,
    inline_len: u8,
    inline: [SampleSlot; INLINE_SLOTS],
    /// Overflow storage for budgets above [`INLINE_SLOTS`].
    spill: Vec<SampleSlot>,
}

impl VarSamples {
    fn len(&self) -> usize {
        self.inline_len as usize + self.spill.len()
    }

    fn push(&mut self, s: SampleSlot) {
        if (self.inline_len as usize) < INLINE_SLOTS {
            self.inline[self.inline_len as usize] = s;
            self.inline_len += 1;
        } else {
            self.spill.push(s);
        }
    }

    fn set(&mut self, i: usize, s: SampleSlot) {
        if i < INLINE_SLOTS {
            self.inline[i] = s;
        } else {
            self.spill[i - INLINE_SLOTS] = s;
        }
    }

    fn iter(&self) -> impl Iterator<Item = &SampleSlot> {
        self.inline[..self.inline_len as usize]
            .iter()
            .chain(self.spill.iter())
    }

    fn spill_bytes(&self) -> usize {
        self.spill.capacity() * std::mem::size_of::<SampleSlot>()
    }
}

/// One open-addressing bucket: the variable id and its retained samples,
/// packed together so a probe that finds its key has already pulled the
/// samples into cache (admissions are cold by construction — a split
/// key/value layout pays two misses where this pays one).
#[derive(Debug)]
struct TableEntry {
    key: u32,
    val: VarSamples,
}

/// Open-addressing table from variable id to [`VarSamples`].
///
/// Admitted variables are a small, random subset of the id space, so a
/// dense `Vec` indexed by raw id would cost memory (and, worse, cache
/// locality) proportional to the *largest id sampled* — on sparse id
/// spaces that one allocation dwarfs the entire analysis. The table keeps
/// the footprint at O(variables actually sampled) and one probe per
/// admission in the common case.
#[derive(Debug, Default)]
struct SampleTable {
    /// Buckets; `key == u32::MAX` marks an empty one (a valid id never
    /// uses it: trace var ids are dense small integers).
    entries: Vec<TableEntry>,
    len: usize,
}

impl SampleTable {
    const EMPTY: u32 = u32::MAX;

    fn bucket(&self, key: u32) -> usize {
        // Fibonacci hashing spreads consecutive ids across the table.
        let h = (key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> 32) as usize & (self.entries.len() - 1)
    }

    fn fresh(cap: usize) -> Vec<TableEntry> {
        (0..cap)
            .map(|_| TableEntry {
                key: Self::EMPTY,
                val: VarSamples::default(),
            })
            .collect()
    }

    /// Insert-or-get, growing at 70% load.
    fn entry(&mut self, key: u32) -> &mut VarSamples {
        if self.entries.is_empty() {
            self.entries = Self::fresh(64);
        } else if self.len * 10 >= self.entries.len() * 7 {
            self.grow();
        }
        let mut i = self.bucket(key);
        loop {
            if self.entries[i].key == key {
                return &mut self.entries[i].val;
            }
            if self.entries[i].key == Self::EMPTY {
                self.entries[i].key = key;
                self.len += 1;
                return &mut self.entries[i].val;
            }
            i = (i + 1) & (self.entries.len() - 1);
        }
    }

    fn grow(&mut self) {
        let cap = self.entries.len() * 2;
        let old = std::mem::replace(&mut self.entries, Self::fresh(cap));
        self.len = 0;
        for e in old {
            if e.key != Self::EMPTY {
                *self.entry(e.key) = e.val;
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = &VarSamples> {
        self.entries
            .iter()
            .filter(|e| e.key != Self::EMPTY)
            .map(|e| &e.val)
    }

    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<TableEntry>()
            + self.iter().map(VarSamples::spill_bytes).sum::<usize>()
    }
}

/// A lock's shadow state: the clock stored at the last release plus the
/// releasing thread's epoch at that point.
///
/// The epoch enables FastTrack's O(1) acquire fast path: `L_m` is always a
/// whole-clock *assignment* from the releaser (`L_m := C_r`), so an
/// acquirer whose clock already covers the release epoch `(r, c)` must
/// already dominate every entry of `L_m` — per-thread clocks only grow,
/// and the only way `C_t[r] ≥ c` arises is via a synchronization chain
/// from at or after that release. The join (and its clock traffic) is
/// skipped entirely in that case, which covers re-acquisition by the same
/// thread and the acquire half of `wait`.
///
/// # The epoch-only sync summary (`lazy`)
///
/// In the default lazy mode, a release does not copy `C_t` at all: it only
/// records `rel = c@t` and marks the lock `lazy`. While lazy, the true
/// `L_m` is *represented by* the owner `t`'s live clock capped at lane `t`
/// to `c` — valid because the flush discipline below guarantees the
/// owner's clock has only grown in its **own** lane since that release
/// (which the cap undoes), so `cap(C_t_live, t→c) = C_t_at_release = L_m`.
///
/// The flush discipline: before any operation joins a *foreign* clock into
/// a thread's clock (acquire miss, join, volatile read, fork into the
/// child, barrier), that thread's lazily-owned locks are materialized via
/// [`VectorClock::assign_capped`]. Between synchronization chains — the
/// steady state of lock-dense programs — releases and re-acquires are both
/// O(1) and touch no clock at all.
struct LockState {
    /// `L_m` when `!lazy`; stale (ignored) while `lazy`.
    vc: VectorClock,
    /// The owner's pre-increment epoch at the last release.
    rel: Epoch,
    /// `true` while `L_m` is summarized by `rel` + the owner's live clock.
    lazy: bool,
    /// Monotonic stamp bumped on every release. A thread whose
    /// [`ThreadState::seen_lock`] entry equals it has already absorbed
    /// this exact `L_m` — the one-compare acquire fast path that
    /// [`Sampler::sync_fast`] runs inline in the dispatch loop.
    version: u64,
}

/// The O(1)-samples race detector.
///
/// Implements the shared [`Detector`] trait, so it is driven exactly like
/// the paper tools: per-op, per-block, or via [`Sampler::run`] (which also
/// self-measures overhead against an [`Empty`] pass over the same trace).
pub struct Sampler {
    config: SamplerConfig,
    ft_config: FastTrackConfig,
    threads: Vec<Option<ThreadState>>,
    locks: Vec<Option<LockState>>,
    volatiles: Vec<Option<VolatileClock>>,
    /// Per-thread list of lock indices this thread lazily owns (may hold
    /// stale entries after an ownership takeover; flush tolerates them).
    pending: Vec<Vec<u32>>,
    /// Reused `[FT BARRIER RELEASE]` join target.
    barrier_scratch: VectorClock,
    /// Foreign-entry join generation for the barrier epoch-rebuild skip
    /// (see `FastTrack::barrier_release` in the core crate).
    sync_gen: u64,
    /// `sync_gen` snapshot at the end of the last barrier.
    barrier_gen: u64,
    /// Participant set of the last barrier.
    barrier_parts: Vec<Tid>,
    /// Cached `!config.eager_sync`.
    lazy: bool,
    vars: SampleTable,
    warnings: Vec<Warning>,
    warned: Vec<bool>,
    stats: Stats,
    hits: RuleHits,
    pool: VcPool,
    /// Gap stream: drives admission thresholds and nothing else. Kept
    /// separate from [`Sampler::res_rng`] so admission planning consumes a
    /// deterministic draw sequence regardless of how it interleaves with
    /// sample retention — the planned-replay and per-op drivers then admit
    /// identical access sets.
    gap_rng: Prng,
    /// Reservoir stream: drives sample-replacement decisions only.
    res_rng: Prng,
    /// Cached `1 / ln(1 - rate)` for geometric gap draws.
    inv_ln_q: f64,
    /// Absolute `stats.reads` count at which the next read is admitted.
    /// A threshold compare against a counter the detector maintains anyway
    /// keeps the skip path store-free — cheaper than decrementing a gap.
    next_read_admit: u64,
    /// Absolute `stats.writes` count at which the next write is admitted.
    next_write_admit: u64,
    admitted: u64,
    admitted_reads: u64,
    admitted_writes: u64,
    evicted: u64,
    /// Filled by [`Sampler::run`]: (self nanos, empty nanos).
    measured: Option<(u128, u128)>,
}

impl Default for Sampler {
    fn default() -> Self {
        Self::new()
    }
}

impl Sampler {
    /// Creates a sampler with [`SamplerConfig::default`].
    pub fn new() -> Self {
        Self::with_config(SamplerConfig::default())
    }

    /// Creates a sampler with an explicit configuration.
    pub fn with_config(config: SamplerConfig) -> Self {
        let gap_rng = Prng::seed_from_u64(config.seed);
        let res_rng = Prng::seed_from_u64(config.seed ^ 0x9e37_79b9_7f4a_7c15);
        let inv_ln_q = if config.rate > 0.0 && config.rate < 1.0 {
            1.0 / (1.0 - config.rate).ln()
        } else {
            0.0
        };
        let lazy = !config.eager_sync;
        let mut sampler = Sampler {
            config,
            ft_config: FastTrackConfig::default(),
            threads: Vec::new(),
            locks: Vec::new(),
            volatiles: Vec::new(),
            pending: Vec::new(),
            barrier_scratch: VectorClock::new(),
            sync_gen: 0,
            barrier_gen: u64::MAX,
            barrier_parts: Vec::new(),
            lazy,
            vars: SampleTable::default(),
            warnings: Vec::new(),
            warned: Vec::new(),
            stats: Stats::default(),
            hits: RuleHits::default(),
            pool: VcPool::new(64),
            gap_rng,
            res_rng,
            inv_ln_q,
            next_read_admit: 0,
            next_write_admit: 0,
            admitted: 0,
            admitted_reads: 0,
            admitted_writes: 0,
            evicted: 0,
            measured: None,
        };
        // Two independent geometric admission streams (one per access kind)
        // have the same per-access admission probability as a single stream,
        // by memorylessness — and let each stream compare against a counter
        // that is already being maintained.
        sampler.next_read_admit = sampler.draw_gap().saturating_add(1);
        sampler.next_write_admit = sampler.draw_gap().saturating_add(1);
        sampler
    }

    /// The active configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Accesses admitted for sampling so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Samples currently retained across all variables.
    pub fn samples_live(&self) -> usize {
        self.vars.iter().map(|v| v.len()).sum()
    }

    /// Samples evicted by reservoir replacement so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Worst-case shadow bytes per variable under the configured budget —
    /// a constant, independent of thread count.
    pub fn per_var_bytes(&self) -> usize {
        std::mem::size_of::<VarSamples>()
            + self.config.budget.saturating_sub(INLINE_SLOTS) * std::mem::size_of::<SampleSlot>()
    }

    /// The overhead over an EMPTY pass measured by the last [`Sampler::run`]
    /// call, in percent. `None` until `run` has been called (per-op and
    /// per-block driving cannot self-measure — the harness owns the clock
    /// there).
    pub fn measured_overhead_pct(&self) -> Option<f64> {
        self.measured.map(|(own, empty)| {
            let empty = empty.max(1) as f64;
            (own as f64 / empty - 1.0) * 100.0
        })
    }

    /// Whether the last self-measurement exceeded
    /// [`SamplerConfig::overhead_budget_pct`]. `None` until measured.
    pub fn over_budget(&self) -> Option<bool> {
        self.measured_overhead_pct()
            .map(|pct| pct > self.config.overhead_budget_pct)
    }

    /// Replays `trace`, timing both an [`Empty`] pass and the sampler's
    /// [`Sampler::replay`] pass so [`Sampler::measured_overhead_pct`] can
    /// report the overhead this configuration actually cost. The
    /// measurement never influences admission: reports stay deterministic
    /// per seed.
    pub fn run(&mut self, trace: &Trace) {
        // Virtual dispatch, not a monomorphized call: LLVM folds an inlined
        // `Empty::on_op` loop into a handful of adds, timing nothing and
        // inflating the reported overhead by orders of magnitude. `dyn`
        // keeps the per-op call — the same baseline the `ft-bench` harness
        // measures EMPTY with.
        let mut empty: Box<dyn Detector> = Box::new(Empty::new());
        let t0 = Instant::now();
        for (i, op) in trace.events().iter().enumerate() {
            empty.on_op(i, op);
        }
        let empty_ns = t0.elapsed().as_nanos();
        std::hint::black_box(empty.stats().ops);

        let t1 = Instant::now();
        self.replay(trace);
        let own_ns = t1.elapsed().as_nanos();
        self.measured = Some((own_ns, empty_ns));
    }

    /// Replays a whole trace through the skip-counting fast path.
    ///
    /// Where driving [`Detector::on_op`] pays an outlined call and four
    /// shadow-state memory updates per event, this driver keeps the access
    /// counters and both admission thresholds in locals for the whole pass
    /// — the non-admitted access path is a register increment and compare
    /// with no loop-carried memory dependency, cheaper than even an EMPTY
    /// per-op pass. State is committed back only at admission points (so
    /// the admission slow path sees exact counts) and once at the end. This is
    /// the replay analog of how sampling detectors remove instrumentation
    /// from cold paths entirely (LiteRace's duplicated uninstrumented
    /// regions).
    ///
    /// Warnings, stats, and admission decisions are identical to driving
    /// [`Detector::on_op`] over the same trace — the gap and reservoir
    /// RNG streams are consumed in the same order by both drivers.
    pub fn replay(&mut self, trace: &Trace) {
        let events = trace.events();
        let mut reads = self.stats.reads;
        let mut writes = self.stats.writes;
        let mut next_r = self.next_read_admit;
        let mut next_w = self.next_write_admit;
        for (i, op) in events.iter().enumerate() {
            // Branchless counter updates: a per-arm `match` mispredicts on
            // every irregular read/write mix, which alone costs more than
            // the whole EMPTY pass. Only two rarely-taken branches remain —
            // "is this synchronization" and "did a stream hit its
            // admission threshold" — both predictable on access-dense
            // traces.
            let is_read = matches!(op, Op::Read(..));
            let is_write = matches!(op, Op::Write(..));
            reads += is_read as u64;
            writes += is_write as u64;
            if !(is_read | is_write) {
                if !self.sync_fast(op) {
                    self.sync_op(op);
                }
                continue;
            }
            if (reads == next_r) | (writes == next_w) {
                // Equality can only hold on the stream the current access
                // just advanced (prior hits were consumed by a redraw), so
                // the admitted kind is the current op's kind.
                let (t, x, kind) = match op {
                    Op::Read(t, x) => (*t, *x, AccessKind::Read),
                    Op::Write(t, x) => (*t, *x, AccessKind::Write),
                    _ => unreachable!("access checked above"),
                };
                self.stats.reads = reads;
                self.stats.writes = writes;
                self.redraw(kind);
                self.admit(i, t, x, kind);
                next_r = self.next_read_admit;
                next_w = self.next_write_admit;
            }
        }
        self.stats.reads = reads;
        self.stats.writes = writes;
        self.stats.ops += events.len() as u64;
    }

    /// Draws the number of accesses to skip before the next admission:
    /// geometric with success probability `rate` (`inv_ln_q` caches
    /// `1 / ln(1 - rate)` so each draw costs a single `ln`).
    fn draw_gap(&mut self) -> u64 {
        if self.config.rate >= 1.0 {
            return 0;
        }
        if self.config.rate <= 0.0 {
            return u64::MAX;
        }
        let u = self.gap_rng.next_f64();
        // Inverse-CDF of the geometric distribution; `1 - u` avoids ln(0).
        let g = ((1.0 - u).ln() * self.inv_ln_q).floor();
        if g.is_finite() && g >= 0.0 {
            g as u64
        } else {
            0
        }
    }

    /// Field-scoped thread lookup so callers can hold the returned
    /// `&mut ThreadState` while still reading the (disjoint) lock and
    /// volatile tables — one bounds check instead of the
    /// ensure-then-reindex double lookup.
    #[inline]
    fn ensure_thread(threads: &mut Vec<Option<ThreadState>>, t: Tid) -> &mut ThreadState {
        let idx = t.as_usize();
        if idx >= threads.len() {
            threads.resize_with(idx + 1, || None);
        }
        threads[idx].get_or_insert_with(|| ThreadState::new(t))
    }

    fn thread(&mut self, t: Tid) -> &mut ThreadState {
        Self::ensure_thread(&mut self.threads, t)
    }

    /// Redraws the admission threshold for `kind`'s stream from the
    /// current committed counter. Callers must redraw immediately on a
    /// threshold hit — that re-establishes the `threshold > counter`
    /// invariant the drivers rely on (equality can only arise on the
    /// stream the current access advanced).
    fn redraw(&mut self, kind: AccessKind) {
        let jump = self.draw_gap().saturating_add(1);
        match kind {
            AccessKind::Read => {
                self.next_read_admit = self.stats.reads.saturating_add(jump);
            }
            AccessKind::Write => {
                self.next_write_admit = self.stats.writes.saturating_add(jump);
            }
        }
    }

    /// Split borrow into the thread slab: mutable `dst`, shared `src`.
    /// Both slots must be ensured and distinct.
    #[inline]
    fn thread_pair(
        threads: &mut [Option<ThreadState>],
        dst: usize,
        src: usize,
    ) -> (&mut ThreadState, &ThreadState) {
        debug_assert_ne!(dst, src);
        if dst < src {
            let (lo, hi) = threads.split_at_mut(src);
            (
                lo[dst].as_mut().expect("ensured"),
                hi[0].as_ref().expect("ensured"),
            )
        } else {
            let (lo, hi) = threads.split_at_mut(dst);
            (
                hi[0].as_mut().expect("ensured"),
                lo[src].as_ref().expect("ensured"),
            )
        }
    }

    /// `C_t := incₜ(C_t)`, epoch-only: bumps the cached epoch scalar and
    /// leaves the vector-clock lane stale. Between synchronization chains
    /// the sampler keeps each thread's own component as this scalar alone —
    /// the per-release `vc.inc` + `epoch_of` round trip is the single
    /// hottest instruction sequence on sync-dense traces. The lane is
    /// written back by [`Sampler::sync_own_lane`] before anything actually
    /// reads `C_t`.
    ///
    /// This deliberately breaks [`ThreadState`]'s `epoch == vc.epoch_of(tid)`
    /// invariant *inside the sampler only*: here `epoch` is authoritative
    /// and `vc`'s own lane lags it. Foreign lanes of `vc` are always exact.
    #[inline]
    fn bump_epoch(ts: &mut ThreadState) {
        ts.epoch = Epoch::new(ts.tid, ts.epoch.clock() + 1);
    }

    /// Writes the authoritative epoch scalar back into `C_t`'s own lane.
    /// Required before `C_t` is read as a join source, before
    /// `refresh_epoch` (which would otherwise regress the epoch to the
    /// stale lane), and before admission borrows the clock. NOT required
    /// before [`Sampler::flush`] or a lazy-lock `join_capped`: both cap the
    /// owner's lane back to the release clock, overwriting whatever was
    /// there.
    #[inline]
    fn sync_own_lane(ts: &mut ThreadState) {
        ts.vc.set(ts.tid, ts.epoch.clock());
    }

    /// Materializes every lock thread `t` still lazily owns (see
    /// [`LockState`]): `L_m := cap(C_t, t → rel)` via
    /// [`VectorClock::assign_capped`]. Must run before any foreign clock is
    /// joined into `C_t` — acquire miss, join, volatile read, fork into
    /// `t`, barrier — because after that the cap argument no longer
    /// reconstructs the release-time clock. Entries whose lock was taken
    /// over by another releaser are stale and skipped.
    #[inline]
    fn flush(&mut self, t: Tid) {
        let idx = t.as_usize();
        if idx >= self.pending.len() || self.pending[idx].is_empty() {
            return;
        }
        self.flush_slow(t);
    }

    /// The non-empty-pending-list half of [`flush`](Self::flush).
    #[inline(never)]
    fn flush_slow(&mut self, t: Tid) {
        let idx = t.as_usize();
        let mut pend = std::mem::take(&mut self.pending[idx]);
        let ts = self.threads[idx].as_ref().expect("owner exists");
        for m in pend.drain(..) {
            if let Some(Some(lk)) = self.locks.get_mut(m as usize) {
                if lk.lazy && lk.rel.tid() == t {
                    self.stats.vc_ops += 1; // the deferred O(n) copy
                    lk.vc.assign_capped(&ts.vc, t, lk.rel.clock());
                    lk.lazy = false;
                }
            }
        }
        self.pending[idx] = pend; // hand the emptied Vec's capacity back
    }

    /// Records that thread `t` lazily owns lock `m`, flushing first when
    /// the pending list is full (a bound on stale-entry accumulation under
    /// ownership ping-pong; real programs stay far below it).
    fn note_pending(&mut self, t: Tid, m: usize) {
        const PENDING_CAP: usize = 64;
        let idx = t.as_usize();
        if idx >= self.pending.len() {
            self.pending.resize_with(idx + 1, Vec::new);
        }
        if self.pending[idx].len() >= PENDING_CAP {
            self.flush(t);
        }
        self.pending[idx].push(m as u32);
    }

    /// `[FT ACQUIRE]`: `C_t := C_t ⊔ L_m`, with the O(1) release-epoch
    /// fast path (see [`LockState`]) when the acquirer is already ordered
    /// after the last release. The fast path is valid in lazy mode too:
    /// while lazy, the true `L_m` equals the owner's release-time clock,
    /// which the release epoch summarizes exactly as in the eager case.
    ///
    /// A never-released lock has no happens-before effect, so the handler
    /// returns before even touching the thread table in that case —
    /// [`ThreadState`] construction is deterministic and can happen at
    /// whichever op first needs it.
    fn acquire(&mut self, t: Tid, m: LockId) {
        let idx = m.as_usize();
        let Some(Some(lk)) = self.locks.get(idx) else {
            return;
        };
        let ts = Self::ensure_thread(&mut self.threads, t);
        // The version-stamp check also covers re-acquiring a lock this
        // thread last released (its own lane in `vc` may lag `epoch`, so
        // the `rel ⊑ C_t` test could spuriously miss there).
        if ts.seen_lock(idx) == lk.version || lk.rel.happens_before(&ts.vc) {
            self.stats.sync_fastpath_hits += 1;
            ts.note_lock(idx, lk.version);
            return;
        }
        self.stats.sync_slow_joins += 1;
        self.acquire_slow(t, idx);
    }

    /// The acquire miss path: a genuine `C_t ⊔ L_m` join. Outlined so the
    /// inline dispatcher stays small; callers have already counted the op
    /// and the slow join.
    #[inline(never)]
    fn acquire_slow(&mut self, t: Tid, idx: usize) {
        // The join mutates C_t with foreign entries, so t's own lazy locks
        // must be written out first. The lock being acquired is never
        // among them: a lazy lock owned by t would have hit the fast path
        // (its last releaser was t, so the stamp matches).
        let ts = self.threads[t.as_usize()].as_mut().expect("caller ensured");
        Self::sync_own_lane(ts);
        self.flush(t);
        self.stats.vc_ops += 1;
        self.sync_gen += 1;
        let lk = self.locks[idx].as_ref().expect("caller checked");
        let version = lk.version;
        if lk.lazy {
            // Join the owner's live clock with its own lane capped back to
            // the release epoch — exactly L_m, with no clone and no
            // materialization (the lock stays lazy for its owner).
            let (r, c) = (lk.rel.tid(), lk.rel.clock());
            let (ts, owner) = Self::thread_pair(&mut self.threads, t.as_usize(), r.as_usize());
            ts.vc.join_capped(&owner.vc, r, c);
            ts.refresh_epoch();
            ts.note_lock(idx, version);
        } else {
            let ts = self.threads[t.as_usize()].as_mut().expect("ensured");
            ts.vc.join(&lk.vc);
            ts.refresh_epoch();
            ts.note_lock(idx, version);
        }
    }

    /// `[FT RELEASE]`: `L_m := C_t; C_t := incₜ(C_t)`.
    ///
    /// In lazy mode (the default) the clock copy is deferred: the release
    /// records only the pre-increment epoch. Re-releasing a lock this
    /// thread already lazily owns — the steady state of a lock-dense loop —
    /// is a pure O(1) renewal with no clock traffic at all. In eager mode
    /// the pre-lazy per-release O(n) copy runs unchanged.
    fn release(&mut self, t: Tid, m: LockId) {
        let idx = m.as_usize();
        let ts = Self::ensure_thread(&mut self.threads, t);
        let rel = ts.epoch;
        if self.lazy {
            match self.locks.get_mut(idx) {
                Some(Some(lk)) if lk.lazy && lk.rel.tid() == t => {
                    // O(1) renewal; already in t's pending list.
                    lk.rel = rel;
                    lk.version += 1;
                    ts.note_lock(idx, lk.version);
                    Self::bump_epoch(ts);
                }
                Some(Some(lk)) => {
                    // Takeover (or re-lazying a materialized lock): the old
                    // owner's pending entry, if any, goes stale.
                    lk.rel = rel;
                    lk.lazy = true;
                    lk.version += 1;
                    ts.note_lock(idx, lk.version);
                    Self::bump_epoch(ts);
                    self.note_pending(t, idx);
                }
                _ => {
                    // First release: the logical L_m allocation (Table 2
                    // semantics) — the placeholder clock stays empty until
                    // a flush materializes it.
                    ts.note_lock(idx, 1);
                    Self::bump_epoch(ts);
                    self.stats.vc_allocated += 1;
                    if idx >= self.locks.len() {
                        self.locks.resize_with(idx + 1, || None);
                    }
                    self.locks[idx] = Some(LockState {
                        vc: VectorClock::new(),
                        rel,
                        lazy: true,
                        version: 1,
                    });
                    self.note_pending(t, idx);
                }
            }
            return;
        }
        Self::sync_own_lane(ts);
        self.stats.vc_ops += 1;
        match self.locks.get_mut(idx) {
            Some(Some(lk)) => {
                lk.vc.assign(&ts.vc);
                lk.rel = rel;
                lk.lazy = false;
                lk.version += 1;
                ts.note_lock(idx, lk.version);
            }
            Some(slot @ None) => {
                self.stats.vc_allocated += 1;
                ts.note_lock(idx, 1);
                *slot = Some(LockState {
                    vc: ts.vc.clone(),
                    rel,
                    lazy: false,
                    version: 1,
                });
            }
            None => {
                self.stats.vc_allocated += 1;
                ts.note_lock(idx, 1);
                let vc = ts.vc.clone();
                self.locks.resize_with(idx + 1, || None);
                self.locks[idx] = Some(LockState {
                    vc,
                    rel,
                    lazy: false,
                    version: 1,
                });
            }
        }
        let ts = self.threads[t.as_usize()].as_mut().expect("ensured");
        Self::bump_epoch(ts);
    }

    /// `[FT FORK]`: `C_u := C_u ⊔ C_t; C_t := incₜ(C_t)` — clone-free, and
    /// the *child*'s lazy locks flush first (its clock gains foreign
    /// entries; the parent's clock is only read).
    fn fork(&mut self, t: Tid, u: Tid) {
        self.thread(t);
        self.thread(u);
        self.flush(u);
        self.stats.vc_ops += 1;
        if t != u {
            self.sync_gen += 1;
            // Both own lanes must be exact: `t`'s because `u` absorbs it,
            // `u`'s because the join below feeds `refresh_epoch`.
            Self::sync_own_lane(self.threads[t.as_usize()].as_mut().expect("ensured"));
            let (us, ct) = Self::thread_pair(&mut self.threads, u.as_usize(), t.as_usize());
            Self::sync_own_lane(us);
            us.vc.join(&ct.vc);
            us.refresh_epoch();
        }
        let ts = self.threads[t.as_usize()].as_mut().expect("ensured");
        Self::bump_epoch(ts);
    }

    /// `[FT JOIN]`: `C_t := C_t ⊔ C_u; C_u := inc_u(C_u)` — clone-free; the
    /// joiner's lazy locks flush first.
    fn join(&mut self, t: Tid, u: Tid) {
        self.thread(t);
        self.thread(u);
        self.flush(t);
        self.stats.vc_ops += 1;
        if t != u {
            self.sync_gen += 1;
            // Both own lanes must be exact: `u`'s because `t` absorbs it,
            // `t`'s because the join below feeds `refresh_epoch`.
            Self::sync_own_lane(self.threads[u.as_usize()].as_mut().expect("ensured"));
            let (ts, cu) = Self::thread_pair(&mut self.threads, t.as_usize(), u.as_usize());
            Self::sync_own_lane(ts);
            ts.vc.join(&cu.vc);
            ts.refresh_epoch();
        }
        let us = self.threads[u.as_usize()].as_mut().expect("ensured");
        Self::bump_epoch(us);
    }

    /// `[FT READ VOLATILE]`: `C_t := C_t ⊔ L_vx` (§4). No release-epoch
    /// shortcut exists (a volatile's clock is a *join* of every writer),
    /// but the seen-version stamp skips a re-join of an unchanged clock.
    fn volatile_read(&mut self, t: Tid, x: VarId) {
        let idx = x.as_usize();
        let Some(Some(lv)) = self.volatiles.get(idx) else {
            return;
        };
        let ts = Self::ensure_thread(&mut self.threads, t);
        if ts.seen_volatile(idx) == lv.version {
            self.stats.sync_fastpath_hits += 1;
            return;
        }
        self.stats.sync_slow_joins += 1;
        self.flush(t); // C_t is about to gain foreign entries
        self.stats.vc_ops += 1;
        self.sync_gen += 1;
        let lv = self.volatiles[idx].as_ref().expect("checked above");
        let ts = self.threads[t.as_usize()].as_mut().expect("ensured");
        Self::sync_own_lane(ts); // the join below feeds refresh_epoch
        ts.vc.join(&lv.vc);
        ts.refresh_epoch();
        ts.note_volatile(idx, lv.version);
    }

    /// `[FT WRITE VOLATILE]`: `L_vx := C_t ⊔ L_vx; C_t := incₜ(C_t)` (§4).
    /// No flush: the writer's clock is only read, then bumped in its own
    /// lane.
    fn volatile_write(&mut self, t: Tid, x: VarId) {
        let idx = x.as_usize();
        if idx >= self.volatiles.len() {
            self.volatiles.resize_with(idx + 1, || None);
        }
        let ts = Self::ensure_thread(&mut self.threads, t);
        Self::sync_own_lane(ts); // C_t is read as a join source below
        self.stats.vc_ops += 1;
        match &mut self.volatiles[idx] {
            Some(lv) => {
                lv.vc.join(&ts.vc);
                lv.version += 1;
            }
            slot @ None => {
                self.stats.vc_allocated += 1;
                *slot = Some(VolatileClock::new(ts.vc.clone()));
            }
        }
        Self::bump_epoch(ts);
    }

    /// `[FT BARRIER RELEASE]`: every `t ∈ T` gets
    /// `C_t := incₜ(⊔_{u∈T} C_u)` (§4). Every participant's clock is
    /// overwritten with foreign entries, so all participants flush first;
    /// the join target is the detector-lifetime scratch clock.
    ///
    /// In the steady state (same participants, no foreign-entry joins since
    /// the previous barrier) the joined clock is rebuilt from per-thread
    /// epochs in O(|T|) lane writes — see `FastTrack::barrier_release` in
    /// the core crate for the argument; the sampler's own-lane-lazy clocks
    /// make the epoch (not the clock lane) the authoritative own-lane
    /// value, which is exactly what the rebuild reads.
    fn barrier_release(&mut self, threads: &[Tid]) {
        let epoch_rebuild = self.barrier_gen == self.sync_gen
            && self.barrier_parts == threads
            && !threads.is_empty();
        let mut joined = std::mem::take(&mut self.barrier_scratch);
        if epoch_rebuild {
            self.stats.sync_fastpath_hits += 1;
            for &u in threads {
                // The assign below overwrites C_u with foreign entries, so
                // u's lazy locks must still freeze first.
                self.flush(u);
                let e = self.threads[u.as_usize()]
                    .as_ref()
                    .expect("participant")
                    .epoch;
                joined.set(u, e.clock());
            }
        } else {
            joined.clear();
            for &u in threads {
                self.thread(u);
                self.flush(u);
                self.stats.vc_ops += 1;
                let us = self.threads[u.as_usize()].as_mut().expect("ensured");
                Self::sync_own_lane(us); // C_u is a join source
                joined.join(&us.vc);
            }
        }
        for &t in threads {
            self.stats.vc_ops += 1;
            let ts = self.threads[t.as_usize()].as_mut().expect("ensured");
            ts.vc.assign(&joined);
            ts.inc();
        }
        self.barrier_scratch = joined;
        self.barrier_gen = self.sync_gen;
        if self.barrier_parts != threads {
            self.barrier_parts.clear();
            self.barrier_parts.extend_from_slice(threads);
        }
    }

    /// The inline sync fast lane: handles the two overwhelmingly common
    /// sync shapes — re-acquiring a lock whose release the thread already
    /// absorbed (one version-stamp compare) and renewing a lazy release the
    /// thread already owns (epoch + stamp store) — without leaving the
    /// dispatch loop. Returns `false` to route everything else (stamp
    /// misses, first releases, forks/joins/volatiles/barriers) to the
    /// outlined [`sync_op`](Self::sync_op) path.
    ///
    /// The acquire arm is sound because a matching stamp means the thread's
    /// clock already dominates this exact `L_m` (it noted the version when
    /// it last joined or produced it), so `C_t ⊔ L_m = C_t`. The release
    /// arm is the same O(1) renewal as [`release`](Self::release)'s first
    /// match arm, minus the dispatch.
    #[inline]
    fn sync_fast(&mut self, op: &Op) -> bool {
        match *op {
            Op::Acquire(t, m) => {
                let idx = m.as_usize();
                let Some(Some(lk)) = self.locks.get(idx) else {
                    // Never released: L_m is ⊥ and the join is a no-op.
                    self.stats.sync_ops += 1;
                    return true;
                };
                let Some(Some(ts)) = self.threads.get_mut(t.as_usize()) else {
                    return false;
                };
                self.stats.sync_ops += 1;
                if ts.seen_lock(idx) == lk.version {
                    self.stats.sync_fastpath_hits += 1;
                    return true;
                }
                if lk.rel.happens_before(&ts.vc) {
                    self.stats.sync_fastpath_hits += 1;
                    ts.note_lock(idx, lk.version);
                    return true;
                }
                // Genuine join: go straight to the outlined miss path
                // instead of re-dispatching (and re-testing) via `sync_op`.
                self.stats.sync_slow_joins += 1;
                self.acquire_slow(t, idx);
                true
            }
            Op::Release(t, m) => {
                // Any lazy-mode release of an existing lock is O(1): a
                // renewal keeps the owner, a takeover just moves the
                // epoch/owner and leaves the previous owner's pending entry
                // to go stale (version mismatch). Only the very first
                // release of a lock (the L_m allocation) and eager-mode
                // releases need the outlined path.
                if !self.lazy {
                    return false;
                }
                let idx = m.as_usize();
                let Some(Some(lk)) = self.locks.get_mut(idx) else {
                    return false;
                };
                let Some(Some(ts)) = self.threads.get_mut(t.as_usize()) else {
                    return false;
                };
                let renewal = lk.lazy && lk.rel.tid() == t;
                lk.rel = ts.epoch;
                lk.version += 1;
                lk.lazy = true;
                ts.note_lock(idx, lk.version);
                Self::bump_epoch(ts);
                self.stats.sync_ops += 1;
                if !renewal {
                    self.note_pending(t, idx);
                }
                true
            }
            _ => false,
        }
    }

    /// The outlined sync-op path: full FastTrack vector-clock maintenance,
    /// so the clocks consulted on admission are always exact.
    #[inline(never)]
    fn sync_op(&mut self, op: &Op) {
        match *op {
            Op::Acquire(t, m) => {
                self.stats.sync_ops += 1;
                self.acquire(t, m);
            }
            Op::Release(t, m) => {
                self.stats.sync_ops += 1;
                self.release(t, m);
            }
            Op::Fork(t, u) => {
                self.stats.sync_ops += 1;
                self.fork(t, u);
            }
            Op::Join(t, u) => {
                self.stats.sync_ops += 1;
                self.join(t, u);
            }
            Op::VolatileRead(t, x) => {
                self.stats.sync_ops += 1;
                self.volatile_read(t, x);
            }
            Op::VolatileWrite(t, x) => {
                self.stats.sync_ops += 1;
                self.volatile_write(t, x);
            }
            Op::Wait(t, m) => {
                // §4: wait = release + subsequent acquire.
                self.stats.sync_ops += 1;
                self.release(t, m);
                self.acquire(t, m);
            }
            Op::BarrierRelease(ref ts) => {
                self.stats.sync_ops += 1;
                self.barrier_release(ts);
            }
            Op::Notify(..) | Op::AtomicBegin(_) | Op::AtomicEnd(_) => {
                // No happens-before effect (§4).
            }
            Op::Read(..) | Op::Write(..) => unreachable!("handled inline"),
        }
    }

    /// The admission slow path: check the current access against the
    /// variable's retained samples via the real Figure 5 rules, then retain
    /// it (reservoir replacement once the budget is full). Allocation-free
    /// on the raceless path: the scratch states live on the stack and the
    /// thread clock is borrowed, not cloned.
    #[inline(never)]
    fn admit(&mut self, index: usize, t: Tid, x: VarId, kind: AccessKind) {
        self.admitted += 1;
        match kind {
            AccessKind::Read => self.admitted_reads += 1,
            AccessKind::Write => self.admitted_writes += 1,
        }
        let budget = self.config.budget;
        if budget == 0 {
            return;
        }
        self.thread(t);

        // Replay the access against each retained conflicting sample through
        // `fasttrack::rules`, on a scratch single-sample VarState. The
        // scratch state never inflates to READ_SHARED (its read history is a
        // single epoch), so these calls allocate nothing. Races found are
        // staged locally because `report` needs `&mut self`; the buffer only
        // allocates when a race is actually present.
        let ts = self.threads[t.as_usize()].as_mut().expect("ensured");
        Self::sync_own_lane(ts); // rules below borrow C_t; its own lane may lag
        let ts = self.threads[t.as_usize()].as_ref().expect("ensured");
        let epoch = ts.epoch;
        let mut races: Vec<(WarningKind, Epoch, AccessKind, &'static str)> = Vec::new();
        let var = self.vars.entry(x.as_u32());
        for slot in var.iter() {
            match kind {
                AccessKind::Read => {
                    if !slot.write {
                        continue; // read-read pairs never conflict
                    }
                    let mut vs = VarState::default();
                    vs.set_w(slot.epoch);
                    let out = rules::read_var(
                        &mut vs,
                        t,
                        epoch,
                        &ts.vc,
                        &self.ft_config,
                        &mut self.pool,
                        &mut self.stats,
                    );
                    self.hits.hit_read(out.rule);
                    if let Some(w) = out.racy_write {
                        races.push((
                            WarningKind::WriteRead,
                            w,
                            AccessKind::Write,
                            out.rule.name(),
                        ));
                    }
                }
                AccessKind::Write => {
                    let mut vs = VarState::default();
                    if slot.write {
                        vs.set_w(slot.epoch);
                    } else {
                        vs.set_r(slot.epoch);
                    }
                    let out = rules::write_var(
                        &mut vs,
                        epoch,
                        &ts.vc,
                        &self.ft_config,
                        &mut self.pool,
                        &mut self.stats,
                    );
                    self.hits.hit_write(out.rule);
                    if let Some(w) = out.racy_write {
                        races.push((
                            WarningKind::WriteWrite,
                            w,
                            AccessKind::Write,
                            out.rule.name(),
                        ));
                    }
                    if let Some(r) = out.racy_read {
                        races.push((WarningKind::ReadWrite, r, AccessKind::Read, out.rule.name()));
                    }
                }
            }
        }
        // Retain the access: push while under budget, then reservoir-replace
        // so every admitted access has equal probability of survival.
        var.seen += 1;
        let sample = SampleSlot {
            epoch,
            write: kind == AccessKind::Write,
        };
        if var.len() < budget {
            var.push(sample);
        } else {
            let j = self.res_rng.gen_range(0..var.seen as usize);
            if j < budget {
                var.set(j, sample);
                self.evicted += 1;
            }
        }

        if !races.is_empty() {
            let vc = self.threads[t.as_usize()]
                .as_ref()
                .expect("ensured")
                .vc
                .clone();
            for (warn_kind, conflict, prior_kind, rule) in races {
                self.report(
                    index, x, warn_kind, conflict, prior_kind, t, kind, epoch, &vc, rule,
                );
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &mut self,
        index: usize,
        x: VarId,
        kind: WarningKind,
        conflict: Epoch,
        prior_kind: AccessKind,
        t: Tid,
        current_kind: AccessKind,
        current_epoch: Epoch,
        vc: &VectorClock,
        rule: &'static str,
    ) {
        let idx = x.as_usize();
        if idx >= self.warned.len() {
            self.warned.resize(idx + 1, false);
        }
        if self.warned[idx] && !self.config.report_all {
            return;
        }
        self.warned[idx] = true;
        let (prior_write, prior_reads) = match prior_kind {
            AccessKind::Write => (conflict, ReadHistory::None),
            AccessKind::Read => (Epoch::MIN, ReadHistory::Epoch(conflict)),
        };
        self.warnings.push(Warning {
            var: x,
            kind,
            prior: AccessSummary {
                tid: conflict.tid(),
                kind: prior_kind,
                event_index: None,
            },
            current: AccessSummary {
                tid: t,
                kind: current_kind,
                event_index: Some(index),
            },
            provenance: Some(Provenance {
                rule,
                conflict,
                current_epoch,
                thread_clock: vc.iter_nonzero().collect(),
                prior_write,
                prior_reads,
                recent: Vec::new(),
            }),
        });
    }
}

impl Detector for Sampler {
    fn name(&self) -> &'static str {
        "SAMPLER"
    }

    #[inline]
    // The whole point of the tier is that this costs what EMPTY's dispatch
    // costs: a counter bump and one predictable threshold compare per
    // non-admitted access, in a body small enough that the call itself
    // dominates — exactly like EMPTY's. Admission and synchronization live
    // behind `#[inline(never)]` outlined paths to keep it that way.
    fn on_op(&mut self, index: usize, op: &Op) -> Disposition {
        self.stats.ops += 1;
        match *op {
            Op::Read(t, x) => {
                self.stats.reads += 1;
                if self.stats.reads == self.next_read_admit {
                    self.redraw(AccessKind::Read);
                    self.admit(index, t, x, AccessKind::Read);
                }
            }
            Op::Write(t, x) => {
                self.stats.writes += 1;
                if self.stats.writes == self.next_write_admit {
                    self.redraw(AccessKind::Write);
                    self.admit(index, t, x, AccessKind::Write);
                }
            }
            _ => {
                if !self.sync_fast(op) {
                    self.sync_op(op);
                }
            }
        }
        Disposition::Forward
    }

    fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    fn stats(&self) -> &Stats {
        &self.stats
    }

    fn shadow_bytes(&self) -> usize {
        let vars = self.vars.heap_bytes();
        let threads: usize = self
            .threads
            .iter()
            .flatten()
            .map(|ts| std::mem::size_of::<ThreadState>() + ts.vc.heap_bytes() + ts.seen_bytes())
            .sum();
        let locks: usize = self
            .locks
            .iter()
            .flatten()
            .map(|lk| std::mem::size_of::<LockState>() + lk.vc.heap_bytes())
            .sum();
        let syncs: usize = self
            .volatiles
            .iter()
            .flatten()
            .map(|lv| std::mem::size_of::<VolatileClock>() + lv.vc.heap_bytes())
            .sum::<usize>()
            + locks;
        let pending: usize = self
            .pending
            .iter()
            .map(|p| p.capacity() * std::mem::size_of::<u32>())
            .sum();
        vars + threads + syncs + pending
    }

    fn rule_breakdown(&self) -> Vec<fasttrack::RuleCount> {
        self.hits
            .breakdown(self.admitted_reads, self.admitted_writes)
    }

    fn metrics(&self) -> Snapshot {
        let mut reg = base_registry(self);
        reg.inc_counter("sampler.admitted", self.admitted);
        reg.inc_counter("sampler.evicted", self.evicted);
        reg.inc_counter("sampler.races_caught", self.warnings.len() as u64);
        reg.set_gauge("sampler.samples_live", self.samples_live() as f64);
        reg.set_gauge("sampler.budget", self.config.budget as f64);
        reg.set_gauge("sampler.rate", self.config.rate);
        reg.set_gauge("sampler.per_var_bytes", self.per_var_bytes() as f64);
        reg.set_gauge(
            "sampler.overhead_budget_pct",
            self.config.overhead_budget_pct,
        );
        if let Some(pct) = self.measured_overhead_pct() {
            reg.set_gauge("sampler.overhead_pct", pct);
            reg.set_gauge(
                "sampler.over_budget",
                if pct > self.config.overhead_budget_pct {
                    1.0
                } else {
                    0.0
                },
            );
        }
        reg.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_trace::TraceBuilder;

    const T0: Tid = Tid::new(0);
    const T1: Tid = Tid::new(1);
    const X: VarId = VarId::new(0);

    fn ww_race_trace() -> Trace {
        let mut b = TraceBuilder::with_threads(2);
        b.write(T0, X).unwrap();
        b.write(T1, X).unwrap();
        b.finish()
    }

    #[test]
    fn rate_one_catches_the_race() {
        let mut s = Sampler::with_config(SamplerConfig::default().with_rate(1.0));
        s.run(&ww_race_trace());
        assert_eq!(s.warnings().len(), 1);
        assert_eq!(s.warnings()[0].kind, WarningKind::WriteWrite);
        assert_eq!(s.warnings()[0].var, X);
        assert!(s.warnings()[0].provenance.is_some());
    }

    #[test]
    fn budget_zero_reports_nothing_and_survives() {
        let mut s = Sampler::with_config(SamplerConfig::default().with_rate(1.0).with_budget(0));
        s.run(&ww_race_trace());
        assert!(s.warnings().is_empty());
        assert_eq!(s.samples_live(), 0);
        assert!(s.admitted() > 0);
    }

    #[test]
    fn rate_zero_admits_nothing() {
        let mut s = Sampler::with_config(SamplerConfig::default().with_rate(0.0));
        s.run(&ww_race_trace());
        assert_eq!(s.admitted(), 0);
        assert!(s.warnings().is_empty());
    }

    #[test]
    fn synchronized_writes_do_not_warn() {
        let m = LockId::new(0);
        let mut b = TraceBuilder::with_threads(2);
        b.push(Op::Acquire(T0, m)).unwrap();
        b.write(T0, X).unwrap();
        b.push(Op::Release(T0, m)).unwrap();
        b.push(Op::Acquire(T1, m)).unwrap();
        b.write(T1, X).unwrap();
        b.push(Op::Release(T1, m)).unwrap();
        let trace = b.finish();
        let mut s = Sampler::with_config(SamplerConfig::default().with_rate(1.0));
        s.run(&trace);
        assert!(s.warnings().is_empty(), "{:?}", s.warnings());
    }

    #[test]
    fn fork_join_ordering_is_respected() {
        let mut b = TraceBuilder::new();
        b.write(T0, X).unwrap();
        b.push(Op::Fork(T0, T1)).unwrap();
        b.write(T1, X).unwrap();
        b.push(Op::Join(T0, T1)).unwrap();
        b.write(T0, X).unwrap();
        let trace = b.finish();
        let mut s = Sampler::with_config(SamplerConfig::default().with_rate(1.0));
        s.run(&trace);
        assert!(s.warnings().is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let trace = ww_race_trace();
        let cfg = SamplerConfig::default().with_rate(0.5).with_seed(99);
        let mut a = Sampler::with_config(cfg.clone());
        let mut b = Sampler::with_config(cfg);
        a.run(&trace);
        b.run(&trace);
        assert_eq!(a.warnings(), b.warnings());
        assert_eq!(a.admitted(), b.admitted());
    }

    #[test]
    fn per_var_bytes_is_thread_count_independent() {
        let cfg = SamplerConfig::default().with_budget(4);
        let few = Sampler::with_config(cfg.clone());
        let bytes = few.per_var_bytes();
        // Feed a trace with many threads hammering one variable; the per-var
        // constant must not move (unlike a vector-clock read history).
        let n = 32;
        let mut b = TraceBuilder::with_threads(n);
        for t in 0..n {
            b.read(Tid::new(t), X).unwrap();
        }
        let trace = b.finish();
        let mut s = Sampler::with_config(cfg.with_rate(1.0));
        s.run(&trace);
        assert_eq!(s.per_var_bytes(), bytes);
        assert!(s.samples_live() <= 4);
    }

    #[test]
    fn self_measurement_reports_after_run() {
        let mut s = Sampler::new();
        s.run(&ww_race_trace());
        assert!(s.measured_overhead_pct().is_some());
        assert!(s.over_budget().is_some());
    }

    #[test]
    fn metrics_expose_sampler_counters() {
        let mut s = Sampler::with_config(SamplerConfig::default().with_rate(1.0));
        s.run(&ww_race_trace());
        let snap = s.metrics();
        let json = snap.to_json();
        assert!(json.contains("sampler.admitted"));
        assert!(json.contains("sampler.samples_live"));
        assert!(json.contains("sampler.races_caught"));
    }

    #[test]
    fn lazy_and_eager_sync_agree_bit_for_bit() {
        // The epoch-only sync summary must be observationally identical to
        // eager per-release clock copies: same warnings (order included),
        // same admissions, same rule breakdown — across sync-dense shapes.
        use ft_trace::gen::{chaotic, generate, GenConfig};
        let mut shapes: Vec<Trace> = Vec::new();
        for seed in 0..24 {
            shapes.push(generate(
                &GenConfig {
                    threads: 4,
                    vars: 16,
                    locks: 4,
                    ops: 1500,
                    accesses_per_cs: 1,
                    p_barrier: 0.02,
                    p_volatile: 0.05,
                    ..GenConfig::default()
                },
                seed,
            ));
            shapes.push(chaotic(4, 12, 3, 1200, 1000 + seed));
        }
        for (i, trace) in shapes.iter().enumerate() {
            let cfg = SamplerConfig::default().with_rate(1.0).with_seed(7);
            let mut lazy = Sampler::with_config(cfg.clone().with_eager_sync(false));
            let mut eager = Sampler::with_config(cfg.with_eager_sync(true));
            lazy.run(trace);
            eager.run(trace);
            assert_eq!(lazy.warnings(), eager.warnings(), "shape {i}");
            assert_eq!(lazy.admitted(), eager.admitted(), "shape {i}");
            assert_eq!(lazy.rule_breakdown(), eager.rule_breakdown(), "shape {i}");
        }
    }

    #[test]
    fn lazy_release_renewal_does_no_clock_work() {
        // One thread hammering its own lock: after the first release, every
        // acquire fast-hits and every release is an O(1) epoch renewal —
        // zero vector-clock operations for the whole loop.
        let m = LockId::new(0);
        let mut b = TraceBuilder::with_threads(1);
        for _ in 0..100 {
            b.push(Op::Acquire(T0, m)).unwrap();
            b.push(Op::Release(T0, m)).unwrap();
        }
        let trace = b.finish();
        let mut s = Sampler::with_config(SamplerConfig::default().with_rate(0.0));
        s.run(&trace);
        assert_eq!(s.stats().vc_ops, 0);
        assert_eq!(s.stats().vc_allocated, 1, "one logical L_m allocation");
        assert_eq!(s.stats().sync_fastpath_hits, 99, "all re-acquires hit");
        assert_eq!(s.stats().sync_slow_joins, 0);
    }

    #[test]
    fn lazy_locks_flush_before_foreign_joins() {
        // T0 releases m lazily, then T1's acquire must observe the
        // release-time clock (not T0's later growth): T0 writes x inside
        // the critical section and again after the release; T1's read of x
        // is ordered only with the first write.
        let m = LockId::new(0);
        let y = VarId::new(1);
        let mut b = TraceBuilder::with_threads(2);
        b.push(Op::Acquire(T0, m)).unwrap();
        b.write(T0, X).unwrap();
        b.push(Op::Release(T0, m)).unwrap();
        b.write(T0, y).unwrap(); // after release: NOT ordered with T1
        b.push(Op::Acquire(T1, m)).unwrap();
        b.read(T1, X).unwrap(); // ordered via m: no race
        b.read(T1, y).unwrap(); // races with T0's post-release write
        let trace = b.finish();
        let mut s = Sampler::with_config(SamplerConfig::default().with_rate(1.0));
        s.run(&trace);
        assert_eq!(s.warnings().len(), 1, "{:?}", s.warnings());
        assert_eq!(s.warnings()[0].var, y);
        assert_eq!(s.warnings()[0].kind, WarningKind::WriteRead);
    }
}
