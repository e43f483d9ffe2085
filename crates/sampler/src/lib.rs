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
//!   rare ~3% of events) through FastTrack's own sync core
//!   ([`fasttrack::sync`]), so every happens-before verdict on a sampled
//!   pair is precise;
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
    ReadHistory, Stats, SyncCore, VarState, Warning, WarningKind,
};
use ft_clock::{Epoch, Tid, VcPool, VectorClock};
use ft_obs::Snapshot;
use ft_trace::{AccessKind, Op, Prng, Trace, VarId};
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

/// The O(1)-samples race detector.
///
/// Implements the shared [`Detector`] trait, so it is driven exactly like
/// the paper tools: per-op, per-block, or via [`Sampler::run`] (which also
/// self-measures overhead against an [`Empty`] pass over the same trace).
pub struct Sampler {
    config: SamplerConfig,
    ft_config: FastTrackConfig,
    /// Exact thread, lock, volatile and barrier clocks — the same
    /// [`SyncCore`] FastTrack runs, so every sampled pair is judged against
    /// the clocks FastTrack would use.
    sync: SyncCore,
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
        let mut sampler = Sampler {
            config,
            ft_config: FastTrackConfig::default(),
            sync: SyncCore::new(),
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
                self.sync.apply_op(op, &mut self.stats);
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
        self.sync.ensure_thread(t, &mut self.stats);

        // Replay the access against each retained conflicting sample through
        // `fasttrack::rules`, on a scratch single-sample VarState. The
        // scratch state never inflates to READ_SHARED (its read history is a
        // single epoch), so these calls allocate nothing. Races found are
        // staged locally because `report` needs `&mut self`; the buffer only
        // allocates when a race is actually present.
        let ts = self.sync.thread(t).expect("ensured");
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
            let vc = self.sync.thread(t).expect("ensured").vc.clone();
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
    // dominates — exactly like EMPTY's. Admission lives behind an
    // `#[inline(never)]` outlined path to keep it that way.
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
            _ => self.sync.apply_op(op, &mut self.stats),
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
        self.vars.heap_bytes() + self.sync.shadow_bytes()
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
    use ft_trace::{LockId, TraceBuilder};

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
    fn writes_ordered_by_fork_and_join_do_not_warn() {
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
    fn only_the_critical_section_orders_the_read() {
        // T1's acquire must observe T0's release-time clock, not T0's
        // later growth: T0 writes x inside the critical section and y
        // after the release; T1's read of x is ordered with the first
        // write, its read of y with nothing.
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
