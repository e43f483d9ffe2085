//! The FastTrack transition rules (Figures 2, 3, and 5, plus §4 extensions).
//!
//! Every rule name in the code matches the paper: `[FT READ SAME EPOCH]`,
//! `[FT READ EXCLUSIVE]`, `[FT READ SHARE]`, `[FT READ SHARED]`,
//! `[FT WRITE SAME EPOCH]`, `[FT WRITE EXCLUSIVE]`, `[FT WRITE SHARED]`,
//! `[FT ACQUIRE]`, `[FT RELEASE]`, `[FT FORK]`, `[FT JOIN]`,
//! `[FT READ/WRITE VOLATILE]`, and `[FT BARRIER RELEASE]`.

use crate::detector::{self, Detector, Disposition};
use crate::flight::{FlightRecorder, RecorderConfig, ThreadTail};
use crate::guard::{Guard, GuardConfig, GuardTier, Precision, ShadowBudget};
use crate::rules::{self, RuleHits};
use crate::state::{VarState, READ_SHARED};
use crate::stats::{RuleCount, Stats};
use crate::sync::SyncCore;
use crate::warning::{AccessSummary, Provenance, ReadHistory, Warning, WarningKind};
use ft_clock::{Epoch, Tid, VcPool, VectorClock};
use ft_obs::{Histogram, Snapshot};
use ft_trace::batch::opcode;
use ft_trace::{AccessKind, EventBlock, Op, Trace, VarId};
use std::time::Instant;

/// Free clocks the detector keeps around for `Rvc` reuse (the inflate /
/// collapse cycle of `[FT READ SHARE]` / `[FT WRITE SHARED]` rarely has
/// many variables in read-shared mode simultaneously).
const RVC_POOL_CAP: usize = 32;

/// Which representation currently holds a variable's read history.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReadMode {
    /// No read recorded yet (`R = ⊥ₑ`).
    Unread,
    /// The reads so far are totally ordered; `R` is a single epoch.
    Epoch,
    /// The variable is read-shared; the full vector clock `Rvc` is in use.
    Shared,
}

/// Configuration for [`FastTrack`].
///
/// The two `ablate_*` switches disable the algorithm's key design choices
/// *without affecting precision* — they exist for the ablation study
/// (`cargo run -p ft-bench --bin ablation`) that quantifies what each
/// optimization buys:
///
/// * `ablate_same_epoch`: skip the `[FT READ/WRITE SAME EPOCH]` fast paths,
///   so every access runs the full rule logic;
/// * `ablate_adaptive_read`: never hold the read history as an epoch —
///   inflate to a vector clock at the first read and keep it there, making
///   the read side DJIT⁺-shaped.
#[derive(Clone, Debug, Default)]
pub struct FastTrackConfig {
    /// Report every race found on a variable instead of only the first
    /// (the paper's tools "report at most one race for each field").
    pub report_all: bool,
    /// Disable the same-epoch fast paths (ablation only).
    pub ablate_same_epoch: bool,
    /// Disable the adaptive epoch read representation (ablation only).
    pub ablate_adaptive_read: bool,
    /// Resource governance (see [`crate::guard`]). `None` disables
    /// accounting entirely; `Some` with [`GuardConfig::mem_budget`] `== 0`
    /// keeps the gauges live but never degrades.
    pub guard: Option<GuardConfig>,
    /// Flight recorder (see [`crate::flight`]): keep the last *k* events of
    /// every thread and drain them into each warning's provenance. Each
    /// event is recorded once, where it is dispatched, so the recorder
    /// observes the analysis without choosing its tier: accesses still take
    /// the inline fast paths. Ring bytes are charged to the guard budget
    /// when one is configured.
    pub recorder: Option<RecorderConfig>,
    /// Record per-tier latency histograms (`tier.*.ns`) for the out-of-line
    /// tiers and per-block latency for the fused loop. Tier *hit* counters
    /// are always on; this switch only adds the clock reads.
    pub profile_tiers: bool,
}

/// Hit counters for the four dispatch tiers of the fused batch loops
/// ([`FastTrack::run`] / `on_block`), from cheapest to most general:
///
/// 1. **same-epoch probe** — the inline `[FT READ/WRITE SAME EPOCH]` check;
/// 2. **inline exclusive** — the inline race-free `[FT READ/WRITE
///    EXCLUSIVE]` transition;
/// 3. **pre-ensured** — the lean out-of-line path (shadow state proven to
///    exist, guard off);
/// 4. **governed** — the full path with ensure/sampling/guard accounting
///    (always taken under a guard, under the same-epoch ablation, and by
///    `on_op` dispatch).
///
/// Exposed via [`Detector::metrics`] as `tier.*.hits` counters and by
/// `ftrace profile --tiers`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TierProfile {
    /// Inline same-epoch probe hits (tier 1).
    pub same_epoch: u64,
    /// Inline race-free exclusive hits (tier 2).
    pub inline_exclusive: u64,
    /// Pre-ensured out-of-line path entries (tier 3).
    pub preensured: u64,
    /// Governed full-path entries (tier 4).
    pub governed: u64,
}

impl TierProfile {
    /// Total accesses dispatched across all tiers.
    pub fn total(&self) -> u64 {
        self.same_epoch + self.inline_exclusive + self.preensured + self.governed
    }
}

/// Latency histograms recorded when
/// [`FastTrackConfig::profile_tiers`] is on. Boxed so the disabled case
/// costs one pointer in the detector.
#[derive(Clone, Debug)]
struct TierLatencies {
    /// Nanoseconds per pre-ensured (tier 3) call.
    preensured: Histogram,
    /// Nanoseconds per governed (tier 4) call.
    governed: Histogram,
    /// Nanoseconds per fused `on_block` batch (covers the inline tiers).
    block: Histogram,
}

impl TierLatencies {
    fn new() -> Self {
        TierLatencies {
            preensured: Histogram::new(),
            governed: Histogram::new(),
            block: Histogram::new(),
        }
    }
}

/// The FastTrack race detector.
///
/// An online analysis over the operations of a multithreaded trace that
/// reports a race **iff** the trace contains two concurrent conflicting
/// accesses (Theorem 1), while performing *O(1)* work on the overwhelming
/// majority of accesses.
///
/// See the [crate docs](crate) for a usage example; the implementation
/// deliberately mirrors the Figure 5 pseudocode so the two can be read side
/// by side.
///
/// # Panics
///
/// Epochs are packed 32-bit values (§4): at most 256 concurrently live
/// thread ids and 2²⁴ − 1 clock ticks per thread. Exceeding either limit
/// panics with an epoch-overflow message. Programs with many short-lived
/// threads should recycle ids via
/// [`TidRecycler`](ft_clock::TidRecycler) in the event source, as the
/// paper suggests via accordion clocks.
#[derive(Clone, Debug)]
pub struct FastTrack {
    /// Thread, lock, volatile and barrier clocks with the Figure 5 sync
    /// handlers.
    sync: SyncCore,
    vars: Vec<VarState>,
    /// Variables that already produced a warning (suppression set).
    warned: Vec<bool>,
    warnings: Vec<Warning>,
    stats: Stats,
    rules: RuleHits,
    pool: VcPool,
    guard: Option<Guard>,
    recorder: Option<FlightRecorder>,
    tiers: TierProfile,
    tier_lat: Option<Box<TierLatencies>>,
    config: FastTrackConfig,
}

impl Default for FastTrack {
    fn default() -> Self {
        Self::new()
    }
}

impl FastTrack {
    /// Creates a detector with default configuration.
    pub fn new() -> Self {
        Self::with_config(FastTrackConfig::default())
    }

    /// Creates a detector with the given configuration.
    pub fn with_config(config: FastTrackConfig) -> Self {
        let guard = config.guard.as_ref().map(Guard::new);
        let recorder = config.recorder.map(FlightRecorder::new);
        let tier_lat = config.profile_tiers.then(|| Box::new(TierLatencies::new()));
        FastTrack {
            sync: SyncCore::new(),
            vars: Vec::new(),
            warned: Vec::new(),
            warnings: Vec::new(),
            stats: Stats::new(),
            rules: RuleHits::default(),
            pool: VcPool::new(RVC_POOL_CAP),
            guard,
            recorder,
            tiers: TierProfile::default(),
            tier_lat,
            config,
        }
    }

    /// Pre-sizes shadow state for a known id space, avoiding growth checks
    /// mid-run (used by the benchmark harness).
    pub fn with_capacity(n_threads: u32, n_vars: u32, n_locks: u32) -> Self {
        let mut ft = Self::new();
        ft.sync.reserve(n_threads, n_locks);
        ft.vars.reserve(n_vars as usize);
        ft
    }

    #[inline]
    fn var(&mut self, x: VarId) -> &mut VarState {
        let idx = x.as_usize();
        if idx >= self.vars.len() {
            self.grow_vars(idx);
        }
        &mut self.vars[idx]
    }

    /// Grows the shadow slab to cover `idx` on an amortized doubling
    /// schedule, so a sparse ascending `VarId` sequence reallocates
    /// *O(log n)* times instead of on every new high id. Kept out of line so
    /// the `var()` hot path is a bounds check plus an indexed load.
    #[cold]
    #[inline(never)]
    fn grow_vars(&mut self, idx: usize) {
        let needed = idx + 1;
        let cap_before = self.vars.capacity();
        if needed > cap_before {
            // `reserve_exact` to the doubled target keeps the capacity the
            // guard is charged for identical to the capacity actually held.
            let target = needed.max(cap_before.saturating_mul(2)).max(64);
            self.vars.reserve_exact(target - self.vars.len());
            self.warned.reserve_exact(target - self.warned.len());
        }
        self.vars.resize_with(needed, VarState::default);
        self.warned.resize(needed, false);
        if let Some(g) = self.guard.as_mut() {
            // The per-variable shadow words live in the slab itself, so the
            // budget charges by capacity growth.
            let grown = self.vars.capacity() - cap_before;
            g.charge(grown * std::mem::size_of::<VarState>());
        }
    }

    /// `true` if a warning on `x` would be recorded rather than suppressed.
    /// Call sites check this *before* building a [`Provenance`] so the
    /// clock-snapshot allocations are never paid for suppressed repeats.
    #[inline]
    fn would_report(&self, x: VarId) -> bool {
        self.config.report_all || !self.warned.get(x.as_usize()).copied().unwrap_or(false)
    }

    // One parameter per field of the warning being built: bundling them
    // into a struct would just move the same nine names one hop away from
    // the Figure-5 rule sites that supply them.
    #[allow(clippy::too_many_arguments)]
    fn report(
        &mut self,
        x: VarId,
        kind: WarningKind,
        prior_tid: Tid,
        prior_kind: AccessKind,
        current_tid: Tid,
        current_kind: AccessKind,
        index: usize,
        provenance: Provenance,
    ) {
        let idx = x.as_usize();
        if idx >= self.warned.len() {
            self.warned.resize(idx + 1, false);
        }
        if self.warned[idx] && !self.config.report_all {
            return;
        }
        self.warned[idx] = true;
        self.warnings.push(Warning {
            var: x,
            kind,
            prior: AccessSummary {
                tid: prior_tid,
                kind: prior_kind,
                event_index: None,
            },
            current: AccessSummary {
                tid: current_tid,
                kind: current_kind,
                event_index: Some(index),
            },
            provenance: Some(provenance),
        });
    }

    /// Builds the provenance record for a race detected on the current
    /// access: the fired rule, the conflicting epoch, the accessing thread's
    /// epoch and clock at detection, the pre-access shadow state, and — when
    /// the flight recorder is on — the recent events of both involved
    /// threads. Only called on racy, non-suppressed accesses.
    #[allow(clippy::too_many_arguments)]
    fn provenance(
        &self,
        rule: &'static str,
        conflict: Epoch,
        t: Tid,
        prior_tid: Tid,
        prior_w: Epoch,
        prior_r: Epoch,
        prior_rvc: Option<Vec<(Tid, u32)>>,
    ) -> Provenance {
        let ts = self.sync.thread(t).expect("accessing thread has state");
        let prior_reads = match prior_rvc {
            Some(entries) => ReadHistory::Shared(entries),
            None if prior_r == READ_SHARED => ReadHistory::Shared(Vec::new()),
            None if prior_r.is_initial() => ReadHistory::None,
            None => ReadHistory::Epoch(prior_r),
        };
        let mut recent = Vec::new();
        if let Some(rec) = &self.recorder {
            let events = rec.tail(prior_tid);
            if !events.is_empty() {
                recent.push(ThreadTail {
                    tid: prior_tid,
                    events,
                });
            }
            if t != prior_tid {
                let events = rec.tail(t);
                if !events.is_empty() {
                    recent.push(ThreadTail { tid: t, events });
                }
            }
        }
        Provenance {
            rule,
            conflict,
            current_epoch: ts.epoch,
            thread_clock: ts.vc.iter_nonzero().collect(),
            prior_write: prior_w,
            prior_reads,
            recent,
        }
    }

    /// Records one event into the flight recorder (a no-op when it is
    /// off), charging a newly allocated ring to the guard budget. Called
    /// once per event, where it is dispatched, before it is analyzed — so a
    /// warning's tail ends at the racy access.
    #[inline]
    fn record(&mut self, index: usize, kind: u8, t: Tid, a: u32, parties: &[Tid]) {
        if let Some(rec) = self.recorder.as_mut() {
            let charged = rec.record(index as u64, kind, t, a, parties);
            if charged > 0 {
                if let Some(g) = self.guard.as_mut() {
                    g.charge(charged);
                }
            }
        }
    }

    /// Figure 5 `read(VarState x, ThreadState t)` — the governed (tier 4)
    /// path.
    ///
    /// The transition itself lives in [`rules::read_var`], shared with the
    /// sampler; this wrapper only resolves the shadow state and turns the
    /// outcome into warnings.
    // Outlined so the fused `run`/`on_block` loops stay small enough to sit
    // in the µop cache; the same-epoch fast path never enters here.
    #[inline(never)]
    fn read(&mut self, index: usize, t: Tid, x: VarId) {
        self.tiers.governed += 1;
        if self.config.profile_tiers {
            let t0 = Instant::now();
            self.read_governed(index, t, x);
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(lat) = self.tier_lat.as_mut() {
                lat.governed.record(ns);
            }
        } else {
            self.read_governed(index, t, x);
        }
    }

    fn read_governed(&mut self, index: usize, t: Tid, x: VarId) {
        self.stats.reads += 1;
        if self.sampled_out(x) {
            return;
        }
        self.sync.ensure_thread(t, &mut self.stats);
        self.var(x); // ensure shadow state exists

        // Split borrows: the rules touch disjoint fields of self.
        let ts = self.sync.thread(t).expect("thread initialized above");
        let epoch = ts.epoch;
        // `rvc_bytes` dereferences the boxed Rvc; only the guard needs the
        // before/after delta, so ungoverned runs skip it entirely.
        let before = if self.guard.is_some() {
            self.vars[x.as_usize()].rvc_bytes()
        } else {
            0
        };
        let outcome = rules::read_var(
            &mut self.vars[x.as_usize()],
            t,
            epoch,
            &ts.vc,
            &self.config,
            &mut self.pool,
            &mut self.stats,
        );
        self.rules.hit_read(outcome.rule);
        if let Some(g) = self.guard.as_mut() {
            g.adjust(before, self.vars[x.as_usize()].rvc_bytes());
            g.sync_pool(self.pool.free_bytes());
            if matches!(
                outcome.rule,
                rules::ReadRule::Share | rules::ReadRule::Shared
            ) {
                g.note_shared_read(x, epoch);
            }
        }

        self.report_read_race(index, t, x, outcome);
        self.enforce_budget();
    }

    /// Figure 5 `write(VarState x, ThreadState t)` — the governed (tier 4)
    /// path.
    ///
    /// Like [`FastTrack::read`], delegates the transition to
    /// [`rules::write_var`].
    #[inline(never)]
    fn write(&mut self, index: usize, t: Tid, x: VarId) {
        self.tiers.governed += 1;
        if self.config.profile_tiers {
            let t0 = Instant::now();
            self.write_governed(index, t, x);
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(lat) = self.tier_lat.as_mut() {
                lat.governed.record(ns);
            }
        } else {
            self.write_governed(index, t, x);
        }
    }

    fn write_governed(&mut self, index: usize, t: Tid, x: VarId) {
        self.stats.writes += 1;
        if self.sampled_out(x) {
            return;
        }
        self.sync.ensure_thread(t, &mut self.stats);
        self.var(x); // ensure shadow state exists

        let ts = self.sync.thread(t).expect("thread initialized above");
        let before = if self.guard.is_some() {
            self.vars[x.as_usize()].rvc_bytes()
        } else {
            0
        };
        let outcome = rules::write_var(
            &mut self.vars[x.as_usize()],
            ts.epoch,
            &ts.vc,
            &self.config,
            &mut self.pool,
            &mut self.stats,
        );
        self.rules.hit_write(outcome.rule);
        if let Some(g) = self.guard.as_mut() {
            g.adjust(before, self.vars[x.as_usize()].rvc_bytes());
            g.sync_pool(self.pool.free_bytes());
            if outcome.rule == rules::WriteRule::Shared {
                g.note_collapse(x);
            }
        }

        self.report_write_races(index, t, x, outcome);
        self.enforce_budget();
    }

    /// Turns a [`rules::ReadOutcome`] into a write-read warning when it
    /// found a racing write. Shared by the governed and pre-ensured read
    /// paths.
    fn report_read_race(&mut self, index: usize, t: Tid, x: VarId, outcome: rules::ReadOutcome) {
        if let Some(w) = outcome.racy_write {
            if self.would_report(x) {
                let prov = self.provenance(
                    outcome.rule.name(),
                    w,
                    t,
                    w.tid(),
                    outcome.prior_w,
                    outcome.prior_r,
                    outcome.prior_rvc,
                );
                self.report(
                    x,
                    WarningKind::WriteRead,
                    w.tid(),
                    AccessKind::Write,
                    t,
                    AccessKind::Read,
                    index,
                    prov,
                );
            }
        }
    }

    /// Turns a [`rules::WriteOutcome`] into warnings (write-write first,
    /// then read-write — a variable gets at most one by default, so the
    /// write-write report wins when both fired). Shared by the governed and
    /// pre-ensured write paths.
    fn report_write_races(&mut self, index: usize, t: Tid, x: VarId, outcome: rules::WriteOutcome) {
        if let Some(w) = outcome.racy_write {
            if self.would_report(x) {
                let prov = self.provenance(
                    outcome.rule.name(),
                    w,
                    t,
                    w.tid(),
                    outcome.prior_w,
                    outcome.prior_r,
                    outcome.prior_rvc.clone(),
                );
                self.report(
                    x,
                    WarningKind::WriteWrite,
                    w.tid(),
                    AccessKind::Write,
                    t,
                    AccessKind::Write,
                    index,
                    prov,
                );
            }
        }
        if let Some(u) = outcome.racy_read {
            if self.would_report(x) {
                let prov = self.provenance(
                    outcome.rule.name(),
                    u,
                    t,
                    u.tid(),
                    outcome.prior_w,
                    outcome.prior_r,
                    outcome.prior_rvc,
                );
                self.report(
                    x,
                    WarningKind::ReadWrite,
                    u.tid(),
                    AccessKind::Read,
                    t,
                    AccessKind::Write,
                    index,
                    prov,
                );
            }
        }
    }

    /// The ungoverned read slow path (tier 3). `run`/`on_block` dispatch
    /// here once the fast-path probe has proven `threads[t]` and `vars[x]`
    /// both have shadow state and the guard is off: the ensure/resize
    /// checks, the sampling test, and the guard accounting of
    /// [`FastTrack::read`] are all statically dead under those
    /// preconditions, so this skips them.
    #[inline(never)]
    fn read_preensured(&mut self, index: usize, t: Tid, x: VarId) {
        self.tiers.preensured += 1;
        let t0 = self.tier_lat.as_ref().map(|_| Instant::now());
        self.stats.reads += 1;
        let ts = self
            .sync
            .thread(t)
            .expect("caller proved the thread slot exists");
        let outcome = rules::read_var(
            &mut self.vars[x.as_usize()],
            t,
            ts.epoch,
            &ts.vc,
            &self.config,
            &mut self.pool,
            &mut self.stats,
        );
        self.rules.hit_read(outcome.rule);
        self.report_read_race(index, t, x, outcome);
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(lat) = self.tier_lat.as_mut() {
                lat.preensured.record(ns);
            }
        }
    }

    /// The ungoverned write slow path (tier 3); see
    /// [`FastTrack::read_preensured`].
    #[inline(never)]
    fn write_preensured(&mut self, index: usize, t: Tid, x: VarId) {
        self.tiers.preensured += 1;
        let t0 = self.tier_lat.as_ref().map(|_| Instant::now());
        self.stats.writes += 1;
        let ts = self
            .sync
            .thread(t)
            .expect("caller proved the thread slot exists");
        let outcome = rules::write_var(
            &mut self.vars[x.as_usize()],
            ts.epoch,
            &ts.vc,
            &self.config,
            &mut self.pool,
            &mut self.stats,
        );
        self.rules.hit_write(outcome.rule);
        self.report_write_races(index, t, x, outcome);
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(lat) = self.tier_lat.as_mut() {
                lat.preensured.record(ns);
            }
        }
    }

    /// `true` when the sampling tier decided to skip this access. Only
    /// accesses that would *allocate new shadow state* (a variable id
    /// beyond the current slab) are ever skipped; variables with existing
    /// state keep full analysis, so a warning already found is never lost.
    #[inline]
    fn sampled_out(&mut self, x: VarId) -> bool {
        match self.guard.as_mut() {
            Some(g) if g.tier() == GuardTier::Sampling && x.as_usize() >= self.vars.len() => {
                !g.admit_new_var()
            }
            _ => false,
        }
    }

    /// Walks the degradation ladder down until the budget is respected (or
    /// every rung is exhausted and the sampling tier engages). No-op while
    /// under budget, and permanently a no-op with an unlimited budget.
    fn enforce_budget(&mut self) {
        let Some(g) = self.guard.as_mut() else { return };
        if !g.over() {
            return;
        }
        // Rung 2: evict read vector clocks, least-recently-read first. The
        // Rvc is dropped (not pooled — eviction must actually free memory)
        // and the read history collapses to the last-read epoch, a genuine
        // entry of the clock: a later concurrent write still races with it,
        // so eviction can only lose warnings, never invent them.
        while g.over() {
            let Some((victim, last_read)) = g.pop_lru() else {
                break;
            };
            let vs = &mut self.vars[victim.as_usize()];
            if !vs.is_read_shared() {
                continue; // stale entry: already collapsed by a write
            }
            let freed = vs.rvc_bytes();
            vs.rvc = None;
            vs.set_r(last_read);
            g.record_eviction(freed);
        }
        if !g.over() {
            return;
        }
        // Rung 2½: drop the recycle pool's retained clocks.
        let (clocks, bytes) = self.pool.drain();
        g.record_pool_drain(clocks, bytes);
        // Rung 3: nothing left to shed — sample new shadow state.
        if g.over() {
            g.enter_sampling();
        }
    }

    /// The precision verdict for this run: [`Precision::Full`] unless the
    /// degradation ladder ever engaged.
    pub fn precision(&self) -> Precision {
        self.guard
            .as_ref()
            .map_or(Precision::Full, Guard::precision)
    }

    /// Live budget accounting, when governance is enabled.
    pub fn shadow_budget(&self) -> Option<&ShadowBudget> {
        self.guard.as_ref().map(Guard::budget)
    }

    /// Re-targets the guard's byte budget mid-run — the hook a multi-tenant
    /// host uses to re-apportion a global budget when sessions open and
    /// close. A no-op when the detector was built without a guard (an
    /// ungoverned detector cannot gain one mid-analysis: its shadow state
    /// was never metered). Shrinking the budget below current usage engages
    /// the degradation ladder on the next governed access.
    pub fn set_mem_budget(&mut self, bytes: usize) {
        if let Some(g) = self.guard.as_mut() {
            if g.budget().limit() != bytes {
                g.set_limit(bytes);
            }
        }
    }

    /// The degradation-ladder rung the detector is currently on
    /// ([`GuardTier::Full`] when ungoverned).
    pub fn guard_tier(&self) -> GuardTier {
        self.guard.as_ref().map_or(GuardTier::Full, Guard::tier)
    }

    /// Per-tier hit counters for the fused batch loops. Always maintained;
    /// see [`FastTrackConfig::profile_tiers`] for the latency histograms.
    pub fn tier_profile(&self) -> TierProfile {
        self.tiers
    }

    /// The flight recorder, when enabled.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// Advances thread `t`'s clock (`C_t := incₜ(C_t)`) without any other
    /// effect.
    ///
    /// Useful when embedding FastTrack under a custom synchronization model
    /// (e.g. the SingleTrack determinism checker hides lock edges but must
    /// still end the releasing thread's epoch so the same-epoch caches stay
    /// sound).
    pub fn advance_epoch(&mut self, t: Tid) {
        self.sync.ensure_thread(t, &mut self.stats).inc();
    }

    /// Checks the appendix's **Definition 1 (well-formed states)** on the
    /// current analysis state, returning a description of the first
    /// violated clause, if any:
    ///
    /// 1. `∀ u ≠ t: C_u(t) < C_t(t)` — a thread's own clock dominates every
    ///    other thread's view of it;
    /// 2. `∀ m, t: L_m(t) < C_t(t)` — lock clocks lag the threads;
    /// 3. `∀ x, t: R_x(t) ≤ C_t(t)` — read histories never lead;
    /// 4. `∀ x, t: W_x(t) ≤ C_t(t)` — write histories never lead.
    ///
    /// Lemmas 1–2 of the paper prove the initial state is well-formed and
    /// every transition preserves it; the property test
    /// `well_formedness_is_preserved` exercises exactly that claim against
    /// this checker after every analyzed event.
    pub fn well_formedness_violation(&self) -> Option<String> {
        let clock_of = |t: Tid| -> Option<&VectorClock> { self.sync.thread(t).map(|s| &s.vc) };
        let threads = self.sync.threads();
        // Clause 1.
        for (ui, us) in threads.iter().enumerate() {
            let Some(us) = us else { continue };
            for (ti, ts) in threads.iter().enumerate() {
                let Some(ts) = ts else { continue };
                let t = Tid::new(ti as u32);
                if ui != ti && us.vc.get(t) >= ts.vc.get(t) {
                    return Some(format!(
                        "C_{ui}({t}) = {} ≥ {} = C_{ti}({t})",
                        us.vc.get(t),
                        ts.vc.get(t)
                    ));
                }
            }
        }
        // Clause 2 (locks and the volatile extension of L).
        let lock_clocks = self.sync.locks().iter().map(|s| s.as_ref().map(|l| &l.vc));
        let volatile_clocks = self
            .sync
            .volatiles()
            .iter()
            .map(|s| s.as_ref().map(|v| &v.vc));
        for (mi, lm) in lock_clocks.chain(volatile_clocks).enumerate() {
            let Some(lm) = lm else { continue };
            for (t, c) in lm.iter_nonzero() {
                let Some(ct) = clock_of(t) else {
                    return Some(format!("L entry for unknown thread {t}"));
                };
                if c >= ct.get(t) {
                    return Some(format!("L_{mi}({t}) = {c} ≥ {} = C_{t}({t})", ct.get(t)));
                }
            }
        }
        // Clauses 3 and 4.
        for (xi, vs) in self.vars.iter().enumerate() {
            let mut entries: Vec<(Tid, u32, &str)> = Vec::new();
            if !vs.w().is_initial() {
                entries.push((vs.w().tid(), vs.w().clock(), "W"));
            }
            if vs.is_read_shared() {
                for (t, c) in vs.rvc.as_ref().expect("shared implies Rvc").iter_nonzero() {
                    entries.push((t, c, "R"));
                }
            } else if !vs.r().is_initial() {
                entries.push((vs.r().tid(), vs.r().clock(), "R"));
            }
            for (t, c, which) in entries {
                let Some(ct) = clock_of(t) else {
                    return Some(format!("{which}_x{xi} references unknown thread {t}"));
                };
                if c > ct.get(t) {
                    return Some(format!(
                        "{which}_x{xi}({t}) = {c} > {} = C_{t}({t})",
                        ct.get(t)
                    ));
                }
            }
        }
        None
    }

    /// The representation currently holding `x`'s read history — lets tests
    /// and examples observe the adaptive switching of Figure 4.
    pub fn read_mode(&self, x: VarId) -> ReadMode {
        match self.vars.get(x.as_usize()) {
            None => ReadMode::Unread,
            Some(vs) if vs.is_read_shared() => ReadMode::Shared,
            Some(vs) if vs.r() == Epoch::MIN && vs.rvc.is_none() => {
                // R = ⊥ₑ: either never read, or collapsed by [FT WRITE SHARED].
                ReadMode::Unread
            }
            Some(_) => ReadMode::Epoch,
        }
    }

    /// The last-write epoch `W_x` (⊥ₑ if never written).
    pub fn write_epoch(&self, x: VarId) -> Epoch {
        self.vars.get(x.as_usize()).map_or(Epoch::MIN, |vs| vs.w())
    }

    /// The read epoch `R_x` while in epoch mode; `None` in shared mode.
    pub fn read_epoch(&self, x: VarId) -> Option<Epoch> {
        let vs = self.vars.get(x.as_usize())?;
        if vs.is_read_shared() {
            None
        } else {
            Some(vs.r())
        }
    }

    /// The read vector clock `Rvc_x` while in shared mode.
    pub fn read_clock(&self, x: VarId) -> Option<&VectorClock> {
        self.vars.get(x.as_usize()).and_then(|vs| vs.rvc.as_deref())
    }
}

impl Detector for FastTrack {
    fn name(&self) -> &'static str {
        "FASTTRACK"
    }

    fn on_op(&mut self, index: usize, op: &Op) -> Disposition {
        self.stats.ops += 1;
        let (kind, t, a, parties) = op.raw();
        self.record(index, kind, t, a, parties);
        match kind {
            opcode::READ => {
                self.read(index, t, VarId::new(a));
                self.access_disposition(VarId::new(a))
            }
            opcode::WRITE => {
                self.write(index, t, VarId::new(a));
                self.access_disposition(VarId::new(a))
            }
            _ => {
                self.sync.apply(kind, t, a, parties, &mut self.stats);
                Disposition::Forward
            }
        }
    }

    fn on_block(&mut self, base_index: usize, block: &EventBlock) {
        let t0 = self.tier_lat.as_ref().map(|_| Instant::now());
        self.stats.ops += block.len() as u64;
        if self.recorder.is_some() {
            self.block_loop::<true>(base_index, block);
        } else {
            self.block_loop::<false>(base_index, block);
        }
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(lat) = self.tier_lat.as_mut() {
                lat.block.record(ns);
            }
        }
    }

    fn run(&mut self, trace: &Trace) {
        if self.recorder.is_some() {
            self.run_loop::<true>(trace);
        } else {
            self.run_loop::<false>(trace);
        }
    }

    fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    fn stats(&self) -> &Stats {
        &self.stats
    }

    fn shadow_bytes(&self) -> usize {
        let vars: usize = self.vars.iter().map(VarState::shadow_bytes).sum();
        let recorder = self.recorder.as_ref().map_or(0, FlightRecorder::bytes);
        vars + self.sync.shadow_bytes() + recorder
    }

    fn rule_breakdown(&self) -> Vec<RuleCount> {
        self.rules.breakdown(self.stats.reads, self.stats.writes)
    }

    fn precision(&self) -> Precision {
        FastTrack::precision(self)
    }

    fn metrics(&self) -> Snapshot {
        let mut reg = detector::base_registry(self);
        if let Some(b) = self.shadow_budget() {
            // Live budget gauges (present even while fully precise, so
            // dashboards can watch headroom before degradation starts).
            reg.set_gauge("guard.budget_bytes", b.limit() as f64);
            reg.set_gauge("guard.used_bytes", b.used() as f64);
            reg.set_gauge("guard.peak_bytes", b.peak() as f64);
            reg.set_meta("guard.tier", &self.guard_tier().to_string());
        }
        // Per-tier dispatch counters for the fused batch loops (always on —
        // the inline tiers flush from loop locals, the out-of-line tiers
        // count one add per entry).
        reg.inc_counter("tier.same_epoch.hits", self.tiers.same_epoch);
        reg.inc_counter("tier.inline_exclusive.hits", self.tiers.inline_exclusive);
        reg.inc_counter("tier.preensured.hits", self.tiers.preensured);
        reg.inc_counter("tier.governed.hits", self.tiers.governed);
        if let Some(lat) = &self.tier_lat {
            reg.histogram_mut("tier.preensured.ns")
                .merge(&lat.preensured);
            reg.histogram_mut("tier.governed.ns").merge(&lat.governed);
            reg.histogram_mut("tier.block.ns").merge(&lat.block);
        }
        if let Some(rec) = &self.recorder {
            reg.inc_counter("recorder.recorded_events", rec.recorded());
            reg.set_gauge("recorder.capacity", rec.capacity() as f64);
            reg.set_gauge("recorder.threads", rec.threads() as f64);
            reg.set_gauge("recorder.bytes", rec.bytes() as f64);
        }
        reg.snapshot()
    }
}

/// Inline-tier hits of one fused loop. They live in locals and are
/// flushed once after the loop: the inline tiers make no calls, so the
/// counts stay in registers instead of being read-modify-write stores
/// through `&mut self` per event.
#[derive(Default)]
struct InlineTally {
    se_reads: u64,
    ex_reads: u64,
    se_writes: u64,
    ex_writes: u64,
}

impl FastTrack {
    /// The fused loop of `on_block`. The loops are compiled once per
    /// `RECORD` (flight recorder on or off), so the recorder-off loop
    /// carries no recording code.
    fn block_loop<const RECORD: bool>(&mut self, base_index: usize, block: &EventBlock) {
        let tiers = self.inline_tiers();
        let mut tally = InlineTally::default();
        for i in 0..block.len() {
            let kind = block.kind(i);
            let t = block.tid(i);
            let a = block.arg(i);
            // Accesses dominate real traces (~97%, Table 2), so they are
            // dispatched before the sync match and skip `Op`
            // reconstruction entirely.
            if kind == opcode::READ {
                let x = VarId::new(a);
                self.access::<false, RECORD>(base_index + i, t, x, tiers, &mut tally);
            } else if kind == opcode::WRITE {
                let x = VarId::new(a);
                self.access::<true, RECORD>(base_index + i, t, x, tiers, &mut tally);
            } else {
                let parties = if kind == opcode::BARRIER {
                    block.barrier(a)
                } else {
                    &[]
                };
                if RECORD {
                    self.record(base_index + i, kind, t, a, parties);
                }
                self.sync.apply(kind, t, a, parties, &mut self.stats);
            }
        }
        self.flush_tally(tally);
    }

    /// The fused whole-trace loop of `run`: the same inline tiers as
    /// `on_block`, accesses skip the prefilter-disposition lookup, and
    /// everything else falls back to `on_op`. Events are consumed straight
    /// off the slice — copying them into an `EventBlock` first would cost
    /// more than the fused dispatch saves (blocks earn their keep when the
    /// *decoder* fills them, as in the `.ftb` streaming path).
    fn run_loop<const RECORD: bool>(&mut self, trace: &Trace) {
        let tiers = self.inline_tiers();
        let mut tally = InlineTally::default();
        let mut accesses = 0u64;
        for (index, op) in trace.events().iter().enumerate() {
            match *op {
                Op::Read(t, x) => {
                    accesses += 1;
                    self.access::<false, RECORD>(index, t, x, tiers, &mut tally);
                }
                Op::Write(t, x) => {
                    accesses += 1;
                    self.access::<true, RECORD>(index, t, x, tiers, &mut tally);
                }
                _ => {
                    self.on_op(index, op);
                }
            }
        }
        self.stats.ops += accesses;
        self.flush_tally(tally);
    }

    /// Which inline tiers the fused loops may take: `(same_epoch,
    /// exclusive)`.
    ///
    /// With no guard to account to, a same-epoch hit has no observable
    /// effect beyond two counters — the check can run on the raw lanes
    /// before any of the per-access setup (`thread`/`var` ensures, guard
    /// bookkeeping, disposition) is paid. A flight recorder does not change
    /// this: it records each access before the probe, whichever tier then
    /// serves it.
    ///
    /// The race-free `[FT READ/WRITE EXCLUSIVE]` case is two
    /// epoch-vs-clock compares and one store, so it runs inline too; only
    /// shared/racy/inflating accesses leave the loop. (Adaptive-read
    /// ablation inflates on first read, so it must take the full rule
    /// body.)
    fn inline_tiers(&self) -> (bool, bool) {
        let fast = self.guard.is_none() && !self.config.ablate_same_epoch;
        (fast, fast && !self.config.ablate_adaptive_read)
    }

    /// One access of a fused loop, cheapest tier first: the inline
    /// same-epoch probe (tier 1), the inline race-free exclusive
    /// transition (tier 2), then the out-of-line pre-ensured path (tier 3)
    /// once the probe has proven both shadow slots exist, else the
    /// governed path (tier 4). With `RECORD`, the flight recorder sees the
    /// access first. `WRITE` picks the rule side at compile time.
    #[inline(always)]
    fn access<const WRITE: bool, const RECORD: bool>(
        &mut self,
        index: usize,
        t: Tid,
        x: VarId,
        (fast, fast_excl): (bool, bool),
        tally: &mut InlineTally,
    ) {
        if RECORD {
            let kind = if WRITE { opcode::WRITE } else { opcode::READ };
            self.record(index, kind, t, x.as_u32(), &[]);
        }
        if fast {
            if let (Some(ts), Some(vs)) = (self.sync.thread(t), self.vars.get_mut(x.as_usize())) {
                let same_epoch = if WRITE {
                    vs.write_hits_same_epoch(ts.epoch)
                } else {
                    vs.read_hits_same_epoch(ts.epoch)
                };
                if same_epoch {
                    if WRITE {
                        tally.se_writes += 1;
                    } else {
                        tally.se_reads += 1;
                    }
                    return;
                }
                let w = vs.w();
                let r = vs.r();
                if fast_excl
                    && r != READ_SHARED
                    && w.happens_before(&ts.vc)
                    && r.happens_before(&ts.vc)
                {
                    // `[FT READ/WRITE EXCLUSIVE]`, race-free.
                    if WRITE {
                        vs.set_w(ts.epoch);
                        tally.ex_writes += 1;
                    } else {
                        vs.set_r(ts.epoch);
                        tally.ex_reads += 1;
                    }
                    return;
                }
                if WRITE {
                    self.write_preensured(index, t, x);
                } else {
                    self.read_preensured(index, t, x);
                }
                return;
            }
        }
        if WRITE {
            self.write(index, t, x);
        } else {
            self.read(index, t, x);
        }
    }

    /// Adds one fused loop's inline-tier hits to the counters.
    fn flush_tally(&mut self, tally: InlineTally) {
        let InlineTally {
            se_reads,
            ex_reads,
            se_writes,
            ex_writes,
        } = tally;
        self.stats.reads += se_reads + ex_reads;
        self.stats.writes += se_writes + ex_writes;
        self.rules
            .hit_fast_bulk(se_reads, ex_reads, se_writes, ex_writes);
        self.tiers.same_epoch += se_reads + se_writes;
        self.tiers.inline_exclusive += ex_reads + ex_writes;
    }

    /// Prefilter policy (§5.2): once a variable is known racy, its accesses
    /// are interesting to downstream checkers; race-free accesses are
    /// suppressed. (Footnote 6: this may filter an access that is *later*
    /// found to race — a small, documented coverage reduction.)
    #[inline]
    fn access_disposition(&self, x: VarId) -> Disposition {
        if self.warned.get(x.as_usize()).copied().unwrap_or(false) {
            Disposition::Forward
        } else {
            Disposition::Suppress
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_trace::{LockId, TraceBuilder};

    const T0: Tid = Tid::new(0);
    const T1: Tid = Tid::new(1);
    const T2: Tid = Tid::new(2);
    const X: VarId = VarId::new(0);
    const M: LockId = LockId::new(0);

    fn run(
        build: impl FnOnce(&mut TraceBuilder) -> Result<(), ft_trace::FeasibilityError>,
    ) -> FastTrack {
        let mut b = TraceBuilder::with_threads(3);
        build(&mut b).unwrap();
        let mut ft = FastTrack::new();
        ft.run(&b.finish());
        ft
    }

    #[test]
    fn write_write_race_detected() {
        let ft = run(|b| {
            b.write(T0, X)?;
            b.write(T1, X)
        });
        assert_eq!(ft.warnings().len(), 1);
        assert_eq!(ft.warnings()[0].kind, WarningKind::WriteWrite);
        assert_eq!(ft.warnings()[0].prior.tid, T0);
        assert_eq!(ft.warnings()[0].current.tid, T1);
    }

    #[test]
    fn write_read_race_detected() {
        let ft = run(|b| {
            b.write(T0, X)?;
            b.read(T1, X)
        });
        assert_eq!(ft.warnings().len(), 1);
        assert_eq!(ft.warnings()[0].kind, WarningKind::WriteRead);
    }

    #[test]
    fn read_write_race_detected() {
        let ft = run(|b| {
            b.read(T0, X)?;
            b.write(T1, X)
        });
        assert_eq!(ft.warnings().len(), 1);
        assert_eq!(ft.warnings()[0].kind, WarningKind::ReadWrite);
    }

    #[test]
    fn read_write_race_detected_in_shared_mode() {
        // Two concurrent reads inflate to a VC; the write must see both.
        let ft = run(|b| {
            b.read(T0, X)?;
            b.read(T1, X)?;
            b.write(T2, X)
        });
        assert_eq!(ft.warnings().len(), 1);
        assert_eq!(ft.warnings()[0].kind, WarningKind::ReadWrite);
    }

    #[test]
    fn lock_protected_accesses_are_race_free() {
        let ft = run(|b| {
            b.release_after_acquire(T0, M, |b| {
                b.write(T0, X)?;
                b.read(T0, X)
            })?;
            b.release_after_acquire(T1, M, |b| {
                b.read(T1, X)?;
                b.write(T1, X)
            })
        });
        assert!(ft.warnings().is_empty());
    }

    #[test]
    fn accesses_ordered_by_fork_and_join_are_race_free() {
        let mut b = TraceBuilder::new();
        b.write(T0, X).unwrap();
        b.fork(T0, T1).unwrap();
        b.write(T1, X).unwrap();
        b.join(T0, T1).unwrap();
        b.read(T0, X).unwrap();
        let mut ft = FastTrack::new();
        ft.run(&b.finish());
        assert!(ft.warnings().is_empty());
    }

    #[test]
    fn one_warning_per_variable_by_default() {
        let ft = run(|b| {
            b.write(T0, X)?;
            b.write(T1, X)?;
            b.write(T2, X)?;
            b.read(T0, X)
        });
        assert_eq!(ft.warnings().len(), 1);
    }

    #[test]
    fn report_all_reports_subsequent_races() {
        let mut b = TraceBuilder::with_threads(3);
        b.write(T0, X).unwrap();
        b.write(T1, X).unwrap();
        b.write(T2, X).unwrap();
        let mut ft = FastTrack::with_config(FastTrackConfig {
            report_all: true,
            ..FastTrackConfig::default()
        });
        ft.run(&b.finish());
        assert!(ft.warnings().len() >= 2);
    }

    #[test]
    fn figure_4_adaptive_representation() {
        // The Figure 4 trace: fork, read by child, concurrent read by
        // parent (inflate), join, write (collapse), read (epoch again).
        let mut b = TraceBuilder::new();
        b.write(T0, X).unwrap(); // W_x := 7@0 in the paper's numbering
        b.fork(T0, T1).unwrap();
        let mut ft = FastTrack::new();
        let mut idx = 0usize;
        let trace_head = b;

        // Drive incrementally so we can observe representation switches.
        let mut drive = |ft: &mut FastTrack, ops: &[Op]| {
            for op in ops {
                ft.on_op(idx, op);
                idx += 1;
            }
        };

        drive(&mut ft, trace_head.finish().events());
        assert_eq!(ft.read_mode(X), ReadMode::Unread);

        drive(&mut ft, &[Op::Read(T1, X)]);
        assert_eq!(ft.read_mode(X), ReadMode::Epoch); // R_x = 1@1

        drive(&mut ft, &[Op::Read(T0, X)]);
        assert_eq!(ft.read_mode(X), ReadMode::Shared); // R_x = <8,1,...>
        let rvc = ft.read_clock(X).expect("shared mode");
        assert!(rvc.get(T0) > 0 && rvc.get(T1) > 0);

        drive(&mut ft, &[Op::Read(T1, X)]);
        assert_eq!(ft.read_mode(X), ReadMode::Shared); // [FT READ SHARED]

        drive(&mut ft, &[Op::Join(T0, T1), Op::Write(T0, X)]);
        // [FT WRITE SHARED] discards the read history: back to epochs.
        assert_eq!(ft.read_mode(X), ReadMode::Unread);
        assert!(ft.read_clock(X).is_none());

        drive(&mut ft, &[Op::Read(T0, X)]);
        assert_eq!(ft.read_mode(X), ReadMode::Epoch);
        assert!(ft.warnings().is_empty());
    }

    #[test]
    fn same_epoch_fast_paths_hit() {
        let ft = run(|b| {
            b.read(T0, X)?;
            b.read(T0, X)?;
            b.read(T0, X)?;
            b.write(T0, X)?;
            b.write(T0, X)
        });
        let rules = ft.rule_breakdown();
        let hits = |name: &str| rules.iter().find(|r| r.rule == name).unwrap().hits;
        assert_eq!(hits("FT READ SAME EPOCH"), 2);
        assert_eq!(hits("FT READ EXCLUSIVE"), 1);
        assert_eq!(hits("FT WRITE SAME EPOCH"), 1);
        assert_eq!(hits("FT WRITE EXCLUSIVE"), 1);
    }

    #[test]
    fn a_release_advances_the_epoch_so_same_epoch_misses() {
        let ft = run(|b| {
            b.read(T0, X)?;
            b.release_after_acquire(T0, M, |_| Ok(()))?;
            b.read(T0, X) // new epoch: exclusive, not same-epoch
        });
        let rules = ft.rule_breakdown();
        let hits = |name: &str| rules.iter().find(|r| r.rule == name).unwrap().hits;
        assert_eq!(hits("FT READ SAME EPOCH"), 0);
        assert_eq!(hits("FT READ EXCLUSIVE"), 2);
    }

    #[test]
    fn volatile_handoff_orders_accesses() {
        let v = VarId::new(9);
        let ft = run(|b| {
            b.write(T0, X)?;
            b.volatile_write(T0, v)?;
            b.volatile_read(T1, v)?;
            b.write(T1, X)
        });
        assert!(ft.warnings().is_empty());
    }

    #[test]
    fn barrier_orders_phases_but_not_siblings() {
        let ft = run(|b| {
            b.write(T0, X)?;
            b.barrier_release(vec![T0, T1])?;
            b.write(T1, X)
        });
        assert!(ft.warnings().is_empty());

        let ft = run(|b| {
            b.barrier_release(vec![T0, T1])?;
            b.write(T0, X)?;
            b.write(T1, X)
        });
        assert_eq!(ft.warnings().len(), 1);
    }

    #[test]
    fn wait_is_release_plus_acquire() {
        // T0 holds m, waits (releasing m); T1 acquires m, writes x,
        // releases; T0 wakes holding m again and reads x — ordered.
        let mut b = TraceBuilder::with_threads(2);
        b.acquire(T0, M).unwrap();
        b.write(T1, X).unwrap(); // before any sync: fine, x untouched by T0
        b.push(Op::Wait(T0, M)).unwrap();
        b.read(T0, X).unwrap();
        let mut ft = FastTrack::new();
        ft.run(&b.finish());
        // T1's write is NOT ordered before T0's read (T1 never touched m),
        // so this IS a race — wait alone creates no edge to T1.
        assert_eq!(ft.warnings().len(), 1);

        // Now the faithful version: T1 acquires m between release and wake.
        let mut b = TraceBuilder::with_threads(2);
        b.acquire(T0, M).unwrap();
        b.release(T0, M).unwrap(); // wait: release half
        b.acquire(T1, M).unwrap();
        b.write(T1, X).unwrap();
        b.release(T1, M).unwrap();
        b.acquire(T0, M).unwrap(); // wait: wake half
        b.read(T0, X).unwrap();
        b.release(T0, M).unwrap();
        let mut ft = FastTrack::new();
        ft.run(&b.finish());
        assert!(ft.warnings().is_empty());
    }

    #[test]
    fn prefilter_suppresses_race_free_accesses() {
        let mut ft = FastTrack::new();
        assert_eq!(ft.on_op(0, &Op::Write(T0, X)), Disposition::Suppress);
        assert_eq!(ft.on_op(1, &Op::Acquire(T0, M)), Disposition::Forward);
        assert_eq!(ft.on_op(2, &Op::Write(T1, X)), Disposition::Forward); // racy now
        assert_eq!(ft.on_op(3, &Op::Read(T1, X)), Disposition::Forward); // stays racy
    }

    #[test]
    fn stats_count_categories() {
        let ft = run(|b| {
            b.read(T0, X)?;
            b.write(T0, X)?;
            b.release_after_acquire(T0, M, |_| Ok(()))
        });
        assert_eq!(ft.stats().ops, 4);
        assert_eq!(ft.stats().reads, 1);
        assert_eq!(ft.stats().writes, 1);
        assert_eq!(ft.stats().sync_ops, 2);
    }

    #[test]
    fn vc_allocation_is_rare() {
        // Thread-local accesses allocate only the per-thread clocks.
        let ft = run(|b| {
            for _ in 0..100 {
                b.read(T0, X)?;
            }
            Ok(())
        });
        assert_eq!(ft.stats().vc_allocated, 1); // just T0's C_t
        assert_eq!(ft.stats().vc_ops, 0);
    }

    #[test]
    fn collapsed_read_clocks_are_recycled_and_reused() {
        let ft = run(|b| {
            // Concurrent reads inflate X's read history to a vector clock…
            b.read(T0, X)?;
            b.read(T1, X)?;
            // …then a write collapses it: the Rvc goes to the recycle pool.
            b.write(T0, X)?;
            // A second inflation is served from the pool, not the allocator.
            b.read(T0, X)?;
            b.read(T1, X)
        });
        assert_eq!(ft.stats().vc_recycled, 1);
        assert_eq!(ft.stats().vc_reused, 1);
        // Logical allocations keep Table 2 semantics: two thread clocks plus
        // both Rvc inflations, pool hit or not.
        assert_eq!(ft.stats().vc_allocated, 4);
    }

    #[test]
    fn shadow_bytes_grow_with_shared_mode() {
        let mut ft = FastTrack::new();
        ft.on_op(0, &Op::Read(T0, X));
        let before = ft.shadow_bytes();
        ft.on_op(1, &Op::Read(T1, X)); // inflate to VC
        let after = ft.shadow_bytes();
        assert!(after > before, "{after} <= {before}");
    }

    #[test]
    #[should_panic(expected = "epoch overflow")]
    fn tid_beyond_epoch_space_panics_cleanly() {
        let mut ft = FastTrack::new();
        ft.on_op(0, &Op::Write(Tid::new(256), X));
    }

    #[test]
    fn no_false_positive_after_read_collapse() {
        // After [FT WRITE SHARED] collapses reads, later ordered accesses
        // must not warn.
        let mut b = TraceBuilder::new();
        b.fork(T0, T1).unwrap();
        b.read(T0, X).unwrap();
        b.read(T1, X).unwrap(); // shared mode
        b.join(T0, T1).unwrap();
        b.write(T0, X).unwrap(); // collapse
        b.read(T0, X).unwrap();
        b.write(T0, X).unwrap();
        let mut ft = FastTrack::new();
        ft.run(&b.finish());
        assert!(ft.warnings().is_empty());
    }
}
