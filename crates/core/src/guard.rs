//! `ft-guard`: resource governance for detector shadow state.
//!
//! FastTrack's epoch optimisation makes the *common case* O(1) time, but
//! shadow **space** still grows with the number of live variables, and a
//! read-shared variable pins a whole vector clock. This module bounds that
//! growth with a byte-accurate [`ShadowBudget`] and a graceful
//! **degradation ladder** instead of an OOM kill:
//!
//! 1. **Full FastTrack** — precise, every access analyzed (the default, and
//!    the permanent mode when the budget is unlimited).
//! 2. **Rvc eviction** — when the budget is exceeded, read vector clocks of
//!    read-shared variables are evicted least-recently-read first: the
//!    `Rvc` is dropped (really freed, not pooled) and the read history
//!    collapses to the *last-read epoch*. Evicted variables may miss
//!    read-write races against the dropped readers, but every warning still
//!    reported corresponds to a genuinely concurrent pair — degradation
//!    loses recall, never precision.
//! 3. **Access sampling** — if the budget is still exceeded once no Rvc
//!    remains (the plain per-variable epochs alone overflow it), accesses
//!    that would *allocate new shadow state* are admitted with probability
//!    [`GuardConfig::sample_rate`] by a deterministic seeded [`Prng`]
//!    (after "Dynamic Race Detection with O(1) Samples"); skipped accesses
//!    are counted, and variables that already have shadow state keep full
//!    analysis.
//!
//! Every step down is counted in a [`DegradationRecord`] and surfaced in
//! reports as [`Precision::Degraded`]. A warning that has already been
//! reported is **never** dropped by any tier. See `docs/OPERATIONS.md` for
//! the operator-facing runbook, budget sizing formula, and fault matrix.

use ft_clock::Epoch;
use ft_trace::{Prng, VarId};
use std::fmt;

/// Configuration for the [`ShadowBudget`]-governed degradation ladder.
///
/// Attach it to a detector via
/// [`FastTrackConfig::guard`](crate::FastTrackConfig) (`None` disables
/// governance entirely — zero overhead).
#[derive(Clone, Debug, PartialEq)]
pub struct GuardConfig {
    /// Shadow-state budget in bytes. `0` means *unlimited*: accounting
    /// still runs (the gauges stay live) but the ladder never engages.
    pub mem_budget: usize,
    /// Seed for the deterministic sampling PRNG, so a degraded run is
    /// reproducible for a given trace.
    pub seed: u64,
    /// Probability that an access needing new shadow state is admitted
    /// while in the sampling tier.
    pub sample_rate: f64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            mem_budget: 0,
            seed: 0x5EED_6A1D,
            sample_rate: 0.125,
        }
    }
}

impl GuardConfig {
    /// A guard with the given byte budget and default seed/sampling rate.
    pub fn with_budget(mem_budget: usize) -> Self {
        GuardConfig {
            mem_budget,
            ..GuardConfig::default()
        }
    }
}

/// The rung of the degradation ladder an analysis is currently on.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum GuardTier {
    /// Under budget (or unlimited): full FastTrack precision.
    Full,
    /// Over budget at least once: read vector clocks are being evicted.
    Evicting,
    /// Evictions could not get back under budget: new shadow state is
    /// sampled. One-way — the analysis never climbs back up.
    Sampling,
}

impl fmt::Display for GuardTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardTier::Full => write!(f, "full"),
            GuardTier::Evicting => write!(f, "evicting"),
            GuardTier::Sampling => write!(f, "sampling"),
        }
    }
}

/// Counters describing *how much* detection quality was traded for memory.
///
/// All counters are zero iff the ladder never engaged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradationRecord {
    /// The configured budget in bytes.
    pub budget_bytes: usize,
    /// High-water mark of accounted shadow bytes.
    pub peak_bytes: usize,
    /// Read vector clocks evicted (collapsed to their last-read epoch).
    pub rvc_evictions: u64,
    /// Distinct eviction victims flagged imprecise (an evicted variable can
    /// re-inflate and be evicted again; this counts victim events, so it
    /// equals `rvc_evictions` unless future tiers evict differently).
    pub imprecise_vars: u64,
    /// Accesses skipped by the sampling tier.
    pub sampled_out: u64,
    /// Recycle-pool clocks dropped to reclaim their retained bytes.
    pub pool_clocks_dropped: u64,
}

impl DegradationRecord {
    /// `true` if any ladder step was ever taken.
    pub fn is_degraded(&self) -> bool {
        self.rvc_evictions > 0 || self.sampled_out > 0 || self.pool_clocks_dropped > 0
    }
}

impl fmt::Display for DegradationRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget: {} B, peak: {} B, rvc_evictions: {}, sampled_out: {}, pool_dropped: {}",
            self.budget_bytes,
            self.peak_bytes,
            self.rvc_evictions,
            self.sampled_out,
            self.pool_clocks_dropped
        )
    }
}

/// How much to trust an analysis result.
///
/// [`Precision::Degraded`] means the warnings are still *sound* (every one
/// is a genuinely concurrent conflicting pair) but possibly *incomplete*:
/// the attached [`DegradationRecord`] quantifies what was shed.
#[derive(Clone, Debug, PartialEq)]
pub enum Precision {
    /// No degradation: the result is exactly what unbounded FastTrack
    /// reports.
    Full,
    /// The memory budget forced the ladder down at least one rung.
    Degraded(DegradationRecord),
}

impl Precision {
    /// `true` for [`Precision::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, Precision::Degraded(_))
    }

    /// The degradation record, if any.
    pub fn record(&self) -> Option<&DegradationRecord> {
        match self {
            Precision::Full => None,
            Precision::Degraded(r) => Some(r),
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Precision::Full => write!(f, "full"),
            Precision::Degraded(r) => write!(f, "Degraded{{{r}}}"),
        }
    }
}

/// Byte-accurate accounting of detector shadow state: per-variable epochs,
/// read vector clocks, and recycle-pool retention.
///
/// The budget is advisory bookkeeping — *callers* (the detector) charge and
/// credit it as their storage grows and shrinks, and consult
/// [`ShadowBudget::over`] to drive the degradation ladder.
#[derive(Clone, Debug, Default)]
pub struct ShadowBudget {
    limit: usize,
    used: usize,
    peak: usize,
}

impl ShadowBudget {
    /// A budget of `limit` bytes; `0` means unlimited.
    pub fn new(limit: usize) -> Self {
        ShadowBudget {
            limit,
            used: 0,
            peak: 0,
        }
    }

    /// Records `bytes` of new shadow state.
    #[inline]
    pub fn charge(&mut self, bytes: usize) {
        self.used += bytes;
        self.peak = self.peak.max(self.used);
    }

    /// Records `bytes` of freed shadow state.
    #[inline]
    pub fn credit(&mut self, bytes: usize) {
        self.used = self.used.saturating_sub(bytes);
    }

    /// Adjusts for a region that was `before` bytes and is now `after`.
    #[inline]
    pub fn adjust(&mut self, before: usize, after: usize) {
        if after >= before {
            self.charge(after - before);
        } else {
            self.credit(before - after);
        }
    }

    /// `true` when a finite limit is exceeded.
    #[inline]
    pub fn over(&self) -> bool {
        self.limit != 0 && self.used > self.limit
    }

    /// Currently accounted bytes.
    pub fn used(&self) -> usize {
        self.used
    }

    /// High-water mark of accounted bytes.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// The configured limit (`0` = unlimited).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Replaces the limit — the hook behind live budget re-apportionment:
    /// when a multi-tenant host redistributes a global budget across
    /// sessions, each session's share can grow or shrink mid-analysis.
    /// Shrinking below the bytes already used does not free anything by
    /// itself; the next governed access observes [`ShadowBudget::over`] and
    /// walks the degradation ladder as usual.
    pub fn set_limit(&mut self, limit: usize) {
        self.limit = limit;
    }
}

/// One read-shared variable tracked for LRU eviction.
#[derive(Clone, Debug)]
struct LruEntry {
    var: VarId,
    /// Epoch of the most recent read — the collapse target on eviction.
    last_read: Epoch,
    /// Monotonic recency stamp (smaller = staler).
    stamp: u64,
}

/// The per-detector guard state: budget, eviction LRU, sampling PRNG, and
/// the running [`DegradationRecord`].
///
/// Internal to the detector; the public surface is
/// [`GuardConfig`] in, [`Precision`] out.
#[derive(Clone, Debug)]
pub(crate) struct Guard {
    budget: ShadowBudget,
    /// Read-shared variables, unordered; eviction scans for the minimum
    /// stamp (read-shared mode is the 0.1% slow path, so this stays tiny).
    lru: Vec<LruEntry>,
    next_stamp: u64,
    /// Recycle-pool bytes accounted so far (the pool is shared state, so
    /// we track its last observed size and adjust by delta).
    pool_bytes: usize,
    sampling: bool,
    prng: Prng,
    sample_rate: f64,
    record: DegradationRecord,
}

impl Guard {
    pub fn new(config: &GuardConfig) -> Self {
        Guard {
            budget: ShadowBudget::new(config.mem_budget),
            lru: Vec::new(),
            next_stamp: 0,
            pool_bytes: 0,
            sampling: false,
            prng: Prng::seed_from_u64(config.seed),
            sample_rate: config.sample_rate.clamp(0.0, 1.0),
            record: DegradationRecord {
                budget_bytes: config.mem_budget,
                ..DegradationRecord::default()
            },
        }
    }

    /// The ladder rung this guard is currently on.
    pub fn tier(&self) -> GuardTier {
        if self.sampling {
            GuardTier::Sampling
        } else if self.record.rvc_evictions > 0 {
            GuardTier::Evicting
        } else {
            GuardTier::Full
        }
    }

    #[inline]
    pub fn charge(&mut self, bytes: usize) {
        self.budget.charge(bytes);
    }

    #[inline]
    pub fn adjust(&mut self, before: usize, after: usize) {
        self.budget.adjust(before, after);
    }

    #[inline]
    pub fn over(&self) -> bool {
        self.budget.over()
    }

    pub fn budget(&self) -> &ShadowBudget {
        &self.budget
    }

    /// Re-targets the byte budget (see [`ShadowBudget::set_limit`]). The
    /// degradation record keeps reporting the *latest* limit so operators
    /// see the share the session ended with.
    pub fn set_limit(&mut self, limit: usize) {
        self.budget.set_limit(limit);
        self.record.budget_bytes = limit;
    }

    /// Re-observes the recycle pool's retained bytes, charging/crediting
    /// the delta since the last observation.
    pub fn sync_pool(&mut self, free_bytes: usize) {
        self.budget.adjust(self.pool_bytes, free_bytes);
        self.pool_bytes = free_bytes;
    }

    /// Upserts `var` in the eviction LRU with the epoch of the read that
    /// just hit its vector clock.
    pub fn note_shared_read(&mut self, var: VarId, last_read: Epoch) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(e) = self.lru.iter_mut().find(|e| e.var == var) {
            e.last_read = last_read;
            e.stamp = stamp;
        } else {
            self.lru.push(LruEntry {
                var,
                last_read,
                stamp,
            });
        }
    }

    /// Removes `var` from the LRU (its read history collapsed normally via
    /// `[FT WRITE SHARED]`).
    pub fn note_collapse(&mut self, var: VarId) {
        self.lru.retain(|e| e.var != var);
    }

    /// Pops the least-recently-read shared variable, or `None` when no
    /// eviction candidate remains.
    pub fn pop_lru(&mut self) -> Option<(VarId, Epoch)> {
        let (idx, _) = self.lru.iter().enumerate().min_by_key(|(_, e)| e.stamp)?;
        let e = self.lru.swap_remove(idx);
        Some((e.var, e.last_read))
    }

    /// Records one eviction: `freed` bytes credited back to the budget.
    pub fn record_eviction(&mut self, freed: usize) {
        self.budget.credit(freed);
        self.record.rvc_evictions += 1;
        self.record.imprecise_vars += 1;
    }

    /// Records draining `clocks` pooled clocks worth `freed` bytes.
    pub fn record_pool_drain(&mut self, clocks: u64, freed: usize) {
        if clocks == 0 {
            return;
        }
        self.sync_pool(self.pool_bytes.saturating_sub(freed));
        self.record.pool_clocks_dropped += clocks;
    }

    /// Steps the ladder down to the sampling tier (one-way).
    pub fn enter_sampling(&mut self) {
        self.sampling = true;
    }

    /// Decides whether an access that would allocate new shadow state is
    /// analyzed. Always `true` outside the sampling tier; inside it, a
    /// deterministic coin with [`GuardConfig::sample_rate`] bias. A `false`
    /// return has already been counted in the record.
    pub fn admit_new_var(&mut self) -> bool {
        if !self.sampling {
            return true;
        }
        if self.prng.gen_bool(self.sample_rate) {
            true
        } else {
            self.record.sampled_out += 1;
            false
        }
    }

    /// The precision verdict for a finished (or snapshotted) analysis.
    pub fn precision(&self) -> Precision {
        let mut record = self.record.clone();
        record.peak_bytes = self.budget.peak();
        if record.is_degraded() {
            Precision::Degraded(record)
        } else {
            Precision::Full
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_clock::Tid;

    #[test]
    fn unlimited_budget_is_never_over() {
        let mut b = ShadowBudget::new(0);
        b.charge(usize::MAX / 2);
        assert!(!b.over());
        assert_eq!(b.peak(), usize::MAX / 2);
    }

    #[test]
    fn budget_tracks_peak_and_credit() {
        let mut b = ShadowBudget::new(100);
        b.charge(80);
        assert!(!b.over());
        b.charge(40);
        assert!(b.over());
        assert_eq!(b.peak(), 120);
        b.credit(50);
        assert!(!b.over());
        assert_eq!(b.used(), 70);
        assert_eq!(b.peak(), 120);
        b.adjust(70, 30);
        assert_eq!(b.used(), 30);
    }

    #[test]
    fn lru_pops_stalest_first() {
        let mut g = Guard::new(&GuardConfig::with_budget(1));
        let e = |c| Epoch::new(Tid::new(0), c);
        g.note_shared_read(VarId::new(1), e(1));
        g.note_shared_read(VarId::new(2), e(2));
        g.note_shared_read(VarId::new(1), e(3)); // refresh 1: now 2 is stalest
        assert_eq!(g.pop_lru(), Some((VarId::new(2), e(2))));
        assert_eq!(g.pop_lru(), Some((VarId::new(1), e(3))));
        assert_eq!(g.pop_lru(), None);
    }

    #[test]
    fn collapse_removes_lru_entry() {
        let mut g = Guard::new(&GuardConfig::with_budget(1));
        let e = Epoch::new(Tid::new(0), 1);
        g.note_shared_read(VarId::new(7), e);
        g.note_collapse(VarId::new(7));
        assert_eq!(g.pop_lru(), None);
    }

    #[test]
    fn ladder_tiers_progress_one_way() {
        let mut g = Guard::new(&GuardConfig::with_budget(1));
        assert_eq!(g.tier(), GuardTier::Full);
        g.record_eviction(0);
        assert_eq!(g.tier(), GuardTier::Evicting);
        g.enter_sampling();
        assert_eq!(g.tier(), GuardTier::Sampling);
        assert!(g.precision().is_degraded());
    }

    #[test]
    fn sampling_admits_deterministically() {
        let cfg = GuardConfig {
            mem_budget: 1,
            seed: 9,
            sample_rate: 0.5,
        };
        let run = || {
            let mut g = Guard::new(&cfg);
            g.enter_sampling();
            (0..64).map(|_| g.admit_new_var()).collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn display_formats_read_like_reports() {
        assert_eq!(Precision::Full.to_string(), "full");
        let p = Precision::Degraded(DegradationRecord {
            budget_bytes: 4096,
            rvc_evictions: 3,
            ..DegradationRecord::default()
        });
        let s = p.to_string();
        assert!(s.starts_with("Degraded{"), "{s}");
        assert!(s.contains("rvc_evictions: 3"), "{s}");
        assert_eq!(GuardTier::Sampling.to_string(), "sampling");
    }
}
