//! The `[FT READ *]` / `[FT WRITE *]` transition rules over one variable.
//!
//! Both the [`FastTrack`](crate::FastTrack) detector and the `ft-sampler`
//! sampling tier apply *exactly this code* to a variable's shadow state: for
//! a given `(VarState, thread clock)` input, both take the same transition
//! and report the same races.
//!
//! The functions here deliberately know nothing about how the caller stores
//! variables or thread clocks; they receive one `&mut VarState`, the
//! accessing thread's epoch and clock, and mutate only per-variable state
//! plus the caller's counters.

use crate::analysis::FastTrackConfig;
use crate::state::{VarState, READ_SHARED};
use crate::stats::{RuleCount, Stats};
use ft_clock::{Epoch, Tid, VcPool, VectorClock};

/// Which Figure 5 read rule fired for an access.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReadRule {
    /// `[FT READ SAME EPOCH]` — the O(1) fast path.
    SameEpoch,
    /// `[FT READ SHARED]` — O(1) slot update of `Rvc`.
    Shared,
    /// `[FT READ EXCLUSIVE]` — reads stay totally ordered.
    Exclusive,
    /// `[FT READ SHARE]` — inflate the read history to a vector clock.
    Share,
}

/// Which Figure 5 write rule fired for an access.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WriteRule {
    /// `[FT WRITE SAME EPOCH]` — the O(1) fast path.
    SameEpoch,
    /// `[FT WRITE EXCLUSIVE]` — epoch-epoch read check.
    Exclusive,
    /// `[FT WRITE SHARED]` — full VC comparison, then collapse.
    Shared,
}

impl ReadRule {
    /// The rule's name, matching the [`RuleHits::breakdown`] labels so a
    /// warning's provenance can be cross-referenced against the report.
    pub fn name(self) -> &'static str {
        match self {
            ReadRule::SameEpoch => "FT READ SAME EPOCH",
            ReadRule::Shared => "FT READ SHARED",
            ReadRule::Exclusive => "FT READ EXCLUSIVE",
            ReadRule::Share => "FT READ SHARE",
        }
    }
}

impl WriteRule {
    /// The rule's name, matching the [`RuleHits::breakdown`] labels.
    pub fn name(self) -> &'static str {
        match self {
            WriteRule::SameEpoch => "FT WRITE SAME EPOCH",
            WriteRule::Exclusive => "FT WRITE EXCLUSIVE",
            WriteRule::Shared => "FT WRITE SHARED",
        }
    }
}

/// Result of [`read_var`].
///
/// Besides the rule and race verdict, the outcome carries the pre-access
/// shadow state (`prior_w`, `prior_r`, and — only when a race fired while the
/// read history was a vector clock — its nonzero entries) so callers can
/// build a [`crate::Provenance`] without re-deriving state the transition
/// already overwrote. The `prior_*` captures are two shifts of the
/// already-loaded shadow word; `prior_rvc` allocates only on racy accesses.
pub struct ReadOutcome {
    /// Which read rule fired.
    pub rule: ReadRule,
    /// The prior write epoch when it is concurrent with this read.
    pub racy_write: Option<Epoch>,
    /// `W_x` before this access.
    pub prior_w: Epoch,
    /// `R_x` before this access (the `READ_SHARED` sentinel in shared mode).
    pub prior_r: Epoch,
    /// Nonzero `Rvc` entries before this access, captured only when a race
    /// fired while the variable was in read-shared mode.
    pub prior_rvc: Option<Vec<(Tid, u32)>>,
}

/// Result of [`write_var`]. See [`ReadOutcome`] for the `prior_*` fields.
pub struct WriteOutcome {
    /// Which write rule fired.
    pub rule: WriteRule,
    /// The prior write epoch when it is concurrent with this write.
    pub racy_write: Option<Epoch>,
    /// The epoch of a prior read that is concurrent with this write.
    pub racy_read: Option<Epoch>,
    /// `W_x` before this access.
    pub prior_w: Epoch,
    /// `R_x` before this access (the `READ_SHARED` sentinel in shared mode).
    pub prior_r: Epoch,
    /// Nonzero `Rvc` entries before this access, captured only when a race
    /// fired while the variable was in read-shared mode.
    pub prior_rvc: Option<Vec<(Tid, u32)>>,
}

/// Takes a clock from the pool, keeping the logical-allocation and reuse
/// counters in sync (see [`Stats::vc_allocated`]).
fn alloc_rvc(pool: &mut VcPool, stats: &mut Stats) -> Box<VectorClock> {
    stats.vc_allocated += 1;
    if pool.free_count() > 0 {
        stats.vc_reused += 1;
    }
    pool.take()
}

/// Figure 5 `read(VarState x, ThreadState t)`, minus the warning plumbing.
///
/// `epoch` must be `t`'s current epoch and `ts_vc` its vector clock `C_t`
/// (so `ts_vc.get(t) == epoch.clock()`).
pub fn read_var(
    vs: &mut VarState,
    t: Tid,
    epoch: Epoch,
    ts_vc: &VectorClock,
    config: &FastTrackConfig,
    pool: &mut VcPool,
    stats: &mut Stats,
) -> ReadOutcome {
    // Pre-access shadow state for provenance. Captured before the ablation
    // branch below so `prior_r` is the true prior even when the adaptive
    // representation is forced off.
    let prior_w = vs.w();
    let prior_r = vs.r();

    // [FT READ SAME EPOCH] — 63.4% of reads in the paper's benchmarks.
    // One load of the packed shadow word, one half-word compare.
    if !config.ablate_same_epoch && vs.read_hits_same_epoch(epoch) {
        return ReadOutcome {
            rule: ReadRule::SameEpoch,
            racy_write: None,
            prior_w,
            prior_r,
            prior_rvc: None,
        };
    }

    // Ablation: force the DJIT⁺-shaped always-VC read representation.
    if config.ablate_adaptive_read && !vs.is_read_shared() {
        let mut rvc = alloc_rvc(pool, stats);
        let r = vs.r();
        if !r.is_initial() {
            rvc.set(r.tid(), r.clock());
        }
        vs.rvc = Some(rvc);
        vs.set_r(READ_SHARED);
    }

    let own_clock = ts_vc.get(t);

    // Write-read race check: W_x ≼ C_t.
    let w = vs.w();
    let racy_write = if w.happens_before(ts_vc) {
        None
    } else {
        Some(w)
    };

    // When the read history is a vector clock and this read races, capture
    // the prior `Rvc` entries before the slot update below overwrites ours.
    let prior_rvc = if racy_write.is_some() && vs.r() == READ_SHARED {
        vs.rvc.as_ref().map(|rvc| rvc.iter_nonzero().collect())
    } else {
        None
    };

    let r = vs.r();
    let rule = if r == READ_SHARED {
        // [FT READ SHARED] — O(1): update our slot of Rvc.
        vs.rvc
            .as_mut()
            .expect("read-shared mode implies Rvc")
            .set(t, own_clock);
        ReadRule::Shared
    } else if r.happens_before(ts_vc) {
        // [FT READ EXCLUSIVE] — reads stay totally ordered.
        vs.set_r(epoch);
        ReadRule::Exclusive
    } else {
        // [FT READ SHARE] — concurrent reads: inflate to a vector clock
        // recording both read epochs. (The 0.1% slow path.)
        let mut rvc = alloc_rvc(pool, stats);
        rvc.set(r.tid(), r.clock());
        rvc.set(t, own_clock);
        vs.rvc = Some(rvc);
        vs.set_r(READ_SHARED);
        ReadRule::Share
    };

    ReadOutcome {
        rule,
        racy_write,
        prior_w,
        prior_r,
        prior_rvc,
    }
}

/// Figure 5 `write(VarState x, ThreadState t)`, minus the warning plumbing.
pub fn write_var(
    vs: &mut VarState,
    epoch: Epoch,
    ts_vc: &VectorClock,
    config: &FastTrackConfig,
    pool: &mut VcPool,
    stats: &mut Stats,
) -> WriteOutcome {
    // Pre-access shadow state for provenance.
    let prior_w = vs.w();
    let prior_r = vs.r();

    // [FT WRITE SAME EPOCH] — 71.0% of writes. One load of the packed
    // shadow word, one half-word compare.
    if !config.ablate_same_epoch && vs.write_hits_same_epoch(epoch) {
        return WriteOutcome {
            rule: WriteRule::SameEpoch,
            racy_write: None,
            racy_read: None,
            prior_w,
            prior_r,
            prior_rvc: None,
        };
    }

    // Write-write race check: W_x ≼ C_t.
    let w = vs.w();
    let racy_write = if w.happens_before(ts_vc) {
        None
    } else {
        Some(w)
    };

    // Read-write race check, then collapse/update the read history.
    let mut racy_read: Option<Epoch> = None;
    let mut prior_rvc: Option<Vec<(Tid, u32)>> = None;
    let r = vs.r();
    let rule = if r != READ_SHARED {
        // [FT WRITE EXCLUSIVE] — 28.9% of writes: epoch-epoch check.
        if !r.happens_before(ts_vc) {
            racy_read = Some(r);
        }
        WriteRule::Exclusive
    } else {
        // [FT WRITE SHARED] — 0.1% of writes: full VC comparison, then
        // discard the read history (R := ⊥ₑ), switching x back to the
        // cheap epoch representation.
        stats.vc_ops += 1;
        let rvc = vs.rvc.as_ref().expect("read-shared mode implies Rvc");
        if !rvc.leq(ts_vc) {
            // Attribute the race to some thread whose read is unordered.
            racy_read = rvc
                .iter_nonzero()
                .find(|&(u, c)| c > ts_vc.get(u))
                .map(|(u, c)| Epoch::new(u, c));
        }
        // The collapse below discards the read history; capture it first
        // when any race fired so provenance can still show it.
        if racy_write.is_some() || racy_read.is_some() {
            prior_rvc = Some(rvc.iter_nonzero().collect());
        }
        if !config.ablate_adaptive_read {
            // R := ⊥ₑ — the collapsed Rvc goes back to the pool instead of
            // the allocator, ready for the next [FT READ SHARE].
            if let Some(rvc) = vs.rvc.take() {
                pool.put(rvc);
                stats.vc_recycled += 1;
            }
            vs.set_r(Epoch::MIN);
        }
        WriteRule::Shared
    };

    vs.set_w(epoch);

    WriteOutcome {
        rule,
        racy_write,
        racy_read,
        prior_w,
        prior_r,
        prior_rvc,
    }
}

/// Per-rule hit counters (the Figure 2/5 frequency annotations), shared by
/// the detector and the sampler.
#[derive(Clone, Debug, Default)]
pub struct RuleHits {
    read_same_epoch: u64,
    read_shared: u64,
    read_exclusive: u64,
    read_share: u64,
    write_same_epoch: u64,
    write_exclusive: u64,
    write_shared: u64,
}

impl RuleHits {
    /// Records a read-rule hit.
    pub fn hit_read(&mut self, rule: ReadRule) {
        match rule {
            ReadRule::SameEpoch => self.read_same_epoch += 1,
            ReadRule::Shared => self.read_shared += 1,
            ReadRule::Exclusive => self.read_exclusive += 1,
            ReadRule::Share => self.read_share += 1,
        }
    }

    /// Records a write-rule hit.
    pub fn hit_write(&mut self, rule: WriteRule) {
        match rule {
            WriteRule::SameEpoch => self.write_same_epoch += 1,
            WriteRule::Exclusive => self.write_exclusive += 1,
            WriteRule::Shared => self.write_shared += 1,
        }
    }

    /// Bulk-records fast-path hits. The fused batch loops count same-epoch
    /// and race-free exclusive hits in locals (which stay in registers — the
    /// fast paths make no calls) and flush once per block instead of storing
    /// through `&mut self` on every event.
    pub(crate) fn hit_fast_bulk(
        &mut self,
        se_reads: u64,
        ex_reads: u64,
        se_writes: u64,
        ex_writes: u64,
    ) {
        self.read_same_epoch += se_reads;
        self.read_exclusive += ex_reads;
        self.write_same_epoch += se_writes;
        self.write_exclusive += ex_writes;
    }

    /// The Figure 2-style rule breakdown given the read/write totals.
    pub fn breakdown(&self, reads: u64, writes: u64) -> Vec<RuleCount> {
        vec![
            RuleCount::of("FT READ SAME EPOCH", self.read_same_epoch, reads),
            RuleCount::of("FT READ SHARED", self.read_shared, reads),
            RuleCount::of("FT READ EXCLUSIVE", self.read_exclusive, reads),
            RuleCount::of("FT READ SHARE", self.read_share, reads),
            RuleCount::of("FT WRITE SAME EPOCH", self.write_same_epoch, writes),
            RuleCount::of("FT WRITE EXCLUSIVE", self.write_exclusive, writes),
            RuleCount::of("FT WRITE SHARED", self.write_shared, writes),
        ]
    }
}
