//! The Figure 5 synchronization rules, written once.
//!
//! [`SyncCore`] owns every clock the happens-before relation lives in — the
//! thread clocks `C_t`, the versioned lock clocks `L_m`, the volatile
//! clocks `L_vx` (§4) and the barrier scratch state — and applies one
//! event's effect through [`SyncCore::apply`]. [`FastTrack`](crate::FastTrack)
//! and the `ft-sampler` tier both hold one, so the two detectors cannot
//! disagree on a single clock: the sampler's admissions are judged against
//! exactly the clocks FastTrack would use.
//!
//! Every handler keeps its rule's name from the paper: `[FT ACQUIRE]`,
//! `[FT RELEASE]`, `[FT FORK]`, `[FT JOIN]`, `[FT READ/WRITE VOLATILE]`
//! and `[FT BARRIER RELEASE]`; `wait` is release followed by acquire.
//! On top of the rules sit three O(1) skips that never change a clock's
//! value, only whether it is recomputed: the seen-version and
//! release-epoch acquire hits (see [`LockClock`]), the seen-version
//! volatile re-read hit (see [`VolatileClock`]), and the barrier epoch
//! rebuild: a barrier over the same parties as the last one, with no
//! foreign join in between, rebuilds its joined clock from the parties'
//! epochs in O(|T|) lane writes.

use crate::state::{LockClock, ThreadState, VolatileClock};
use crate::stats::Stats;
use ft_clock::{Tid, VectorClock};
use ft_trace::batch::opcode;
use ft_trace::{LockId, Op, VarId};

/// The synchronization state of one analysis: thread, lock, volatile and
/// barrier clocks, plus the handlers that update them.
///
/// Cost counters (`sync_ops`, `sync_fastpath_hits`, `sync_slow_joins`,
/// `vc_ops`, `vc_allocated`) go to the caller's [`Stats`], so a detector
/// reports sync and access work in one place.
#[derive(Clone, Debug)]
pub struct SyncCore {
    threads: Vec<Option<ThreadState>>,
    /// `L_m` per lock, allocated on first release, stamped with the
    /// releaser's epoch and a version for the O(1) acquire fast path.
    locks: Vec<Option<LockClock>>,
    /// `L_vx` per volatile variable (§4 extends `L` over volatiles),
    /// version-stamped so redundant re-reads skip the join.
    volatiles: Vec<Option<VolatileClock>>,
    /// Reused join target for `[FT BARRIER RELEASE]` — barriers are
    /// steady-state events, so the scratch clock is allocated once per
    /// analysis instead of once per barrier.
    barrier_scratch: VectorClock,
    /// Generation counter bumped whenever any thread clock gains *foreign*
    /// entries (acquire/volatile-read slow joins, fork, join). Between two
    /// barriers with no such event and an unchanged participant set, every
    /// participant's clock is the previous barrier's joined clock with only
    /// its own lane advanced — so the next joined clock is the scratch with
    /// each participant lane set to that thread's current epoch, O(|T|)
    /// lane writes instead of |T| full vector joins.
    sync_gen: u64,
    /// `sync_gen` snapshot taken at the end of the last barrier.
    barrier_gen: u64,
    /// Participant set of the last barrier (order-sensitive by design:
    /// barrier ops replay deterministically, so the common case is an
    /// identical slice).
    barrier_parts: Vec<Tid>,
}

impl Default for SyncCore {
    fn default() -> Self {
        Self::new()
    }
}

impl SyncCore {
    /// The initial state: no thread, lock or volatile clocks yet.
    pub fn new() -> Self {
        SyncCore {
            threads: Vec::new(),
            locks: Vec::new(),
            volatiles: Vec::new(),
            barrier_scratch: VectorClock::new(),
            sync_gen: 0,
            barrier_gen: u64::MAX,
            barrier_parts: Vec::new(),
        }
    }

    /// Pre-sizes the thread and lock tables for a known id space.
    pub fn reserve(&mut self, n_threads: u32, n_locks: u32) {
        self.threads.reserve(n_threads as usize);
        self.locks.reserve(n_locks as usize);
    }

    /// Thread `t`'s state, if it has been seen.
    #[inline]
    pub fn thread(&self, t: Tid) -> Option<&ThreadState> {
        self.threads.get(t.as_usize()).and_then(Option::as_ref)
    }

    /// Thread `t`'s state, created on first sight with `C_t = incₜ(⊥ᵥ)`;
    /// the new clock is charged to `stats.vc_allocated`.
    #[inline]
    pub fn ensure_thread(&mut self, t: Tid, stats: &mut Stats) -> &mut ThreadState {
        ensure(&mut self.threads, t, stats)
    }

    /// Every thread slot, indexed by thread id.
    pub fn threads(&self) -> &[Option<ThreadState>] {
        &self.threads
    }

    /// Every lock clock slot, indexed by lock id.
    pub fn locks(&self) -> &[Option<LockClock>] {
        &self.locks
    }

    /// Every volatile clock slot, indexed by variable id.
    pub fn volatiles(&self) -> &[Option<VolatileClock>] {
        &self.volatiles
    }

    /// Bytes held by the thread, lock and volatile clocks, including the
    /// seen-version stamps.
    pub fn shadow_bytes(&self) -> usize {
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
            .map(|lk| std::mem::size_of::<LockClock>() + lk.vc.heap_bytes())
            .sum();
        let volatiles: usize = self
            .volatiles
            .iter()
            .flatten()
            .map(|lv| std::mem::size_of::<VolatileClock>() + lv.vc.heap_bytes())
            .sum();
        threads + locks + volatiles
    }

    /// Applies the happens-before effect of one event given by its raw
    /// fields, as an [`EventBlock`](ft_trace::EventBlock) stores them:
    /// `kind` is an [`opcode`], `a` the lock, thread or variable argument,
    /// and `parties` the member set when `kind` is `BARRIER` (ignored
    /// otherwise). Data accesses and the markers with no happens-before
    /// effect (notify, atomic begin/end — §4: "A notify operation can be
    /// ignored") change nothing.
    #[inline]
    pub fn apply(&mut self, kind: u8, t: Tid, a: u32, parties: &[Tid], stats: &mut Stats) {
        match kind {
            opcode::ACQUIRE => {
                stats.sync_ops += 1;
                self.acquire(t, LockId::new(a), stats);
            }
            opcode::RELEASE => {
                stats.sync_ops += 1;
                self.release(t, LockId::new(a), stats);
            }
            opcode::FORK => {
                stats.sync_ops += 1;
                self.fork(t, Tid::new(a), stats);
            }
            opcode::JOIN => {
                stats.sync_ops += 1;
                self.join(t, Tid::new(a), stats);
            }
            opcode::VOLATILE_READ => {
                stats.sync_ops += 1;
                self.volatile_read(t, VarId::new(a), stats);
            }
            opcode::VOLATILE_WRITE => {
                stats.sync_ops += 1;
                self.volatile_write(t, VarId::new(a), stats);
            }
            opcode::WAIT => {
                // §4: wait = release + subsequent acquire.
                stats.sync_ops += 1;
                self.release(t, LockId::new(a), stats);
                self.acquire(t, LockId::new(a), stats);
            }
            opcode::BARRIER => {
                stats.sync_ops += 1;
                self.barrier_release(parties, stats);
            }
            _ => {}
        }
    }

    /// [`SyncCore::apply`] for a decoded [`Op`].
    #[inline]
    pub fn apply_op(&mut self, op: &Op, stats: &mut Stats) {
        let (kind, t, a, parties) = op.raw();
        self.apply(kind, t, a, parties, stats);
    }

    /// `[FT ACQUIRE]`: `C_t := C_t ⊔ L_m`.
    ///
    /// Two O(1) fast paths run before the O(n) join:
    ///
    /// 1. **seen-version** — one load: `t` already joined this exact clock
    ///    (same [`LockClock::version`]), so the join is the identity;
    /// 2. **release-epoch** — `C_t(r) ≥ c` for the releaser's pre-increment
    ///    epoch `c@r` implies `C_t ⊒ L_m` (release *assigns* the whole
    ///    clock and every published clock is followed by an increment, so
    ///    `C_t(r) ≥ c` only arises via a synchronization chain from at or
    ///    after that release), making the join the identity again.
    ///
    /// The miss path is a clone-free split-borrow join.
    fn acquire(&mut self, t: Tid, m: LockId, stats: &mut Stats) {
        let ts = ensure(&mut self.threads, t, stats);
        let idx = m.as_usize();
        let Some(Some(lm)) = self.locks.get(idx) else {
            return; // never released: L_m = ⊥ᵥ, join is the identity
        };
        if ts.seen_lock(idx) == lm.version || lm.rel.happens_before(&ts.vc) {
            stats.sync_fastpath_hits += 1;
            ts.note_lock(idx, lm.version);
            return;
        }
        stats.sync_slow_joins += 1;
        stats.vc_ops += 1;
        self.sync_gen += 1;
        ts.vc.join(&lm.vc);
        ts.refresh_epoch();
        ts.note_lock(idx, lm.version);
    }

    /// `[FT RELEASE]`: `L_m := C_t; C_t := incₜ(C_t)`.
    ///
    /// The lock clock is stamped with the releaser's pre-increment epoch
    /// (the acquire fast path's certificate) and its version is bumped so
    /// stale seen-version stamps stop matching.
    fn release(&mut self, t: Tid, m: LockId, stats: &mut Stats) {
        let ts = ensure(&mut self.threads, t, stats);
        let idx = m.as_usize();
        if idx >= self.locks.len() {
            self.locks.resize_with(idx + 1, || None);
        }
        stats.vc_ops += 1; // O(n) copy
        match &mut self.locks[idx] {
            Some(lm) => {
                lm.vc.assign(&ts.vc);
                lm.rel = ts.epoch;
                lm.version += 1;
            }
            slot @ None => {
                stats.vc_allocated += 1;
                *slot = Some(LockClock::new(ts.vc.clone(), ts.epoch));
            }
        }
        ts.inc();
    }

    /// `[FT FORK]`: `C_u := C_u ⊔ C_t; C_t := incₜ(C_t)`.
    ///
    /// No O(1) skip exists here: every outgoing publication of `C_t` is
    /// followed by an increment, so the child can never already dominate
    /// the parent's *current* clock — the join always does work. It is a
    /// clone-free split borrow instead.
    fn fork(&mut self, t: Tid, u: Tid, stats: &mut Stats) {
        ensure(&mut self.threads, t, stats);
        ensure(&mut self.threads, u, stats);
        stats.vc_ops += 1;
        if t != u {
            self.sync_gen += 1;
            let (us, ct) = thread_pair(&mut self.threads, u.as_usize(), t.as_usize());
            us.vc.join(&ct.vc);
            us.refresh_epoch();
        }
        ensure(&mut self.threads, t, stats).inc();
    }

    /// `[FT JOIN]`: `C_t := C_t ⊔ C_u; C_u := inc_u(C_u)`.
    ///
    /// Clone-free for the same reason as [`SyncCore::fork`] — and like
    /// fork, a skip check can never fire, so none is attempted.
    fn join(&mut self, t: Tid, u: Tid, stats: &mut Stats) {
        ensure(&mut self.threads, t, stats);
        ensure(&mut self.threads, u, stats);
        stats.vc_ops += 1;
        if t != u {
            self.sync_gen += 1;
            let (ts, cu) = thread_pair(&mut self.threads, t.as_usize(), u.as_usize());
            ts.vc.join(&cu.vc);
            ts.refresh_epoch();
        }
        ensure(&mut self.threads, u, stats).inc();
    }

    /// `[FT READ VOLATILE]`: `C_t := C_t ⊔ L_vx` (§4).
    ///
    /// `L_vx` is a *join* of every writer, so no single release epoch
    /// summarizes it — the seen-version stamp is the only O(1) skip: if `t`
    /// already joined this exact clock version, the re-join is the
    /// identity.
    fn volatile_read(&mut self, t: Tid, x: VarId, stats: &mut Stats) {
        let ts = ensure(&mut self.threads, t, stats);
        let idx = x.as_usize();
        let Some(Some(lv)) = self.volatiles.get(idx) else {
            return; // never written: L_vx = ⊥ᵥ
        };
        if ts.seen_volatile(idx) == lv.version {
            stats.sync_fastpath_hits += 1;
            return;
        }
        stats.sync_slow_joins += 1;
        stats.vc_ops += 1;
        self.sync_gen += 1;
        ts.vc.join(&lv.vc);
        ts.refresh_epoch();
        ts.note_volatile(idx, lv.version);
    }

    /// `[FT WRITE VOLATILE]`: `L_vx := C_t ⊔ L_vx; C_t := incₜ(C_t)` (§4).
    fn volatile_write(&mut self, t: Tid, x: VarId, stats: &mut Stats) {
        let ts = ensure(&mut self.threads, t, stats);
        let idx = x.as_usize();
        if idx >= self.volatiles.len() {
            self.volatiles.resize_with(idx + 1, || None);
        }
        stats.vc_ops += 1;
        match &mut self.volatiles[idx] {
            Some(lv) => {
                lv.vc.join(&ts.vc);
                lv.version += 1;
            }
            slot @ None => {
                stats.vc_allocated += 1;
                *slot = Some(VolatileClock::new(ts.vc.clone()));
            }
        }
        ts.inc();
    }

    /// `[FT BARRIER RELEASE]`: every `t ∈ T` gets `C_t := incₜ(⊔_{u∈T} C_u)`
    /// (§4).
    ///
    /// The join target is the lifetime scratch clock — barriers are
    /// steady-state events in phased programs, so they must not charge an
    /// allocation per phase. In the steady state (same participant set, no
    /// foreign-entry joins since the previous barrier, as tracked by
    /// `sync_gen`), every participant's clock is the previous joined clock
    /// with only its own lane advanced, so the new joined clock is rebuilt
    /// from per-thread epochs in O(|T|) lane writes instead of |T| full
    /// vector joins.
    fn barrier_release(&mut self, parties: &[Tid], stats: &mut Stats) {
        let epoch_rebuild = self.barrier_gen == self.sync_gen
            && self.barrier_parts == parties
            && !parties.is_empty();
        let mut joined = std::mem::take(&mut self.barrier_scratch);
        if epoch_rebuild {
            // Scratch still holds ⊔ of the previous phase; only the
            // participants' own lanes moved since (release/volatile-write
            // increments), and each one's current value is its epoch.
            stats.sync_fastpath_hits += 1;
            for &u in parties {
                let e = self.threads[u.as_usize()]
                    .as_ref()
                    .expect("participant")
                    .epoch;
                joined.set(u, e.clock());
            }
        } else {
            joined.clear();
            for &u in parties {
                stats.vc_ops += 1;
                joined.join(&ensure(&mut self.threads, u, stats).vc);
            }
        }
        for &t in parties {
            stats.vc_ops += 1;
            let ts = self.threads[t.as_usize()].as_mut().expect("ensured");
            ts.vc.assign(&joined);
            ts.inc();
        }
        self.barrier_scratch = joined;
        self.barrier_gen = self.sync_gen;
        if self.barrier_parts != parties {
            self.barrier_parts.clear();
            self.barrier_parts.extend_from_slice(parties);
        }
    }
}

/// Thread `t`'s slot in `threads`, created on first sight. Field-scoped so
/// a handler can hold the result while reading the lock or volatile table.
#[inline]
fn ensure<'a>(
    threads: &'a mut Vec<Option<ThreadState>>,
    t: Tid,
    stats: &mut Stats,
) -> &'a mut ThreadState {
    let idx = t.as_usize();
    if idx >= threads.len() {
        threads.resize_with(idx + 1, || None);
    }
    let slot = &mut threads[idx];
    if slot.is_none() {
        stats.vc_allocated += 1; // the thread's own C_t
        *slot = Some(ThreadState::new(t));
    }
    slot.as_mut().expect("just initialized")
}

/// Split borrow into the thread slab: mutable `dst`, shared `src`. Both
/// slots must already be ensured, and `dst != src` — this is what lets
/// fork and join merge one clock into another without cloning the source.
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
