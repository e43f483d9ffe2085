//! FastTrack instrumentation state (Figure 5 of the paper).

use ft_clock::{Epoch, Tid, VectorClock};

/// The sentinel read "epoch" marking a variable as read-shared.
///
/// Figure 5: "Setting R to the special epoch READ_SHARED indicates that the
/// location is in read-shared mode, and hence Rvc is in use." The sentinel
/// is the all-ones bit pattern, which corresponds to the epoch
/// `16777215@255`; a program would need 255 threads *and* 2²⁴−1 clock ticks
/// on the last one to collide with it, at which point epoch construction
/// has already overflowed.
pub const READ_SHARED: Epoch = Epoch::from_raw(u32::MAX);

/// Per-thread analysis state: the thread's vector clock `C_t` and its cached
/// current epoch `E(t) = C_t(t)@t` (Figure 5's `ThreadState`), plus the
/// seen-version stamps backing the O(1) sync-join fast paths.
#[derive(Clone, Debug)]
pub struct ThreadState {
    /// The thread's vector clock `C_t`.
    pub vc: VectorClock,
    /// Invariant: `epoch == vc.epoch_of(tid)`.
    pub epoch: Epoch,
    /// The thread's identifier.
    pub tid: Tid,
    /// Last [`LockClock::version`] this thread joined, per lock index.
    /// Zero means "never" (live versions start at 1).
    pub seen_locks: Vec<u64>,
    /// Last [`VolatileClock::version`] this thread joined, per volatile
    /// index. A volatile clock is a join of every writer — no single
    /// release epoch summarizes it — so the version stamp is the *only*
    /// O(1) way to skip a redundant re-join on a volatile re-read.
    pub seen_volatiles: Vec<u64>,
}

impl ThreadState {
    /// Fresh thread state: `C_t = incₜ(⊥ᵥ)` per the paper's initial state.
    pub fn new(tid: Tid) -> Self {
        let mut vc = VectorClock::new();
        vc.inc(tid);
        let epoch = vc.epoch_of(tid);
        ThreadState {
            vc,
            epoch,
            tid,
            seen_locks: Vec::new(),
            seen_volatiles: Vec::new(),
        }
    }

    /// Re-caches the epoch after `vc` changed.
    #[inline]
    pub fn refresh_epoch(&mut self) {
        self.epoch = self.vc.epoch_of(self.tid);
    }

    /// Bumps the thread's own clock component and the cached epoch.
    #[inline]
    pub fn inc(&mut self) {
        self.vc.inc(self.tid);
        self.refresh_epoch();
    }

    /// The last lock-clock version this thread saw for lock index `idx`.
    #[inline]
    pub fn seen_lock(&self, idx: usize) -> u64 {
        self.seen_locks.get(idx).copied().unwrap_or(0)
    }

    /// Records that this thread's clock covers lock `idx` at `version`.
    #[inline]
    pub fn note_lock(&mut self, idx: usize, version: u64) {
        if idx >= self.seen_locks.len() {
            self.seen_locks.resize(idx + 1, 0);
        }
        self.seen_locks[idx] = version;
    }

    /// The last volatile-clock version this thread saw for index `idx`.
    #[inline]
    pub fn seen_volatile(&self, idx: usize) -> u64 {
        self.seen_volatiles.get(idx).copied().unwrap_or(0)
    }

    /// Records that this thread's clock covers volatile `idx` at `version`.
    #[inline]
    pub fn note_volatile(&mut self, idx: usize, version: u64) {
        if idx >= self.seen_volatiles.len() {
            self.seen_volatiles.resize(idx + 1, 0);
        }
        self.seen_volatiles[idx] = version;
    }

    /// Heap bytes held by the seen-version stamps (for shadow accounting).
    #[inline]
    pub fn seen_bytes(&self) -> usize {
        (self.seen_locks.capacity() + self.seen_volatiles.capacity()) * std::mem::size_of::<u64>()
    }
}

/// A lock's shadow clock `L_m` plus the two stamps backing the O(1)
/// acquire fast path.
///
/// `rel` is the releasing thread's epoch `c@r` *before* its post-release
/// increment. Because `[FT RELEASE]` performs a whole-clock assignment
/// `L_m := C_r`, an acquirer `t` with `C_t(r) ≥ c` already dominates every
/// entry of `L_m`: per-thread clocks only grow, every outgoing publication
/// of a clock is followed by an increment, so `C_t(r) ≥ c` can only arise
/// via a synchronization chain from at or after that release. The acquire
/// join is skipped entirely in that case.
///
/// `version` is a monotonic stamp bumped on every mutation of `vc`; a
/// thread that recorded the current version has already joined this exact
/// clock, which gives a second (one-load) skip.
#[derive(Clone, Debug)]
pub struct LockClock {
    /// The lock's vector clock `L_m`.
    pub vc: VectorClock,
    /// The releaser's pre-increment epoch at the last release.
    pub rel: Epoch,
    /// Monotonic mutation stamp; starts at 1 on first release.
    pub version: u64,
}

impl LockClock {
    /// Lock clock created at a first release: `L_m := C_r`.
    pub fn new(vc: VectorClock, rel: Epoch) -> Self {
        LockClock {
            vc,
            rel,
            version: 1,
        }
    }
}

/// A volatile variable's shadow clock `L_vx` (§4 of the paper) with its
/// version stamp. Unlike a lock clock, `L_vx` is a *join* of every writer
/// (`L_vx := C_t ⊔ L_vx`), so no single release epoch dominates it — the
/// version stamp is what lets a re-reading thread skip a redundant join.
#[derive(Clone, Debug)]
pub struct VolatileClock {
    /// The volatile's vector clock `L_vx`.
    pub vc: VectorClock,
    /// Monotonic mutation stamp; starts at 1 on first write.
    pub version: u64,
}

impl VolatileClock {
    /// Volatile clock created at a first write: `L_vx := C_t`.
    pub fn new(vc: VectorClock) -> Self {
        VolatileClock { vc, version: 1 }
    }
}

/// Per-variable shadow state (Figure 5's `VarState`): the last-write epoch
/// `W`, the adaptive read state `R`, and the read vector clock `Rvc` used
/// only while `R == READ_SHARED`.
///
/// `W` and `R` are packed into one `u64` shadow word — `R` in the high 32
/// bits, `W` in the low 32 (each half an [`Epoch`] in its raw `c@t`
/// encoding). The Figure 5 same-epoch fast paths then cost one load of the
/// word plus one half-word compare, with no second field access.
#[derive(Clone, Debug, Default)]
pub struct VarState {
    /// `(R.raw << 32) | W.raw`. The default word is zero: both epochs at
    /// `Epoch::MIN` (`0@0`), matching the paper's initial state.
    word: u64,
    /// Allocated only in read-shared mode (the 0.1% slow path).
    pub rvc: Option<Box<VectorClock>>,
}

impl VarState {
    /// The last-write epoch `W_x` (low half of the shadow word).
    #[inline]
    pub fn w(&self) -> Epoch {
        Epoch::from_raw(self.word as u32)
    }

    /// The adaptive read state `R_x` (high half of the shadow word);
    /// [`READ_SHARED`] while the read history is a vector clock.
    #[inline]
    pub fn r(&self) -> Epoch {
        Epoch::from_raw((self.word >> 32) as u32)
    }

    /// Sets `W_x`, leaving `R_x` untouched.
    #[inline]
    pub fn set_w(&mut self, e: Epoch) {
        self.word = (self.word & !(u32::MAX as u64)) | e.as_raw() as u64;
    }

    /// Sets `R_x`, leaving `W_x` untouched.
    #[inline]
    pub fn set_r(&mut self, e: Epoch) {
        self.word = (self.word & u32::MAX as u64) | ((e.as_raw() as u64) << 32);
    }

    /// `[FT READ SAME EPOCH]` test: one shadow-word load, one compare.
    #[inline]
    pub fn read_hits_same_epoch(&self, epoch: Epoch) -> bool {
        (self.word >> 32) == epoch.as_raw() as u64
    }

    /// `[FT WRITE SAME EPOCH]` test: one shadow-word load, one compare.
    #[inline]
    pub fn write_hits_same_epoch(&self, epoch: Epoch) -> bool {
        self.word as u32 == epoch.as_raw()
    }

    /// `true` while the read history is a full vector clock.
    #[inline]
    pub fn is_read_shared(&self) -> bool {
        (self.word >> 32) == u32::MAX as u64
    }

    /// Bytes attributable to this variable's shadow state.
    pub fn shadow_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.rvc_bytes()
    }

    /// Bytes attributable to the read vector clock alone (0 in epoch mode)
    /// — the unit the guard's budget charges and credits per access.
    #[inline]
    pub fn rvc_bytes(&self) -> usize {
        self.rvc
            .as_ref()
            .map_or(0, |vc| std::mem::size_of::<VectorClock>() + vc.heap_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_shared_sentinel_is_not_a_normal_epoch() {
        // No epoch constructible below the packing limits equals it.
        let almost = Epoch::new(Tid::new(254), ft_clock::MAX_CLOCK);
        assert_ne!(almost, READ_SHARED);
        assert!(READ_SHARED.tid() == Tid::new(255));
    }

    #[test]
    fn fresh_thread_state_matches_initial_analysis_state() {
        let ts = ThreadState::new(Tid::new(3));
        assert_eq!(ts.vc.get(Tid::new(3)), 1);
        assert_eq!(ts.epoch, Epoch::new(Tid::new(3), 1));
        assert_eq!(ts.vc.get(Tid::new(0)), 0);
    }

    #[test]
    fn inc_keeps_epoch_cached() {
        let mut ts = ThreadState::new(Tid::new(1));
        ts.inc();
        assert_eq!(ts.epoch, Epoch::new(Tid::new(1), 2));
        assert_eq!(ts.vc.epoch_of(Tid::new(1)), ts.epoch);
    }

    #[test]
    fn seen_versions_default_to_never() {
        let mut ts = ThreadState::new(Tid::new(0));
        assert_eq!(ts.seen_lock(5), 0);
        assert_eq!(ts.seen_volatile(9), 0);
        ts.note_lock(5, 3);
        ts.note_volatile(9, 7);
        assert_eq!(ts.seen_lock(5), 3);
        assert_eq!(ts.seen_volatile(9), 7);
        assert_eq!(ts.seen_lock(4), 0);
        assert!(ts.seen_bytes() > 0);
    }

    #[test]
    fn sync_clock_versions_start_live() {
        let lk = LockClock::new(VectorClock::new(), Epoch::new(Tid::new(1), 4));
        assert_eq!(lk.version, 1);
        let lv = VolatileClock::new(VectorClock::new());
        assert_eq!(lv.version, 1);
    }

    #[test]
    fn var_state_starts_minimal() {
        let vs = VarState::default();
        assert_eq!(vs.w(), Epoch::MIN);
        assert_eq!(vs.r(), Epoch::MIN);
        assert!(!vs.is_read_shared());
        assert!(vs.rvc.is_none());
        assert_eq!(vs.shadow_bytes(), std::mem::size_of::<VarState>());
    }

    #[test]
    fn shadow_word_halves_are_independent() {
        let mut vs = VarState::default();
        let w = Epoch::new(Tid::new(3), 7);
        let r = Epoch::new(Tid::new(5), 11);
        vs.set_w(w);
        vs.set_r(r);
        assert_eq!(vs.w(), w);
        assert_eq!(vs.r(), r);
        assert!(vs.write_hits_same_epoch(w));
        assert!(!vs.write_hits_same_epoch(r));
        assert!(vs.read_hits_same_epoch(r));
        assert!(!vs.read_hits_same_epoch(w));

        vs.set_w(Epoch::MIN);
        assert_eq!(vs.r(), r, "clearing W must not disturb R");
        vs.set_r(READ_SHARED);
        assert!(vs.is_read_shared());
        assert_eq!(vs.w(), Epoch::MIN, "setting R must not disturb W");
    }
}
