//! Vector clocks with the lattice operations of §2.2.
//!
//! The representation is a small-vector: clocks with at most
//! [`VectorClock::INLINE_LANES`] components live entirely on the stack (or
//! inside whatever struct embeds them), and only wider clocks spill to a
//! heap `Vec<u32>`. FastTrack traces overwhelmingly touch a handful of
//! threads per clock, so thread, lock, and read-vector clocks for typical
//! traces never allocate at all.

use crate::{Epoch, Tid};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Comparison/join loops process components in chunks of this width so the
/// compiler can vectorize the inner loop, while still exiting early between
/// chunks once an answer is known.
const CHUNK: usize = 8;

/// The two storage modes of a small-vector clock: up to
/// [`VectorClock::INLINE_LANES`] components inline, a heap `Vec` above.
///
/// Invariant: `Inline.lanes[len..]` are always zero, so growing the logical
/// length never needs to re-zero lanes.
#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        lanes: [u32; VectorClock::INLINE_LANES],
    },
    Heap(Vec<u32>),
}

/// A vector clock `VC : Tid -> Nat`.
///
/// Entries beyond the stored length are implicitly zero, so the bottom
/// element ⊥ᵥ is the empty vector and clocks grow on demand as threads are
/// created. All operations are *O(n)* in the number of threads — the cost
/// that FastTrack's [`Epoch`] representation avoids on its fast paths.
///
/// Clocks with at most [`VectorClock::INLINE_LANES`] components are stored
/// inline with no heap allocation; wider clocks spill to a heap vector and
/// stay there (a spilled clock keeps its allocation across
/// [`VectorClock::clear`], so recycled clocks cost no fresh heap traffic).
///
/// Equality, ordering by [`VectorClock::leq`], and hashing are over the
/// *logical component sequence* — length included, trailing zeros
/// significant — and are therefore independent of which storage mode a
/// clock happens to be in.
///
/// The lattice structure of §2.2:
///
/// * partial order: [`VectorClock::leq`] (`V₁ ⊑ V₂ iff ∀t. V₁(t) ≤ V₂(t)`)
/// * join: [`VectorClock::join`] (`V₁ ⊔ V₂ = λt. max(V₁(t), V₂(t))`)
/// * bottom: [`VectorClock::new`] (`⊥ᵥ = λt. 0`)
/// * increment: [`VectorClock::inc`] (`incₜ(V)`)
///
/// # Example
///
/// ```
/// use ft_clock::{Tid, VectorClock};
///
/// let mut release = VectorClock::new();
/// release.set(Tid::new(0), 4);
///
/// let mut acquirer = VectorClock::new();
/// acquirer.set(Tid::new(1), 8);
/// acquirer.join(&release); // acquire(m): C_t := C_t ⊔ L_m
///
/// assert_eq!(acquirer.get(Tid::new(0)), 4);
/// assert_eq!(acquirer.get(Tid::new(1)), 8);
/// assert!(release.leq(&acquirer));
/// ```
#[derive(Clone)]
pub struct VectorClock {
    repr: Repr,
}

impl Default for VectorClock {
    #[inline]
    fn default() -> Self {
        VectorClock::new()
    }
}

impl VectorClock {
    /// Number of components stored inline before the clock spills to the
    /// heap. Sized for the common case: most benchmark traces synchronize
    /// among ≤ 8 threads per clock.
    pub const INLINE_LANES: usize = 8;

    /// Creates the bottom vector clock ⊥ᵥ (all components zero).
    #[inline]
    pub fn new() -> Self {
        VectorClock {
            repr: Repr::Inline {
                len: 0,
                lanes: [0; Self::INLINE_LANES],
            },
        }
    }

    /// Creates a bottom vector clock with capacity reserved for `threads`
    /// components, avoiding reallocation as the first `threads` tids appear.
    /// Requests within [`VectorClock::INLINE_LANES`] stay inline and
    /// allocate nothing.
    #[inline]
    pub fn with_capacity(threads: usize) -> Self {
        if threads <= Self::INLINE_LANES {
            VectorClock::new()
        } else {
            VectorClock {
                repr: Repr::Heap(Vec::with_capacity(threads)),
            }
        }
    }

    /// The logical component sequence (length significant, trailing zeros
    /// preserved).
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        match &self.repr {
            Repr::Inline { len, lanes } => &lanes[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Grows the logical length to at least `new_len` and returns the
    /// mutable component slice. Spills to the heap when `new_len` exceeds
    /// the inline lanes.
    #[inline]
    fn grow_to(&mut self, new_len: usize) -> &mut [u32] {
        match &mut self.repr {
            Repr::Inline { len, lanes } => {
                if new_len <= Self::INLINE_LANES {
                    if new_len > *len as usize {
                        // Lanes past `len` are already zero by invariant.
                        *len = new_len as u8;
                    }
                } else {
                    let mut v = Vec::with_capacity(new_len.max(2 * Self::INLINE_LANES));
                    v.extend_from_slice(&lanes[..*len as usize]);
                    v.resize(new_len, 0);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => {
                if new_len > v.len() {
                    v.resize(new_len, 0);
                }
            }
        }
        match &mut self.repr {
            Repr::Inline { len, lanes } => &mut lanes[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Returns the clock component for thread `tid` (zero if never set).
    #[inline]
    pub fn get(&self, tid: Tid) -> u32 {
        self.as_slice().get(tid.as_usize()).copied().unwrap_or(0)
    }

    /// Sets the clock component for thread `tid`, growing the vector if
    /// needed.
    #[inline]
    pub fn set(&mut self, tid: Tid, clock: u32) {
        let idx = tid.as_usize();
        if idx >= self.as_slice().len() && clock == 0 {
            return; // implicit zero; avoid growing for a no-op
        }
        self.grow_to(idx + 1)[idx] = clock;
    }

    /// The increment helper `incₜ(V)`: bumps `tid`'s component by one.
    #[inline]
    pub fn inc(&mut self, tid: Tid) {
        let idx = tid.as_usize();
        self.grow_to(idx + 1)[idx] += 1;
    }

    /// The point-wise partial order: `self ⊑ other`.
    ///
    /// This is the *O(n)* comparison that DJIT+ and BasicVC perform on every
    /// slow-path access. Components are compared a fixed-size chunk at a time: within
    /// a chunk the comparisons compile to straight-line (vectorizable) code,
    /// and the loop exits at the first chunk containing a violation.
    #[inline]
    pub fn leq(&self, other: &VectorClock) -> bool {
        let a = self.as_slice();
        let b = other.as_slice();
        // Components beyond `other`'s length are implicitly zero, so any
        // nonzero excess component of `self` breaks the order.
        if a.len() > b.len() && a[b.len()..].iter().any(|&c| c != 0) {
            return false;
        }
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut ac = a.chunks_exact(CHUNK);
        let mut bc = b.chunks_exact(CHUNK);
        for (ca, cb) in ac.by_ref().zip(bc.by_ref()) {
            let mut violation = false;
            for i in 0..CHUNK {
                violation |= ca[i] > cb[i];
            }
            if violation {
                return false;
            }
        }
        ac.remainder()
            .iter()
            .zip(bc.remainder().iter())
            .all(|(x, y)| x <= y)
    }

    /// The join `self := self ⊔ other` (point-wise maximum), processed a
    /// fixed-size chunk of components at a time so the inner loop vectorizes.
    #[inline]
    pub fn join(&mut self, other: &VectorClock) {
        let other_slice = other.as_slice();
        if other_slice.is_empty() {
            return;
        }
        let dst = self.grow_to(other_slice.len().max(self.as_slice().len()));
        let dst = &mut dst[..other_slice.len()];
        let mut dc = dst.chunks_exact_mut(CHUNK);
        let mut oc = other_slice.chunks_exact(CHUNK);
        for (cd, co) in dc.by_ref().zip(oc.by_ref()) {
            for i in 0..CHUNK {
                cd[i] = cd[i].max(co[i]);
            }
        }
        for (d, o) in dc.into_remainder().iter_mut().zip(oc.remainder().iter()) {
            *d = (*d).max(*o);
        }
    }

    /// Copies `other` into `self`, reusing any existing heap allocation.
    #[inline]
    pub fn assign(&mut self, other: &VectorClock) {
        let src = other.as_slice();
        match &mut self.repr {
            Repr::Heap(v) => {
                v.clear();
                v.extend_from_slice(src);
            }
            Repr::Inline { len, lanes } => {
                if src.len() <= Self::INLINE_LANES {
                    lanes[..*len as usize].fill(0);
                    lanes[..src.len()].copy_from_slice(src);
                    *len = src.len() as u8;
                } else {
                    self.repr = Repr::Heap(src.to_vec());
                }
            }
        }
    }

    /// Resets every component to zero (back to ⊥ᵥ) while keeping any heap
    /// allocation, so a recycled clock (see [`crate::VcPool`]) costs no
    /// fresh heap traffic.
    #[inline]
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, lanes } => {
                lanes[..*len as usize].fill(0);
                *len = 0;
            }
            Repr::Heap(v) => v.clear(),
        }
    }

    /// Returns the epoch `V(t)@t` for thread `tid` — the current epoch
    /// `E(t)` of the paper when applied to a thread's own clock.
    ///
    /// # Panics
    ///
    /// Panics if the clock value or tid does not fit in a packed [`Epoch`]
    /// (clock ≥ 2²⁴ or tid ≥ 2⁸).
    #[inline]
    pub fn epoch_of(&self, tid: Tid) -> Epoch {
        Epoch::new(tid, self.get(tid))
    }

    /// Returns `true` if every component is zero (the bottom element).
    #[inline]
    pub fn is_bottom(&self) -> bool {
        self.as_slice().iter().all(|&c| c == 0)
    }

    /// Returns the number of stored components (trailing components are
    /// implicitly zero, so this is an upper bound on the "dimension").
    #[inline]
    pub fn dim(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns `true` while the clock is in inline storage (no heap spill
    /// yet). Exposed for memory accounting and the representation tests.
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// Iterates over `(tid, clock)` pairs with nonzero clocks.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (Tid, u32)> + '_ {
        self.as_slice()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (Tid::new(i as u32), c))
    }

    /// Heap bytes used by this clock's storage (for the Table 3 memory
    /// accounting). Inline clocks report zero: their lanes live inside the
    /// struct itself.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => 0,
            Repr::Heap(v) => v.capacity() * std::mem::size_of::<u32>(),
        }
    }

    /// Builds a vector clock from a slice of components (index = tid).
    pub fn from_components(components: &[u32]) -> Self {
        if components.len() <= Self::INLINE_LANES {
            let mut lanes = [0; Self::INLINE_LANES];
            lanes[..components.len()].copy_from_slice(components);
            VectorClock {
                repr: Repr::Inline {
                    len: components.len() as u8,
                    lanes,
                },
            }
        } else {
            VectorClock {
                repr: Repr::Heap(components.to_vec()),
            }
        }
    }
}

impl PartialEq for VectorClock {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for VectorClock {}

impl Hash for VectorClock {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl FromIterator<(Tid, u32)> for VectorClock {
    fn from_iter<I: IntoIterator<Item = (Tid, u32)>>(iter: I) -> Self {
        let mut vc = VectorClock::new();
        for (tid, clock) in iter {
            vc.set(tid, clock);
        }
        vc
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, c) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ">")
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VectorClock{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(components: &[u32]) -> VectorClock {
        VectorClock::from_components(components)
    }

    #[test]
    fn bottom_is_leq_everything() {
        let bot = VectorClock::new();
        assert!(bot.is_bottom());
        assert!(bot.leq(&vc(&[1, 2, 3])));
        assert!(bot.leq(&bot));
    }

    #[test]
    fn leq_is_pointwise() {
        assert!(vc(&[1, 2]).leq(&vc(&[1, 2])));
        assert!(vc(&[1, 2]).leq(&vc(&[2, 2])));
        assert!(!vc(&[3, 0]).leq(&vc(&[2, 9])));
        // Incomparable pair.
        assert!(!vc(&[1, 0]).leq(&vc(&[0, 1])));
        assert!(!vc(&[0, 1]).leq(&vc(&[1, 0])));
    }

    #[test]
    fn leq_handles_length_mismatch() {
        // Longer with trailing zeros is still ⊑.
        assert!(vc(&[1, 0, 0]).leq(&vc(&[1])));
        // Longer with a nonzero tail is not.
        assert!(!vc(&[1, 0, 5]).leq(&vc(&[1])));
        // Shorter ⊑ longer uses implicit zeros.
        assert!(vc(&[1]).leq(&vc(&[1, 7])));
    }

    #[test]
    fn leq_chunked_paths_agree_with_pointwise() {
        // Exercise the chunked loop (≥ CHUNK lanes), the remainder loop,
        // and violations in every region.
        let wide_lo: Vec<u32> = (0..19).collect();
        let wide_hi: Vec<u32> = (0..19).map(|c| c + 1).collect();
        assert!(vc(&wide_lo).leq(&vc(&wide_hi)));
        assert!(!vc(&wide_hi).leq(&vc(&wide_lo)));

        // Violation only in the first chunk.
        let mut first = wide_lo.clone();
        first[3] = 100;
        assert!(!vc(&first).leq(&vc(&wide_hi)));
        // Violation only in the remainder.
        let mut tail = wide_lo.clone();
        tail[18] = 100;
        assert!(!vc(&tail).leq(&vc(&wide_hi)));
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = vc(&[1, 5, 0]);
        a.join(&vc(&[3, 2]));
        assert_eq!(a, vc(&[3, 5, 0]));

        let mut b = vc(&[1]);
        b.join(&vc(&[0, 0, 9]));
        assert_eq!(b.get(Tid::new(2)), 9);
    }

    #[test]
    fn join_across_chunk_boundary() {
        let a_src: Vec<u32> = (0..21).map(|i| if i % 2 == 0 { i } else { 0 }).collect();
        let b_src: Vec<u32> = (0..21).map(|i| if i % 2 == 0 { 0 } else { i }).collect();
        let mut a = vc(&a_src);
        a.join(&vc(&b_src));
        let expect: Vec<u32> = (0..21).collect();
        assert_eq!(a, vc(&expect));
    }

    #[test]
    fn inc_bumps_single_component() {
        let mut a = VectorClock::new();
        a.inc(Tid::new(2));
        a.inc(Tid::new(2));
        a.inc(Tid::new(0));
        assert_eq!(a, vc(&[1, 0, 2]));
    }

    #[test]
    fn set_zero_on_fresh_tid_does_not_grow() {
        let mut a = VectorClock::new();
        a.set(Tid::new(40), 0);
        assert_eq!(a.dim(), 0);
        a.set(Tid::new(2), 5);
        assert_eq!(a.dim(), 3);
    }

    #[test]
    fn epoch_of_reads_own_component() {
        let a = vc(&[4, 8]);
        assert_eq!(a.epoch_of(Tid::new(1)), Epoch::new(Tid::new(1), 8));
        assert_eq!(a.epoch_of(Tid::new(9)), Epoch::new(Tid::new(9), 0));
    }

    #[test]
    fn assign_reuses_storage() {
        let mut a = vc(&[1, 2, 3]);
        let b = vc(&[9]);
        a.assign(&b);
        assert_eq!(a, b);
        assert_eq!(a.get(Tid::new(1)), 0);
    }

    #[test]
    fn clear_resets_to_bottom_without_freeing() {
        let mut a = vc(&[1, 2, 3]);
        let cap_bytes = a.heap_bytes();
        a.clear();
        assert!(a.is_bottom());
        assert_eq!(a.dim(), 0);
        assert_eq!(a.heap_bytes(), cap_bytes);
    }

    #[test]
    fn iter_nonzero_skips_zeros() {
        let a = vc(&[0, 3, 0, 7]);
        let pairs: Vec<_> = a.iter_nonzero().collect();
        assert_eq!(pairs, vec![(Tid::new(1), 3), (Tid::new(3), 7)]);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(vc(&[4, 8]).to_string(), "<4,8>");
        assert_eq!(VectorClock::new().to_string(), "<>");
    }

    #[test]
    fn from_iterator_collects_pairs() {
        let a: VectorClock = vec![(Tid::new(1), 5), (Tid::new(0), 2)]
            .into_iter()
            .collect();
        assert_eq!(a, vc(&[2, 5]));
    }

    #[test]
    fn narrow_clocks_stay_inline_and_allocate_nothing() {
        let mut a = VectorClock::new();
        for t in 0..VectorClock::INLINE_LANES {
            a.inc(Tid::new(t as u32));
        }
        assert!(a.is_inline());
        assert_eq!(a.heap_bytes(), 0);
        assert_eq!(a.dim(), VectorClock::INLINE_LANES);
    }

    #[test]
    fn spill_at_inline_boundary_preserves_components() {
        let mut a = VectorClock::new();
        for t in 0..VectorClock::INLINE_LANES {
            a.set(Tid::new(t as u32), t as u32 + 1);
        }
        assert!(a.is_inline());
        a.set(Tid::new(VectorClock::INLINE_LANES as u32), 99);
        assert!(!a.is_inline());
        assert!(a.heap_bytes() > 0);
        for t in 0..VectorClock::INLINE_LANES {
            assert_eq!(a.get(Tid::new(t as u32)), t as u32 + 1);
        }
        assert_eq!(a.get(Tid::new(VectorClock::INLINE_LANES as u32)), 99);
    }

    #[test]
    fn spilled_clock_stays_heap_after_clear() {
        let mut a = vc(&(0..20).collect::<Vec<u32>>());
        assert!(!a.is_inline());
        a.clear();
        assert!(!a.is_inline());
        assert!(a.heap_bytes() > 0);
    }

    #[test]
    fn equality_and_hash_ignore_storage_mode() {
        use std::collections::hash_map::DefaultHasher;
        // Same logical sequence, one inline and one heap-spilled.
        let inline = vc(&[1, 2, 3]);
        let mut heap = vc(&(0..20).collect::<Vec<u32>>());
        heap.assign(&inline);
        assert!(!heap.is_inline());
        assert_eq!(inline, heap);
        let hash = |v: &VectorClock| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&inline), hash(&heap));
        // Length stays significant: trailing zeros are part of identity.
        assert_ne!(vc(&[1]), vc(&[1, 0]));
    }
}
