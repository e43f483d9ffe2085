//! Logical-time substrate for happens-before race detection.
//!
//! This crate provides the two representations of happens-before time used by
//! the FastTrack algorithm (Flanagan & Freund, PLDI 2009) and by the
//! traditional vector-clock detectors it is compared against:
//!
//! * [`VectorClock`] — the classic `Tid -> clock` map with the usual lattice
//!   structure: point-wise partial order ([`VectorClock::leq`]), join
//!   ([`VectorClock::join`]), bottom ([`VectorClock::new`]), and a per-thread
//!   increment ([`VectorClock::inc`]). Every operation is *O(n)* in the number
//!   of threads.
//! * [`Epoch`] — FastTrack's lightweight scalar timestamp: a single
//!   `clock@tid` pair packed into one `u32` (8-bit thread id, 24-bit clock).
//!   Comparing an epoch against a vector clock
//!   ([`Epoch::happens_before`]) is *O(1)*.
//!
//! A wider [`Epoch64`] (16-bit tid, 48-bit clock) is provided for programs
//! that exceed the 32-bit limits, mirroring the paper's remark that
//! "switching to 64-bit epochs would enable FastTrack to handle large thread
//! identifiers or clock values".
//!
//! # Example
//!
//! ```
//! use ft_clock::{Epoch, Tid, VectorClock};
//!
//! let t0 = Tid::new(0);
//! let t1 = Tid::new(1);
//!
//! let mut c1 = VectorClock::new();
//! c1.set(t0, 4);
//! c1.set(t1, 8);
//!
//! // The write epoch 4@0 happens before thread 1's current time <4,8,...>.
//! let w = Epoch::new(t0, 4);
//! assert!(w.happens_before(&c1));
//!
//! // ...but 5@0 would be concurrent with it.
//! assert!(!Epoch::new(t0, 5).happens_before(&c1));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod epoch;
mod recycle;
mod vc;

pub use epoch::{Epoch, Epoch64, EpochOverflowError, MAX_CLOCK, MAX_CLOCK64, MAX_TID, MAX_TID64};
pub use recycle::{TidRecycler, VcPool};
pub use vc::VectorClock;

use std::fmt;

/// A thread identifier.
///
/// Thread ids are small dense integers assigned by the runtime (the first
/// thread is `Tid::new(0)`, the next `Tid::new(1)`, and so on). They index
/// directly into [`VectorClock`]s and are packed into [`Epoch`]s.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(u32);

impl Tid {
    /// Creates a thread identifier from its dense index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        Tid(raw)
    }

    /// Returns the dense index of this thread id.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns the dense index of this thread id as a `usize`, for use as a
    /// vector index.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for Tid {
    #[inline]
    fn from(raw: u32) -> Self {
        Tid::new(raw)
    }
}

impl From<Tid> for u32 {
    #[inline]
    fn from(tid: Tid) -> Self {
        tid.0
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Debug for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tid({})", self.0)
    }
}
