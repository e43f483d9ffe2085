//! FastTrack: efficient and precise dynamic race detection.
//!
//! This crate implements the core contribution of Flanagan & Freund's PLDI
//! 2009 paper: a happens-before race detector that replaces *O(n)* vector
//! clocks with adaptive *O(1)* [`Epoch`](ft_clock::Epoch)s for the common
//! cases (thread-local, lock-protected, and totally-ordered read histories)
//! while falling back to full vector clocks only for read-shared data —
//! with **no loss of precision**: a race is reported if and only if the
//! observed trace contains two concurrent conflicting accesses.
//!
//! # Quick start
//!
//! ```
//! use fasttrack::{Detector, FastTrack};
//! use ft_trace::{TraceBuilder, VarId};
//! use ft_clock::Tid;
//!
//! // Two threads write x without synchronization: a write-write race.
//! let mut b = TraceBuilder::with_threads(2);
//! b.write(Tid::new(0), VarId::new(0))?;
//! b.write(Tid::new(1), VarId::new(0))?;
//! let trace = b.finish();
//!
//! let mut ft = FastTrack::new();
//! ft.run(&trace);
//! assert_eq!(ft.warnings().len(), 1);
//! println!("{}", ft.warnings()[0]);
//! # Ok::<(), ft_trace::FeasibilityError>(())
//! ```
//!
//! # Crate layout
//!
//! * [`FastTrack`] — the analysis itself ([`analysis`] implements the
//!   Figure 2/3 transition rules and the Figure 5 pseudocode, including the
//!   volatile-variable and barrier extensions of §4).
//! * [`Detector`] — the tool interface shared by every race detector in
//!   this repository (the baselines live in the `ft-detectors` crate); it
//!   supports chaining detectors as *prefilters* for downstream analyses
//!   (§5.2).
//! * [`Warning`] — race reports, deduplicated per variable exactly like the
//!   paper's tools ("at most one race for each field").
//! * [`Stats`] / [`RuleCount`] — per-rule hit counters, vector-clock
//!   allocation and operation counts (the raw data behind Tables 2 and 3 and
//!   the Figure 2 frequency annotations).
//! * [`Empty`] — the do-nothing detector used to measure framework overhead
//!   (the paper's EMPTY tool).
//! * [`rules`] — the Figure 5 transition rules over one variable, shared by
//!   the detector and the `ft-sampler` sampling tier (which replays sampled
//!   access pairs through the exact same code).
//! * [`sync`] — the Figure 5 synchronization rules over thread, lock,
//!   volatile and barrier clocks ([`SyncCore`]), held by the detector and
//!   by the `ft-sampler` tier alike.
//! * [`guard`] — `ft-guard`: byte-accurate shadow-state budgets and the
//!   graceful degradation ladder (full → Rvc eviction → sampling), surfaced
//!   as a [`Precision`] verdict on every report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod detector;
mod empty;
pub mod flight;
pub mod guard;
pub mod rules;
mod state;
mod stats;
pub mod sync;
mod warning;

pub use analysis::{FastTrack, FastTrackConfig, ReadMode, TierProfile};
pub use detector::{base_registry, Detector, Disposition};
pub use empty::Empty;
pub use flight::{FlightRecorder, RecordedEvent, RecorderConfig, ThreadTail};
pub use guard::{DegradationRecord, GuardConfig, GuardTier, Precision, ShadowBudget};
pub use state::{LockClock, ThreadState, VarState, VolatileClock, READ_SHARED};
pub use stats::{RuleCount, Stats};
pub use sync::SyncCore;
pub use warning::{warnings_to_json, AccessSummary, Provenance, ReadHistory, Warning, WarningKind};
