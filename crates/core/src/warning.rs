//! Race warnings and their provenance records.

use crate::flight::ThreadTail;
use ft_clock::{Epoch, Tid};
use ft_trace::{AccessKind, VarId};
use std::fmt;

/// What kind of problem a [`Warning`] reports.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum WarningKind {
    /// Two concurrent writes (§3 "Detecting Write-Write Races").
    WriteWrite,
    /// A write concurrent with a later read.
    WriteRead,
    /// A read concurrent with a later write.
    ReadWrite,
    /// An imprecise lockset-based report (Eraser/MultiRace): no lock was
    /// consistently held on every access — *not* necessarily a real race.
    LockSetEmpty,
}

impl WarningKind {
    /// `true` for the precise happens-before race kinds, `false` for
    /// lockset heuristics.
    pub fn is_happens_before(self) -> bool {
        !matches!(self, WarningKind::LockSetEmpty)
    }
}

impl fmt::Display for WarningKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarningKind::WriteWrite => write!(f, "write-write race"),
            WarningKind::WriteRead => write!(f, "write-read race"),
            WarningKind::ReadWrite => write!(f, "read-write race"),
            WarningKind::LockSetEmpty => write!(f, "empty lockset"),
        }
    }
}

/// One side of a reported race.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct AccessSummary {
    /// The accessing thread.
    pub tid: Tid,
    /// Read or write.
    pub kind: AccessKind,
    /// Index of the access in the trace, when known. The *prior* access of
    /// an epoch-based detector is reconstructed from shadow state, which
    /// does not retain event indices — those report `None`.
    pub event_index: Option<usize>,
}

impl fmt::Display for AccessSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} by {}", self.kind, self.tid)?;
        if let Some(i) = self.event_index {
            write!(f, " (event {i})")?;
        }
        Ok(())
    }
}

/// The shape of a variable's read history at the moment a race fired.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReadHistory {
    /// No read had been observed (`R_x = ⊥ₑ`).
    None,
    /// Reads were totally ordered: the single last-read epoch.
    Epoch(Epoch),
    /// The variable was read-shared: the nonzero entries of `Rvc`
    /// (thread, clock), ascending by thread.
    Shared(Vec<(Tid, u32)>),
}

impl fmt::Display for ReadHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadHistory::None => write!(f, "⊥"),
            ReadHistory::Epoch(e) => write!(f, "{e}"),
            ReadHistory::Shared(entries) => {
                // Same `clock@tid` convention as `Epoch`'s Display.
                write!(f, "{{")?;
                for (i, (t, c)) in entries.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{c}@{}", t.as_u32())?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// The evidence behind a race warning: which Figure 5 rule fired, the
/// conflicting epochs, and the analysis state at the moment of detection.
///
/// Every FastTrack path — the in-memory fused loop and the streamed `.ftb`
/// path — populates this identically (the stream agreement tests compare
/// warnings wholesale, provenance included). Downstream lockset/baseline
/// detectors, which have no epoch evidence, leave [`Warning::provenance`]
/// as `None`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Provenance {
    /// The exact Figure 5 rule that detected the race, matching the labels
    /// of the report's rule breakdown (e.g. `"FT WRITE EXCLUSIVE"`).
    pub rule: &'static str,
    /// The epoch of the prior conflicting access (the write for
    /// write-write/write-read races, the read for read-write races).
    pub conflict: Epoch,
    /// The accessing thread's epoch `E(t)` at detection.
    pub current_epoch: Epoch,
    /// The accessing thread's vector clock `C_t` at detection: its nonzero
    /// entries (thread, clock), ascending by thread.
    pub thread_clock: Vec<(Tid, u32)>,
    /// `W_x` immediately before the racy access ([`Epoch::MIN`] if the
    /// variable had never been written).
    pub prior_write: Epoch,
    /// The read history `R_x` immediately before the racy access.
    pub prior_reads: ReadHistory,
    /// When the flight recorder is enabled: the last recorded events of the
    /// threads involved in the race. Empty otherwise.
    pub recent: Vec<ThreadTail>,
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] conflict {} vs C_t={{", self.rule, self.conflict)?;
        for (i, (t, c)) in self.thread_clock.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}@{}", t.as_u32())?;
        }
        write!(
            f,
            "}} at {}; prior W={} R={}",
            self.current_epoch, self.prior_write, self.prior_reads
        )
    }
}

/// A warning produced by a detector.
///
/// Precise detectors (FastTrack, DJIT+, BasicVC, Goldilocks) only emit
/// happens-before kinds and never report a warning on a race-free trace.
/// Lockset detectors (Eraser, MultiRace) emit [`WarningKind::LockSetEmpty`],
/// which may be a false alarm.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Warning {
    /// The variable involved.
    pub var: VarId,
    /// The kind of report.
    pub kind: WarningKind,
    /// The earlier access (reconstructed from shadow state for epoch-based
    /// detectors).
    pub prior: AccessSummary,
    /// The access that triggered the report.
    pub current: AccessSummary,
    /// Epoch/clock evidence for the race. Always populated by the FastTrack
    /// engines; `None` for detectors without epoch evidence (locksets,
    /// baselines).
    pub provenance: Option<Provenance>,
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {} is concurrent with {}",
            self.kind, self.var, self.prior, self.current
        )
    }
}

impl AccessSummary {
    /// Writes this access as a JSON object (`tid`/`kind`/`event`).
    pub fn write_json(&self, w: &mut ft_obs::JsonWriter) {
        w.begin_object();
        w.field_str("tid", &self.tid.to_string());
        w.field_str("kind", &self.kind.to_string());
        match self.event_index {
            Some(i) => w.field_u64("event", i as u64),
            None => {
                w.key("event");
                w.null();
            }
        }
        w.end_object();
    }
}

impl Warning {
    /// Writes this warning — provenance and flight-recorder tails included —
    /// as the JSON object used by every diagnostics surface: the
    /// `ftrace.report/1` bundle and the serve daemon's per-session report
    /// frames render warnings through this one function, so the encodings
    /// are bit-identical across processes.
    pub fn write_json(&self, w: &mut ft_obs::JsonWriter) {
        w.begin_object();
        w.field_str("var", &self.var.to_string());
        w.field_str("kind", &self.kind.to_string());
        w.key("prior");
        self.prior.write_json(w);
        w.key("current");
        self.current.write_json(w);
        w.key("provenance");
        match &self.provenance {
            None => w.null(),
            Some(p) => {
                w.begin_object();
                w.field_str("rule", p.rule);
                w.field_str("conflict", &p.conflict.to_string());
                w.field_str("current_epoch", &p.current_epoch.to_string());
                w.key("thread_clock");
                w.begin_array();
                for (t, c) in &p.thread_clock {
                    w.begin_object();
                    w.field_str("tid", &t.to_string());
                    w.field_u64("clock", u64::from(*c));
                    w.end_object();
                }
                w.end_array();
                w.field_str("prior_write", &p.prior_write.to_string());
                w.field_str("prior_reads", &p.prior_reads.to_string());
                w.key("recent");
                w.begin_array();
                for tail in &p.recent {
                    w.begin_object();
                    w.field_str("tid", &tail.tid.to_string());
                    w.key("events");
                    w.begin_array();
                    for ev in &tail.events {
                        w.string(&ev.to_string());
                    }
                    w.end_array();
                    w.end_object();
                }
                w.end_array();
                w.end_object();
            }
        }
        w.end_object();
    }
}

/// Renders a slice of warnings as one JSON array — the canonical encoding
/// compared verbatim by the tenant-isolation tests (a served report's
/// warning array must equal the local run's, byte for byte).
pub fn warnings_to_json(warnings: &[Warning]) -> String {
    let mut w = ft_obs::JsonWriter::new();
    w.begin_array();
    for warning in warnings {
        warning.write_json(&mut w);
    }
    w.end_array();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let w = Warning {
            var: VarId::new(3),
            kind: WarningKind::WriteRead,
            prior: AccessSummary {
                tid: Tid::new(0),
                kind: AccessKind::Write,
                event_index: None,
            },
            current: AccessSummary {
                tid: Tid::new(1),
                kind: AccessKind::Read,
                event_index: Some(17),
            },
            provenance: None,
        };
        let s = w.to_string();
        assert!(s.contains("write-read race on x3"), "{s}");
        assert!(s.contains("write by T0"), "{s}");
        assert!(s.contains("read by T1 (event 17)"), "{s}");
    }

    #[test]
    fn provenance_display_names_rule_and_epochs() {
        let p = Provenance {
            rule: "FT WRITE EXCLUSIVE",
            conflict: Epoch::new(Tid::new(1), 4),
            current_epoch: Epoch::new(Tid::new(0), 2),
            thread_clock: vec![(Tid::new(0), 2)],
            prior_write: Epoch::new(Tid::new(1), 4),
            prior_reads: ReadHistory::Shared(vec![(Tid::new(0), 1), (Tid::new(2), 3)]),
            recent: Vec::new(),
        };
        let s = p.to_string();
        assert!(s.contains("[FT WRITE EXCLUSIVE]"), "{s}");
        assert!(s.contains("conflict 4@1"), "{s}");
        assert!(s.contains("R={1@0,3@2}"), "{s}");
    }

    #[test]
    fn kind_classification() {
        assert!(WarningKind::WriteWrite.is_happens_before());
        assert!(WarningKind::WriteRead.is_happens_before());
        assert!(WarningKind::ReadWrite.is_happens_before());
        assert!(!WarningKind::LockSetEmpty.is_happens_before());
    }
}
