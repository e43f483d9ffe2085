//! Flight recorder: opt-in per-thread ring buffers of recently seen events.
//!
//! When enabled (see [`crate::FastTrackConfig::recorder`]), the detector
//! records every event once, where it dispatches it, and keeps the last *k*
//! events of every thread in a fixed-capacity ring. On a race report, the rings of the two involved threads are drained
//! into the warning's [`crate::Provenance::recent`] field, so a report
//! carries the short event history that led up to the conflict — the
//! "what was each thread doing?" context a bare epoch pair cannot give.
//!
//! The rings are allocated lazily (first event of a thread) and never grow:
//! each ring is exactly `capacity` slots of [`FlightRecorder::SLOT_BYTES`]
//! bytes, so recording an event is a store and a cursor bump — no
//! allocation and no division. Ring bytes are charged to the ft-guard shadow
//! budget by the detector when a guard is configured, so a bounded-memory
//! run stays bounded with the recorder on.

use ft_clock::Tid;
use ft_trace::batch::opcode;
use std::fmt;

/// Configuration for the flight recorder.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RecorderConfig {
    /// Events retained per thread. Memory cost is
    /// `threads × capacity ×` [`FlightRecorder::SLOT_BYTES`] (see
    /// [`FlightRecorder::bytes`]); the default keeps a thread's tail at
    /// 512 bytes.
    pub capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig { capacity: 32 }
    }
}

/// One event drained from the recorder: the trace index plus the
/// binary-format opcode and operand.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RecordedEvent {
    /// Position of the event in the trace.
    pub index: u64,
    /// Opcode byte, from [`ft_trace::batch::opcode`].
    pub kind: u8,
    /// The thread the event is attributed to.
    pub tid: Tid,
    /// The operand: variable/lock/thread index, or the party count for a
    /// barrier release.
    pub arg: u32,
}

impl fmt::Display for RecordedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} ", self.index)?;
        let (t, a) = (self.tid, self.arg);
        match self.kind {
            opcode::READ => write!(f, "rd({t},x{a})"),
            opcode::WRITE => write!(f, "wr({t},x{a})"),
            opcode::ACQUIRE => write!(f, "acq({t},m{a})"),
            opcode::RELEASE => write!(f, "rel({t},m{a})"),
            opcode::FORK => write!(f, "fork({t},T{a})"),
            opcode::JOIN => write!(f, "join({t},T{a})"),
            opcode::VOLATILE_READ => write!(f, "vol_rd({t},x{a})"),
            opcode::VOLATILE_WRITE => write!(f, "vol_wr({t},x{a})"),
            opcode::WAIT => write!(f, "wait({t},m{a})"),
            opcode::NOTIFY => write!(f, "notify({t},m{a})"),
            opcode::BARRIER => write!(f, "barrier_rel({a} threads)"),
            opcode::ATOMIC_BEGIN => write!(f, "atomic_begin({t})"),
            opcode::ATOMIC_END => write!(f, "atomic_end({t})"),
            k => write!(f, "op{k}({t},{a})"),
        }
    }
}

/// The recent events of one thread involved in a race, oldest first.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ThreadTail {
    /// The thread whose tail this is.
    pub tid: Tid,
    /// Its last recorded events, oldest first.
    pub events: Vec<RecordedEvent>,
}

/// One retained event as stored in a ring: [`RecordedEvent`] packed into
/// [`FlightRecorder::SLOT_BYTES`] bytes.
#[derive(Copy, Clone, Default, Debug)]
struct Slot {
    index: u64,
    arg: u32,
    tid: u16,
    kind: u8,
}

const _: () = assert!(std::mem::size_of::<Slot>() == FlightRecorder::SLOT_BYTES);

/// One thread's fixed-capacity ring.
#[derive(Clone, Debug, Default)]
struct Ring {
    /// `capacity` slots once the thread has recorded an event; empty
    /// before.
    slots: Box<[Slot]>,
    /// The slot the next event goes to: the oldest event once `wrapped`.
    next: usize,
    /// Whether `next` has wrapped, i.e. every slot holds an event.
    wrapped: bool,
}

impl Ring {
    /// Stores `slot` at the cursor, then advances the cursor with a
    /// compare-and-reset rather than a `% capacity` division. The caller
    /// has checked `next < slots.len()`.
    #[inline]
    fn write(&mut self, slot: Slot) {
        self.slots[self.next] = slot;
        self.next += 1;
        if self.next == self.slots.len() {
            self.next = 0;
            self.wrapped = true;
        }
    }
}

/// Per-thread ring buffers of recently decoded events.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    capacity: usize,
    /// Indexed by thread id; a ring stays slot-less until its thread
    /// records an event.
    rings: Vec<Ring>,
    threads: usize,
    recorded: u64,
}

impl FlightRecorder {
    /// Bytes one retained event occupies in a ring.
    pub const SLOT_BYTES: usize = 16;

    /// Creates an empty recorder; rings appear as threads do.
    pub fn new(config: RecorderConfig) -> Self {
        FlightRecorder {
            capacity: config.capacity.max(1),
            rings: Vec::new(),
            threads: 0,
            recorded: 0,
        }
    }

    /// The per-thread ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events recorded (including ones since evicted from rings). A
    /// barrier release counts once per party.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Number of threads with a live ring.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Bytes held in ring slots across all threads — the number charged to
    /// the ft-guard budget.
    pub fn bytes(&self) -> usize {
        self.threads * self.capacity * Self::SLOT_BYTES
    }

    /// Records the event at trace position `index` from its raw fields, as
    /// an [`ft_trace::EventBlock`] lane or [`ft_trace::Op::raw`] carries
    /// them. A barrier release ([`opcode::BARRIER`]) goes to every thread
    /// in `parties`, with the party count as operand; every other kind goes
    /// to `tid` with operand `arg`, and `parties` is ignored.
    ///
    /// Returns the bytes newly allocated (nonzero exactly when a thread's
    /// ring was just created by its first event), so the caller can charge
    /// them to a guard budget.
    ///
    /// # Panics
    ///
    /// If a thread id does not fit in 16 bits (the `.ftb` format's width;
    /// the detector's epochs hold far fewer).
    #[inline]
    pub fn record(&mut self, index: u64, kind: u8, tid: Tid, arg: u32, parties: &[Tid]) -> usize {
        if kind == opcode::BARRIER {
            let n = parties.len() as u32;
            return parties.iter().map(|&p| self.push(p, index, kind, n)).sum();
        }
        self.push(tid, index, kind, arg)
    }

    /// Appends one event to `tid`'s ring.
    #[inline]
    fn push(&mut self, tid: Tid, index: u64, kind: u8, arg: u32) -> usize {
        self.recorded += 1;
        if let Some(ring) = self.rings.get_mut(tid.as_usize()) {
            // `next < len` fails only while the ring has no slots yet.
            if ring.next < ring.slots.len() {
                ring.write(Slot {
                    index,
                    arg,
                    // Lossless: `push_first` only creates rings for
                    // 16-bit thread ids.
                    tid: tid.as_u32() as u16,
                    kind,
                });
                return 0;
            }
        }
        self.push_first(tid, index, kind, arg)
    }

    /// A thread's first event: creates its ring, then records the event.
    /// Returns the ring's bytes.
    #[cold]
    #[inline(never)]
    fn push_first(&mut self, tid: Tid, index: u64, kind: u8, arg: u32) -> usize {
        let t = u16::try_from(tid.as_u32())
            .unwrap_or_else(|_| panic!("flight recorder: thread id {tid} exceeds 16 bits"));
        let i = tid.as_usize();
        if i >= self.rings.len() {
            self.rings.resize_with(i + 1, Ring::default);
        }
        let ring = &mut self.rings[i];
        ring.slots = vec![Slot::default(); self.capacity].into_boxed_slice();
        ring.write(Slot {
            index,
            arg,
            tid: t,
            kind,
        });
        self.threads += 1;
        self.capacity * Self::SLOT_BYTES
    }

    /// The recent events of `tid`, oldest first. Empty if the thread has
    /// recorded nothing.
    pub fn tail(&self, tid: Tid) -> Vec<RecordedEvent> {
        let Some(ring) = self.rings.get(tid.as_usize()) else {
            return Vec::new();
        };
        let (older, newer) = if ring.wrapped {
            (&ring.slots[ring.next..], &ring.slots[..ring.next])
        } else {
            (&ring.slots[..ring.next], &[][..])
        };
        older
            .iter()
            .chain(newer)
            .map(|s| RecordedEvent {
                index: s.index,
                kind: s.kind,
                tid: Tid::new(u32::from(s.tid)),
                arg: s.arg,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_last_k_in_order() {
        let mut rec = FlightRecorder::new(RecorderConfig { capacity: 3 });
        let t = Tid::new(1);
        for i in 0..5u64 {
            rec.record(i, opcode::READ, t, i as u32, &[]);
            let tail = rec.tail(t);
            let want: Vec<u64> = (i.saturating_sub(2)..=i).collect();
            assert_eq!(tail.iter().map(|e| e.index).collect::<Vec<_>>(), want);
        }
        assert_eq!(rec.recorded(), 5);
    }

    #[test]
    fn capacity_one_keeps_the_latest_event() {
        let mut rec = FlightRecorder::new(RecorderConfig { capacity: 1 });
        let t = Tid::new(0);
        for i in 0..3u64 {
            rec.record(i, opcode::WRITE, t, 0, &[]);
            assert_eq!(rec.tail(t).iter().map(|e| e.index).collect::<Vec<_>>(), [i]);
        }
    }

    #[test]
    fn bytes_charged_once_per_thread() {
        let mut rec = FlightRecorder::new(RecorderConfig { capacity: 4 });
        let t = Tid::new(0);
        let first = rec.record(0, opcode::WRITE, t, 0, &[]);
        assert_eq!(first, 4 * 16);
        for i in 1..9 {
            assert_eq!(rec.record(i, opcode::WRITE, t, 0, &[]), 0);
        }
        assert_eq!(rec.bytes(), first);
        assert_eq!(rec.threads(), 1);
        assert_eq!(rec.record(9, opcode::READ, Tid::new(5), 0, &[]), first);
        assert_eq!(rec.bytes(), 2 * first);
        assert_eq!(rec.threads(), 2);
    }

    #[test]
    fn barrier_is_attributed_to_every_party() {
        let mut rec = FlightRecorder::new(RecorderConfig { capacity: 2 });
        let parties = [Tid::new(0), Tid::new(1)];
        // The operand of a block's barrier entry is its side-table slot;
        // the recorder stores the party count instead.
        rec.record(7, opcode::BARRIER, Tid::new(0), 5, &parties);
        for t in parties {
            let tail = rec.tail(t);
            assert_eq!(tail.len(), 1);
            assert_eq!(tail[0].kind, opcode::BARRIER);
            assert_eq!(tail[0].tid, t);
            assert_eq!(tail[0].arg, 2);
        }
        assert_eq!(rec.recorded(), 2);
    }

    #[test]
    fn display_matches_trace_syntax() {
        let mut rec = FlightRecorder::new(RecorderConfig::default());
        rec.record(3, opcode::READ, Tid::new(1), 4, &[]);
        let tail = rec.tail(Tid::new(1));
        assert_eq!(tail[0].to_string(), "#3 rd(T1,x4)");
    }

    #[test]
    fn empty_tail_for_unknown_thread() {
        let mut rec = FlightRecorder::new(RecorderConfig::default());
        assert!(rec.tail(Tid::new(9)).is_empty());
        rec.record(0, opcode::READ, Tid::new(4), 0, &[]);
        // Thread 2's ring exists (below thread 4) but holds no slots.
        assert!(rec.tail(Tid::new(2)).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds 16 bits")]
    fn wide_thread_ids_are_rejected() {
        let mut rec = FlightRecorder::new(RecorderConfig::default());
        rec.record(0, opcode::READ, Tid::new(1 << 16), 0, &[]);
    }
}
