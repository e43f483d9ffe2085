//! Structure-of-arrays event blocks for the fused batch analysis loop.
//!
//! The per-event hot loop of a detector pays an enum-dispatch branch and a
//! `&Op` indirection for every event. An [`EventBlock`] instead holds a
//! block of decoded events as parallel arrays of raw fields (kind, thread,
//! argument), so a batch consumer can:
//!
//! * decode `.ftb` records straight into the arrays without materializing
//!   [`Op`] values (see [`FtbReader::read_block`](crate::FtbReader::read_block)), and
//! * branch on the raw kind byte with the common access case hoisted first,
//!   touching only the lanes an event actually uses.
//!
//! Blocks are reused across batches ([`EventBlock::clear`] keeps the
//! allocations), so steady-state batch analysis performs no allocation at
//! all on the block itself.

use crate::event::{LockId, Op, VarId};
use crate::ftb::FTB_RECORD_BYTES;
use ft_clock::Tid;

/// Raw event kind bytes, shared byte-for-byte with the `.ftb` wire format's
/// opcode field (see [`FtbWriter`](crate::FtbWriter) / [`FtbReader`](crate::FtbReader)).
pub mod opcode {
    /// `rd(t, x)` — argument is the variable id.
    pub const READ: u8 = 0;
    /// `wr(t, x)` — argument is the variable id.
    pub const WRITE: u8 = 1;
    /// `acq(t, m)` — argument is the lock id.
    pub const ACQUIRE: u8 = 2;
    /// `rel(t, m)` — argument is the lock id.
    pub const RELEASE: u8 = 3;
    /// `fork(t, u)` — argument is the forked thread id.
    pub const FORK: u8 = 4;
    /// `join(t, u)` — argument is the joined thread id.
    pub const JOIN: u8 = 5;
    /// Volatile read — argument is the variable id.
    pub const VOLATILE_READ: u8 = 6;
    /// Volatile write — argument is the variable id.
    pub const VOLATILE_WRITE: u8 = 7;
    /// `wait(t, m)` — argument is the lock id.
    pub const WAIT: u8 = 8;
    /// `notify(t, m)` — argument is the lock id.
    pub const NOTIFY: u8 = 9;
    /// Atomic-block entry marker; no argument.
    pub const ATOMIC_BEGIN: u8 = 10;
    /// Atomic-block exit marker; no argument.
    pub const ATOMIC_END: u8 = 11;
    /// `barrier_rel(T)`. In a `.ftb` stream the argument is the member
    /// count (members follow in continuation records); in an
    /// [`EventBlock`](super::EventBlock) the argument indexes the block's
    /// barrier side table.
    pub const BARRIER: u8 = 12;
    /// `.ftb`-only continuation record carrying up to two barrier members.
    /// Never appears in an [`EventBlock`](super::EventBlock).
    pub const BARRIER_CONT: u8 = 13;

    /// Returns `true` for data accesses (`rd`/`wr`). Mirrors
    /// [`Op::is_access`](crate::Op::is_access) on the raw kind byte.
    #[inline]
    pub fn is_access(kind: u8) -> bool {
        kind <= WRITE
    }
}

/// Default number of events per block: large enough to amortize dispatch
/// and refill overhead, small enough to stay cache-resident (~48 KiB of
/// lanes).
pub const DEFAULT_BLOCK_EVENTS: usize = 4096;

/// A block of decoded events in structure-of-arrays layout.
///
/// Entry `i` is `(kind(i), tid(i), arg(i))`; the meaning of the argument
/// depends on the kind (see [`opcode`]). Barrier events store their member
/// sets out of line in a side table indexed by the argument, keeping the
/// main lanes fixed-width.
#[derive(Clone, Debug, Default)]
pub struct EventBlock {
    kinds: Vec<u8>,
    tids: Vec<u32>,
    args: Vec<u32>,
    barriers: Vec<Vec<Tid>>,
}

impl EventBlock {
    /// An empty block with lane capacity for `events` entries.
    pub fn with_capacity(events: usize) -> Self {
        EventBlock {
            kinds: Vec::with_capacity(events),
            tids: Vec::with_capacity(events),
            args: Vec::with_capacity(events),
            barriers: Vec::new(),
        }
    }

    /// Number of events in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Returns `true` if the block holds no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Empties the block, keeping the lane allocations for reuse.
    pub fn clear(&mut self) {
        self.kinds.clear();
        self.tids.clear();
        self.args.clear();
        self.barriers.clear();
    }

    /// Appends a non-barrier event from its raw fields.
    #[inline]
    pub fn push_simple(&mut self, kind: u8, tid: u32, arg: u32) {
        debug_assert!(kind < opcode::BARRIER, "not a simple event kind: {kind}");
        self.kinds.push(kind);
        self.tids.push(tid);
        self.args.push(arg);
    }

    /// Appends a barrier release; the member set goes to the side table.
    pub fn push_barrier(&mut self, members: Vec<Tid>) {
        self.kinds.push(opcode::BARRIER);
        self.tids.push(0);
        self.args.push(self.barriers.len() as u32);
        self.barriers.push(members);
    }

    /// Appends an [`Op`].
    pub fn push_op(&mut self, op: &Op) {
        match op {
            Op::BarrierRelease(members) => self.push_barrier(members.clone()),
            _ => {
                let (kind, t, a, _) = op.raw();
                self.push_simple(kind, t.as_u32(), a);
            }
        }
    }

    /// Appends `.ftb` records that all carry simple events (opcodes below
    /// [`opcode::BARRIER`]), one `extend` per lane. This is the bulk step of
    /// [`FtbDecoder`](crate::FtbDecoder)'s record kernel.
    pub(crate) fn extend_records(&mut self, records: &[u8]) {
        let records = || records.chunks_exact(FTB_RECORD_BYTES);
        self.kinds.extend(records().map(|r| r[0]));
        self.tids
            .extend(records().map(|r| u16::from_le_bytes([r[2], r[3]]) as u32));
        self.args
            .extend(records().map(|r| u32::from_le_bytes([r[4], r[5], r[6], r[7]])));
    }

    /// Drops every data access (`rd`/`wr`) in place, keeping sync, marker
    /// and barrier entries in order. Barrier entries keep their side-table
    /// slots, so each still names its own member set. Returns the number
    /// of entries dropped.
    pub fn shed_accesses(&mut self) -> usize {
        let before = self.len();
        let mut kept = 0;
        for i in 0..before {
            if !opcode::is_access(self.kinds[i]) {
                self.kinds[kept] = self.kinds[i];
                self.tids[kept] = self.tids[i];
                self.args[kept] = self.args[i];
                kept += 1;
            }
        }
        self.kinds.truncate(kept);
        self.tids.truncate(kept);
        self.args.truncate(kept);
        before - kept
    }

    /// The raw kind byte of entry `i` (an [`opcode`] constant).
    #[inline]
    pub fn kind(&self, i: usize) -> u8 {
        self.kinds[i]
    }

    /// The thread of entry `i` (zero for barriers, which have no single
    /// thread).
    #[inline]
    pub fn tid(&self, i: usize) -> Tid {
        Tid::new(self.tids[i])
    }

    /// The raw argument of entry `i`; interpretation depends on the kind.
    #[inline]
    pub fn arg(&self, i: usize) -> u32 {
        self.args[i]
    }

    /// The member set of the barrier stored at side-table slot `slot`
    /// (i.e. `arg(i)` of a [`opcode::BARRIER`] entry).
    #[inline]
    pub fn barrier(&self, slot: u32) -> &[Tid] {
        &self.barriers[slot as usize]
    }

    /// Reconstructs entry `i` as an [`Op`] (allocates only for barriers).
    pub fn op(&self, i: usize) -> Op {
        match self.kinds[i] {
            opcode::BARRIER => Op::BarrierRelease(self.barriers[self.args[i] as usize].clone()),
            kind => simple_op(kind, self.tids[i], self.args[i]),
        }
    }

    /// Iterates over the block's entries as reconstructed [`Op`]s.
    pub fn ops(&self) -> impl Iterator<Item = Op> + '_ {
        (0..self.len()).map(|i| self.op(i))
    }
}

impl Op {
    /// The op's raw fields `(kind, tid, arg, parties)`, with `kind` an
    /// [`opcode`] constant and `arg` as the `.ftb` record carries it. A
    /// barrier release has thread zero, its party count as `arg`, and its
    /// members as `parties`; every other op has no parties.
    #[inline]
    pub fn raw(&self) -> (u8, Tid, u32, &[Tid]) {
        match *self {
            Op::Read(t, x) => (opcode::READ, t, x.as_u32(), &[]),
            Op::Write(t, x) => (opcode::WRITE, t, x.as_u32(), &[]),
            Op::Acquire(t, m) => (opcode::ACQUIRE, t, m.as_u32(), &[]),
            Op::Release(t, m) => (opcode::RELEASE, t, m.as_u32(), &[]),
            Op::Fork(t, u) => (opcode::FORK, t, u.as_u32(), &[]),
            Op::Join(t, u) => (opcode::JOIN, t, u.as_u32(), &[]),
            Op::VolatileRead(t, x) => (opcode::VOLATILE_READ, t, x.as_u32(), &[]),
            Op::VolatileWrite(t, x) => (opcode::VOLATILE_WRITE, t, x.as_u32(), &[]),
            Op::Wait(t, m) => (opcode::WAIT, t, m.as_u32(), &[]),
            Op::Notify(t, m) => (opcode::NOTIFY, t, m.as_u32(), &[]),
            Op::AtomicBegin(t) => (opcode::ATOMIC_BEGIN, t, 0, &[]),
            Op::AtomicEnd(t) => (opcode::ATOMIC_END, t, 0, &[]),
            Op::BarrierRelease(ref parties) => {
                (opcode::BARRIER, Tid::new(0), parties.len() as u32, parties)
            }
        }
    }
}

/// Builds the [`Op`] of a non-barrier event from its raw fields.
pub(crate) fn simple_op(kind: u8, tid: u32, a: u32) -> Op {
    let t = Tid::new(tid);
    match kind {
        opcode::READ => Op::Read(t, VarId::new(a)),
        opcode::WRITE => Op::Write(t, VarId::new(a)),
        opcode::ACQUIRE => Op::Acquire(t, LockId::new(a)),
        opcode::RELEASE => Op::Release(t, LockId::new(a)),
        opcode::FORK => Op::Fork(t, Tid::new(a)),
        opcode::JOIN => Op::Join(t, Tid::new(a)),
        opcode::VOLATILE_READ => Op::VolatileRead(t, VarId::new(a)),
        opcode::VOLATILE_WRITE => Op::VolatileWrite(t, VarId::new(a)),
        opcode::WAIT => Op::Wait(t, LockId::new(a)),
        opcode::NOTIFY => Op::Notify(t, LockId::new(a)),
        opcode::ATOMIC_BEGIN => Op::AtomicBegin(t),
        opcode::ATOMIC_END => Op::AtomicEnd(t),
        k => unreachable!("invalid simple kind byte {k}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_of(ops: &[Op]) -> EventBlock {
        let mut block = EventBlock::default();
        for op in ops {
            block.push_op(op);
        }
        block
    }

    fn sample_ops() -> Vec<Op> {
        let (t0, t1) = (Tid::new(0), Tid::new(1));
        vec![
            Op::Fork(t0, t1),
            Op::Write(t0, VarId::new(3)),
            Op::Read(t1, VarId::new(3)),
            Op::Acquire(t1, LockId::new(0)),
            Op::Notify(t1, LockId::new(0)),
            Op::Wait(t1, LockId::new(0)),
            Op::Release(t1, LockId::new(0)),
            Op::VolatileWrite(t0, VarId::new(1)),
            Op::VolatileRead(t1, VarId::new(1)),
            Op::AtomicBegin(t0),
            Op::AtomicEnd(t0),
            Op::BarrierRelease(vec![t0, t1]),
            Op::Join(t0, t1),
        ]
    }

    #[test]
    fn push_op_then_op_round_trips_every_variant() {
        let ops = sample_ops();
        let block = block_of(&ops);
        assert_eq!(block.len(), ops.len());
        let back: Vec<Op> = block.ops().collect();
        assert_eq!(back, ops);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_len() {
        let mut block = EventBlock::with_capacity(4);
        for op in sample_ops() {
            block.push_op(&op);
        }
        block.clear();
        assert!(block.is_empty());
        assert!(block.kinds.capacity() >= 4);
    }

    #[test]
    fn opcode_is_access_mirrors_op() {
        let ops = sample_ops();
        let block = block_of(&ops);
        for (i, op) in ops.iter().enumerate() {
            let k = block.kind(i);
            assert_eq!(opcode::is_access(k), op.is_access(), "{op}");
        }
    }

    #[test]
    fn raw_lane_accessors_expose_fields() {
        let mut block = EventBlock::default();
        block.push_op(&Op::Write(Tid::new(7), VarId::new(9)));
        block.push_op(&Op::BarrierRelease(vec![Tid::new(1), Tid::new(2)]));
        assert_eq!(block.kind(0), opcode::WRITE);
        assert_eq!(block.tid(0), Tid::new(7));
        assert_eq!(block.arg(0), 9);
        assert_eq!(block.kind(1), opcode::BARRIER);
        assert_eq!(block.barrier(block.arg(1)), &[Tid::new(1), Tid::new(2)]);
    }
}
