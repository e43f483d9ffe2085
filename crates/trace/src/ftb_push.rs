//! Incremental decoding of `.ftb` byte streams: the one `.ftb` decoder.
//!
//! [`FtbReader`](crate::FtbReader) pulls from a blocking [`std::io::Read`],
//! which fits files and pipes. A network daemon receives the same stream as
//! *framed chunks* that arrive whenever the peer flushes — record
//! boundaries land anywhere, including mid-header and mid-barrier — and the
//! receiving thread must never block on "the rest of the record". The
//! [`FtbDecoder`] inverts control for that caller: bytes are pushed in as
//! they arrive, decoded events are drained out, and an empty drain simply
//! means *need more bytes*, never end-of-stream. The pull reader is a thin
//! loop that refills this decoder from its source, so header parsing,
//! record and barrier validation, and end-of-stream checks exist once.
//!
//! Records decode in bulk. [`FtbDecoder::decode_block`] scans the buffered
//! records for the first opcode at or above [`opcode::BARRIER`] and appends
//! everything before it to the [`EventBlock`] lanes with one `extend` per
//! lane. Barriers, continuation records and invalid opcodes take one slow
//! path, a record at a time.
//!
//! ```
//! use ft_trace::{EventBlock, FtbDecoder, TraceBuilder, VarId};
//! use ft_clock::Tid;
//!
//! let mut b = TraceBuilder::with_threads(2);
//! b.write(Tid::new(0), VarId::new(0)).unwrap();
//! b.write(Tid::new(1), VarId::new(0)).unwrap();
//! let bytes = b.finish().to_ftb().unwrap();
//!
//! let mut dec = FtbDecoder::new();
//! let mut block = EventBlock::default();
//! let mut events = 0;
//! for chunk in bytes.chunks(5) {
//!     dec.push(chunk);
//!     events += dec.decode_block(&mut block).unwrap();
//! }
//! assert_eq!(events, 2);
//! assert!(dec.finish().is_ok());
//! ```

use crate::batch::{opcode, simple_op, EventBlock, DEFAULT_BLOCK_EVENTS};
use crate::event::{ObjId, Op};
use crate::ftb::{
    format_err, FtbError, FtbHeader, FLAG_VAR_OBJECTS, FTB_HEADER_BYTES, FTB_MAGIC,
    FTB_RECORD_BYTES, FTB_VERSION, N_RECORDS_STREAM,
};
use ft_clock::Tid;
use std::io::{self, Read};

/// Bytes [`FtbDecoder::fill_from`] asks of a reader per refill: one
/// default block of records, about 48 KiB.
const READ_CHUNK: usize = DEFAULT_BLOCK_EVENTS * FTB_RECORD_BYTES;

/// Where the decoder is in the stream grammar.
#[derive(Debug)]
enum Phase {
    /// Waiting for the 32-byte fixed header.
    Header,
    /// Waiting for the `n_vars × 4` byte var_objects table.
    VarObjects { n_vars: usize },
    /// Steady state: 12-byte records.
    Records,
}

/// One decoded record: a simple event's raw fields, a barrier whose last
/// member arrived, or a barrier still collecting continuation records.
enum Rec {
    Simple(u8, u32, u32),
    Barrier(Vec<Tid>),
    Pending,
}

/// Incremental push-parser for `.ftb` bytes ([`FtbReader`](crate::FtbReader)
/// is the pull-style wrapper around it).
///
/// Feed arbitrary chunks with [`FtbDecoder::push`], drain with
/// [`FtbDecoder::decode_block`] (or one event at a time with
/// [`FtbDecoder::next_op`]), and call [`FtbDecoder::finish`] once the peer
/// signals end-of-upload to catch truncated trailing records.
#[derive(Debug)]
pub struct FtbDecoder {
    /// Bytes `pos..end` are pushed but not yet decoded. The rest of `buf`
    /// is initialized spare room, so refills never re-zero it, and the
    /// undecoded tail moves to the front before each refill, so buffered
    /// memory stays proportional to one burst, not the stream.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    phase: Phase,
    header: Option<FtbHeader>,
    var_objects: Vec<ObjId>,
    /// Barrier members accumulated so far and the count expected. The
    /// count comes from the input, so it never sizes an allocation: the
    /// list grows as continuation records arrive.
    barrier: Option<(Vec<Tid>, usize)>,
    /// Records left per the header, `None` for open-ended streams.
    remaining: Option<u64>,
}

impl Default for FtbDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FtbDecoder {
    /// A decoder positioned before the stream header.
    pub fn new() -> Self {
        FtbDecoder {
            buf: Vec::new(),
            pos: 0,
            end: 0,
            phase: Phase::Header,
            header: None,
            var_objects: Vec::new(),
            barrier: None,
            remaining: None,
        }
    }

    /// Appends newly arrived bytes. Cheap; decoding happens in
    /// [`FtbDecoder::decode_block`] and [`FtbDecoder::next_op`].
    pub fn push(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Reads once from `input` straight into the buffer; `Ok(0)` at end of
    /// input.
    pub(crate) fn fill_from<R: Read>(&mut self, input: &mut R) -> io::Result<usize> {
        self.reserve(READ_CHUNK);
        loop {
            match input.read(&mut self.buf[self.end..self.end + READ_CHUNK]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Moves the undecoded tail to the front and makes room for `n` more
    /// bytes after it.
    fn reserve(&mut self, n: usize) {
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.buf.len() < self.end + n {
            self.buf.resize(self.end + n, 0);
        }
    }

    /// The stream header, once its 32 bytes (and var_objects table) have
    /// been pushed and decoded.
    pub fn header(&self) -> Option<&FtbHeader> {
        self.header.as_ref()
    }

    /// The per-variable owning-object table (empty when the stream carries
    /// none or the table has not fully arrived yet).
    pub fn var_objects(&self) -> &[ObjId] {
        &self.var_objects
    }

    fn take(&mut self, n: usize) -> Option<&[u8]> {
        if self.end - self.pos < n {
            return None;
        }
        let at = self.pos;
        self.pos += n;
        Some(&self.buf[at..at + n])
    }

    /// Decodes the header and var_objects table as their bytes arrive;
    /// `Ok(true)` once positioned at the first record.
    pub(crate) fn preamble(&mut self) -> Result<bool, FtbError> {
        loop {
            match self.phase {
                Phase::Records => return Ok(true),
                Phase::Header => {
                    let Some(bytes) = self.take(FTB_HEADER_BYTES) else {
                        return Ok(false);
                    };
                    let header: [u8; FTB_HEADER_BYTES] =
                        bytes.try_into().expect("exact header length");
                    if header[0..4] != FTB_MAGIC {
                        return Err(format_err("bad magic (not a .ftb stream)"));
                    }
                    let word =
                        |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4"));
                    let version = word(4);
                    if version != FTB_VERSION {
                        return Err(format_err(format!(
                            "unsupported version {version} (this build reads {FTB_VERSION})"
                        )));
                    }
                    let (n_threads, n_vars, n_locks, flags) =
                        (word(8), word(12), word(16), word(20));
                    if flags & !FLAG_VAR_OBJECTS != 0 {
                        return Err(format_err(format!("unknown flag bits {flags:#x}")));
                    }
                    let n_records = u64::from_le_bytes(header[24..32].try_into().expect("8"));
                    let n_records = (n_records != N_RECORDS_STREAM).then_some(n_records);
                    self.header = Some(FtbHeader {
                        version,
                        n_threads,
                        n_vars,
                        n_locks,
                        n_records,
                    });
                    self.remaining = n_records;
                    self.phase = if flags & FLAG_VAR_OBJECTS != 0 {
                        Phase::VarObjects {
                            n_vars: n_vars as usize,
                        }
                    } else {
                        Phase::Records
                    };
                }
                Phase::VarObjects { n_vars } => {
                    let Some(bytes) = self.take(n_vars * 4) else {
                        return Ok(false);
                    };
                    self.var_objects = bytes
                        .chunks_exact(4)
                        .map(|c| ObjId::new(u32::from_le_bytes(c.try_into().expect("4"))))
                        .collect();
                    self.phase = Phase::Records;
                }
            }
        }
    }

    /// Clears `block` and decodes every complete event buffered so far into
    /// it. Returns the number of events decoded; zero means more bytes are
    /// needed. On error the block keeps the events decoded before the bad
    /// record.
    ///
    /// A count-carrying stream stops at its declared count; any byte after
    /// it is an error ("trailing bytes after the declared record count").
    pub fn decode_block(&mut self, block: &mut EventBlock) -> Result<usize, FtbError> {
        block.clear();
        self.decode_into(block, usize::MAX)?;
        Ok(block.len())
    }

    /// Decodes the next event, `Ok(None)` when more bytes are needed. This
    /// is the one-record step of [`FtbDecoder::decode_block`].
    pub fn next_op(&mut self) -> Result<Option<Op>, FtbError> {
        // The phase test is inlined because this runs once per event.
        if !matches!(self.phase, Phase::Records) && !self.preamble()? {
            return Ok(None);
        }
        while self.available()? > 0 {
            let op = match self.record()? {
                Rec::Simple(kind, tid, arg) => simple_op(kind, tid, arg),
                Rec::Barrier(members) => Op::BarrierRelease(members),
                Rec::Pending => continue,
            };
            return Ok(Some(op));
        }
        Ok(None)
    }

    /// Appends decoded events to `block` until it holds `max_events` or
    /// the buffered bytes hold no complete event.
    pub(crate) fn decode_into(
        &mut self,
        block: &mut EventBlock,
        max_events: usize,
    ) -> Result<(), FtbError> {
        if !self.preamble()? {
            return Ok(());
        }
        while block.len() < max_events {
            let avail = self.available()?;
            if avail == 0 {
                return Ok(());
            }
            if self.barrier.is_none() {
                // Fast path: every record before the first barrier or
                // invalid opcode is a simple event.
                let run = avail.min(max_events - block.len());
                let records = &self.buf[self.pos..self.pos + run * FTB_RECORD_BYTES];
                let simple = records
                    .chunks_exact(FTB_RECORD_BYTES)
                    .position(|r| r[0] >= opcode::BARRIER)
                    .unwrap_or(run);
                block.extend_records(&records[..simple * FTB_RECORD_BYTES]);
                self.consume(simple);
                if simple == run {
                    continue;
                }
            }
            match self.record()? {
                Rec::Simple(kind, tid, arg) => block.push_simple(kind, tid, arg),
                Rec::Barrier(members) => block.push_barrier(members),
                Rec::Pending => {}
            }
        }
        Ok(())
    }

    /// Whole records decodable now. Past the declared record count any
    /// buffered byte is an error.
    fn available(&self) -> Result<usize, FtbError> {
        let buffered = ((self.end - self.pos) / FTB_RECORD_BYTES) as u64;
        let avail = self.remaining.map_or(buffered, |left| left.min(buffered));
        if self.remaining == Some(0) && self.pos < self.end {
            return Err(format_err("trailing bytes after the declared record count"));
        }
        Ok(avail as usize)
    }

    fn consume(&mut self, records: usize) {
        self.pos += records * FTB_RECORD_BYTES;
        if let Some(left) = self.remaining.as_mut() {
            *left -= records as u64;
        }
    }

    /// Consumes and decodes the next record, which `available` showed is
    /// buffered: the slow path for barriers, continuations and invalid
    /// opcodes, and the one-record step of `next_op`.
    #[inline]
    fn record(&mut self) -> Result<Rec, FtbError> {
        let rec: [u8; FTB_RECORD_BYTES] = self.buf[self.pos..self.pos + FTB_RECORD_BYTES]
            .try_into()
            .expect("exact record");
        self.consume(1);
        let kind = rec[0];
        let word = |at: usize| u32::from_le_bytes(rec[at..at + 4].try_into().expect("4"));
        let Some((members, expected)) = self.barrier.as_mut() else {
            return match kind {
                k if k < opcode::BARRIER => Ok(Rec::Simple(
                    k,
                    u16::from_le_bytes([rec[2], rec[3]]) as u32,
                    word(4),
                )),
                opcode::BARRIER if word(4) == 0 => Ok(Rec::Barrier(Vec::new())),
                opcode::BARRIER => {
                    self.barrier = Some((Vec::new(), word(4) as usize));
                    Ok(Rec::Pending)
                }
                opcode::BARRIER_CONT => Err(format_err("orphan barrier continuation record")),
                k => Err(format_err(format!("unknown opcode {k}"))),
            };
        };
        if kind != opcode::BARRIER_CONT {
            return Err(format_err(format!(
                "expected barrier continuation, found opcode {kind}"
            )));
        }
        let in_rec = rec[1] as usize;
        if in_rec == 0 || in_rec > 2 || members.len() + in_rec > *expected {
            return Err(format_err("barrier continuation member count out of range"));
        }
        members.push(Tid::new(word(4)));
        if in_rec == 2 {
            members.push(Tid::new(word(8)));
        }
        if members.len() < *expected {
            return Ok(Rec::Pending);
        }
        let (members, _) = self.barrier.take().expect("in-progress barrier");
        Ok(Rec::Barrier(members))
    }

    /// Validates end-of-upload: every pushed byte must have been consumed by
    /// a complete event. Mid-header, mid-record, mid-barrier, or short of a
    /// declared record count is a truncation error; surplus bytes after a
    /// declared count are trailing garbage.
    pub fn finish(&self) -> Result<(), FtbError> {
        match self.phase {
            Phase::Header if self.end == 0 => {
                return Err(format_err("empty stream (no .ftb header)"))
            }
            Phase::Header | Phase::VarObjects { .. } => return Err(format_err("truncated header")),
            Phase::Records => {}
        }
        if self.end != self.pos {
            return Err(if self.remaining == Some(0) {
                format_err("trailing bytes after the declared record count")
            } else {
                format_err("truncated record")
            });
        }
        if self.barrier.is_some() {
            return Err(format_err("barrier truncated mid-member-list"));
        }
        match self.remaining {
            Some(left) if left > 0 => Err(format_err(format!(
                "stream ended {left} record(s) short of the declared count"
            ))),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::VarId;
    use crate::trace::validate;

    fn sample_bytes() -> Vec<u8> {
        let tids: Vec<Tid> = (0..5).map(Tid::new).collect();
        let mut events = Vec::new();
        for u in 1..5 {
            events.push(Op::Fork(Tid::new(0), Tid::new(u)));
        }
        events.push(Op::Write(Tid::new(1), VarId::new(0)));
        events.push(Op::BarrierRelease(tids));
        events.push(Op::Read(Tid::new(2), VarId::new(0)));
        validate(&events).unwrap().to_ftb().unwrap()
    }

    fn drain(dec: &mut FtbDecoder) -> Vec<Op> {
        let mut ops = Vec::new();
        while let Some(op) = dec.next_op().unwrap() {
            ops.push(op);
        }
        ops
    }

    #[test]
    fn header_and_var_objects_surface_after_decode() {
        let bytes = sample_bytes();
        let mut dec = FtbDecoder::new();
        dec.push(&bytes[..16]);
        assert!(dec.next_op().unwrap().is_none());
        assert!(dec.header().is_none());
        dec.push(&bytes[16..]);
        let ops = drain(&mut dec);
        assert_eq!(ops.len(), 7);
        let h = dec.header().unwrap();
        assert_eq!(h.n_threads, 5);
        assert_eq!(dec.var_objects().len(), h.n_vars as usize);
        dec.finish().unwrap();
    }

    #[test]
    fn barriers_split_across_pushes_reassemble() {
        let bytes = sample_bytes();
        for split in 0..bytes.len() {
            let mut dec = FtbDecoder::new();
            dec.push(&bytes[..split]);
            let mut ops = drain(&mut dec);
            dec.push(&bytes[split..]);
            ops.extend(drain(&mut dec));
            assert_eq!(ops.len(), 7, "split at {split}");
            dec.finish().unwrap();
        }
    }

    #[test]
    fn truncations_fail_finish_not_next_op() {
        let bytes = sample_bytes();
        for cut in [1, 16, 33, bytes.len() - 5, bytes.len() - 1] {
            let mut dec = FtbDecoder::new();
            dec.push(&bytes[..cut]);
            while let Ok(Some(_)) = dec.next_op() {}
            assert!(dec.finish().is_err(), "cut at {cut} should not finish");
        }
    }

    #[test]
    fn corrupt_bytes_error_eagerly() {
        let mut bad = sample_bytes();
        bad[0] = b'X';
        let mut dec = FtbDecoder::new();
        dec.push(&bad);
        assert!(matches!(dec.next_op(), Err(FtbError::Format(_))));

        let mut dec = FtbDecoder::new();
        let good = sample_bytes();
        let first_record = {
            let n_vars = u32::from_le_bytes(good[12..16].try_into().unwrap()) as usize;
            FTB_HEADER_BYTES + n_vars * 4
        };
        let mut bad = good;
        bad[first_record] = 200;
        dec.push(&bad);
        assert!(dec.next_op().is_err());
    }

    #[test]
    fn declared_count_stops_decoding_and_flags_trailing_garbage() {
        let mut bytes = sample_bytes();
        bytes.extend_from_slice(&[0u8; 12]);
        let mut dec = FtbDecoder::new();
        dec.push(&bytes);
        let mut block = EventBlock::default();
        assert!(dec.decode_block(&mut block).is_err(), "trailing bytes");
        assert_eq!(block.len(), 7, "declared count must bound decoding");
        assert!(dec.finish().is_err(), "trailing bytes must fail finish");
    }

    #[test]
    fn empty_upload_is_an_error() {
        let dec = FtbDecoder::new();
        assert!(dec.finish().is_err());
    }
}
