//! The pull (`FtbReader`) and push (`FtbDecoder`) `.ftb` decoders share one
//! record kernel; these properties pin that they also share every outcome.
//!
//! - Any chunking of the bytes and any block size, or one event at a time
//!   from either decoder, decode to the trace's own events, including wide
//!   barriers whose continuation records straddle chunk edges.
//! - A single corrupted byte anywhere gives both decoders the same Ok/Err
//!   outcome, and the same events when both accept.
//! - A barrier's member count comes from the input, so it must never size
//!   an allocation: a 44-byte stream claiming `u32::MAX` members is a
//!   truncation error for both decoders and for `ftrace serve`, whose next
//!   session still succeeds.

use fasttrack_suite::serve::{upload, Client, Daemon, ServeConfig};
use fasttrack_suite::trace::batch::opcode;
use fasttrack_suite::trace::gen::{generate, GenConfig};
use fasttrack_suite::trace::{
    EventBlock, FtbDecoder, FtbError, FtbReader, FtbWriter, Op, Prng, Trace,
};
use std::io::Read;

/// A racy generated trace over 20 threads with frequent barriers, so most
/// barriers have at least 16 members and span 8 or more continuations.
fn wide_trace(ops: usize, seed: u64) -> Trace {
    let trace = generate(
        &GenConfig {
            threads: 20,
            ops,
            p_barrier: 0.01,
            ..GenConfig::default().with_races(0.05)
        },
        seed,
    );
    let widest = trace
        .events()
        .iter()
        .filter_map(|op| match op {
            Op::BarrierRelease(members) => Some(members.len()),
            _ => None,
        })
        .max();
    assert!(widest >= Some(16), "seed {seed}: no wide barrier");
    trace
}

/// Even seeds use the counted encoding with a var_objects table, odd seeds
/// the open-ended stream a recorder writes.
fn encode(trace: &Trace, seed: u64) -> Vec<u8> {
    if seed % 2 == 0 {
        return trace.to_ftb().expect("encodable");
    }
    let mut w = FtbWriter::new(Vec::new(), trace.n_threads(), trace.n_vars(), 1).unwrap();
    for op in trace.events() {
        w.write_op(op).unwrap();
    }
    w.finish().unwrap()
}

/// A source whose every `read` returns at most `chunk` bytes.
struct Trickle<'a> {
    bytes: &'a [u8],
    chunk: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn pull(bytes: &[u8], chunk: usize, block_events: usize) -> Result<Vec<Op>, FtbError> {
    let mut reader = FtbReader::new(Trickle { bytes, chunk })?;
    let mut block = EventBlock::default();
    let mut ops = Vec::new();
    while reader.read_block(&mut block, block_events)? > 0 {
        assert!(block.len() <= block_events);
        ops.extend(block.ops());
    }
    Ok(ops)
}

/// The one-event path: `FtbReader` iterates with `FtbDecoder::next_op`.
fn next_ops(bytes: &[u8], chunk: usize) -> Result<Vec<Op>, FtbError> {
    FtbReader::new(Trickle { bytes, chunk })?.collect()
}

fn push(bytes: &[u8], chunk: usize) -> Result<Vec<Op>, FtbError> {
    let mut dec = FtbDecoder::new();
    let mut block = EventBlock::default();
    let mut ops = Vec::new();
    for piece in bytes.chunks(chunk) {
        dec.push(piece);
        dec.decode_block(&mut block)?;
        ops.extend(block.ops());
    }
    dec.finish()?;
    Ok(ops)
}

/// `FtbDecoder::push` then `FtbDecoder::next_op`, one event at a time.
fn push_next_ops(bytes: &[u8], chunk: usize) -> Result<Vec<Op>, FtbError> {
    let mut dec = FtbDecoder::new();
    let mut ops = Vec::new();
    for piece in bytes.chunks(chunk) {
        dec.push(piece);
        while let Some(op) = dec.next_op()? {
            ops.push(op);
        }
    }
    dec.finish()?;
    Ok(ops)
}

#[test]
fn both_decoders_reproduce_the_trace_at_every_chunking() {
    for seed in 0..4 {
        let trace = wide_trace(3_000, seed);
        let bytes = encode(&trace, seed);
        for chunk in [1, 3, 7, 11, 12, 13, 64, 4096, 64 << 10, bytes.len()] {
            let ctx = format!("seed {seed}, chunk {chunk}");
            assert_eq!(push(&bytes, chunk).unwrap(), trace.events(), "{ctx}: push");
            for block_events in [1, 7, 4096] {
                let pulled = pull(&bytes, chunk, block_events).unwrap();
                assert_eq!(pulled, trace.events(), "{ctx}, block {block_events}: pull");
            }
            assert_eq!(
                next_ops(&bytes, chunk).unwrap(),
                trace.events(),
                "{ctx}: next_op"
            );
            assert_eq!(
                push_next_ops(&bytes, chunk).unwrap(),
                trace.events(),
                "{ctx}: push, next_op"
            );
        }
    }
}

#[test]
fn a_corrupted_byte_gets_the_same_verdict_from_both_decoders() {
    let mut rng = Prng::seed_from_u64(12);
    for seed in [2, 3] {
        let trace = wide_trace(250, seed);
        let good = encode(&trace, seed);
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= (rng.next_u64() as u8).max(1);
            let pushed = push(&bad, 61);
            let ctx = format!("seed {seed}, byte {at} = {:#04x}", bad[at]);
            for other in [
                pull(&bad, 53, 16),
                next_ops(&bad, 64),
                push_next_ops(&bad, 29),
            ] {
                match (&pushed, other) {
                    (Ok(a), Ok(b)) => assert_eq!(a, &b, "{ctx}"),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("{ctx}: push {:?}, other {:?}", a.is_ok(), b.is_ok()),
                }
            }
        }
    }
}

/// The header, then one `BARRIER` record claiming `u32::MAX` members and
/// no continuation records.
fn barrier_count_bomb() -> Vec<u8> {
    let mut bytes = FtbWriter::new(Vec::new(), 1, 0, 0)
        .unwrap()
        .finish()
        .unwrap();
    bytes.extend_from_slice(&[opcode::BARRIER, 0, 0, 0]);
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0; 4]);
    assert_eq!(bytes.len(), 44);
    bytes
}

#[test]
fn a_forged_barrier_count_is_a_truncation_error_not_an_allocation() {
    let bomb = barrier_count_bomb();

    let mut reader = FtbReader::new(&bomb[..]).expect("valid header");
    let mut block = EventBlock::default();
    let err = reader.read_block(&mut block, 4096).unwrap_err();
    assert!(matches!(err, FtbError::Format(_)), "{err}");

    let mut dec = FtbDecoder::new();
    dec.push(&bomb);
    assert_eq!(dec.decode_block(&mut block).unwrap(), 0);
    assert!(matches!(dec.finish(), Err(FtbError::Format(_))));

    let daemon = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    })
    .expect("bind daemon");
    let addr = daemon.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.open("tenant-bomb").unwrap();
    let err = client
        .send_chunk(&bomb)
        .and_then(|_| client.close_session())
        .unwrap_err();
    assert!(err.contains("server error"), "{err}");

    let trace = wide_trace(400, 4);
    let report = upload(&addr, "tenant-next", &trace.to_ftb().unwrap(), 512).unwrap();
    assert_eq!(report.events, trace.len() as u64);
    daemon.stop();
    daemon.join();
}
