//! Streaming analysis of `.ftb` traces.
//!
//! [`analyze_stream`] decodes a `.ftb` record stream in blocks of
//! [`DEFAULT_BLOCK_EVENTS`] into a reused [`EventBlock`] and hands each
//! block to the detector's fused [`Detector::on_block`] entry point. The
//! trace is never materialized as a `Vec<Op>`, so memory stays
//! `O(shadow state + one block)` regardless of trace length, and per-event
//! virtual dispatch is replaced by one `on_block` call per ~4K events.

use fasttrack::Detector;
use ft_trace::{EventBlock, FtbError, FtbReader, DEFAULT_BLOCK_EVENTS};
use std::io::Read;

/// Replays every event of a `.ftb` stream through `detector`, block at a
/// time. Returns the number of events analyzed.
///
/// On a well-formed stream this is observably identical to decoding the
/// whole trace and calling [`Detector::run`] — same warnings, same
/// statistics, same rule breakdown (the `stream_agreement` integration
/// tests pin this). A malformed or truncated stream returns the decode
/// error; events of blocks decoded before the error have already been
/// applied to the detector.
pub fn analyze_stream<R: Read, D: Detector + ?Sized>(
    reader: &mut FtbReader<R>,
    detector: &mut D,
) -> Result<u64, FtbError> {
    let mut block = EventBlock::with_capacity(DEFAULT_BLOCK_EVENTS);
    let mut base = 0usize;
    loop {
        let n = reader.read_block(&mut block, DEFAULT_BLOCK_EVENTS)?;
        if n == 0 {
            return Ok(base as u64);
        }
        detector.on_block(base, &block);
        base += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasttrack::FastTrack;
    use ft_trace::gen::{self, GenConfig};

    #[test]
    fn stream_analysis_matches_in_memory_run() {
        for seed in 0..8 {
            let trace = gen::generate(&GenConfig::default().with_races(0.04), seed);
            let mut seq = FastTrack::new();
            seq.run(&trace);

            let bytes = trace.to_ftb().unwrap();
            let mut reader = FtbReader::new(&bytes[..]).unwrap();
            let mut streamed = FastTrack::new();
            let n = analyze_stream(&mut reader, &mut streamed).unwrap();

            assert_eq!(n, trace.len() as u64, "seed {seed}");
            assert_eq!(streamed.warnings(), seq.warnings(), "seed {seed}");
            assert_eq!(streamed.stats(), seq.stats(), "seed {seed}");
            assert_eq!(streamed.rule_breakdown(), seq.rule_breakdown());
        }
    }

    #[test]
    fn boxed_detectors_stream_through_the_fused_path() {
        let trace = gen::chaotic(4, 12, 2, 2000, 17);
        let bytes = trace.to_ftb().unwrap();
        let mut reader = FtbReader::new(&bytes[..]).unwrap();
        let mut boxed: Box<dyn Detector> = Box::new(FastTrack::new());
        let n = analyze_stream(&mut reader, &mut *boxed).unwrap();
        assert_eq!(n, trace.len() as u64);

        let mut seq = FastTrack::new();
        seq.run(&trace);
        assert_eq!(boxed.warnings(), seq.warnings());
        assert_eq!(boxed.stats(), seq.stats());
    }

    #[test]
    fn truncated_stream_reports_the_decode_error() {
        let trace = gen::generate(&GenConfig::default(), 3);
        let mut bytes = trace.to_ftb().unwrap();
        bytes.truncate(bytes.len() - 1);
        let mut reader = FtbReader::new(&bytes[..]).unwrap();
        let mut ft = FastTrack::new();
        assert!(analyze_stream(&mut reader, &mut ft).is_err());
    }
}
