//! The offline path: `.ftb` bytes → `FtbReader` → `analyze_stream` →
//! `warnings_to_json`, once per tool and fixture, with the checks every
//! result must pass.

use crate::inputs::{race_vars, Fixture};
use crate::spans::{Tracer, ROOT};
use fasttrack::{
    warnings_to_json, Detector, Empty, FastTrack, FastTrackConfig, RecorderConfig, RuleCount,
    Stats, TierProfile, Warning,
};
use ft_runtime::analyze_stream;
use ft_sampler::Sampler;
use ft_trace::{EventBlock, FtbError, FtbReader, DEFAULT_BLOCK_EVENTS};
use std::hint::black_box;
use std::time::Instant;

/// The flight-recorder capacity of `ftrace report --recorder 8`.
const DIAG_RECORDER: usize = 8;

/// The detector configurations the offline path is timed with.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tool {
    FastTrack,
    Sampler,
    /// FastTrack with the flight recorder on.
    Diag,
    /// The dispatch floor.
    Empty,
}

impl Tool {
    pub fn label(self) -> &'static str {
        match self {
            Tool::FastTrack => "fasttrack",
            Tool::Sampler => "sampler",
            Tool::Diag => "diag",
            Tool::Empty => "empty",
        }
    }

    /// The span name of this tool's `on_block` calls: the layer it runs in.
    fn analyze_span(self) -> &'static str {
        match self {
            Tool::Sampler => "sampler.on_block",
            _ => "core.on_block",
        }
    }
}

/// What one analysis of one fixture produced.
pub struct Analysis {
    /// Wall time from reader construction to rendered JSON.
    pub ns: u64,
    pub events: u64,
    pub warnings: Vec<Warning>,
    pub json: String,
    pub stats: Stats,
    pub shadow_bytes: usize,
    pub tiers: TierProfile,
    pub rules: Vec<RuleCount>,
    pub admitted: u64,
}

/// Streams `bytes` through `det` the way `ftrace analyze FILE.ftb` does and
/// renders the warnings. With a tracer, the same calls are made one block
/// at a time with a span around each, instead of through `analyze_stream`.
fn stream<D: Detector>(
    bytes: &[u8],
    det: &mut D,
    tool: Tool,
    tracer: Option<(&mut Tracer, u64)>,
) -> Result<(u64, String, u64), FtbError> {
    let Some((t, id)) = tracer else {
        let start = Instant::now();
        let mut reader = FtbReader::new(bytes)?;
        let events = analyze_stream(&mut reader, det)?;
        let json = warnings_to_json(det.warnings());
        let ns = start.elapsed().as_nanos() as u64;
        return Ok((events, black_box(json), ns));
    };
    let label = tool.label();
    let start = Instant::now();
    let root = t.begin("stream", label, id, ROOT);
    let mut reader = FtbReader::new(bytes)?;
    let mut block = EventBlock::with_capacity(DEFAULT_BLOCK_EVENTS);
    let mut base = 0usize;
    loop {
        let s = t.begin("trace.read_block", label, id, root);
        let n = reader.read_block(&mut block, DEFAULT_BLOCK_EVENTS)?;
        t.end(s);
        if n == 0 {
            break;
        }
        let s = t.begin(tool.analyze_span(), label, id, root);
        det.on_block(base, &block);
        t.end(s);
        base += n;
    }
    let s = t.begin("render.warnings_to_json", label, id, root);
    let json = warnings_to_json(det.warnings());
    t.end(s);
    t.end(root);
    Ok((
        base as u64,
        black_box(json),
        start.elapsed().as_nanos() as u64,
    ))
}

/// Analyzes one fixture with `tool`.
pub fn analyze(
    tool: Tool,
    fixture: &Fixture,
    tracer: Option<(&mut Tracer, u64)>,
) -> Result<Analysis, FtbError> {
    fn finish<D: Detector>(
        det: D,
        (events, json, ns): (u64, String, u64),
        tiers: TierProfile,
        admitted: u64,
    ) -> Analysis {
        Analysis {
            ns,
            events,
            warnings: det.warnings().to_vec(),
            json,
            stats: det.stats().clone(),
            shadow_bytes: det.shadow_bytes(),
            tiers,
            rules: det.rule_breakdown(),
            admitted,
        }
    }
    let bytes = &fixture.ftb[..];
    Ok(match tool {
        Tool::FastTrack | Tool::Diag => {
            let recorder = (tool == Tool::Diag).then_some(RecorderConfig {
                capacity: DIAG_RECORDER,
            });
            let mut ft = FastTrack::with_config(FastTrackConfig {
                recorder,
                ..FastTrackConfig::default()
            });
            let out = stream(bytes, &mut ft, tool, tracer)?;
            let tiers = ft.tier_profile();
            finish(ft, out, tiers, 0)
        }
        Tool::Sampler => {
            let mut s = Sampler::new();
            let out = stream(bytes, &mut s, tool, tracer)?;
            let admitted = s.admitted();
            finish(s, out, TierProfile::default(), admitted)
        }
        Tool::Empty => {
            let mut e = Empty::new();
            let out = stream(bytes, &mut e, tool, tracer)?;
            finish(e, out, TierProfile::default(), 0)
        }
    })
}

/// Checks one analysis against the fixture's oracles; returns what failed.
pub fn check(tool: Tool, fixture: &Fixture, a: &Analysis) -> Option<String> {
    let what = |msg: &str| Some(format!("{} on {}: {msg}", tool.label(), fixture.name));
    if a.events != fixture.events {
        return what(&format!("{} events, expected {}", a.events, fixture.events));
    }
    match tool {
        Tool::FastTrack => {
            if a.json != fixture.oracle_json {
                return what("streamed warnings differ from FastTrack::run in memory");
            }
            if race_vars(&a.warnings) != fixture.djit_vars {
                return what("racy variables differ from DJIT+");
            }
            if let Some(expected) = fixture.expected_races {
                if a.warnings.len() != expected {
                    return what(&format!(
                        "{} warnings, Table 1 expects {expected}",
                        a.warnings.len()
                    ));
                }
            }
        }
        Tool::Sampler => {
            let vars = race_vars(&a.warnings);
            if !vars
                .iter()
                .all(|v| fixture.oracle_vars.binary_search(v).is_ok())
            {
                return what("sampler warned on a variable FastTrack does not");
            }
        }
        Tool::Diag => {
            // The recorder only adds event tails to each warning.
            let mut bare = a.warnings.clone();
            for w in &mut bare {
                if let Some(p) = w.provenance.as_mut() {
                    p.recent.clear();
                }
            }
            if warnings_to_json(&bare) != fixture.oracle_json {
                return what("recorder changed the warnings");
            }
        }
        Tool::Empty => {}
    }
    None
}
