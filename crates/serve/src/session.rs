//! The per-session analysis worker: one detector instance per upload
//! (FastTrack by default, the `ft-sampler` tier on request), fully isolated
//! shadow state, budget share re-read between batches.
//!
//! Isolation is structural, not locked-around: every session owns its own
//! [`FastTrack`] (threads, variables, locks, warnings), so two tenants'
//! traces can never observe each other's happens-before state — the
//! integration tests pin this down by demanding bit-identical warning JSON
//! between interleaved service sessions and sequential local runs.
//!
//! The worker hands each [`ft_trace::EventBlock`] it pops from the
//! session's [`Lane`] straight to `on_block`, and before each block
//! re-reads its [`SessionTicket::share`] — the registry rewrites that
//! atomic on every session open/close, so a neighbour arriving mid-upload
//! shrinks this session's guard budget on the next batch boundary and
//! departing neighbours return it.

use crate::lane::Lane;
use crate::registry::SessionTicket;
use fasttrack::{Detector, FastTrack, FastTrackConfig, GuardConfig, Precision, RuleCount, Warning};
use ft_obs::JsonWriter;
use ft_sampler::{Sampler, SamplerConfig};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Which detector a session runs, chosen per-session by the client in the
/// OPEN frame (`tenant mode=sampler`). The default is full FastTrack; the
/// sampler is the cheap always-on tier whose warnings escalate to a
/// FastTrack re-run (see `docs/DETECTORS.md`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum SessionMode {
    /// Full-precision FastTrack (the pre-PR-9 behaviour).
    #[default]
    FastTrack,
    /// The O(1)-samples tier: bounded shadow state per variable, sound but
    /// incomplete warnings, near-EMPTY cost.
    Sampler,
}

impl SessionMode {
    /// Parses the OPEN frame's `mode=` token.
    pub fn parse(s: &str) -> Result<SessionMode, String> {
        match s.to_ascii_lowercase().as_str() {
            "fasttrack" => Ok(SessionMode::FastTrack),
            "sampler" => Ok(SessionMode::Sampler),
            other => Err(format!(
                "unknown mode {other:?} (expected sampler or fasttrack)"
            )),
        }
    }

    /// The report's `tool` label for this mode.
    pub fn tool_label(self) -> &'static str {
        match self {
            SessionMode::FastTrack => "FASTTRACK",
            SessionMode::Sampler => "SAMPLER",
        }
    }
}

/// Everything a finished session reports back: the daemon turns this into
/// the `REPORT` frame and the registry folds it into server metrics.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// The session's race warnings (isolated: only this tenant's trace).
    pub warnings: Vec<Warning>,
    /// Events analyzed (after any lane shedding).
    pub events: u64,
    /// Data accesses shed by the lane's `DropOldest` policy.
    pub dropped_events: u64,
    /// High-water shadow-state footprint in bytes. Guard-accounted when
    /// budgeted; the final walked footprint otherwise.
    pub peak_shadow_bytes: usize,
    /// The ft-guard precision verdict for this session.
    pub precision: Precision,
    /// Wall time from `CLOSE` to a rendered report.
    pub report_ns: u64,
    /// The rendered `ftrace.serve.report/1` JSON document.
    pub report_json: String,
}

/// The mode-selected detector a session worker drives.
enum SessionTool {
    FastTrack(FastTrack),
    Sampler(Sampler),
}

impl SessionTool {
    fn as_detector(&self) -> &dyn Detector {
        match self {
            SessionTool::FastTrack(t) => t,
            SessionTool::Sampler(t) => t,
        }
    }

    /// Re-targets the guard budget. The sampler has no guard — its shadow
    /// state is bounded by construction (budget × 8 bytes per variable), so
    /// a changing share is a no-op there.
    fn set_mem_budget(&mut self, bytes: usize) {
        if let SessionTool::FastTrack(t) = self {
            t.set_mem_budget(bytes);
        }
    }

    /// High-water shadow footprint: guard-accounted when budgeted, walked
    /// otherwise.
    fn peak_shadow_bytes(&self) -> usize {
        match self {
            SessionTool::FastTrack(t) => t
                .shadow_budget()
                .map_or_else(|| t.shadow_bytes(), |b| b.peak()),
            SessionTool::Sampler(t) => t.shadow_bytes(),
        }
    }
}

/// The analysis state a worker thread hands back when its lane drains.
struct Analysis {
    tool: SessionTool,
    events: u64,
}

/// A running session worker; join it with [`Worker::finish`].
pub struct Worker {
    ticket: SessionTicket,
    lane: Arc<Lane>,
    mode: SessionMode,
    handle: JoinHandle<Analysis>,
}

impl Worker {
    /// Spawns the analysis thread for one session. The guard is installed
    /// only when the ticket carries a non-zero share (a zero share means
    /// the daemon runs unbudgeted).
    pub fn spawn(
        ticket: SessionTicket,
        lane: Arc<Lane>,
        report_all: bool,
        mode: SessionMode,
    ) -> Worker {
        let share = Arc::clone(&ticket.share);
        let worker_lane = Arc::clone(&lane);
        let handle = std::thread::Builder::new()
            .name(format!("ft-serve-s{}", ticket.id))
            .spawn(move || {
                let initial = share.load(Ordering::Relaxed);
                let mut tool = match mode {
                    SessionMode::FastTrack => {
                        SessionTool::FastTrack(FastTrack::with_config(FastTrackConfig {
                            report_all,
                            guard: (initial > 0).then(|| GuardConfig::with_budget(initial)),
                            ..FastTrackConfig::default()
                        }))
                    }
                    SessionMode::Sampler => SessionTool::Sampler(Sampler::with_config(
                        SamplerConfig::default().with_report_all(report_all),
                    )),
                };
                let mut events = 0u64;
                while let Some(block) = worker_lane.pop() {
                    // A neighbour may have opened or closed since the last
                    // batch: re-target the guard to the current share.
                    tool.set_mem_budget(share.load(Ordering::Relaxed));
                    match &mut tool {
                        SessionTool::FastTrack(t) => t.on_block(events as usize, &block),
                        SessionTool::Sampler(t) => t.on_block(events as usize, &block),
                    }
                    events += block.len() as u64;
                }
                Analysis { tool, events }
            })
            .expect("spawn session worker");
        Worker {
            ticket,
            lane,
            mode,
            handle,
        }
    }

    /// The detector mode this session runs under.
    pub fn mode(&self) -> SessionMode {
        self.mode
    }

    /// The session's lane (the socket thread pushes decoded batches here).
    pub fn lane(&self) -> &Arc<Lane> {
        &self.lane
    }

    /// The ticket this worker analyzes under.
    pub fn ticket(&self) -> &SessionTicket {
        &self.ticket
    }

    /// Closes the lane, joins the analysis, and renders the report.
    pub fn finish(self) -> SessionOutcome {
        let start = Instant::now();
        self.lane.close();
        let analysis = self.handle.join().expect("session worker panicked");
        let dropped = self.lane.dropped();
        let peak = analysis.tool.peak_shadow_bytes();
        let tool = analysis.tool.as_detector();
        let mut outcome = SessionOutcome {
            warnings: tool.warnings().to_vec(),
            events: analysis.events,
            dropped_events: dropped,
            peak_shadow_bytes: peak,
            precision: tool.precision(),
            report_ns: 0,
            report_json: String::new(),
        };
        outcome.report_json = render_report(
            &self.ticket,
            self.mode,
            &outcome,
            &tool.rule_breakdown(),
            &tool.metrics(),
        );
        outcome.report_ns = start.elapsed().as_nanos() as u64;
        outcome
    }

    /// Abandons the session without a report (client vanished or the
    /// upload was malformed): closes the lane and joins the worker so the
    /// shadow state is dropped before the registry re-apportions.
    pub fn abandon(self) {
        self.lane.close();
        let _ = self.handle.join();
    }
}

/// Renders the `ftrace.serve.report/1` document. Warnings use the same
/// canonical renderer as the CLI bundle ([`Warning::write_json`]), so a
/// service report and a local run of the same trace are byte-comparable.
fn render_report(
    ticket: &SessionTicket,
    mode: SessionMode,
    outcome: &SessionOutcome,
    rules: &[RuleCount],
    metrics: &ft_obs::Snapshot,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "ftrace.serve.report/1");
    w.field_u64("session", ticket.id);
    w.field_str("tenant", &ticket.tenant);
    w.field_str("tool", mode.tool_label());
    w.field_u64("events", outcome.events);
    w.field_u64("dropped_events", outcome.dropped_events);
    w.field_u64(
        "budget_share_bytes",
        ticket.share.load(Ordering::Relaxed) as u64,
    );
    w.field_u64("peak_shadow_bytes", outcome.peak_shadow_bytes as u64);
    w.field_str("precision", &outcome.precision.to_string());
    w.key("warnings");
    w.begin_array();
    for warning in &outcome.warnings {
        warning.write_json(&mut w);
    }
    w.end_array();
    w.key("rule_breakdown");
    w.begin_array();
    for r in rules {
        w.begin_object();
        w.field_str("rule", r.rule);
        w.field_u64("hits", r.hits);
        w.field_f64("percent", r.percent);
        w.end_object();
    }
    w.end_array();
    w.key("metrics");
    metrics.write_json(&mut w);
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::tests::block_of;
    use crate::lane::Lane;
    use ft_runtime::online::OverflowPolicy;
    use ft_trace::gen::{generate, GenConfig};
    use ft_trace::Trace;

    fn racy_trace(ops: usize, seed: u64) -> Trace {
        generate(
            &GenConfig {
                ops,
                ..GenConfig::default().with_races(0.08)
            },
            seed,
        )
    }

    fn ticket(share: usize) -> SessionTicket {
        SessionTicket {
            id: 7,
            tenant: "t".into(),
            share: Arc::new(std::sync::atomic::AtomicUsize::new(share)),
        }
    }

    fn run_service(trace: &Trace, chunk: usize) -> SessionOutcome {
        let lane = Arc::new(Lane::new(1 << 16, OverflowPolicy::Block));
        let worker = Worker::spawn(ticket(0), Arc::clone(&lane), false, SessionMode::FastTrack);
        for batch in trace.events().chunks(chunk) {
            lane.push(block_of(batch));
        }
        worker.finish()
    }

    #[test]
    fn worker_matches_a_local_run_exactly() {
        let trace = racy_trace(1_500, 11);
        let mut local = FastTrack::new();
        local.run(&trace);
        for chunk in [1, 7, 64, 10_000] {
            let outcome = run_service(&trace, chunk);
            assert_eq!(outcome.events, trace.len() as u64);
            assert_eq!(outcome.dropped_events, 0);
            assert_eq!(
                fasttrack::warnings_to_json(&outcome.warnings),
                fasttrack::warnings_to_json(local.warnings()),
                "chunk {chunk}"
            );
        }
    }

    #[test]
    fn report_json_carries_the_session_identity() {
        let trace = racy_trace(300, 3);
        let outcome = run_service(&trace, 32);
        let doc = ft_trace::json::parse(&outcome.report_json).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("ftrace.serve.report/1")
        );
        assert_eq!(doc.get("session").and_then(|v| v.as_u32()), Some(7));
        assert_eq!(doc.get("tenant").and_then(|v| v.as_str()), Some("t"));
        let warnings = doc.get("warnings").and_then(|v| v.as_array()).unwrap();
        assert_eq!(warnings.len(), outcome.warnings.len());
    }

    #[test]
    fn sampler_mode_warnings_are_a_subset_of_fasttrack() {
        let trace = racy_trace(4_000, 21);
        let mut full = FastTrack::new();
        full.run(&trace);
        let mut ft_vars: Vec<u32> = full.warnings().iter().map(|w| w.var.as_u32()).collect();
        ft_vars.sort_unstable();

        let lane = Arc::new(Lane::new(1 << 16, OverflowPolicy::Block));
        let worker = Worker::spawn(ticket(0), Arc::clone(&lane), false, SessionMode::Sampler);
        lane.push(block_of(trace.events()));
        let outcome = worker.finish();
        for w in &outcome.warnings {
            assert!(
                ft_vars.binary_search(&w.var.as_u32()).is_ok(),
                "sampler fabricated a race on {}",
                w.var
            );
        }
        let doc = ft_trace::json::parse(&outcome.report_json).expect("valid JSON");
        assert_eq!(doc.get("tool").and_then(|v| v.as_str()), Some("SAMPLER"));
    }

    #[test]
    fn mode_parsing_accepts_both_tiers() {
        assert_eq!(SessionMode::parse("sampler"), Ok(SessionMode::Sampler));
        assert_eq!(SessionMode::parse("FastTrack"), Ok(SessionMode::FastTrack));
        assert!(SessionMode::parse("turbo").is_err());
    }

    #[test]
    fn budgeted_worker_reports_degradation_and_peak() {
        let trace = racy_trace(2_000, 5);
        let outcome = {
            let lane = Arc::new(Lane::new(1 << 16, OverflowPolicy::Block));
            let worker = Worker::spawn(ticket(1), Arc::clone(&lane), false, SessionMode::FastTrack);
            lane.push(block_of(trace.events()));
            worker.finish()
        };
        assert!(outcome.peak_shadow_bytes > 0);
        assert!(
            outcome.precision.is_degraded(),
            "a 1-byte budget must engage the ladder"
        );
    }
}
