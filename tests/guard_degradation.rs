//! Property tests for the ft-guard bounded-memory degradation ladder.
//!
//! The contract under test (see `docs/OPERATIONS.md`):
//!
//! * an **unlimited** budget (`mem_budget = 0`) is a strict no-op — the
//!   governed detector produces bit-identical warnings and statistics to
//!   the ungoverned one on every trace;
//! * a **finite** budget may only *lose* races, never invent them: the
//!   racy variables reported under any budget are a subset of the
//!   ungoverned detector's, and whenever the budget actually bit (peak
//!   usage above the limit) the run carries a non-empty degradation
//!   record — degradation is loud, never silent;
//! * the online monitor under injected faults (lane overflow + analysis
//!   panic) terminates and accounts for every event it did not analyze.

use std::collections::BTreeSet;

use fasttrack_suite::clock::Tid;
use fasttrack_suite::core::{Detector, FastTrack, FastTrackConfig, GuardConfig, Precision};
use fasttrack_suite::runtime::online::{FaultPlan, Monitor, MonitorConfig};
use fasttrack_suite::trace::gen::{self, GenConfig};
use fasttrack_suite::trace::{Op, Trace, VarId};

fn governed(trace: &Trace, budget: usize) -> FastTrack {
    let mut ft = FastTrack::with_config(FastTrackConfig {
        guard: Some(GuardConfig::with_budget(budget)),
        ..FastTrackConfig::default()
    });
    ft.run(trace);
    ft
}

fn ungoverned(trace: &Trace) -> FastTrack {
    let mut ft = FastTrack::new();
    ft.run(trace);
    ft
}

fn warning_vars(ft: &FastTrack) -> BTreeSet<VarId> {
    ft.warnings().iter().map(|w| w.var).collect()
}

fn racy_traces(n: u64) -> impl Iterator<Item = Trace> {
    (0..n).map(|seed| {
        gen::generate(
            &GenConfig {
                ops: 1_200,
                ..GenConfig::default().with_races(0.08)
            },
            seed,
        )
    })
}

/// Unlimited budget ⇒ the guard is pure bookkeeping: warnings and stats
/// are bit-identical to the ungoverned detector, and precision stays Full.
#[test]
fn unlimited_budget_is_bit_identical() {
    for trace in racy_traces(60) {
        let base = ungoverned(&trace);
        let gov = governed(&trace, 0);
        assert_eq!(gov.warnings(), base.warnings());
        assert_eq!(gov.stats(), base.stats());
        assert!(matches!(gov.precision(), Precision::Full));
    }
}

/// Finite budgets may miss races but never fabricate them, and a budget
/// that actually bit must leave a degradation record.
#[test]
fn finite_budget_warnings_are_a_sound_subset() {
    let mut degraded_runs = 0u64;
    for trace in racy_traces(60) {
        let base = ungoverned(&trace);
        let base_vars = warning_vars(&base);
        for budget in [4096usize, 1024, 256] {
            let gov = governed(&trace, budget);
            let gov_vars = warning_vars(&gov);
            assert!(
                gov_vars.is_subset(&base_vars),
                "budget {budget}: fabricated warnings {:?} vs {:?}",
                gov_vars,
                base_vars
            );
            let peak = gov.shadow_budget().expect("guard configured").peak();
            if peak > budget {
                // The budget bit: degradation must be recorded, loudly.
                let record = gov
                    .precision()
                    .record()
                    .cloned()
                    .expect("over-budget run must report Degraded{...}");
                assert!(
                    record.rvc_evictions > 0
                        || record.sampled_out > 0
                        || record.pool_clocks_dropped > 0,
                    "budget {budget}: empty degradation record at peak {peak}"
                );
                degraded_runs += 1;
            }
        }
    }
    assert!(
        degraded_runs > 0,
        "the sweep never actually degraded; budgets are too generous to test anything"
    );
}

/// Fault-injection smoke: a tiny overflowing lane plus an injected
/// analysis panic must neither deadlock nor lose events silently —
/// everything emitted is either analyzed, counted as dropped, or counted
/// as skipped by panic recovery.
#[test]
fn fault_smoke_accounts_for_every_event() {
    let config = MonitorConfig {
        faults: FaultPlan::parse("11:overflow@48,slow@6,panic@40").unwrap(),
        ..MonitorConfig::default()
    };
    let monitor = Monitor::buffered_with(FastTrack::new(), config);
    const EMITTED: u64 = 1_000;
    for i in 0..EMITTED {
        monitor.emit_raw(Op::Write(Tid::new(0), VarId::new((i % 7) as u32)));
    }
    let report = monitor.report();
    let skipped = report.metrics.counter("online.ops_skipped").unwrap_or(0);
    assert_eq!(
        report.stats.writes + report.dropped_events + skipped,
        EMITTED,
        "events must be analyzed, dropped (counted), or skipped (counted)"
    );
    assert!(report.dropped_events > 0, "a 48-slot lane must overflow");
}
