//! End-to-end checks of the ft-obs observability wiring: detector metrics
//! snapshots, pipeline per-stage instrumentation, online-monitor overhead
//! reporting, and the JSON snapshot format round-tripping through the
//! workspace's own JSON parser.

use fasttrack_suite::core::{Detector, Empty, FastTrack};
use fasttrack_suite::obs::{JsonlSink, MetricsRegistry};
use fasttrack_suite::runtime::online::Monitor;
use fasttrack_suite::runtime::{run_pipeline, Pipeline};
use fasttrack_suite::trace::gen::{self, GenConfig};
use fasttrack_suite::trace::json as ftjson;

#[test]
fn pipeline_over_race_free_trace_suppresses_and_is_monotone() {
    let trace = gen::generate(&GenConfig::race_free(), 11);
    let mut p = Pipeline::new(vec![Box::new(FastTrack::new()), Box::new(Empty::new())]);
    run_pipeline(&mut p, &trace);
    let reports = p.stage_reports();

    // The prefilter suppressed something on a race-free workload...
    assert!(reports[0].events_suppressed > 0);
    assert!(reports[0].suppression_rate > 0.0);
    // ...and events_seen is monotone non-increasing down the chain.
    assert!(reports[1].events_seen <= reports[0].events_seen);
    assert_eq!(reports[0].events_seen, trace.len() as u64);
    assert_eq!(
        reports[1].events_seen,
        reports[0].events_seen - reports[0].events_suppressed
    );
    // Latency histograms saw exactly the events each stage received.
    assert_eq!(reports[0].latency.count, reports[0].events_seen);
    assert_eq!(reports[1].latency.count, reports[1].events_seen);
}

#[test]
fn detector_metrics_bridge_stats_and_rules() {
    let trace = gen::generate(&GenConfig::default(), 5);
    let mut ft = FastTrack::new();
    ft.run(&trace);
    let snap = ft.metrics();
    assert_eq!(snap.meta("tool"), Some("FASTTRACK"));
    assert_eq!(snap.counter("ops"), Some(ft.stats().ops));
    assert_eq!(snap.counter("reads"), Some(ft.stats().reads));
    assert_eq!(snap.counter("warnings"), Some(ft.warnings().len() as u64));
    // Per-rule counters + percentage gauges for every breakdown entry.
    for rc in ft.rule_breakdown() {
        assert_eq!(
            snap.counter(&format!("rule.{}.hits", rc.rule)),
            Some(rc.hits)
        );
        let pct = snap
            .gauge(&format!("rule.{}.percent", rc.rule))
            .expect("percent gauge");
        assert!((pct - rc.percent).abs() < 1e-9);
    }
}

/// The hand-rolled JSON snapshot writer produces documents the workspace's
/// own parser accepts, with every counter/gauge/histogram intact.
#[test]
fn snapshot_json_round_trips_through_the_trace_parser() {
    let trace = gen::generate(&GenConfig::default(), 9);
    let mut p = Pipeline::new(vec![Box::new(FastTrack::new()), Box::new(Empty::new())]);
    run_pipeline(&mut p, &trace);
    let snap = p.metrics_snapshot();
    let parsed = ftjson::parse(&snap.to_json()).expect("snapshot JSON parses");

    let counters = parsed.get("counters").expect("counters object");
    for (name, value) in &snap.counters {
        let got = counters.get(name).and_then(|v| v.as_f64()).unwrap();
        assert_eq!(got as u64, *value, "{name}");
    }
    let gauges = parsed.get("gauges").expect("gauges object");
    for (name, value) in &snap.gauges {
        let got = gauges.get(name).and_then(|v| v.as_f64()).unwrap();
        assert!((got - value).abs() < 1e-9, "{name}");
    }
    let histograms = parsed.get("histograms").expect("histograms object");
    for (name, summary) in &snap.histograms {
        let h = histograms.get(name).unwrap_or_else(|| panic!("{name}"));
        assert_eq!(
            h.get("count").and_then(|v| v.as_f64()).unwrap() as u64,
            summary.count
        );
        assert_eq!(
            h.get("p50").and_then(|v| v.as_f64()).unwrap() as u64,
            summary.p50
        );
        assert_eq!(
            h.get("max").and_then(|v| v.as_f64()).unwrap() as u64,
            summary.max
        );
    }
}

#[test]
fn online_monitor_replay_reports_overhead_in_both_modes() {
    let trace = gen::generate(&GenConfig::race_free(), 21);
    for make in [
        Monitor::new::<FastTrack> as fn(FastTrack) -> Monitor,
        Monitor::buffered,
    ] {
        let monitor = make(FastTrack::new());
        for op in trace.events() {
            monitor.emit_raw(op.clone());
        }
        let report = monitor.report();
        assert!(report.warnings.is_empty());
        assert_eq!(report.stats.ops, trace.len() as u64);
        let emit = report.metrics.histogram("online.emit_ns").expect("emit_ns");
        assert_eq!(emit.count, trace.len() as u64);
    }
}

#[test]
fn registry_merge_collects_worker_thread_metrics() {
    // The cross-thread aggregation pattern: each worker keeps its own
    // registry, the owner merges them afterwards.
    let handles: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut reg = MetricsRegistry::new();
                for i in 0..100u64 {
                    reg.inc_counter("events", 1);
                    reg.record("latency_ns", i * (w + 1));
                }
                reg
            })
        })
        .collect();
    let mut total = MetricsRegistry::new();
    for h in handles {
        total.merge(&h.join().unwrap());
    }
    let snap = total.snapshot();
    assert_eq!(snap.counter("events"), Some(400));
    assert_eq!(snap.histogram("latency_ns").unwrap().count, 400);
}

#[test]
fn jsonl_sink_records_cli_style_spans() {
    // Drive a span through a JSONL sink and parse each emitted line.
    let buf: std::sync::Arc<std::sync::Mutex<Vec<u8>>> = Default::default();

    struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fasttrack_suite::obs::set_sink(Box::new(JsonlSink::new(Box::new(Shared(buf.clone())))));
    {
        let _g = fasttrack_suite::obs::span!("analyze", tool = "FASTTRACK");
        fasttrack_suite::obs::event!("warning", var = 3);
    }
    fasttrack_suite::obs::disable_tracing();

    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text:?}");
    for line in &lines {
        ftjson::parse(line).expect("span line is valid JSON");
    }
    assert!(lines[0].contains("\"kind\":\"event\""));
    assert!(lines[1].contains("\"kind\":\"span\""));
}

#[test]
fn flight_recorder_drains_recent_events_into_warnings() {
    use fasttrack_suite::core::{FastTrackConfig, RecorderConfig};

    let cfg = GenConfig {
        ops: 800,
        ..GenConfig::default().with_races(0.15)
    };
    let trace = gen::generate(&cfg, 9);

    let mut plain = FastTrack::new();
    plain.run(&trace);
    assert!(!plain.warnings().is_empty(), "need a racy trace");

    let mut recorded = FastTrack::with_config(FastTrackConfig {
        recorder: Some(RecorderConfig { capacity: 8 }),
        ..FastTrackConfig::default()
    });
    recorded.run(&trace);

    // Same races either way — the recorder is observation, not analysis.
    assert_eq!(plain.warnings().len(), recorded.warnings().len());
    for (p, r) in plain.warnings().iter().zip(recorded.warnings()) {
        assert_eq!(p.var, r.var);
        assert_eq!(p.kind, r.kind);
        let (pp, rp) = (
            p.provenance.as_ref().unwrap(),
            r.provenance.as_ref().unwrap(),
        );
        assert_eq!(pp.rule, rp.rule);
        // Recorder off: no tails. Recorder on: the accessing thread's tail
        // is present, capped at the ring capacity, ends at the racy access,
        // and is ordered by trace index.
        assert!(pp.recent.is_empty());
        let current_tail = rp
            .recent
            .iter()
            .find(|tail| tail.tid == r.current.tid)
            .expect("accessing thread has a tail");
        assert!(!current_tail.events.is_empty());
        assert!(current_tail.events.len() <= 8);
        let indices: Vec<u64> = current_tail.events.iter().map(|e| e.index).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted, "tail out of order: {indices:?}");
        assert_eq!(
            indices.last().copied(),
            r.current.event_index.map(|i| i as u64),
            "tail does not end at the racy access"
        );
    }

    // The recorder surfaces in metrics and in shadow accounting.
    let rec = recorded.flight_recorder().expect("recorder enabled");
    assert!(rec.recorded() > 0);
    assert!(rec.bytes() > 0);
    assert!(recorded.shadow_bytes() >= plain.shadow_bytes() + rec.bytes());
    let snap = recorded.metrics();
    assert_eq!(
        snap.counter("recorder.recorded_events"),
        Some(rec.recorded())
    );
}

#[test]
fn tier_counters_partition_the_accesses() {
    use fasttrack_suite::core::FastTrackConfig;

    let trace = gen::generate(&GenConfig::default(), 21);
    let mut ft = FastTrack::with_config(FastTrackConfig {
        profile_tiers: true,
        ..FastTrackConfig::default()
    });
    ft.run(&trace);

    // Every access lands in exactly one tier.
    let tiers = ft.tier_profile();
    let stats = ft.stats();
    assert_eq!(tiers.total(), stats.reads + stats.writes);
    assert!(
        tiers.same_epoch > 0,
        "fused loop never hit tier 1: {tiers:?}"
    );

    // The always-on counters and the profiled latency histograms both
    // surface in the metrics snapshot.
    let snap = ft.metrics();
    assert_eq!(snap.counter("tier.same_epoch.hits"), Some(tiers.same_epoch));
    assert_eq!(
        snap.counter("tier.inline_exclusive.hits"),
        Some(tiers.inline_exclusive)
    );
    assert_eq!(snap.counter("tier.preensured.hits"), Some(tiers.preensured));
    assert_eq!(snap.counter("tier.governed.hits"), Some(tiers.governed));
    let governed_ns = snap.histogram("tier.governed.ns").expect("profiled");
    assert_eq!(governed_ns.count, tiers.governed);

    // And the Prometheus rendering carries them in sanitized form.
    let prom = fasttrack_suite::obs::to_prometheus(&snap, "ftrace");
    assert!(prom.contains("# TYPE ftrace_tier_same_epoch_hits counter"));
    assert!(prom.contains(&format!("ftrace_tier_same_epoch_hits {}", tiers.same_epoch)));
}

/// Seeded racy traces that exercise every way a thread's events reach the
/// recorder: structured with locks and volatiles, chaotic op soup, and
/// barrier-heavy (a barrier goes to each of its parties).
fn recorder_population() -> Vec<(String, fasttrack_suite::trace::Trace)> {
    let mut out = Vec::new();
    for seed in 0..8u64 {
        let racy = GenConfig {
            ops: 700,
            ..GenConfig::default().with_races(0.12)
        };
        out.push((format!("gen {seed}"), gen::generate(&racy, 300 + seed)));
        out.push((
            format!("chaotic {seed}"),
            gen::chaotic(6, 24, 4, 600, 400 + seed),
        ));
        let barriers = GenConfig {
            threads: 8,
            vars: 16,
            locks: 2,
            ops: 700,
            accesses_per_cs: 1,
            p_barrier: 0.08,
            p_volatile: 0.0,
            w_lock_protected: 0.05,
            w_read_shared: 0.6,
            w_thread_local: 0.35,
            ..GenConfig::default().with_races(0.1)
        };
        out.push((
            format!("barrier {seed}"),
            gen::generate(&barriers, 500 + seed),
        ));
    }
    out
}

/// A recorded event as `(index, kind, arg)`.
type Event = (u64, u8, u32);

/// Brute-force reference for the flight recorder: every thread's events
/// as `(index, kind, arg)`, in trace order, with a barrier charged to each
/// party and the party count as its operand.
fn per_thread_events(
    trace: &fasttrack_suite::trace::Trace,
) -> std::collections::HashMap<u32, Vec<Event>> {
    use fasttrack_suite::trace::batch::opcode;
    use fasttrack_suite::trace::Op;

    let mut by_thread: std::collections::HashMap<u32, Vec<Event>> = Default::default();
    for (i, op) in trace.events().iter().enumerate() {
        let i = i as u64;
        let (kind, t, arg) = match op {
            Op::Read(t, x) => (opcode::READ, *t, x.as_u32()),
            Op::Write(t, x) => (opcode::WRITE, *t, x.as_u32()),
            Op::Acquire(t, m) => (opcode::ACQUIRE, *t, m.as_u32()),
            Op::Release(t, m) => (opcode::RELEASE, *t, m.as_u32()),
            Op::Fork(t, u) => (opcode::FORK, *t, u.as_u32()),
            Op::Join(t, u) => (opcode::JOIN, *t, u.as_u32()),
            Op::VolatileRead(t, x) => (opcode::VOLATILE_READ, *t, x.as_u32()),
            Op::VolatileWrite(t, x) => (opcode::VOLATILE_WRITE, *t, x.as_u32()),
            Op::Wait(t, m) => (opcode::WAIT, *t, m.as_u32()),
            Op::Notify(t, m) => (opcode::NOTIFY, *t, m.as_u32()),
            Op::AtomicBegin(t) => (opcode::ATOMIC_BEGIN, *t, 0),
            Op::AtomicEnd(t) => (opcode::ATOMIC_END, *t, 0),
            Op::BarrierRelease(parties) => {
                for p in parties {
                    by_thread.entry(p.as_u32()).or_default().push((
                        i,
                        opcode::BARRIER,
                        parties.len() as u32,
                    ));
                }
                continue;
            }
        };
        by_thread
            .entry(t.as_u32())
            .or_default()
            .push((i, kind, arg));
    }
    by_thread
}

/// Every warning's `provenance.recent` equals the brute-force reference:
/// the last *k* trace events of each involved thread (prior thread first),
/// up to and including the warning's event index. Checked for the fused
/// in-memory loop and for `.ftb` streaming, which must also agree with
/// each other tail for tail.
#[test]
fn recorder_tails_match_brute_force_reference() {
    use fasttrack_suite::core::{FastTrackConfig, RecorderConfig};
    use fasttrack_suite::runtime::analyze_stream;
    use fasttrack_suite::trace::FtbReader;

    let mut tails_checked = 0usize;
    for (label, trace) in recorder_population() {
        let reference = per_thread_events(&trace);
        let bytes = trace.to_ftb().expect("encodable");
        for capacity in [1usize, 3, 8, 32] {
            for report_all in [false, true] {
                let ctx = format!("{label} capacity {capacity} report_all {report_all}");
                let cfg = FastTrackConfig {
                    report_all,
                    recorder: Some(RecorderConfig { capacity }),
                    ..FastTrackConfig::default()
                };
                let mut run = FastTrack::with_config(cfg.clone());
                run.run(&trace);
                let mut streamed = FastTrack::with_config(cfg);
                let mut reader = FtbReader::new(&bytes[..]).expect("valid header");
                analyze_stream(&mut reader, &mut streamed).expect("valid stream");
                assert_eq!(run.warnings(), streamed.warnings(), "{ctx}: run vs stream");

                for w in run.warnings() {
                    let at = w.current.event_index.expect("current access index") as u64;
                    let mut threads = vec![w.prior.tid];
                    if w.current.tid != w.prior.tid {
                        threads.push(w.current.tid);
                    }
                    let expected: Vec<(u32, Vec<Event>)> = threads
                        .iter()
                        .map(|t| {
                            let events = reference.get(&t.as_u32()).map_or(&[][..], |v| v);
                            let upto = events.partition_point(|e| e.0 <= at);
                            let from = upto.saturating_sub(capacity);
                            (t.as_u32(), events[from..upto].to_vec())
                        })
                        .filter(|(_, events)| !events.is_empty())
                        .collect();
                    let got: Vec<(u32, Vec<Event>)> = w
                        .provenance
                        .as_ref()
                        .expect("provenance")
                        .recent
                        .iter()
                        .map(|tail| {
                            for e in &tail.events {
                                assert_eq!(e.tid, tail.tid, "{ctx}: event in foreign tail");
                            }
                            let events = tail.events.iter().map(|e| (e.index, e.kind, e.arg));
                            (tail.tid.as_u32(), events.collect())
                        })
                        .collect();
                    assert_eq!(got, expected, "{ctx}: tails of {w}");
                    tails_checked += got.len();
                }
            }
        }
    }
    assert!(
        tails_checked > 1000,
        "oracle exercised too few tails ({tails_checked})"
    );
}

/// The recorder observes the analysis without steering it: recorder on
/// and off dispatch every access to the same tier, fire the same rules and
/// count the same statistics, with the inline tiers still serving
/// accesses. Under a guard, each thread's ring is charged exactly once.
#[test]
fn recorder_does_not_change_dispatch() {
    use fasttrack_suite::core::{FastTrackConfig, GuardConfig, RecorderConfig};
    use fasttrack_suite::runtime::analyze_stream;
    use fasttrack_suite::trace::FtbReader;

    let run_with = |trace: &fasttrack_suite::trace::Trace, cfg: FastTrackConfig, stream: bool| {
        let mut ft = FastTrack::with_config(cfg);
        if stream {
            let bytes = trace.to_ftb().expect("encodable");
            let mut reader = FtbReader::new(&bytes[..]).expect("valid header");
            analyze_stream(&mut reader, &mut ft).expect("valid stream");
        } else {
            ft.run(trace);
        }
        ft
    };
    let recorder = Some(RecorderConfig { capacity: 8 });
    for (label, trace) in recorder_population().into_iter().step_by(2) {
        for stream in [false, true] {
            let ctx = format!("{label} stream {stream}");
            let off = run_with(&trace, FastTrackConfig::default(), stream);
            let on = run_with(
                &trace,
                FastTrackConfig {
                    recorder,
                    ..FastTrackConfig::default()
                },
                stream,
            );
            assert_eq!(on.tier_profile(), off.tier_profile(), "{ctx}: tiers");
            assert_eq!(on.rule_breakdown(), off.rule_breakdown(), "{ctx}: rules");
            assert_eq!(on.stats(), off.stats(), "{ctx}: stats");
            let tiers = on.tier_profile();
            assert!(
                tiers.same_epoch + tiers.inline_exclusive > 0,
                "{ctx}: recorder forced every access off the inline tiers: {tiers:?}"
            );

            let guard = Some(GuardConfig::default());
            let governed = run_with(
                &trace,
                FastTrackConfig {
                    guard: guard.clone(),
                    ..FastTrackConfig::default()
                },
                stream,
            );
            let governed_rec = run_with(
                &trace,
                FastTrackConfig {
                    guard,
                    recorder,
                    ..FastTrackConfig::default()
                },
                stream,
            );
            let used = |ft: &FastTrack| ft.shadow_budget().expect("guarded").used();
            let rec = governed_rec.flight_recorder().expect("recorder enabled");
            assert_eq!(
                used(&governed_rec) - used(&governed),
                rec.bytes(),
                "{ctx}: ring bytes charged other than once per thread"
            );
            assert_eq!(rec.bytes(), rec.threads() * 8 * 16, "{ctx}: slot size");
            assert_eq!(
                governed_rec.tier_profile(),
                governed.tier_profile(),
                "{ctx}: guarded tiers"
            );
        }
    }
}
