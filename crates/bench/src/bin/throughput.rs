//! Events-per-second throughput of every analysis engine.
//!
//! ```text
//! cargo run --release -p ft-bench --bin throughput [-- --ops=100000 --reps=3 --seed=42]
//! ```
//!
//! Engines measured on the 16-benchmark suite:
//!
//! * `fused`     — `FastTrack::run` (packed shadow words, inline clocks,
//!   the inline same-epoch and exclusive tiers);
//! * `recorder`  — the same with a flight recorder on;
//! * `stream`    — `analyze_stream` decoding `.ftb` bytes block by block
//!   (includes decode cost);
//! * `online`    — the buffered online monitor fed via `emit_raw`.
//!
//! Every engine must report the same warning count on every program — any
//! divergence fails the run. Output: a table on stdout and
//! `BENCH_throughput.json`. The last comparison against the pre-change
//! engine (heap clocks, split epoch fields, per-event virtual dispatch;
//! 1.29–1.94× per program) is kept in `results/BENCH_throughput.json`.

use std::time::{Duration, Instant};

use fasttrack::{Detector, FastTrack, FastTrackConfig, RecorderConfig};
use ft_bench::{fmt1, HarnessOpts};
use ft_obs::JsonWriter;
use ft_runtime::analyze_stream;
use ft_runtime::online::Monitor;
use ft_trace::{FtbReader, Trace};
use ft_workloads::{build, BENCHMARKS};

/// Ring capacity of the flight-recorder variant this bin measures.
const RECORDER_CAPACITY: usize = 32;

/// Times the fused and recorder-enabled engines with their reps
/// interleaved (fused, recorder, fused, …) rather than as back-to-back
/// blocks: on a shared host a slow phase that lands entirely inside one
/// engine's block skews the recorder overhead ratio, while interleaved reps
/// expose both engines to the same phases. The recorder variant runs the
/// same trace with per-thread event rings on — its overhead versus `fused`
/// is the cost a diagnostics-enabled run pays.
fn time_fused_and_recorder(trace: &Trace, reps: u32) -> ((Duration, u64), (Duration, u64)) {
    let mut fused_best = Duration::MAX;
    let mut rec_best = Duration::MAX;
    let mut fused_warn = 0u64;
    let mut rec_warn = 0u64;
    for _ in 0..reps.max(1) {
        let mut ft = FastTrack::new();
        let started = Instant::now();
        ft.run(trace);
        fused_best = fused_best.min(started.elapsed());
        fused_warn = ft.warnings().len() as u64;

        let mut ft = FastTrack::with_config(FastTrackConfig {
            recorder: Some(RecorderConfig {
                capacity: RECORDER_CAPACITY,
            }),
            ..FastTrackConfig::default()
        });
        let started = Instant::now();
        ft.run(trace);
        rec_best = rec_best.min(started.elapsed());
        rec_warn = ft.warnings().len() as u64;
    }
    ((fused_best, fused_warn), (rec_best, rec_warn))
}

fn time_stream(bytes: &[u8], reps: u32) -> (Duration, u64) {
    let mut best = Duration::MAX;
    let mut warnings = 0u64;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let mut reader = FtbReader::new(bytes).expect("valid header");
        let mut ft = FastTrack::new();
        analyze_stream(&mut reader, &mut ft).expect("valid stream");
        best = best.min(started.elapsed());
        warnings = ft.warnings().len() as u64;
    }
    (best, warnings)
}

fn time_online_buffered(trace: &Trace) -> (Duration, u64) {
    let monitor = Monitor::buffered(FastTrack::new());
    let started = Instant::now();
    for op in trace.events() {
        monitor.emit_raw(op.clone());
    }
    let report = monitor.report();
    (started.elapsed(), report.warnings.len() as u64)
}

fn mops(events: u64, d: Duration) -> f64 {
    events as f64 / d.as_secs_f64().max(1e-9) / 1e6
}

fn main() {
    let opts = HarnessOpts::from_env(100_000);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut json = JsonWriter::new();
    json.begin_object();
    json.field_str("suite", "throughput");
    json.field_u64("ops", opts.ops as u64);
    json.field_u64("reps", opts.reps as u64);
    json.field_u64("seed", opts.seed);
    json.field_u64("available_parallelism", threads as u64);

    println!(
        "Analysis throughput in Mevents/s (best of {} reps)",
        opts.reps
    );
    println!(
        "workload: ~{} events/trace, seed {}, host parallelism {}\n",
        opts.ops, opts.seed, threads
    );
    println!(
        "{:<14} | {:>9} {:>9} | {:>9} {:>9}",
        "Program", "fused", "recorder", "stream", "online"
    );

    let mut divergences = 0u64;
    let mut total_events = 0u64;
    let mut total_fused = Duration::ZERO;
    let mut total_recorder = Duration::ZERO;
    let mut total_stream = Duration::ZERO;
    let mut total_online = Duration::ZERO;

    json.key("rows");
    json.begin_array();
    for bench in BENCHMARKS {
        let trace = build(bench.name, opts.scale(), opts.seed);
        let events = trace.len() as u64;
        let bytes = trace.to_ftb().expect("generated traces encode");

        let ((fused_d, fused_warn), (rec_d, rec_warn)) = time_fused_and_recorder(&trace, opts.reps);
        let (stream_d, stream_warn) = time_stream(&bytes, opts.reps);
        let (online_d, online_warn) = time_online_buffered(&trace);

        let agrees =
            stream_warn == fused_warn && online_warn == fused_warn && rec_warn == fused_warn;

        total_events += events;
        total_fused += fused_d;
        total_recorder += rec_d;
        total_stream += stream_d;
        total_online += online_d;

        json.begin_object();
        json.field_str("program", bench.name);
        json.field_u64("events", events);
        json.field_u64("warnings", fused_warn);
        json.field_f64("sequential_mops", mops(events, fused_d));
        json.field_f64("recorder_mops", mops(events, rec_d));
        json.field_f64("stream_mops", mops(events, stream_d));
        json.field_f64("online_buffered_mops", mops(events, online_d));
        if !agrees {
            divergences += 1;
        }
        json.field_bool("agrees", agrees);
        json.end_object();

        println!(
            "{:<14} | {:>9} {:>9} | {:>9} {:>9}",
            bench.name,
            fmt1(mops(events, fused_d)),
            fmt1(mops(events, rec_d)),
            fmt1(mops(events, stream_d)),
            fmt1(mops(events, online_d)),
        );
    }
    json.end_array();

    // Aggregate: total events over total best-of time, per engine.
    json.key("aggregate");
    json.begin_object();
    json.field_u64("events", total_events);
    json.field_f64("sequential_mops", mops(total_events, total_fused));
    json.field_f64("stream_mops", mops(total_events, total_stream));
    json.field_f64("online_buffered_mops", mops(total_events, total_online));
    json.end_object();

    // Flight-recorder record: the enabled overhead is measured directly
    // against the fused time.
    let rec_overhead_pct =
        100.0 * (total_recorder.as_secs_f64() / total_fused.as_secs_f64().max(1e-9) - 1.0);
    json.key("recorder");
    json.begin_object();
    json.field_u64("capacity", RECORDER_CAPACITY as u64);
    json.field_f64("recorder_mops", mops(total_events, total_recorder));
    json.field_f64("enabled_overhead_pct", rec_overhead_pct);
    json.end_object();
    json.field_u64("divergences", divergences);
    json.end_object();

    println!(
        "\naggregate: fused {} Mop/s, recorder {} Mop/s (+{}% overhead), stream {} Mop/s, online {} Mop/s",
        fmt1(mops(total_events, total_fused)),
        fmt1(mops(total_events, total_recorder)),
        fmt1(rec_overhead_pct),
        fmt1(mops(total_events, total_stream)),
        fmt1(mops(total_events, total_online)),
    );

    match std::fs::write("BENCH_throughput.json", json.finish()) {
        Ok(()) => println!("wrote BENCH_throughput.json"),
        Err(e) => eprintln!("failed to write BENCH_throughput.json: {e}"),
    }
    if divergences > 0 {
        eprintln!("FAIL: engines disagreed on warning counts");
        std::process::exit(1);
    }
}
