//! `ftrace` subcommand implementations.

use crate::args::Args;
use crate::{coarsen_trace, load_trace, print_oracle, print_report, save_trace};
use fasttrack::{
    Detector, Empty, FastTrack, FastTrackConfig, GuardConfig, RecorderConfig, TierProfile,
};
use ft_detectors::{BasicVc, Djit, Eraser, Goldilocks, MultiRace, RaceTrack};
use ft_runtime::{
    analyze_parallel, analyze_parallel_stream, analyze_stream, ParallelConfig, ParallelReport,
};
use ft_sampler::{Sampler, SamplerConfig};
use ft_trace::gen::{self, GenConfig};
use ft_trace::{FtbReader, FtbWriter, ObjId, Trace, VarId};
use ft_workloads::eclipse::EclipseOp;
use ft_workloads::{Scale, BENCHMARKS};

fn make_tool(
    name: &str,
    all_warnings: bool,
    guard: Option<GuardConfig>,
    sampler: SamplerConfig,
) -> Result<Box<dyn Detector>, String> {
    if guard.is_some() && !name.eq_ignore_ascii_case("FASTTRACK") {
        return Err(format!(
            "--mem-budget applies only to FASTTRACK, not {name:?}"
        ));
    }
    Ok(match name.to_uppercase().as_str() {
        "EMPTY" => Box::new(Empty::new()),
        "ERASER" => Box::new(Eraser::new()),
        "MULTIRACE" => Box::new(MultiRace::new()),
        "GOLDILOCKS" => Box::new(Goldilocks::new()),
        "GOLDILOCKS-FAST" => Box::new(Goldilocks::with_thread_local_fast_path()),
        "RACETRACK" => Box::new(RaceTrack::new()),
        "BASICVC" => Box::new(BasicVc::new()),
        "DJIT+" | "DJIT" => Box::new(Djit::new()),
        "FASTTRACK" => Box::new(FastTrack::with_config(FastTrackConfig {
            report_all: all_warnings,
            guard,
            ..FastTrackConfig::default()
        })),
        "SAMPLER" => Box::new(Sampler::with_config(sampler.with_report_all(all_warnings))),
        other => return Err(format!("unknown tool {other:?}")),
    })
}

/// Reads the detector name: `--detector` (preferred) or the legacy `--tool`
/// alias, defaulting to FASTTRACK.
fn detector_name(args: &Args) -> &str {
    args.get("detector")
        .or_else(|| args.get("tool"))
        .unwrap_or("FASTTRACK")
}

/// Reads `--sample-budget K`, `--sample-rate R`, and `--seed S` into the
/// sampler configuration (defaults match [`SamplerConfig::default`]).
fn sampler_config(args: &Args) -> Result<SamplerConfig, String> {
    let d = SamplerConfig::default();
    Ok(SamplerConfig::default()
        .with_budget(args.get_num::<usize>("sample-budget", d.budget)?)
        .with_rate(args.get_num::<f64>("sample-rate", d.rate)?)
        .with_seed(args.get_num::<u64>("seed", d.seed)?))
}

/// Reads `--mem-budget BYTES` into a guard configuration (`0` or absent
/// means ungoverned — identical to pre-guard behaviour).
fn guard_config(args: &Args) -> Result<Option<GuardConfig>, String> {
    let budget = args.get_num::<usize>("mem-budget", 0)?;
    Ok((budget > 0).then(|| GuardConfig::with_budget(budget)))
}

/// Prints the precision verdict when (and only when) the guard degraded.
fn print_precision(precision: &fasttrack::Precision) {
    if precision.is_degraded() {
        println!("    precision: {precision}");
    }
}

fn run_tool(tool: &mut dyn Detector, trace: &Trace) {
    let _span = ft_obs::span!("analyze", tool = tool.name(), events = trace.len());
    for (i, op) in trace.events().iter().enumerate() {
        tool.on_op(i, op);
    }
}

/// Installs a span sink if `--trace-spans` was given (`stderr` for
/// human-readable lines, anything else as a JSONL output path).
fn maybe_enable_tracing(args: &Args) -> Result<(), String> {
    match args.get_with_value("trace-spans")? {
        None => Ok(()),
        Some("stderr") => {
            ft_obs::set_sink(Box::new(ft_obs::StderrSink));
            Ok(())
        }
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("creating span log {path}: {e}"))?;
            ft_obs::set_sink(Box::new(ft_obs::JsonlSink::new(Box::new(file))));
            Ok(())
        }
    }
}

/// The exposition format `--metrics-format` asked for (JSON by default).
#[derive(Copy, Clone, PartialEq, Eq)]
enum MetricsFormat {
    Json,
    Prom,
}

fn metrics_format(args: &Args) -> Result<Option<MetricsFormat>, String> {
    match args.get_with_value("metrics-format")? {
        None => Ok(None),
        Some("json") => Ok(Some(MetricsFormat::Json)),
        Some("prom") | Some("prometheus") => Ok(Some(MetricsFormat::Prom)),
        Some(other) => Err(format!("unknown --metrics-format {other:?} (json or prom)")),
    }
}

/// True when the invocation is a scrape: an explicit `--metrics-format`
/// with no `--metrics` file path means stdout *is* the exposition, so the
/// human-readable report must stay off it (a Prometheus scraper reads the
/// whole stream).
fn scrape_mode(args: &Args) -> Result<bool, String> {
    Ok(metrics_format(args)?.is_some() && args.get_with_value("metrics")?.is_none())
}

/// Writes a metrics snapshot if requested: `--metrics PATH` writes to a
/// file, `--metrics-format prom|json` picks the encoding (JSON by default),
/// and an explicit format with no `--metrics` path prints to stdout — the
/// scrape-style usage `ftrace analyze t.ftrace --metrics-format prom`.
fn maybe_write_metrics(args: &Args, snapshot: &ft_obs::Snapshot) -> Result<(), String> {
    let format = metrics_format(args)?;
    let render = |f: MetricsFormat| match f {
        MetricsFormat::Json => snapshot.to_json(),
        MetricsFormat::Prom => ft_obs::to_prometheus(snapshot, "ftrace"),
    };
    if let Some(path) = args.get_with_value("metrics")? {
        std::fs::write(path, render(format.unwrap_or(MetricsFormat::Json)))
            .map_err(|e| format!("writing metrics to {path}: {e}"))?;
        println!("wrote metrics snapshot to {path}");
    } else if let Some(f) = format {
        print!("{}", render(f));
        if f == MetricsFormat::Json {
            println!();
        }
    }
    Ok(())
}

/// Builds the workload a `generate`/`trace record` invocation asked for:
/// a named benchmark, an eclipse operation, or a random structured trace.
fn build_workload(args: &Args) -> Result<Trace, String> {
    let ops = args.get_num::<usize>("ops", 20_000)?;
    let seed = args.get_num::<u64>("seed", 42)?;

    let trace = if let Some(bench) = args.get("benchmark") {
        if let Some(op_name) = bench.strip_prefix("eclipse:") {
            let op = match op_name {
                "startup" => EclipseOp::Startup,
                "import" => EclipseOp::Import,
                "clean-small" => EclipseOp::CleanSmall,
                "clean-large" => EclipseOp::CleanLarge,
                "debug" => EclipseOp::Debug,
                other => return Err(format!("unknown eclipse operation {other:?}")),
            };
            ft_workloads::eclipse::build(op, Scale { ops }, seed)
        } else {
            if !BENCHMARKS.iter().any(|b| b.name == bench) {
                return Err(format!(
                    "unknown benchmark {bench:?}; known: {}",
                    BENCHMARKS
                        .iter()
                        .map(|b| b.name)
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
            ft_workloads::build(bench, Scale { ops }, seed)
        }
    } else {
        // Random structured trace; --racy sets the racy-variable weight.
        let racy = args.get_num::<f64>("racy", 0.0)?;
        let cfg = GenConfig {
            ops,
            ..GenConfig::default().with_races(racy)
        };
        gen::generate(&cfg, seed)
    };
    Ok(trace)
}

/// `ftrace generate`.
pub fn generate(args: &Args) -> Result<(), String> {
    let output = args
        .get("output")
        .ok_or("generate requires -o FILE")?
        .to_string();
    let trace = build_workload(args)?;
    save_trace(&trace, &output)?;
    println!(
        "wrote {}: {} events, {} threads, {} vars, {} locks",
        output,
        trace.len(),
        trace.n_threads(),
        trace.n_vars(),
        trace.n_locks()
    );
    Ok(())
}

/// `ftrace trace`: binary-format utilities (`record`, `convert`).
pub fn trace_cmd(args: &Args) -> Result<(), String> {
    match args.positional(0) {
        Some("record") => trace_record(args),
        Some("convert") => trace_convert(args),
        Some(other) => Err(format!(
            "unknown trace subcommand {other:?} (expected record or convert)"
        )),
        None => Err("trace requires a subcommand: record or convert".into()),
    }
}

/// `ftrace trace record`: build a workload and stream its events through
/// [`FtbWriter`] record by record — the path an instrumented program would
/// use to persist an execution as it happens, never holding the encoded
/// trace in memory. The header keeps the open-ended record-count sentinel,
/// exactly like a live recording that cannot seek back.
fn trace_record(args: &Args) -> Result<(), String> {
    let output = args
        .get("output")
        .ok_or("trace record requires -o FILE.ftb")?
        .to_string();
    let trace = build_workload(args)?;
    let objects: Vec<ObjId> = (0..trace.n_vars())
        .map(|x| trace.object_of(VarId::new(x)))
        .collect();
    let file = std::fs::File::create(&output).map_err(|e| format!("creating {output}: {e}"))?;
    let mut w = FtbWriter::with_var_objects(
        std::io::BufWriter::new(file),
        trace.n_threads(),
        trace.n_vars(),
        trace.n_locks(),
        &objects,
    )
    .map_err(|e| format!("writing {output}: {e}"))?;
    for op in trace.events() {
        w.write_op(op)
            .map_err(|e| format!("writing {output}: {e}"))?;
    }
    let records = w.records_written();
    w.finish().map_err(|e| format!("flushing {output}: {e}"))?;
    println!(
        "recorded {}: {} events ({} records), {} threads, {} vars, {} locks",
        output,
        trace.len(),
        records,
        trace.n_threads(),
        trace.n_vars(),
        trace.n_locks()
    );
    Ok(())
}

/// `ftrace trace convert`: json <-> ftb. The input format is sniffed from
/// content; the output format follows the `-o` extension.
fn trace_convert(args: &Args) -> Result<(), String> {
    let input = args
        .positional(1)
        .ok_or("trace convert requires an input file")?;
    let output = args
        .get("output")
        .ok_or("trace convert requires -o FILE")?
        .to_string();
    let trace = load_trace(input)?;
    save_trace(&trace, &output)?;
    println!(
        "converted {} -> {} ({} events, {})",
        input,
        output,
        trace.len(),
        if output.ends_with(".ftb") {
            "binary ftb"
        } else {
            "json"
        }
    );
    Ok(())
}

/// Builds the parallel-engine configuration for a `--shards N` request,
/// honouring the optional `--chunk EVENTS` granularity knob.
fn parallel_config(
    args: &Args,
    shards: usize,
    guard: Option<GuardConfig>,
) -> Result<ParallelConfig, String> {
    let defaults = ParallelConfig::default();
    let chunk = args.get_num::<usize>("chunk", defaults.chunk)?;
    if chunk == 0 {
        return Err("--chunk must be at least 1".into());
    }
    Ok(ParallelConfig {
        shards,
        chunk,
        detector: FastTrackConfig {
            report_all: args.has_flag("all-warnings"),
            guard,
            ..FastTrackConfig::default()
        },
        ..defaults
    })
}

/// Pretty-prints a parallel-engine outcome in the same shape as
/// [`print_report`].
fn print_parallel_report(report: &ParallelReport, verbose: bool) {
    println!(
        "{:<12} {} warning(s); {}; shadow {} bytes; {} shard(s)",
        "FASTTRACK-P",
        report.warnings.len(),
        report.stats,
        report.shadow_bytes,
        report.shards
    );
    if verbose {
        for w in &report.warnings {
            println!("    {w}");
        }
        for rule in &report.rule_breakdown {
            println!("    {rule}");
        }
    }
}

/// `ftrace analyze`.
pub fn analyze(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("analyze requires a trace file")?;
    maybe_enable_tracing(args)?;
    let tool_name = detector_name(args);
    let shards = args.get_num::<usize>("shards", 1)?;
    let guard = guard_config(args)?;
    let ftb = match args.get("format") {
        None => crate::is_ftb_path(path),
        Some("ftb") => true,
        Some("json") => false,
        Some(other) => return Err(format!("unknown --format {other:?} (json or ftb)")),
    };
    // Binary traces analyzed by FASTTRACK stream straight off the file
    // through the fused block loop — the trace is never materialized, so
    // files larger than RAM analyze in O(shadow state + one block).
    if ftb && tool_name.eq_ignore_ascii_case("FASTTRACK") {
        return analyze_ftb_stream(path, args, shards, guard);
    }
    let trace = load_trace(path)?;
    if shards > 1 {
        if !tool_name.eq_ignore_ascii_case("FASTTRACK") {
            return Err(format!(
                "--shards applies only to FASTTRACK, not {tool_name:?}"
            ));
        }
        let config = parallel_config(args, shards, guard)?;
        let report = analyze_parallel(&trace, &config);
        if !scrape_mode(args)? {
            print_parallel_report(&report, true);
            print_precision(&report.precision);
        }
        maybe_write_metrics(args, &report.metrics)?;
        return Ok(());
    }
    let mut tool = make_tool(
        tool_name,
        args.has_flag("all-warnings"),
        guard,
        sampler_config(args)?,
    )?;
    run_tool(tool.as_mut(), &trace);
    if !scrape_mode(args)? {
        print_report(tool.as_ref(), true);
        print_precision(&tool.precision());
    }
    maybe_write_metrics(args, &tool.metrics())?;
    Ok(())
}

/// The `.ftb` streaming arm of [`analyze`]: sequential FASTTRACK uses
/// [`analyze_stream`]'s fused block loop, `--shards N` feeds the parallel
/// engine's coordinator directly from the decoder.
fn analyze_ftb_stream(
    path: &str,
    args: &Args,
    shards: usize,
    guard: Option<GuardConfig>,
) -> Result<(), String> {
    let all_warnings = args.has_flag("all-warnings");
    let file = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut reader = FtbReader::new(file).map_err(|e| format!("parsing {path}: {e}"))?;
    if shards > 1 {
        let config = parallel_config(args, shards, guard)?;
        let report = analyze_parallel_stream(&mut reader, &config)
            .map_err(|e| format!("streaming {path}: {e}"))?;
        if !scrape_mode(args)? {
            print_parallel_report(&report, true);
            print_precision(&report.precision);
        }
        maybe_write_metrics(args, &report.metrics)?;
        return Ok(());
    }
    let mut tool = FastTrack::with_config(FastTrackConfig {
        report_all: all_warnings,
        guard,
        ..FastTrackConfig::default()
    });
    let events = {
        let _span = ft_obs::span!("analyze.stream", events = 0usize);
        analyze_stream(&mut reader, &mut tool).map_err(|e| format!("streaming {path}: {e}"))?
    };
    if !scrape_mode(args)? {
        println!("streamed {events} event(s) from {path}");
        print_report(&tool, true);
        print_precision(&tool.precision());
    }
    maybe_write_metrics(args, &tool.metrics())?;
    Ok(())
}

/// `ftrace compare`.
pub fn compare(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("compare requires a trace file")?;
    let trace = load_trace(path)?;
    for name in [
        "EMPTY",
        "ERASER",
        "MULTIRACE",
        "GOLDILOCKS",
        "BASICVC",
        "DJIT+",
        "FASTTRACK",
    ] {
        let mut tool = make_tool(name, false, None, SamplerConfig::default())?;
        run_tool(tool.as_mut(), &trace);
        print_report(tool.as_ref(), false);
    }
    Ok(())
}

/// `ftrace pipeline`: prefilter + downstream checker composition.
pub fn pipeline(args: &Args) -> Result<(), String> {
    use ft_checkers::{Atomizer, SingleTrack, Velodrome};
    use ft_runtime::{Pipeline, ThreadLocalFilter};

    let path = args.positional(0).ok_or("pipeline requires a trace file")?;
    maybe_enable_tracing(args)?;
    let trace = load_trace(path)?;
    let filter = args.get("filter").unwrap_or("FASTTRACK");
    let checker = args.get("checker").unwrap_or("VELODROME");

    let mut stages: Vec<Box<dyn Detector + Send>> = Vec::new();
    match filter.to_uppercase().as_str() {
        "NONE" => {}
        "TL" => stages.push(Box::new(ThreadLocalFilter::new())),
        "ERASER" => stages.push(Box::new(Eraser::new())),
        "DJIT+" | "DJIT" => stages.push(Box::new(Djit::new())),
        "FASTTRACK" => stages.push(Box::new(FastTrack::new())),
        other => return Err(format!("unknown filter {other:?}")),
    }
    match checker.to_uppercase().as_str() {
        "ATOMIZER" => stages.push(Box::new(Atomizer::new())),
        "VELODROME" => stages.push(Box::new(Velodrome::new())),
        "SINGLETRACK" => stages.push(Box::new(SingleTrack::new())),
        other => return Err(format!("unknown checker {other:?}")),
    }
    let mut p = Pipeline::new(stages);
    for (i, op) in trace.events().iter().enumerate() {
        p.on_op(i, op);
    }
    for report in p.stage_reports() {
        println!(
            "{:<12} saw {:>9} events, suppressed {:>9} ({:>5.1}%), p50 {:>6} ns/op, {} warning(s)",
            report.name,
            report.events_seen,
            report.events_suppressed,
            100.0 * report.suppression_rate,
            report.latency.p50,
            report.warnings.len()
        );
        for w in &report.warnings {
            println!("    {w}");
        }
    }
    maybe_write_metrics(args, &p.metrics_snapshot())?;
    Ok(())
}

/// `ftrace profile`: one full observability run over a trace — the chosen
/// detector's metrics (rule percentages), a FastTrack→EMPTY pipeline's
/// per-stage latency quantiles and suppression rates, and the online
/// monitor's per-event overhead in both direct and buffered modes. Writes
/// everything as one JSON document (`--metrics PATH`, else stdout).
pub fn profile(args: &Args) -> Result<(), String> {
    use ft_runtime::online::{FaultPlan, Monitor, MonitorConfig};
    use ft_runtime::Pipeline;

    let path = args.positional(0).ok_or("profile requires a trace file")?;
    maybe_enable_tracing(args)?;
    let trace = load_trace(path)?;
    let tool_name = detector_name(args);
    let guard = guard_config(args)?;
    let faults = match args.get_with_value("faults")? {
        Some(spec) => FaultPlan::parse(spec)?,
        None => FaultPlan::none(),
    };

    // 1. The chosen detector on its own.
    let mut tool = make_tool(
        tool_name,
        args.has_flag("all-warnings"),
        guard.clone(),
        sampler_config(args)?,
    )?;
    run_tool(tool.as_mut(), &trace);
    let detector_metrics = tool.metrics();

    // 2. A FastTrack→EMPTY pipeline: per-stage latency and suppression.
    let mut pipeline = Pipeline::new(vec![Box::new(FastTrack::new()), Box::new(Empty::new())]);
    {
        let _span = ft_obs::span!("profile.pipeline", events = trace.len());
        for (i, op) in trace.events().iter().enumerate() {
            pipeline.on_op(i, op);
        }
    }
    let pipeline_metrics = pipeline.metrics_snapshot();

    // 3. The online monitor replaying the same stream, both modes. The
    // buffered monitor carries the guard and fault plan, so `--mem-budget`
    // and `--faults` rehearse degradation on a realistic event stream.
    let online = |monitor: Monitor| {
        let _span = ft_obs::span!("profile.online", events = trace.len());
        for op in trace.events() {
            monitor.emit_raw(op.clone());
        }
        monitor.report()
    };
    let direct_metrics = online(Monitor::new(FastTrack::new())).metrics;
    let guarded = FastTrack::with_config(FastTrackConfig {
        guard: guard.clone(),
        ..FastTrackConfig::default()
    });
    let buffered_report = online(Monitor::buffered_with(
        guarded,
        MonitorConfig {
            faults: faults.clone(),
            ..MonitorConfig::default()
        },
    ));
    let buffered_metrics = buffered_report.metrics.clone();

    // 4. The block-parallel engine, if `--shards N` was given.
    let shards = args.get_num::<usize>("shards", 0)?;
    let parallel = if shards > 0 {
        let config = parallel_config(args, shards, guard.clone())?;
        Some(analyze_parallel(&trace, &config))
    } else {
        None
    };

    // 5. With `--tiers`: a fused whole-trace FASTTRACK pass with tier
    // latency profiling on. The per-event loop above routes everything
    // through the governed tier by construction, so the tier breakdown
    // needs its own `run()` pass to exercise the inline fast paths.
    let tiered = if args.has_flag("tiers") {
        let mut ft = FastTrack::with_config(FastTrackConfig {
            guard: guard.clone(),
            profile_tiers: true,
            ..FastTrackConfig::default()
        });
        let _span = ft_obs::span!("profile.tiers", events = trace.len());
        ft.run(&trace);
        Some((ft.tier_profile(), ft.metrics()))
    } else {
        None
    };

    println!(
        "{}: {} events; {} {} warning(s)",
        path,
        trace.len(),
        tool.name(),
        tool.warnings().len()
    );
    for (name, value) in &detector_metrics.gauges {
        if name.ends_with(".percent") {
            println!("  {name} = {value:.1}");
        }
    }
    let show = |label: &str, snap: &ft_obs::Snapshot, key: &str| {
        if let Some(h) = snap.histogram(key) {
            println!(
                "  {label}: {key} p50 {} p90 {} p99 {} max {}",
                h.p50, h.p90, h.p99, h.max
            );
        }
    };
    show("pipeline", &pipeline_metrics, "stage.0.FASTTRACK.on_op_ns");
    show("pipeline", &pipeline_metrics, "stage.1.EMPTY.on_op_ns");
    show("online/direct", &direct_metrics, "online.emit_ns");
    show("online/buffered", &buffered_metrics, "online.emit_ns");
    show("online/buffered", &buffered_metrics, "online.queue_lag_ns");
    print_precision(&tool.precision());
    if buffered_report.precision.is_degraded() || buffered_report.dropped_events > 0 {
        println!(
            "  online/buffered: precision {}, {} dropped event(s)",
            buffered_report.precision, buffered_report.dropped_events
        );
    }
    if let Some(report) = &parallel {
        println!(
            "  parallel: {} shard(s), {} warning(s)",
            report.shards,
            report.warnings.len()
        );
        show("parallel", &report.metrics, "parallel.batch_ns");
        print_precision(&report.precision);
    }
    if let Some((tiers, tier_metrics)) = &tiered {
        print_tiers(tiers, tier_metrics);
    }

    let mut w = ft_obs::JsonWriter::new();
    w.begin_object();
    w.field_str("trace", path);
    w.field_u64("events", trace.len() as u64);
    let mut sections = vec![
        ("detector", &detector_metrics),
        ("pipeline", &pipeline_metrics),
        ("online_direct", &direct_metrics),
        ("online_buffered", &buffered_metrics),
    ];
    if let Some(report) = &parallel {
        sections.push(("parallel", &report.metrics));
    }
    if let Some((_, tier_metrics)) = &tiered {
        sections.push(("tiered", tier_metrics));
    }
    for (key, snap) in sections {
        w.key(key);
        snap.write_json(&mut w);
    }
    if let Some((tiers, _)) = &tiered {
        w.key("tiers");
        write_tiers_json(&mut w, tiers);
    }
    w.end_object();
    let json = w.finish();
    match args.get_with_value("metrics")? {
        Some(out) => {
            std::fs::write(out, &json).map_err(|e| format!("writing metrics to {out}: {e}"))?;
            println!("wrote metrics snapshot to {out}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// Writes the per-tier hit counters of the fused batch loop.
fn write_tiers_json(w: &mut ft_obs::JsonWriter, tiers: &TierProfile) {
    w.begin_object();
    w.field_u64("same_epoch", tiers.same_epoch);
    w.field_u64("inline_exclusive", tiers.inline_exclusive);
    w.field_u64("preensured", tiers.preensured);
    w.field_u64("governed", tiers.governed);
    w.field_u64("total", tiers.total());
    w.end_object();
}

/// Pretty-prints the tier breakdown (hits and, when the latency histograms
/// were collected, per-tier timing quantiles).
fn print_tiers(tiers: &TierProfile, metrics: &ft_obs::Snapshot) {
    let total = tiers.total().max(1);
    let pct = |n: u64| 100.0 * n as f64 / total as f64;
    println!(
        "  tiers: same-epoch {} ({:.1}%), inline-exclusive {} ({:.1}%), \
         pre-ensured {} ({:.1}%), governed {} ({:.1}%)",
        tiers.same_epoch,
        pct(tiers.same_epoch),
        tiers.inline_exclusive,
        pct(tiers.inline_exclusive),
        tiers.preensured,
        pct(tiers.preensured),
        tiers.governed,
        pct(tiers.governed),
    );
    for key in ["tier.preensured.ns", "tier.governed.ns", "tier.block.ns"] {
        if let Some(h) = metrics.histogram(key) {
            println!(
                "  {key}: p50 {} p90 {} p99 {} max {} ({} sample(s))",
                h.p50, h.p90, h.p99, h.max, h.count
            );
        }
    }
}

/// `ftrace report`: run FASTTRACK with the flight recorder and tier
/// profiling on, then emit a self-contained JSON diagnostics bundle —
/// trace shape, warnings with full provenance and the recent events of the
/// involved threads, rule breakdown, tier profile, metrics snapshot, and
/// the same metrics rendered as Prometheus text. With `--shards N` the
/// block-parallel engine produces the warnings instead (identical
/// provenance; the recorder is a sequential-engine feature, so `recent`
/// stays empty).
pub fn report(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("report requires a trace file")?;
    maybe_enable_tracing(args)?;
    let trace = load_trace(path)?;
    let guard = guard_config(args)?;
    let all_warnings = args.has_flag("all-warnings");
    let shards = args.get_num::<usize>("shards", 1)?;
    let capacity = args.get_num::<usize>("recorder", 32)?;

    let mut w = ft_obs::JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "ftrace.report/1");
    w.key("trace");
    w.begin_object();
    w.field_str("path", path);
    w.field_u64("events", trace.len() as u64);
    w.field_u64("threads", trace.n_threads() as u64);
    w.field_u64("vars", trace.n_vars() as u64);
    w.field_u64("locks", trace.n_locks() as u64);
    w.end_object();

    let (warnings, rules, precision, tiers, metrics, tool_name) = if shards > 1 {
        let config = parallel_config(args, shards, guard)?;
        let report = analyze_parallel(&trace, &config);
        w.field_u64("shards", shards as u64);
        w.key("recorder");
        w.null();
        (
            report.warnings,
            report.rule_breakdown,
            report.precision,
            None,
            report.metrics,
            "FASTTRACK-P",
        )
    } else {
        let mut tool = FastTrack::with_config(FastTrackConfig {
            report_all: all_warnings,
            guard,
            recorder: Some(RecorderConfig { capacity }),
            profile_tiers: true,
            ..FastTrackConfig::default()
        });
        tool.run(&trace);
        w.field_u64("shards", 1);
        w.key("recorder");
        let rec = tool.flight_recorder().expect("recorder configured");
        w.begin_object();
        w.field_u64("capacity", rec.capacity() as u64);
        w.field_u64("threads", rec.threads() as u64);
        w.field_u64("recorded", rec.recorded());
        w.field_u64("bytes", rec.bytes() as u64);
        w.end_object();
        (
            tool.warnings().to_vec(),
            tool.rule_breakdown(),
            tool.precision(),
            Some(tool.tier_profile()),
            tool.metrics(),
            "FASTTRACK",
        )
    };

    w.field_str("tool", tool_name);
    w.field_str("precision", &precision.to_string());
    w.key("warnings");
    w.begin_array();
    for warning in &warnings {
        warning.write_json(&mut w);
    }
    w.end_array();
    w.key("rule_breakdown");
    w.begin_array();
    for r in &rules {
        w.begin_object();
        w.field_str("rule", r.rule);
        w.field_u64("hits", r.hits);
        w.field_f64("percent", r.percent);
        w.end_object();
    }
    w.end_array();
    w.key("tiers");
    match &tiers {
        Some(t) => write_tiers_json(&mut w, t),
        None => w.null(),
    }
    w.key("metrics");
    metrics.write_json(&mut w);
    w.field_str("metrics_prom", &ft_obs::to_prometheus(&metrics, "ftrace"));
    w.end_object();
    let json = w.finish();

    println!(
        "{path}: {} events; {tool_name} {} warning(s)",
        trace.len(),
        warnings.len()
    );
    for warning in &warnings {
        println!("    {warning}");
        if let Some(p) = &warning.provenance {
            println!("      {p}");
            for tail in &p.recent {
                let shown: Vec<String> = tail.events.iter().map(|e| e.to_string()).collect();
                println!("      {} recent: {}", tail.tid, shown.join(" "));
            }
        }
    }
    if let Some(t) = &tiers {
        print_tiers(t, &metrics);
    }
    print_precision(&precision);
    match args.get("output") {
        Some(out) => {
            std::fs::write(out, &json).map_err(|e| format!("writing bundle to {out}: {e}"))?;
            println!("wrote diagnostics bundle to {out}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// `ftrace oracle`.
pub fn oracle(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("oracle requires a trace file")?;
    let trace = load_trace(path)?;
    print_oracle(&trace);
    Ok(())
}

/// `ftrace coarsen`.
pub fn coarsen_cmd(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("coarsen requires a trace file")?;
    let output = args.get("output").ok_or("coarsen requires -o FILE")?;
    let trace = load_trace(path)?;
    let coarse = coarsen_trace(&trace);
    save_trace(&coarse, output)?;
    println!(
        "coarsened {} vars into {} object locations -> {}",
        trace.n_vars(),
        coarse.n_vars(),
        output
    );
    Ok(())
}

/// `ftrace info`.
pub fn info(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("info requires a trace file")?;
    let trace = load_trace(path)?;
    let mix = trace.op_mix();
    println!(
        "{path}: {} events, {} threads, {} vars, {} locks, {} objects",
        trace.len(),
        trace.n_threads(),
        trace.n_vars(),
        trace.n_locks(),
        trace.n_objects()
    );
    println!("  mix: {}", mix.ratios());
    println!(
        "  sync: {} acquires, {} releases, {} forks, {} joins, {} volatiles, {} barriers, {} waits",
        mix.acquires, mix.releases, mix.forks, mix.joins, mix.volatiles, mix.barriers, mix.waits
    );
    Ok(())
}
