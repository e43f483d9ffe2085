//! The repository benchmark: the offline `.ftb` analysis path and the
//! `ftrace serve` daemon, end to end, with a separate traced run that splits
//! the time by layer. `perfbench/run.py` builds and drives it; see
//! `perfbench/README.md` for the workloads and the metric map.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --ftrace PATH
//!           [--out DIR] [--tiny] [--inject-wrong-oracle] [--kill-daemon]
//! ```
//!
//! Prints a `detail:` line (every metric's median, quartiles and sample
//! count) and, last, the result object.

mod inputs;
mod offline;
mod serve;
mod spans;
mod stats;

use inputs::{Fixture, Workload};
use offline::{Analysis, Tool};
use spans::Tracer;
use stats::{percentile, Summary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Closed-loop clients on the daemon: one per core of the 2-vCPU host the
/// benchmark was sized on.
const CLIENTS: usize = 2;
/// Sessions each client runs before timing starts; a fresh daemon's first
/// sessions run slower.
const WARMUP_SESSIONS: usize = 8;
/// Offline and serve slices per run.
const SLICES: usize = 12;
/// The share of each slice given to the serve path, whose metrics spread
/// more from run to run than the offline ones.
const SERVE_SHARE: f64 = 2.0 / 3.0;
/// How far clients may overrun their deadline before the daemon is killed.
const SERVE_GRACE: Duration = Duration::from_secs(30);

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    ftrace: PathBuf,
    out: PathBuf,
    tiny: bool,
    inject_wrong_oracle: bool,
    kill_daemon: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {:?}", argv[i]))?;
        match key {
            "tiny" | "inject-wrong-oracle" | "kill-daemon" => flags.push(key),
            _ => {
                let value = argv.get(i + 1).ok_or(format!("--{key} needs a value"))?;
                values.insert(key, value);
                i += 1;
            }
        }
        i += 1;
    }
    let get = |k: &str| values.get(k).copied().ok_or(format!("--{k} is required"));
    let workload_name = get("workload")?.to_string();
    Ok(Args {
        workload: Workload::parse(&workload_name)
            .ok_or(format!("unknown workload {workload_name:?}"))?,
        workload_name,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        traced: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        ftrace: PathBuf::from(get("ftrace")?),
        out: PathBuf::from(values.get("out").copied().unwrap_or("perfbench/out")),
        tiny: flags.contains(&"tiny"),
        inject_wrong_oracle: flags.contains(&"inject-wrong-oracle"),
        kill_daemon: flags.contains(&"kill-daemon"),
    })
}

/// Operations attempted and failed, and the metrics measured.
#[derive(Default)]
struct Results {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, &'static str, Summary)>,
}

impl Results {
    fn op(&mut self, outcome: Option<String>) {
        self.attempted += 1;
        if let Some(msg) = outcome {
            self.failed += 1;
            eprintln!("perfbench: FAILED {msg}");
            if self.failures.len() < 20 {
                self.failures.push(msg);
            }
        }
    }

    fn put(&mut self, name: &'static str, unit: &'static str, s: Summary) {
        self.metrics.push((name, unit, s));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut res = Results::default();

    let mut setup_s = Vec::new();
    let mut fixtures: Vec<Fixture> = Vec::new();
    let mut daemon: Option<serve::Daemon> = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            res.op((!d.stop()).then(|| "daemon did not shut down cleanly".into()));
        }
        drop(std::mem::take(&mut fixtures));
        let start = Instant::now();
        fixtures = inputs::build(args.workload, args.seed, args.tiny);
        match serve::Daemon::start(&args.ftrace) {
            Ok(d) => {
                res.op(None);
                daemon = Some(d);
            }
            Err(e) => res.op(Some(e)),
        }
        setup_s.push(start.elapsed().as_secs_f64());
    }
    if args.inject_wrong_oracle {
        fixtures[0].oracle_json.push(' ');
    }
    let events: u64 = fixtures.iter().map(|f| f.events).sum();
    let bytes: usize = fixtures.iter().map(|f| f.ftb.len()).sum();
    println!(
        "perfbench: {} fixture(s), {events} events, {bytes} .ftb bytes, setup {:.3}s",
        fixtures.len(),
        Summary::of(&setup_s).median
    );

    // Offline passes and serve sessions alternate in slices, so a change
    // in the host's speed during the run reaches every metric alike.
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    if args.traced {
        push_decode(&fixtures, &mut tracer, &mut res);
    }
    let mut offline = Offline::new(&fixtures, args.traced);
    let mut served = Served::new(daemon);
    offline.warm(&mut tracer, &mut res);
    served.warm(&fixtures, if args.tiny { 1 } else { WARMUP_SESSIONS });
    let slice = args.seconds / SLICES as f64;
    let offline_slice = Duration::from_secs_f64(slice * (1.0 - SERVE_SHARE));
    let serve_slice = Duration::from_secs_f64(slice * SERVE_SHARE);
    for i in 0..SLICES {
        offline.run_for(offline_slice, &mut tracer, &mut res);
        let kill = (args.kill_daemon && i == 0).then_some(1);
        let epoch = args.traced.then_some(epoch);
        served.run_for(&fixtures, serve_slice, kill, epoch, &mut tracer);
    }
    let passes = offline.finish(&mut res);
    let sessions = served.finish(args.traced, &mut res);
    if !args.traced {
        res.put("setup_s", "s", Summary::of(&setup_s));
    } else {
        res.put(
            "trace.bytes_per_event",
            "bytes/event",
            Summary::one(bytes as f64 / events as f64),
        );
        let path = args.out.join(format!("spans-{}.jsonl", args.workload_name));
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                tracer.write_jsonl(&mut w)?;
                std::io::Write::flush(&mut w)
            });
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    print_results(&args, &res, passes, sessions);
}

/// Per-pass sums for one tool.
#[derive(Default)]
struct PassSums {
    ns: u64,
    events: u64,
    warnings: u64,
}

fn per_event(ns: u64, events: u64) -> f64 {
    ns as f64 / events.max(1) as f64
}

/// The offline path: passes of every tool over every fixture.
struct Offline<'a> {
    fixtures: &'a [Fixture],
    traced: bool,
    /// Each tool, and whether its calls are traced.
    tools: Vec<(Tool, bool)>,
    /// Per-pass samples of each metric.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Every tool's analyses from the latest pass.
    last: BTreeMap<Tool, Vec<Analysis>>,
    passes: usize,
}

impl<'a> Offline<'a> {
    fn new(fixtures: &'a [Fixture], traced: bool) -> Offline<'a> {
        let tools = if traced {
            // The untraced FastTrack pass measures the tracing overhead.
            vec![
                (Tool::FastTrack, false),
                (Tool::FastTrack, true),
                (Tool::Sampler, true),
                (Tool::Diag, true),
                (Tool::Empty, true),
            ]
        } else {
            vec![
                (Tool::FastTrack, false),
                (Tool::Sampler, false),
                (Tool::Diag, false),
            ]
        };
        Offline {
            fixtures,
            traced,
            tools,
            samples: BTreeMap::new(),
            last: BTreeMap::new(),
            passes: 0,
        }
    }

    /// Runs every tool over every fixture, checking each result.
    fn pass(&mut self, tracer: &mut Tracer, res: &mut Results) -> Vec<PassSums> {
        let fixtures = self.fixtures;
        self.tools
            .iter()
            .map(|&(tool, traced)| {
                let mut sums = PassSums::default();
                let mut kept = Vec::with_capacity(fixtures.len());
                for (i, f) in fixtures.iter().enumerate() {
                    let t = traced.then_some((&mut *tracer, i as u64));
                    match offline::analyze(tool, f, t) {
                        Ok(a) => {
                            res.op(offline::check(tool, f, &a));
                            sums.ns += a.ns;
                            sums.events += a.events;
                            sums.warnings += a.warnings.len() as u64;
                            kept.push(a);
                        }
                        Err(e) => res.op(Some(format!("{} on {}: {e}", tool.label(), f.name))),
                    }
                }
                self.last.insert(tool, kept);
                sums
            })
            .collect()
    }

    /// One untimed pass: caches, allocator and page tables.
    fn warm(&mut self, tracer: &mut Tracer, res: &mut Results) {
        let mark = tracer.mark();
        self.pass(tracer, res);
        tracer.truncate(mark);
    }

    /// Timed passes for `budget`, at least one.
    fn run_for(&mut self, budget: Duration, tracer: &mut Tracer, res: &mut Results) {
        let deadline = Instant::now() + budget;
        loop {
            let mark = tracer.mark();
            let sums = self.pass(tracer, res);
            self.passes += 1;
            self.sample(&sums, tracer, mark);
            if Instant::now() >= deadline {
                return;
            }
        }
    }

    fn sample(&mut self, sums: &[PassSums], tracer: &Tracer, mark: usize) {
        let mut put = |name: &'static str, v: f64| self.samples.entry(name).or_default().push(v);
        if !self.traced {
            put("ft_ns_per_event", per_event(sums[0].ns, sums[0].events));
            put(
                "sampler_ns_per_event",
                per_event(sums[1].ns, sums[1].events),
            );
            put("diag_ns_per_event", per_event(sums[2].ns, sums[2].events));
            return;
        }
        let selfs = tracer.self_ns_since(mark);
        let layer = |label: &str, name: &str| selfs.get(&(label, name)).copied().unwrap_or(0);
        let (untraced, ft) = (&sums[0], &sums[1]);
        let ev = ft.events;
        let analyze = layer("fasttrack", "core.on_block");
        let empty = layer("empty", "core.on_block");
        let sampler = layer("sampler", "sampler.on_block");
        let render = layer("fasttrack", "render.warnings_to_json");
        put(
            "trace.decode_ns_per_event",
            per_event(layer("fasttrack", "trace.read_block"), ev),
        );
        put("core.analyze_ns_per_event", per_event(analyze, ev));
        put(
            "core.recorder_ns_per_event",
            per_event(layer("diag", "core.on_block"), ev),
        );
        put("core.empty_ns_per_event", per_event(empty, ev));
        put(
            "core.slowdown_vs_empty",
            analyze as f64 / empty.max(1) as f64,
        );
        put("sampler.analyze_ns_per_event", per_event(sampler, ev));
        put(
            "sampler.slowdown_vs_empty",
            sampler as f64 / empty.max(1) as f64,
        );
        put("render.ns_per_warning", render as f64 / ft.warnings as f64);
        put("render.share", render as f64 / ft.ns as f64);
        put(
            "stream.unattributed_share",
            layer("fasttrack", "stream") as f64 / ft.ns as f64,
        );
        put(
            "stream.trace_overhead_ns_per_event",
            per_event(ft.ns, ev) - per_event(untraced.ns, untraced.events),
        );
    }

    /// Reports the metrics; returns the number of timed passes.
    fn finish(self, res: &mut Results) -> usize {
        let unit = |name: &str| match name {
            n if n.ends_with("_ns_per_event") => "ns/event",
            n if n.ends_with("ns_per_warning") => "ns/warning",
            _ => "ratio",
        };
        for (name, values) in &self.samples {
            res.put(name, unit(name), Summary::of(values));
        }
        counts(self.traced, &self.last, res);
        self.passes
    }
}

/// The deterministic counts of the last pass, summed over fixtures.
fn counts(traced: bool, last: &BTreeMap<Tool, Vec<Analysis>>, res: &mut Results) {
    let ft = &last[&Tool::FastTrack];
    let sum = |f: &dyn Fn(&Analysis) -> u64| ft.iter().map(f).sum::<u64>();
    if !traced {
        let shadow = sum(&|a| a.shadow_bytes as u64);
        res.put("shadow_bytes", "bytes", Summary::one(shadow as f64));
        return;
    }
    let ops = sum(&|a| a.stats.ops) as f64;
    let reads = sum(&|a| a.stats.reads) as f64;
    let writes = sum(&|a| a.stats.writes) as f64;
    let hits = sum(&|a| a.stats.sync_fastpath_hits) as f64;
    let slow = sum(&|a| a.stats.sync_slow_joins);
    let one = Summary::one;
    res.put(
        "core.sync_share",
        "ratio",
        one(sum(&|a| a.stats.sync_ops) as f64 / ops),
    );
    res.put(
        "core.sync_fastpath_rate",
        "ratio",
        one(hits / (hits + slow as f64)),
    );
    res.put("core.sync_slow_joins", "count", one(slow as f64));
    res.put(
        "clock.vc_ops_per_kevent",
        "ops/kevent",
        one(sum(&|a| a.stats.vc_ops) as f64 * 1e3 / ops),
    );
    res.put(
        "clock.vc_allocated",
        "count",
        one(sum(&|a| a.stats.vc_allocated) as f64),
    );
    res.put(
        "clock.vc_reused",
        "count",
        one(sum(&|a| a.stats.vc_reused) as f64),
    );
    let accesses = reads + writes;
    for (name, tier) in [
        ("core.tier.same_epoch.share", sum(&|a| a.tiers.same_epoch)),
        (
            "core.tier.inline_exclusive.share",
            sum(&|a| a.tiers.inline_exclusive),
        ),
        ("core.tier.preensured.share", sum(&|a| a.tiers.preensured)),
        ("core.tier.governed.share", sum(&|a| a.tiers.governed)),
    ] {
        res.put(name, "ratio", one(tier as f64 / accesses));
    }
    // Figure 2's denominators: read rules over reads, write rules over writes.
    for (name, rule, total) in [
        (
            "core.rule.read_same_epoch.share",
            "FT READ SAME EPOCH",
            reads,
        ),
        ("core.rule.read_shared.share", "FT READ SHARED", reads),
        ("core.rule.read_exclusive.share", "FT READ EXCLUSIVE", reads),
        ("core.rule.read_share.share", "FT READ SHARE", reads),
        (
            "core.rule.write_same_epoch.share",
            "FT WRITE SAME EPOCH",
            writes,
        ),
        (
            "core.rule.write_exclusive.share",
            "FT WRITE EXCLUSIVE",
            writes,
        ),
        ("core.rule.write_shared.share", "FT WRITE SHARED", writes),
    ] {
        let hits = sum(&|a| {
            a.rules
                .iter()
                .filter(|r| r.rule == rule)
                .map(|r| r.hits)
                .sum()
        });
        res.put(name, "ratio", one(hits as f64 / total));
    }
    res.put(
        "core.warnings",
        "count",
        one(sum(&|a| a.warnings.len() as u64) as f64),
    );
    let sampled = &last[&Tool::Sampler];
    let admitted: u64 = sampled.iter().map(|a| a.admitted).sum();
    res.put(
        "sampler.admitted_share",
        "ratio",
        one(admitted as f64 / accesses),
    );
}

/// The serve path: closed-loop sessions against the child daemon.
struct Served {
    daemon: Option<serve::Daemon>,
    sessions: Vec<serve::Session>,
    /// Per timed slice: completed sessions per second, and the 50th and
    /// 90th percentile of session latency.
    rates: Vec<f64>,
    p50_ms: Vec<f64>,
    p90_ms: Vec<f64>,
    /// The daemon's resident set, sampled while timed sessions run.
    rss_mib: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

impl Served {
    fn new(daemon: Option<serve::Daemon>) -> Served {
        Served {
            daemon,
            sessions: Vec::new(),
            rates: Vec::new(),
            p50_ms: Vec::new(),
            p90_ms: Vec::new(),
            rss_mib: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    fn clients(
        &mut self,
        fixtures: &[Fixture],
        max_sessions: usize,
        budget: Duration,
        kill_after: Option<u64>,
        trace_epoch: Option<Instant>,
        rss_mib: &mut Vec<f64>,
    ) -> Vec<serve::ClientOut> {
        let Some(daemon) = self.daemon.as_mut() else {
            return Vec::new();
        };
        let outs = serve::run_clients(
            daemon,
            fixtures,
            CLIENTS,
            max_sessions,
            Instant::now() + budget,
            SERVE_GRACE,
            kill_after,
            trace_epoch,
            rss_mib,
        );
        for out in &outs {
            self.attempted += out.attempted;
            self.failures.extend(out.failures.iter().cloned());
        }
        outs
    }

    /// Untimed sessions: a fresh daemon's first sessions run slower.
    fn warm(&mut self, fixtures: &[Fixture], sessions: usize) {
        self.clients(fixtures, sessions, SERVE_GRACE, None, None, &mut Vec::new());
    }

    /// Timed sessions for `budget`. With `kill_after`, the daemon is killed
    /// once that many sessions of this slice have completed.
    fn run_for(
        &mut self,
        fixtures: &[Fixture],
        budget: Duration,
        kill_after: Option<u64>,
        trace_epoch: Option<Instant>,
        tracer: &mut Tracer,
    ) {
        let start = Instant::now();
        let mut rss = Vec::new();
        let outs = self.clients(
            fixtures,
            usize::MAX,
            budget,
            kill_after,
            trace_epoch,
            &mut rss,
        );
        self.rss_mib.extend(rss);
        let before = self.sessions.len();
        for out in outs {
            self.sessions.extend(out.sessions);
            if let Some(t) = out.tracer {
                tracer.absorb(t);
            }
        }
        let slice = &self.sessions[before..];
        if let Some(end) = slice.iter().map(|s| s.done).max() {
            self.rates
                .push(slice.len() as f64 / (end - start).as_secs_f64());
            let total: Vec<f64> = slice.iter().map(|s| s.total_ms).collect();
            self.p50_ms.push(percentile(&total, 0.5));
            self.p90_ms.push(percentile(&total, 0.9));
        }
    }

    /// Checks the daemon, stops it and reports the metrics; returns the
    /// number of timed sessions.
    fn finish(mut self, traced: bool, res: &mut Results) -> usize {
        for i in 0..self.attempted as usize {
            res.op(self.failures.get(i).cloned());
        }
        let Some(mut daemon) = self.daemon.take() else {
            return 0;
        };
        let scraped = serve::scrape(&daemon.addr);
        res.op(scraped
            .as_ref()
            .err()
            .map(|e| format!("metrics scrape: {e}")));
        res.op((!daemon.alive()).then(|| "the daemon died".into()));
        res.op((!daemon.stop()).then(|| "daemon did not shut down cleanly".into()));

        let field =
            |f: fn(&serve::Session) -> f64| self.sessions.iter().map(f).collect::<Vec<f64>>();
        if !traced {
            // Medians over slices: a slow spell of the host moves them only
            // once it covers half the run.
            res.put("sessions_per_s", "1/s", Summary::of(&self.rates));
            res.put("session_ms_p50", "ms", Summary::of(&self.p50_ms));
            return self.sessions.len();
        }
        res.put("serve.session_ms_p90", "ms", Summary::of(&self.p90_ms));
        res.put("serve.daemon_rss_mb", "MiB", Summary::of(&self.rss_mib));
        res.put("serve.open_ms", "ms", Summary::of(&field(|s| s.open_ms)));
        res.put(
            "serve.send_ms_p50",
            "ms",
            Summary::of(&field(|s| s.send_ms)),
        );
        res.put(
            "serve.close_to_report_ms_p50",
            "ms",
            Summary::of(&field(|s| s.close_ms)),
        );
        let scraped = scraped.unwrap_or_default();
        for (name, metric, unit) in [
            (
                "serve.dropped_events",
                "ftrace_serve_dropped_events",
                "count",
            ),
            ("serve.bytes_total", "ftrace_serve_bytes_total", "bytes"),
            (
                "serve.sessions_aborted",
                "ftrace_serve_sessions_aborted",
                "count",
            ),
        ] {
            let value = scraped
                .iter()
                .find(|(k, _)| k == metric)
                .map_or(0.0, |(_, v)| *v);
            res.put(name, unit, Summary::one(value));
        }
        self.sessions.len()
    }
}

/// The daemon's socket-thread decode, reproduced locally: `FtbDecoder` fed
/// each fixture in upload-sized chunks.
fn push_decode(fixtures: &[Fixture], tracer: &mut Tracer, res: &mut Results) {
    let mut samples = Vec::new();
    for rep in 0..3 {
        let mut ns = 0u64;
        let mut events = 0u64;
        for (i, f) in fixtures.iter().enumerate() {
            let start = Instant::now();
            let span = tracer.begin("serve.push_decode", "serve", i as u64, spans::ROOT);
            let mut dec = ft_trace::FtbDecoder::new();
            let mut n = 0u64;
            let mut failed = None;
            for piece in f.ftb.chunks(serve::UPLOAD_CHUNK) {
                dec.push(piece);
                loop {
                    match dec.next_op() {
                        Ok(Some(op)) => {
                            std::hint::black_box(op);
                            n += 1;
                        }
                        Ok(None) => break,
                        Err(e) => {
                            failed = Some(e.to_string());
                            break;
                        }
                    }
                }
            }
            tracer.end(span);
            ns += start.elapsed().as_nanos() as u64;
            events += n;
            if rep == 0 {
                let wrong = (n != f.events).then(|| format!("{n} events, expected {}", f.events));
                let err = failed
                    .or(dec.finish().err().map(|e| e.to_string()))
                    .or(wrong);
                res.op(err.map(|e| format!("push decode of {}: {e}", f.name)));
            }
        }
        samples.push(per_event(ns, events));
    }
    res.put(
        "serve.push_decode_ns_per_event",
        "ns/event",
        Summary::of(&samples),
    );
}

fn print_results(args: &Args, res: &Results, passes: usize, sessions: usize) {
    use ft_obs::JsonWriter;
    let mut d = JsonWriter::new();
    d.begin_object();
    d.field_str("workload", &args.workload_name);
    d.field_u64("seed", args.seed);
    d.field_f64("seconds", args.seconds);
    d.field_bool("traced", args.traced);
    d.field_bool("tiny", args.tiny);
    d.field_u64("offline_passes", passes as u64);
    d.field_u64("sessions", sessions as u64);
    d.field_u64("attempted", res.attempted);
    d.field_u64("failed", res.failed);
    d.field_f64(
        "failed_frac",
        res.failed as f64 / res.attempted.max(1) as f64,
    );
    d.key("failures");
    d.begin_array();
    for f in &res.failures {
        d.string(f);
    }
    d.end_array();
    d.key("metrics");
    d.begin_object();
    for (name, unit, s) in &res.metrics {
        d.key(name);
        d.begin_object();
        d.field_str("unit", unit);
        d.field_f64("median", s.median);
        d.field_f64("q1", s.q1);
        d.field_f64("q3", s.q3);
        d.field_u64("n", s.n as u64);
        d.end_object();
    }
    d.end_object();
    d.end_object();
    println!("detail: {}", d.finish());

    let mut r = JsonWriter::new();
    r.begin_object();
    r.field_bool("correct", res.failed == 0);
    r.field_u64("attempted", res.attempted);
    r.field_u64("failed", res.failed);
    r.key("metrics");
    r.begin_object();
    for (name, unit, s) in &res.metrics {
        r.key(name);
        r.begin_object();
        r.field_f64("value", s.median);
        r.field_str("unit", unit);
        r.end_object();
    }
    r.end_object();
    r.end_object();
    println!("{}", r.finish());
}
