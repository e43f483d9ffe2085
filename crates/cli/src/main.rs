//! `ftrace` — generate, inspect, and analyze multithreaded execution
//! traces with the FastTrack tool suite.
//!
//! ```text
//! ftrace generate --benchmark tsp --ops 50000 --seed 7 -o tsp.ftrace
//! ftrace analyze tsp.ftrace --tool FASTTRACK
//! ftrace analyze tsp.ftb --format ftb          (streams, never materializes)
//! ftrace trace record --benchmark tsp -o tsp.ftb
//! ftrace trace convert tsp.ftrace -o tsp.ftb
//! ftrace compare tsp.ftrace
//! ftrace oracle  tsp.ftrace
//! ftrace coarsen tsp.ftrace -o tsp-coarse.ftrace
//! ftrace info    tsp.ftrace
//! ```
//!
//! Trace files come in two formats, distinguished by content sniffing: the
//! JSON `.ftrace` format and the packed binary `.ftb` format (32-byte
//! header + 12-byte records; see `ft_trace::ftb`). Every command accepts
//! either; `-o` paths ending in `.ftb` write binary.

use fasttrack::Detector;
use ft_runtime::coarsen;
use ft_trace::{HbOracle, Trace};
use std::process::ExitCode;

mod args;
mod commands;
mod serve_cmd;

use args::Args;

const USAGE: &str = "\
ftrace — FastTrack race-detection trace tool

USAGE:
  ftrace generate [--benchmark NAME | --random] [--ops N] [--seed N]
                  [--racy FRAC] -o FILE     generate a trace (FILE ending in
                                            .ftb writes the binary format)
  ftrace analyze FILE [--detector NAME] [--all-warnings]
                  [--mem-budget BYTES] [--format json|ftb]
                  [--sample-budget K] [--sample-rate R] [--seed S]
                  [--metrics OUT.json]      run one detector (on .ftb input
                                            FASTTRACK streams the file through
                                            the fused block loop instead of
                                            materializing it)
  ftrace trace record [--benchmark NAME | --random] [--ops N] [--seed N]
                  [--racy FRAC] -o FILE.ftb stream a workload's events through
                                            the binary writer record by record
  ftrace trace convert IN -o OUT            convert json <-> ftb (formats
                                            inferred from content/extension)
  ftrace compare FILE                       run every detector
  ftrace pipeline FILE [--filter NAME] [--checker NAME] [--metrics OUT.json]
                                            prefilter + downstream checker
  ftrace profile FILE [--detector NAME] [--metrics OUT.json]
                  [--mem-budget BYTES] [--faults SEED:SPEC] [--tiers]
                                            full observability run: detector
                                            rule percentages, per-stage
                                            latency quantiles and online-monitor
                                            overhead; --tiers adds a fused-loop
                                            pass with per-tier hit/latency
                                            counters
  ftrace report FILE [--recorder K] [--all-warnings]
                  [--mem-budget BYTES] [-o BUNDLE.json]
                                            self-contained JSON diagnostics
                                            bundle: warnings with Figure 5
                                            provenance, each involved thread's
                                            last K events (flight recorder),
                                            tier profile, rule breakdown, and
                                            metrics (JSON + Prometheus text)
  ftrace serve [--addr HOST:PORT] [--mem-budget BYTES] [--lane-cap N]
                  [--overflow block|drop-oldest] [--all-warnings]
                                            run the multi-tenant analysis
                                            daemon: concurrent .ftb upload
                                            sessions over TCP, each with
                                            isolated shadow state; a global
                                            --mem-budget is split evenly
                                            across live sessions
  ftrace client upload FILE [--addr HOST:PORT] [--tenant NAME]
                  [--chunk BYTES] [--mode sampler|fasttrack]
                                            stream a trace to the daemon as
                                            one session; report JSON on
                                            stdout, summary on stderr
  ftrace client metrics [--addr HOST:PORT]  scrape the daemon (Prometheus)
  ftrace client shutdown [--addr HOST:PORT] stop the daemon gracefully
  ftrace oracle FILE                        exact happens-before ground truth
  ftrace coarsen FILE -o FILE               coarse-grain (object) variant
  ftrace info FILE                          trace statistics

OPTIONS (analyze/pipeline/profile):
  --metrics OUT.json      write an ft-obs metrics snapshot
  --metrics-format FMT    snapshot encoding: json (default) or prom
                          (Prometheus text exposition); with no --metrics
                          path the snapshot prints to stdout, so
                          `analyze t.ftrace --metrics-format prom` is
                          directly scrape-able
  --trace-spans stderr    stream span/event tracing to stderr
  --trace-spans FILE      ... or as JSONL to FILE
  --mem-budget BYTES      cap FASTTRACK shadow memory; over budget the
                          detector degrades (evict read VCs, then sample)
                          and reports `precision: Degraded{...}`; 0 = off
  --faults SEED:SPEC      (profile) inject monitor faults into the buffered
                          online run; SPEC is a comma list of overflow@CAP,
                          panic@OP, slow@EVERY, skew@EVERY

  --detector NAME         which detector to run (alias: --tool); SAMPLER
                          takes --sample-budget K (samples kept per variable,
                          default 4), --sample-rate R (fraction of accesses
                          admitted, default 0.001), and --seed S (reports are
                          deterministic per seed) — see docs/DETECTORS.md

TOOLS: EMPTY ERASER MULTIRACE GOLDILOCKS BASICVC DJIT+ FASTTRACK SAMPLER
BENCHMARKS: the 16 Table 1 names (colt crypt lufact ... jbb) or eclipse:OP
            with OP in startup import clean-small clean-large debug
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some(command) = argv.first() else {
        return Err("no command given".into());
    };
    let args = Args::parse(&argv[1..]);
    match command.as_str() {
        "generate" => commands::generate(&args),
        "analyze" => commands::analyze(&args),
        "trace" => commands::trace_cmd(&args),
        "compare" => commands::compare(&args),
        "pipeline" => commands::pipeline(&args),
        "profile" => commands::profile(&args),
        "report" => commands::report(&args),
        "serve" => serve_cmd::serve(&args),
        "client" => serve_cmd::client(&args),
        "oracle" => commands::oracle(&args),
        "coarsen" => commands::coarsen_cmd(&args),
        "info" => commands::info(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Loads a trace file in either format, re-validating feasibility. Binary
/// `.ftb` files are recognized by their magic; anything else parses as the
/// JSON `.ftrace` format.
pub(crate) fn load_trace(path: &str) -> Result<Trace, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    if bytes.starts_with(&ft_trace::FTB_MAGIC) {
        return Trace::from_ftb(&bytes).map_err(|e| format!("parsing {path}: {e}"));
    }
    let json = String::from_utf8(bytes).map_err(|_| format!("{path}: not valid UTF-8 or .ftb"))?;
    Trace::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))
}

/// `true` when `path` names a `.ftb` file — by content when it exists, by
/// extension otherwise (for output paths).
pub(crate) fn is_ftb_path(path: &str) -> bool {
    match std::fs::File::open(path) {
        Ok(mut f) => {
            use std::io::Read;
            let mut magic = [0u8; 4];
            f.read_exact(&mut magic).is_ok() && magic == ft_trace::FTB_MAGIC
        }
        Err(_) => path.ends_with(".ftb"),
    }
}

/// Writes a trace file; `-o` paths ending in `.ftb` get the binary format.
pub(crate) fn save_trace(trace: &Trace, path: &str) -> Result<(), String> {
    if path.ends_with(".ftb") {
        let bytes = trace
            .to_ftb()
            .map_err(|e| format!("encoding {path}: {e}"))?;
        return std::fs::write(path, bytes).map_err(|e| format!("writing {path}: {e}"));
    }
    std::fs::write(path, trace.to_json()).map_err(|e| format!("writing {path}: {e}"))
}

/// Pretty-prints one detector's outcome.
pub(crate) fn print_report(tool: &dyn Detector, verbose: bool) {
    println!(
        "{:<12} {} warning(s); {}; shadow {} bytes",
        tool.name(),
        tool.warnings().len(),
        tool.stats(),
        tool.shadow_bytes()
    );
    if verbose {
        for w in tool.warnings() {
            println!("    {w}");
        }
        for rule in tool.rule_breakdown() {
            println!("    {rule}");
        }
    }
}

/// Pretty-prints the oracle's verdict.
pub(crate) fn print_oracle(trace: &Trace) {
    let report = HbOracle::analyze(trace);
    if report.is_race_free() {
        println!("race-free: no concurrent conflicting accesses");
        return;
    }
    let first = report.first_race_per_var();
    println!(
        "{} racy pair(s) on {} variable(s); first race per variable:",
        report.races.len(),
        first.len()
    );
    for (_, race) in first {
        println!("  {}", race.describe());
    }
}

/// Shared helper for the `coarsen` command (named to avoid clashing with
/// the library function).
pub(crate) fn coarsen_trace(trace: &Trace) -> Trace {
    coarsen(trace)
}
