//! Benchmarks the sync-path fast lane: O(1) acquire/release epochs,
//! versioned lock clocks and the barrier epoch rebuild, shared by FastTrack
//! and the sampler through `fasttrack::sync`.
//!
//! ```text
//! cargo run --release -p ft-bench --bin sync [-- --ops=200000 --seed=42]
//! ```
//!
//! Two measurements, both written to `BENCH_sync.json`:
//!
//! 1. **Sync-dense sweep** — synthetic workloads whose event mix is
//!    dominated by synchronization (lock ping-pong, barrier phases, a
//!    fork/join tree, volatile fan-out). Reported per workload: FastTrack's
//!    ns per sync op and its fast-path hit rate.
//!
//! 2. **Floor benchmarks** — the five sync-heaviest Table 1 programs
//!    (tsp, elevator, philo, hedc, jbb), which set the sampler's floor:
//!    its overhead there is sync bookkeeping, not admissions. The sampler
//!    is timed against the EMPTY dispatch baseline; the JSON records how
//!    many of the five fit the sampler's overhead envelope.
//!
//! On every trace FastTrack must warn on exactly the variables DJIT+ warns
//! on (the paper's "exactly the same race conditions" check, against full
//! vector-clock joins at every sync op), and the sampler only on variables
//! FastTrack warns on. Any divergence fails the run.
//!
//! The fast lane's last comparison against the pre-fast-lane engine and
//! the sampler's former lazy sync summary is kept in
//! `results/BENCH_sync.json`.

use std::time::{Duration, Instant};

use fasttrack::{Detector, FastTrack};
use ft_bench::{fmt1, time_tool, HarnessOpts};
use ft_detectors::Djit;
use ft_obs::JsonWriter;
use ft_sampler::{Sampler, SamplerConfig};
use ft_trace::{LockId, Op, Tid, Trace, TraceBuilder, VarId};
use ft_workloads::build;

/// The Table 1 programs whose sync density sets the sampler's floor.
const FLOOR_BENCHMARKS: [&str; 5] = ["tsp", "elevator", "philo", "hedc", "jbb"];

/// Consecutive acquire/release cycles a thread runs before handing its
/// lock to the partner — the re-acquire steady state of a lock-dense loop.
const HOLD_RUNS: usize = 8;

/// Lock ping-pong: `threads` paired over `threads / 2` locks; each turn a
/// thread runs [`HOLD_RUNS`] acquire/write/release cycles on its pair's
/// lock, then the partner takes over. Sync density 2/3.
fn lock_ping_pong(threads: u32, ops: usize) -> Trace {
    let mut b = TraceBuilder::with_threads(threads);
    let pairs = (threads / 2).max(1);
    let ops_per_round = threads as usize * HOLD_RUNS * 3;
    let rounds = (ops / ops_per_round).max(1);
    for _ in 0..rounds {
        for t in 0..threads {
            let tid = Tid::new(t);
            let pair = t % pairs;
            let m = LockId::new(pair);
            let x = VarId::new(pair);
            for _ in 0..HOLD_RUNS {
                b.acquire(tid, m).unwrap();
                b.write(tid, x).unwrap();
                b.release(tid, m).unwrap();
            }
        }
    }
    b.finish()
}

/// Barrier phases: every thread writes its own variable, then the whole
/// group crosses a barrier; repeated until `ops` events are emitted.
fn barrier_phases(threads: u32, ops: usize) -> Trace {
    let mut b = TraceBuilder::with_threads(threads);
    let all: Vec<Tid> = (0..threads).map(Tid::new).collect();
    let ops_per_phase = threads as usize + 1;
    let phases = (ops / ops_per_phase).max(1);
    for _ in 0..phases {
        for &t in &all {
            b.write(t, VarId::new(t.as_u32())).unwrap();
        }
        b.push(Op::BarrierRelease(all.clone())).unwrap();
    }
    b.finish()
}

/// Fork/join tree: the main thread forks `width` workers, each runs a
/// slice of thread-local writes, then main joins them all and reads every
/// slice — the classic parallel-loop shape.
fn fork_join_tree(width: u32, ops: usize) -> Trace {
    let mut b = TraceBuilder::new();
    let per_worker = (ops / width as usize).max(1);
    let main = Tid::new(0);
    for u in 1..=width {
        b.fork(main, Tid::new(u)).unwrap();
    }
    for u in 1..=width {
        let tid = Tid::new(u);
        for _ in 0..per_worker {
            b.write(tid, VarId::new(u)).unwrap();
        }
    }
    for u in 1..=width {
        b.join(main, Tid::new(u)).unwrap();
    }
    for u in 1..=width {
        b.read(main, VarId::new(u)).unwrap();
    }
    b.finish()
}

/// Volatile fan-out: one writer publishes through a volatile, `threads-1`
/// readers re-read it between publications — the version-stamp skip's
/// home turf (the volatile clock is unchanged on most reads).
fn volatile_fanout(threads: u32, ops: usize) -> Trace {
    let mut b = TraceBuilder::with_threads(threads);
    let writer = Tid::new(0);
    let v = VarId::new(0);
    let reads_per_pub = 4;
    let ops_per_round = 1 + (threads as usize - 1) * reads_per_pub;
    let rounds = (ops / ops_per_round).max(1);
    for _ in 0..rounds {
        b.push(Op::VolatileWrite(writer, v)).unwrap();
        for _ in 0..reads_per_pub {
            for t in 1..threads {
                b.push(Op::VolatileRead(Tid::new(t), v)).unwrap();
            }
        }
    }
    b.finish()
}

fn sync_op_count(trace: &Trace) -> u64 {
    trace
        .events()
        .iter()
        .filter(|op| !matches!(op, Op::Read(..) | Op::Write(..)))
        .count() as u64
}

/// Best-of-reps FastTrack replay through the fused loop, fresh instance
/// per rep; returns the best duration and the last instance.
fn time_fasttrack(trace: &Trace, reps: u32) -> (Duration, FastTrack) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let mut tool = FastTrack::new();
        let started = Instant::now();
        tool.run(trace);
        best = best.min(started.elapsed());
        last = Some(tool);
    }
    (best, last.expect("reps >= 1"))
}

/// One sampler replay (skip-counting driver) on a fresh instance.
fn time_sampler(config: &SamplerConfig, trace: &Trace) -> (Duration, Sampler) {
    let mut tool = Sampler::with_config(config.clone());
    let started = Instant::now();
    tool.replay(trace);
    (started.elapsed(), tool)
}

/// Interleaved EMPTY/sampler rounds: each round measures both back to
/// back, so clock-frequency drift does not bias the overhead ratio, and
/// each keeps its own best-of-rounds minimum.
fn time_floor_round(
    trace: &Trace,
    config: &SamplerConfig,
    rounds: u32,
) -> (Duration, Duration, Sampler) {
    let mut empty_best = Duration::MAX;
    let mut sampler_best = Duration::MAX;
    let mut last = None;
    for _ in 0..rounds.max(1) {
        let (e, _) = time_tool("EMPTY", trace, 1);
        empty_best = empty_best.min(e);
        let (s, sampler) = time_sampler(config, trace);
        sampler_best = sampler_best.min(s);
        last = Some(sampler);
    }
    (empty_best, sampler_best, last.expect("rounds >= 1"))
}

fn race_vars(warnings: &[fasttrack::Warning]) -> Vec<VarId> {
    let mut vars: Vec<VarId> = warnings.iter().map(|w| w.var).collect();
    vars.sort_unstable();
    vars.dedup();
    vars
}

/// `true` when FastTrack ≡ DJIT+ on race variables and the sampler warns
/// only on variables FastTrack warns on.
fn agrees(trace: &Trace, ft: &FastTrack, sampler: &Sampler) -> bool {
    let ft_vars = race_vars(ft.warnings());
    let mut djit = Djit::new();
    djit.run(trace);
    ft_vars == race_vars(djit.warnings())
        && race_vars(sampler.warnings())
            .iter()
            .all(|v| ft_vars.binary_search(v).is_ok())
}

fn main() {
    let opts = HarnessOpts::from_env(200_000);

    // Thread counts are deliberately on the high side: the fast lane's
    // claim is O(1) sync against O(threads) joins, so the sweep must cover
    // clocks long enough for the asymptotic gap to show (at 4 threads a
    // vector join is a near-memcpy).
    let synthetic: Vec<(&str, Trace)> = vec![
        ("lock_ping_pong", lock_ping_pong(16, opts.ops)),
        ("barrier_phases", barrier_phases(16, opts.ops)),
        ("fork_join_tree", fork_join_tree(32, opts.ops)),
        ("volatile_fanout", volatile_fanout(8, opts.ops)),
    ];
    let sampler_cfg = SamplerConfig::default().with_seed(opts.seed);

    let mut json = JsonWriter::new();
    json.begin_object();
    json.field_str("suite", "sync");
    json.field_u64("ops", opts.ops as u64);
    json.field_u64("seed", opts.seed);

    println!("sync-path fast lane: FastTrack ns per sync op and fast-path hit rate");
    println!(
        "~{} events/trace, seed {}, best of {} reps\n",
        opts.ops,
        opts.seed,
        opts.reps.max(5)
    );
    println!(
        "{:<16} | {:>8} | {:>9} | {:>8} | {:>8} | agree",
        "workload", "sync_ops", "sync_dens", "ns/sync", "hit_rate"
    );

    let mut divergences = 0u64;
    json.key("sync_dense");
    json.begin_array();
    for (name, trace) in &synthetic {
        let syncs = sync_op_count(trace);
        let (best, ft) = time_fasttrack(trace, opts.reps.max(5));
        let (_, sampler) = time_sampler(&sampler_cfg, trace);
        let agree = agrees(trace, &ft, &sampler);
        if !agree {
            divergences += 1;
        }
        let hit_rate = ft.stats().sync_fastpath_rate().unwrap_or(0.0);
        let density = syncs as f64 / trace.len() as f64;
        let ns_per_sync = best.as_nanos() as f64 / syncs as f64;

        json.begin_object();
        json.field_str("workload", name);
        json.field_u64("events", trace.len() as u64);
        json.field_u64("sync_ops", syncs);
        json.field_f64("sync_density", density);
        json.field_f64("ms", best.as_secs_f64() * 1e3);
        json.field_f64("ns_per_sync", ns_per_sync);
        json.field_f64("fastpath_hit_rate", hit_rate);
        json.field_u64("fastpath_hits", ft.stats().sync_fastpath_hits);
        json.field_u64("slow_joins", ft.stats().sync_slow_joins);
        json.field_bool("agrees", agree);
        json.end_object();

        println!(
            "{:<16} | {:>8} | {:>8}% | {:>8} | {:>7}% | {}",
            name,
            syncs,
            fmt1(density * 100.0),
            fmt1(ns_per_sync),
            fmt1(hit_rate * 100.0),
            if agree { "ok" } else { "DIVERGED" }
        );
    }
    json.end_array();

    println!("\nfloor benchmarks: sampler overhead over EMPTY");
    println!(
        "{:<10} | {:>9} | {:>9} | {:>8} | fits",
        "workload", "sync_dens", "overhead", "ft_hits"
    );
    let envelope = sampler_cfg.overhead_budget_pct;
    let mut fits = 0u64;
    json.key("floor");
    json.begin_array();
    for name in FLOOR_BENCHMARKS {
        let trace = build(name, opts.scale(), opts.seed);
        let syncs = sync_op_count(&trace);
        let (_, ft) = time_fasttrack(&trace, 1);
        let (empty_best, sampler_best, sampler) =
            time_floor_round(&trace, &sampler_cfg, opts.reps.max(7));
        let agree = agrees(&trace, &ft, &sampler);
        if !agree {
            divergences += 1;
        }
        let overhead = (sampler_best.as_secs_f64() / empty_best.as_secs_f64() - 1.0) * 100.0;
        let in_envelope = overhead < envelope;
        if in_envelope {
            fits += 1;
        }
        let ft_hit_rate = ft.stats().sync_fastpath_rate().unwrap_or(0.0);

        json.begin_object();
        json.field_str("workload", name);
        json.field_u64("events", trace.len() as u64);
        json.field_u64("sync_ops", syncs);
        json.field_f64("sync_density", syncs as f64 / trace.len() as f64);
        json.field_f64("empty_ms", empty_best.as_secs_f64() * 1e3);
        json.field_f64("sampler_ms", sampler_best.as_secs_f64() * 1e3);
        json.field_f64("sampler_overhead_pct", overhead);
        json.field_f64("fasttrack_hit_rate", ft_hit_rate);
        json.field_bool("agrees", agree);
        json.field_bool("fits_envelope", in_envelope);
        json.end_object();

        println!(
            "{:<10} | {:>8}% | {:>8}% | {:>7}% | {}",
            name,
            fmt1(syncs as f64 / trace.len() as f64 * 100.0),
            fmt1(overhead),
            fmt1(ft_hit_rate * 100.0),
            if !agree {
                "DIVERGED"
            } else if in_envelope {
                "yes"
            } else {
                "no"
            }
        );
    }
    json.end_array();
    json.field_f64("overhead_envelope_pct", envelope);
    json.field_u64("floor_fits_envelope", fits);
    json.field_u64("divergences", divergences);
    json.end_object();

    println!(
        "\n{fits}/{} floor benchmarks fit the sampler's {}% overhead envelope",
        FLOOR_BENCHMARKS.len(),
        envelope
    );
    match std::fs::write("BENCH_sync.json", json.finish()) {
        Ok(()) => println!("wrote BENCH_sync.json"),
        Err(e) => eprintln!("failed to write BENCH_sync.json: {e}"),
    }
    if divergences > 0 {
        eprintln!(
            "FAIL: race variables diverged from DJIT+ or FastTrack on {divergences} workloads"
        );
        std::process::exit(1);
    }
}
