//! Ablation study: what do FastTrack's two key design choices buy?
//!
//! ```text
//! cargo run --release -p ft-bench --bin ablation [-- --ops=200000 --reps=3]
//! ```
//!
//! Four configurations of the same analysis (all equally precise — asserted
//! at the end):
//!
//! * **full** — the paper's algorithm;
//! * **no-same-epoch** — the `[… SAME EPOCH]` fast paths disabled;
//! * **no-adaptive-read** — read histories always held as vector clocks
//!   (the DJIT⁺-shaped read side);
//! * **neither** — both disabled.
//!
//! DESIGN.md calls these out as the contributions worth quantifying
//! separately; the paper folds them together in the DJIT⁺ comparison.

use fasttrack::{Detector, FastTrack, FastTrackConfig};
use ft_bench::{arithmetic_mean, fmt1, slowdown, time_base, HarnessOpts};
use ft_workloads::{build, BENCHMARKS};

const VARIANTS: &[(&str, FastTrackConfig)] = &[
    (
        "full",
        FastTrackConfig {
            report_all: false,
            ablate_same_epoch: false,
            ablate_adaptive_read: false,
            guard: None,
            recorder: None,
            profile_tiers: false,
        },
    ),
    (
        "no-same-epoch",
        FastTrackConfig {
            report_all: false,
            ablate_same_epoch: true,
            ablate_adaptive_read: false,
            guard: None,
            recorder: None,
            profile_tiers: false,
        },
    ),
    (
        "no-adaptive-read",
        FastTrackConfig {
            report_all: false,
            ablate_same_epoch: false,
            ablate_adaptive_read: true,
            guard: None,
            recorder: None,
            profile_tiers: false,
        },
    ),
    (
        "neither",
        FastTrackConfig {
            report_all: false,
            ablate_same_epoch: true,
            ablate_adaptive_read: true,
            guard: None,
            recorder: None,
            profile_tiers: false,
        },
    ),
];

fn main() {
    let opts = HarnessOpts::from_env(200_000);
    println!("Ablation: FastTrack design choices (slowdown vs bare replay; VC allocations)");
    println!(
        "workload: ~{} events/benchmark, best of {} runs, seed {}\n",
        opts.ops, opts.reps, opts.seed
    );
    println!(
        "{:<12} | {:>8} {:>14} {:>16} {:>9} | {:>12}",
        "Program", "full", "no-same-epoch", "no-adaptive-read", "neither", "VCs n-a-r"
    );

    let mut avgs = vec![Vec::new(); VARIANTS.len()];
    for bench in BENCHMARKS.iter().filter(|b| b.compute_bound) {
        let trace = build(bench.name, opts.scale(), opts.seed);
        let base = time_base(&trace, opts.reps);
        let mut row = Vec::new();
        let mut nar_allocs = 0;
        let mut warning_counts = Vec::new();
        for (i, (_, config)) in VARIANTS.iter().enumerate() {
            let mut best = std::time::Duration::MAX;
            let mut last = None;
            for _ in 0..opts.reps {
                let mut ft = FastTrack::with_config(config.clone());
                let start = std::time::Instant::now();
                for (j, op) in trace.events().iter().enumerate() {
                    ft.on_op(j, op);
                }
                best = best.min(start.elapsed());
                last = Some(ft);
            }
            let ft = last.expect("reps >= 1");
            if i == 2 {
                nar_allocs = ft.stats().vc_allocated;
            }
            warning_counts.push(ft.warnings().len());
            row.push(slowdown(best, base));
            avgs[i].push(row[i]);
        }
        assert!(
            warning_counts.windows(2).all(|w| w[0] == w[1]),
            "{}: ablations must not change precision: {warning_counts:?}",
            bench.name
        );
        println!(
            "{:<12} | {:>8} {:>14} {:>16} {:>9} | {:>12}",
            bench.name,
            fmt1(row[0]),
            fmt1(row[1]),
            fmt1(row[2]),
            fmt1(row[3]),
            nar_allocs
        );
    }
    println!("{}", "-".repeat(88));
    print!("{:<12} |", "Average");
    for (i, width) in [8usize, 14, 16, 9].iter().enumerate() {
        print!(" {:>w$}", fmt1(arithmetic_mean(&avgs[i])), w = width);
    }
    println!();
    println!(
        "\nsame-epoch fast paths buy {:.0}% of the full configuration's speed;",
        100.0 * (arithmetic_mean(&avgs[1]) / arithmetic_mean(&avgs[0]) - 1.0)
    );
    println!(
        "the adaptive epoch read representation buys {:.0}% (and the VC-allocation gap above).",
        100.0 * (arithmetic_mean(&avgs[2]) / arithmetic_mean(&avgs[0]) - 1.0)
    );
    println!("precision was identical across all four variants on every benchmark.");
}
