//! Property suite pinning the sync-path fast lane to the pre-change
//! semantics. The fast lane is pure bookkeeping — versioned lock clocks,
//! release-epoch acquire hits, the barrier epoch-rebuild, and the
//! sampler's lazy epoch-only sync summary must never change a single
//! warning, provenance field, or rule count. Each engine pair below is
//! driven over roughly a thousand generated traces tuned to be
//! synchronization-dense (1-access critical sections, frequent barriers
//! and volatile hand-offs), the regime where every fast-lane branch is
//! exercised constantly:
//!
//! * sequential `FastTrack` with the fast lane on vs. `ablate_sync_fastpath`
//!   (full Figure 5 joins at every acquire/release/volatile/barrier);
//! * the sampler's lazy sync summary vs. its eager per-release clock copy.
//!
//! The suite also asserts the fast lane actually fires: a population this
//! sync-dense that reports a ~0% hit rate means the fast path was silently
//! disabled, which the equality checks alone would never catch.

use fasttrack_suite::core::{Detector, FastTrack, FastTrackConfig};
use fasttrack_suite::trace::gen::{self, GenConfig};
use fasttrack_suite::trace::Trace;
use ft_sampler::{Sampler, SamplerConfig};

/// Sync-dense generator shape: every access sits in its own critical
/// section, barriers and volatiles are orders of magnitude more frequent
/// than the paper's aggregate mix.
fn sync_dense(threads: u32, seed_races: f64) -> GenConfig {
    GenConfig {
        threads,
        vars: 24,
        locks: 6,
        ops: 700,
        accesses_per_cs: 1,
        p_barrier: 0.015,
        p_volatile: 0.04,
        ..GenConfig::default().with_races(seed_races)
    }
}

fn run_fasttrack(trace: &Trace, ablate: bool) -> FastTrack {
    let mut ft = FastTrack::with_config(FastTrackConfig {
        ablate_sync_fastpath: ablate,
        ..FastTrackConfig::default()
    });
    ft.run(trace);
    ft
}

/// The fused engine must be observationally identical to the ablated one:
/// warnings (order included), every provenance field, and the rule
/// breakdown. Only the cost counters (`vc_ops`, fast-path tallies) may
/// differ — that difference *is* the optimization.
fn assert_fused_matches_ablated(trace: &Trace, label: &str) -> (u64, u64) {
    let fused = run_fasttrack(trace, false);
    let ablated = run_fasttrack(trace, true);
    assert_eq!(
        fused.warnings(),
        ablated.warnings(),
        "{label}: warnings diverge under the sync fast lane"
    );
    for (fw, aw) in fused.warnings().iter().zip(ablated.warnings()) {
        assert_eq!(
            fw.provenance, aw.provenance,
            "{label}: provenance diverges under the sync fast lane"
        );
    }
    assert_eq!(
        fused.rule_breakdown(),
        ablated.rule_breakdown(),
        "{label}: rule breakdown diverges under the sync fast lane"
    );
    assert_eq!(
        ablated.stats().sync_fastpath_hits,
        0,
        "{label}: ablated engine took a fast path"
    );
    (
        fused.stats().sync_fastpath_hits,
        fused.stats().sync_slow_joins,
    )
}

/// ~800 sync-dense traces (racy, race-free, and chaotic shapes) pinning
/// fused ≡ ablated, plus the population-level hit-rate floor.
#[test]
fn fused_matches_ablated_on_sync_dense_population() {
    let mut hits = 0u64;
    let mut slow = 0u64;
    for seed in 0..200u64 {
        let racy = gen::generate(&sync_dense(4, 0.1), seed);
        let (h, s) = assert_fused_matches_ablated(&racy, &format!("racy seed {seed}"));
        hits += h;
        slow += s;
        let clean = gen::generate(&sync_dense(6, 0.0), seed);
        let (h, s) = assert_fused_matches_ablated(&clean, &format!("clean seed {seed}"));
        hits += h;
        slow += s;
        let chaos = gen::chaotic(6, 16, 4, 600, 10_000 + seed);
        let (h, s) = assert_fused_matches_ablated(&chaos, &format!("chaotic seed {seed}"));
        hits += h;
        slow += s;
        // Wide shape: 16 threads makes each skipped join 4x the work of
        // the 4-thread shapes, and barriers cover more lanes.
        let wide = gen::generate(&sync_dense(16, 0.05), 20_000 + seed);
        let (h, s) = assert_fused_matches_ablated(&wide, &format!("wide seed {seed}"));
        hits += h;
        slow += s;
    }
    let rate = hits as f64 / (hits + slow).max(1) as f64;
    assert!(
        rate > 0.10,
        "sync fast lane barely fires on a sync-dense population: \
         {hits} hits / {slow} slow joins ({:.1}%)",
        rate * 100.0
    );
}

/// ~200 sync-dense traces pinning the sampler's lazy epoch-only sync
/// summary to the eager per-release baseline at full admission: identical
/// warnings, admissions, and rule breakdown.
#[test]
fn sampler_lazy_sync_matches_eager_on_sync_dense_population() {
    let base = SamplerConfig::default().with_rate(1.0).with_seed(11);
    for seed in 0..100u64 {
        for (shape, trace) in [
            ("dense", gen::generate(&sync_dense(5, 0.1), 70_000 + seed)),
            ("chaos", gen::chaotic(5, 14, 4, 650, 80_000 + seed)),
        ] {
            let mut lazy = Sampler::with_config(base.clone().with_eager_sync(false));
            let mut eager = Sampler::with_config(base.clone().with_eager_sync(true));
            lazy.replay(&trace);
            eager.replay(&trace);
            let label = format!("{shape} seed {seed}");
            assert_eq!(lazy.warnings(), eager.warnings(), "{label}: warnings");
            assert_eq!(lazy.admitted(), eager.admitted(), "{label}: admissions");
            assert_eq!(
                lazy.rule_breakdown(),
                eager.rule_breakdown(),
                "{label}: rule breakdown"
            );
        }
    }
}

/// Barrier-heavy shape aimed at the epoch-rebuild: long runs of identical
/// barrier episodes with no intervening lock traffic, which the rebuild
/// must service with O(|T|) lane writes while staying bit-identical.
#[test]
fn barrier_heavy_population_agrees_and_rebuild_fires() {
    let mut rebuild_capable_hits = 0u64;
    for seed in 0..100u64 {
        let cfg = GenConfig {
            threads: 8,
            vars: 16,
            locks: 2,
            ops: 800,
            accesses_per_cs: 1,
            p_barrier: 0.08,
            p_volatile: 0.0,
            w_lock_protected: 0.05,
            w_read_shared: 0.6,
            w_thread_local: 0.35,
            ..GenConfig::default()
        };
        let trace = gen::generate(&cfg, 90_000 + seed);
        let (h, _) = assert_fused_matches_ablated(&trace, &format!("barrier seed {seed}"));
        rebuild_capable_hits += h;
    }
    assert!(
        rebuild_capable_hits > 0,
        "no fast-path hits across the barrier-heavy population"
    );
}
