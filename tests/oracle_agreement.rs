//! The paper's §5 cross-check as a differential oracle: "BASICVC and
//! DJIT+ reported exactly the same race conditions as FASTTRACK". All three
//! detectors are precise, so on every trace they must warn on exactly the
//! same set of variables. DJIT+ and BASICVC share none of FastTrack's
//! epoch machinery (adaptive read histories, versioned lock clocks, the
//! barrier epoch rebuild, the fused block loop), so agreement here checks
//! those optimisations against full vector clocks at every sync operation.
//!
//! Populations: generated racy, race-free and chaotic traces, a thread and
//! variable shape sweep, sync-dense and barrier-heavy populations (which
//! also assert the sync fast lane actually fires there), and one fixed
//! trace that uses every sync operation kind. The file also checks
//! FastTrack's own provenance invariants on every warning it reports.

use fasttrack_suite::clock::Tid;
use fasttrack_suite::core::{Detector, FastTrack};
use fasttrack_suite::detectors::{BasicVc, Djit};
use fasttrack_suite::trace::gen::{self, GenConfig};
use fasttrack_suite::trace::{LockId, Op, Trace, TraceBuilder, VarId};

fn race_vars<D: Detector>(mut detector: D, trace: &Trace) -> Vec<VarId> {
    detector.run(trace);
    let mut vars: Vec<VarId> = detector.warnings().iter().map(|w| w.var).collect();
    vars.sort_unstable();
    vars.dedup();
    vars
}

/// Asserts FastTrack ≡ DJIT+ ≡ BASICVC on race variables and returns the
/// agreed set.
fn assert_oracles_agree(trace: &Trace, label: &str) -> Vec<VarId> {
    let ft = race_vars(FastTrack::new(), trace);
    assert_eq!(ft, race_vars(Djit::new(), trace), "{label}: DJIT+");
    assert_eq!(ft, race_vars(BasicVc::new(), trace), "{label}: BASICVC");
    ft
}

/// FastTrack's sync fast-lane tallies on `trace`: `(hits, slow joins)`.
fn fast_lane(trace: &Trace) -> (u64, u64) {
    let mut ft = FastTrack::new();
    ft.run(trace);
    (ft.stats().sync_fastpath_hits, ft.stats().sync_slow_joins)
}

/// Sync-dense generator shape: every access sits in its own critical
/// section, and barriers and volatiles are orders of magnitude more
/// frequent than in the paper's mix.
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

/// Hundreds of random racy traces; the population must actually race.
#[test]
fn random_racy_traces_agree() {
    let cfg = GenConfig {
        ops: 600,
        ..GenConfig::default().with_races(0.08)
    };
    let mut racy = 0usize;
    for seed in 0..500u64 {
        let trace = gen::generate(&cfg, seed);
        racy += assert_oracles_agree(&trace, &format!("racy seed {seed}")).len();
    }
    assert!(racy > 100, "racy population produced {racy} race variables");
}

/// Random race-free traces: all three detectors stay silent.
#[test]
fn random_race_free_traces_agree_on_clean_verdict() {
    let cfg = GenConfig {
        ops: 600,
        ..GenConfig::race_free()
    };
    for seed in 0..500u64 {
        let trace = gen::generate(&cfg, seed);
        let vars = assert_oracles_agree(&trace, &format!("race-free seed {seed}"));
        assert!(vars.is_empty(), "race-free seed {seed} warned on {vars:?}");
    }
}

/// Chaotic traces: unstructured op soup with heavy contention, so nearly
/// every access sits next to a sync op.
#[test]
fn chaotic_traces_agree() {
    for seed in 0..500u64 {
        let trace = gen::chaotic(6, 24, 4, 600, seed);
        assert_oracles_agree(&trace, &format!("chaotic seed {seed}"));
    }
}

/// Thread/variable shapes from one variable shared by two threads up to
/// twelve threads over 64 variables.
#[test]
fn shape_sweep_agrees() {
    for (threads, vars, seed) in [(2u32, 1u32, 1u64), (2, 3, 2), (8, 5, 3), (12, 64, 4)] {
        let cfg = GenConfig {
            threads,
            vars,
            ops: 800,
            ..GenConfig::default().with_races(0.1)
        };
        let trace = gen::generate(&cfg, seed);
        assert_oracles_agree(&trace, &format!("shape {threads}x{vars} seed {seed}"));
    }
}

/// ~800 sync-dense traces (racy, race-free, chaotic and 16-thread shapes):
/// the regime where the sync fast lane fires on most acquires. A
/// population this sync-dense with a ~0% hit rate means the fast lane was
/// silently disabled, which agreement alone would never catch.
#[test]
fn sync_dense_population_agrees() {
    let mut hits = 0u64;
    let mut slow = 0u64;
    for seed in 0..200u64 {
        for (shape, trace) in [
            ("racy", gen::generate(&sync_dense(4, 0.1), seed)),
            ("clean", gen::generate(&sync_dense(6, 0.0), seed)),
            ("chaotic", gen::chaotic(6, 16, 4, 600, 10_000 + seed)),
            ("wide", gen::generate(&sync_dense(16, 0.05), 20_000 + seed)),
        ] {
            assert_oracles_agree(&trace, &format!("{shape} seed {seed}"));
            let (h, s) = fast_lane(&trace);
            hits += h;
            slow += s;
        }
    }
    let rate = hits as f64 / (hits + slow).max(1) as f64;
    assert!(
        rate > 0.10,
        "sync fast lane barely fires on a sync-dense population: \
         {hits} hits / {slow} slow joins ({:.1}%)",
        rate * 100.0
    );
}

/// Barrier-heavy shape aimed at FastTrack's barrier epoch rebuild: long
/// runs of barrier episodes with little lock traffic.
#[test]
fn barrier_heavy_population_agrees() {
    let mut hits = 0u64;
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
        assert_oracles_agree(&trace, &format!("barrier seed {seed}"));
        hits += fast_lane(&trace).0;
    }
    assert!(
        hits > 0,
        "no fast-path hits across the barrier-heavy population"
    );
}

/// Seeded provenance property: every warning FastTrack emits must carry a
/// populated [`Provenance`] whose rule is a label the rule breakdown
/// actually counted (hits > 0), whose conflicting epoch is a real epoch
/// (not the initial sentinel), and whose thread clock contains the
/// accessing thread's own entry at the epoch's clock value.
#[test]
fn every_warning_carries_matching_provenance() {
    let cfg = GenConfig {
        ops: 700,
        ..GenConfig::default().with_races(0.12)
    };
    let mut warnings_seen = 0usize;
    for seed in 0..120u64 {
        let trace = gen::generate(&cfg, seed);
        let mut seq = FastTrack::new();
        seq.run(&trace);
        let breakdown = seq.rule_breakdown();
        for w in seq.warnings() {
            warnings_seen += 1;
            let p = w
                .provenance
                .as_ref()
                .unwrap_or_else(|| panic!("seed {seed}: warning without provenance: {w}"));
            let counted = breakdown
                .iter()
                .find(|r| r.rule == p.rule)
                .unwrap_or_else(|| panic!("seed {seed}: rule {:?} not in breakdown", p.rule));
            assert!(
                counted.hits > 0,
                "seed {seed}: rule {:?} reported a race but counted no hits",
                p.rule
            );
            assert!(
                !p.conflict.is_initial(),
                "seed {seed}: conflict epoch is the initial sentinel: {p}"
            );
            assert_eq!(
                p.current_epoch.tid(),
                w.current.tid,
                "seed {seed}: provenance epoch thread != reporting thread"
            );
            let own = p
                .thread_clock
                .iter()
                .find(|(t, _)| *t == w.current.tid)
                .unwrap_or_else(|| panic!("seed {seed}: C_t missing the accessing thread"));
            assert_eq!(
                own.1,
                p.current_epoch.clock(),
                "seed {seed}: C_t(t) != E(t) at detection"
            );
        }
    }
    assert!(
        warnings_seen > 50,
        "property test exercised too few warnings ({warnings_seen})"
    );
}

/// A fixed regression trace that exercises every synchronization operation
/// kind — fork, join, acquire, release, wait, notify, volatile read/write,
/// barrier release, atomic markers — interleaved with accesses, including
/// one deliberate race. A change to any sync handler that breaks agreement
/// with the vector-clock detectors fails here with a stable, readable trace
/// rather than a generated seed.
#[test]
fn regression_trace_with_every_sync_op_kind() {
    let t0 = Tid::new(0);
    let t1 = Tid::new(1);
    let t2 = Tid::new(2);
    let m = LockId::new(0);
    let x = VarId::new(0);
    let y = VarId::new(1);
    let z = VarId::new(2);
    let v = VarId::new(3);

    let mut b = TraceBuilder::new();
    b.write(t0, x).unwrap();
    b.fork(t0, t1).unwrap();
    b.fork(t0, t2).unwrap();

    // Lock-protected handoff of y, with a wait (release+acquire) inside the
    // critical section and a happens-before-free notify.
    b.acquire(t0, m).unwrap();
    b.write(t0, y).unwrap();
    b.push(Op::Notify(t0, m)).unwrap();
    b.release(t0, m).unwrap();
    b.acquire(t1, m).unwrap();
    b.push(Op::Wait(t1, m)).unwrap();
    b.read(t1, y).unwrap();
    b.release(t1, m).unwrap();

    // Volatile handoff of z from t1 to t2.
    b.write(t1, z).unwrap();
    b.volatile_write(t1, v).unwrap();
    b.volatile_read(t2, v).unwrap();
    b.read(t2, z).unwrap();

    // Atomic markers are no-ops for race detection but must flow through.
    b.push(Op::AtomicBegin(t2)).unwrap();
    b.write(t2, z).unwrap();
    b.push(Op::AtomicEnd(t2)).unwrap();

    // Barrier: everyone reads x race-free afterwards.
    b.barrier_release(vec![t0, t1, t2]).unwrap();
    b.read(t0, x).unwrap();
    b.read(t1, x).unwrap();
    b.read(t2, x).unwrap();

    // One deliberate race: t1 writes x while t2's read is concurrent.
    b.write(t1, x).unwrap();
    b.read(t2, x).unwrap();

    // Join everything back and touch x once more, race-free.
    b.join(t0, t1).unwrap();
    b.join(t0, t2).unwrap();
    b.write(t0, x).unwrap();
    let trace = b.finish();

    let mut seq = FastTrack::new();
    seq.run(&trace);
    // One warning: t1's write to x is concurrent with the post-barrier
    // reads (read-write race); later races on x are suppressed by the
    // default once-per-variable reporting.
    assert_eq!(seq.warnings().len(), 1, "warnings: {:?}", seq.warnings());
    assert_eq!(
        assert_oracles_agree(&trace, "regression trace"),
        vec![x],
        "only x races"
    );
}
