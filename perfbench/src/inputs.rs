//! Workload inputs: every trace the benchmark feeds the program, built from
//! the seed, encoded once to `.ftb`, and paired with the oracle results the
//! measured runs are checked against. Everything here counts in `setup_s`.

use fasttrack::{warnings_to_json, Detector, FastTrack};
use ft_detectors::Djit;
use ft_trace::{LockId, Op, Prng, Tid, Trace, TraceBuilder, VarId};
use ft_workloads::{Scale, BENCHMARKS};

/// The benchmark's workloads (see `perfbench/README.md` for why each).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 16 Table-1 simulations: the paper's own event mix.
    PaperSuite,
    /// Lock ping-pong, barrier phases, a fork/join tree and volatile
    /// fan-out: sync handlers and vector-clock joins do the work.
    SyncDense,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-suite" => Some(Workload::PaperSuite),
            "sync-dense" => Some(Workload::SyncDense),
            _ => None,
        }
    }
}

/// A sync-dense trace shape: `(rng, threads, events)` to a trace.
type Shape = fn(&mut Prng, u32, usize) -> Trace;

/// One input trace, its `.ftb` image and its oracles.
pub struct Fixture {
    pub name: String,
    pub ftb: Vec<u8>,
    pub events: u64,
    /// `warnings_to_json` of `FastTrack::run` over the in-memory trace.
    pub oracle_json: String,
    /// Racy variables of that run, sorted.
    pub oracle_vars: Vec<VarId>,
    /// Racy variables DJIT+ reports on the same trace, sorted.
    pub djit_vars: Vec<VarId>,
    /// Table 1's FastTrack warning count (paper-suite only).
    pub expected_races: Option<usize>,
}

/// Sorted, deduplicated racy-variable set of a detector's warnings.
pub fn race_vars(warnings: &[fasttrack::Warning]) -> Vec<VarId> {
    let mut vars: Vec<VarId> = warnings.iter().map(|w| w.var).collect();
    vars.sort();
    vars.dedup();
    vars
}

fn fixture(name: String, trace: &Trace, expected_races: Option<usize>) -> Fixture {
    let mut ft = FastTrack::new();
    ft.run(trace);
    let mut djit = Djit::new();
    djit.run(trace);
    Fixture {
        name,
        ftb: trace
            .to_ftb()
            .expect("generated traces fit the .ftb record"),
        events: trace.len() as u64,
        oracle_json: warnings_to_json(ft.warnings()),
        oracle_vars: race_vars(ft.warnings()),
        djit_vars: race_vars(djit.warnings()),
        expected_races,
    }
}

/// Per-fixture seed: distinct streams for every (seed, fixture) pair.
fn mix(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Builds every fixture of `workload`. `tiny` shrinks each trace ~50× for
/// the self-test.
pub fn build(workload: Workload, seed: u64, tiny: bool) -> Vec<Fixture> {
    let div = if tiny { 50 } else { 1 };
    match workload {
        Workload::PaperSuite => BENCHMARKS
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let scale = Scale { ops: 200_000 / div };
                let trace = ft_workloads::build(b.name, scale, mix(seed, i as u64));
                fixture(b.name.to_string(), &trace, Some(b.expected_races))
            })
            .collect(),
        Workload::SyncDense => {
            let n = 100_000 / div;
            let shapes: [(&str, Shape, u32); 6] = [
                ("lock-ping-pong-16", lock_ping_pong, 16),
                ("lock-ping-pong-32", lock_ping_pong, 32),
                ("barrier-phases-16", barrier_phases, 16),
                ("barrier-phases-32", barrier_phases, 32),
                ("fork-join-tree", fork_join_tree, 5),
                ("volatile-fan-out", volatile_fan_out, 8),
            ];
            shapes
                .iter()
                .enumerate()
                .map(|(i, &(name, shape, threads))| {
                    let mut rng = Prng::seed_from_u64(mix(seed, i as u64));
                    fixture(name.to_string(), &shape(&mut rng, threads, n), None)
                })
                .collect()
        }
    }
}

/// The one deliberate race every sync-dense shape carries, so the warning
/// and render paths run: threads `t` and `u` write `x` with no ordering
/// between them at this point of the trace.
fn race(b: &mut TraceBuilder, t: u32, u: u32, x: VarId) {
    b.write(Tid::new(t), x).expect("feasible");
    b.write(Tid::new(u), x).expect("feasible");
}

/// Lock ping-pong: threads paired over `threads / 2` locks; a random thread
/// takes its pair's lock for a random run of acquire/read/write/release
/// cycles, so the lock hands off between the partners at random points.
fn lock_ping_pong(rng: &mut Prng, threads: u32, ops: usize) -> Trace {
    let mut b = TraceBuilder::with_threads(threads);
    let pairs = threads / 2;
    // Threads 0 and 1 sit in different pairs and never share a lock.
    race(&mut b, 0, 1, VarId::new(pairs));
    while b.len() < ops {
        let t = rng.gen_range(0..threads);
        let (tid, m, x) = (Tid::new(t), LockId::new(t % pairs), VarId::new(t % pairs));
        for _ in 0..rng.gen_range(1..=8u32) {
            b.acquire(tid, m).expect("feasible");
            b.read(tid, x).expect("feasible");
            b.write(tid, x).expect("feasible");
            b.release(tid, m).expect("feasible");
        }
    }
    b.finish()
}

/// Barrier phases: each thread makes a few accesses to its own variables,
/// then the whole group crosses a barrier.
fn barrier_phases(rng: &mut Prng, threads: u32, ops: usize) -> Trace {
    let mut b = TraceBuilder::with_threads(threads);
    let all: Vec<Tid> = (0..threads).map(Tid::new).collect();
    // Both writes fall in the first phase, before any barrier orders them.
    race(&mut b, 0, 1, VarId::new(2 * threads));
    while b.len() < ops {
        for &t in &all {
            for _ in 0..rng.gen_range(1..=3u32) {
                let x = VarId::new(2 * t.as_u32() + rng.gen_range(0..2u32));
                if rng.gen_bool(0.5) {
                    b.read(t, x).expect("feasible");
                } else {
                    b.write(t, x).expect("feasible");
                }
            }
        }
        b.push(Op::BarrierRelease(all.clone())).expect("feasible");
    }
    b.finish()
}

/// Fork/join tree: main forks `fanout` children, each forks `fanout`
/// grandchildren, and so on for three levels (156 threads at fan-out 5,
/// far past the 8 inline clock lanes). Leaves interleave at random,
/// updating their parent's variable under the parent's lock; then every
/// level is joined bottom-up and the parent reads its children's results.
fn fork_join_tree(rng: &mut Prng, fanout: u32, ops: usize) -> Trace {
    let mut b = TraceBuilder::new();
    let main = Tid::new(0);
    let mut next = 1u32;
    // (parent, children) for every internal node, top-down.
    let mut internal: Vec<(Tid, Vec<Tid>)> = Vec::new();
    let mut level = vec![main];
    for _ in 0..3 {
        let mut below = Vec::new();
        for &p in &level {
            let kids: Vec<Tid> = (0..fanout)
                .map(|_| {
                    next += 1;
                    Tid::new(next - 1)
                })
                .collect();
            below.extend(kids.iter().copied());
            internal.push((p, kids));
        }
        level = below;
    }
    let leaves = level;
    let parent_of = |leaf: Tid| {
        internal
            .iter()
            .find(|(_, kids)| kids.contains(&leaf))
            .map(|(p, _)| *p)
            .expect("every leaf has a parent")
    };
    let shared = VarId::new(next);
    b.write(main, shared).expect("feasible");
    for (p, kids) in &internal {
        for &k in kids {
            b.fork(*p, k).expect("feasible");
        }
    }
    for &leaf in &leaves {
        b.read(leaf, shared).expect("feasible");
    }
    // Two leaves under different parents: the tree never orders them.
    race(
        &mut b,
        leaves[0].as_u32(),
        leaves[leaves.len() - 1].as_u32(),
        VarId::new(next + 1),
    );
    let cycles = ops.saturating_sub(b.len() + 4 * next as usize) / 5;
    for _ in 0..cycles.max(1) {
        let leaf = leaves[rng.gen_range(0..leaves.len())];
        let p = parent_of(leaf);
        let (m, x) = (LockId::new(p.as_u32()), VarId::new(p.as_u32()));
        b.read(leaf, shared).expect("feasible");
        b.acquire(leaf, m).expect("feasible");
        b.read(leaf, x).expect("feasible");
        b.write(leaf, x).expect("feasible");
        b.release(leaf, m).expect("feasible");
    }
    for (p, kids) in internal.iter().rev() {
        for &k in kids {
            b.join(*p, k).expect("feasible");
        }
        b.read(*p, VarId::new(p.as_u32())).expect("feasible");
    }
    b.finish()
}

/// Volatile fan-out: thread 0 writes a data variable and publishes it
/// through a volatile; the other threads, in random order, re-read the
/// volatile a random number of times and then write their own variable.
/// Readers never publish back, so they leave the data alone: a read of it
/// would race with the writer's next round.
fn volatile_fan_out(rng: &mut Prng, threads: u32, ops: usize) -> Trace {
    let mut b = TraceBuilder::with_threads(threads);
    let (writer, v, data) = (Tid::new(0), VarId::new(0), VarId::new(1));
    // Readers 1 and 2 are never ordered with each other.
    race(&mut b, 1, 2, VarId::new(2));
    let mut readers: Vec<u32> = (1..threads).collect();
    while b.len() < ops {
        b.write(writer, data).expect("feasible");
        b.push(Op::VolatileWrite(writer, v)).expect("feasible");
        for i in (1..readers.len()).rev() {
            readers.swap(i, rng.gen_range(0..=i));
        }
        for &r in &readers {
            let r = Tid::new(r);
            for _ in 0..rng.gen_range(1..=4u32) {
                b.push(Op::VolatileRead(r, v)).expect("feasible");
            }
            b.write(r, VarId::new(3 + r.as_u32())).expect("feasible");
        }
    }
    b.finish()
}
