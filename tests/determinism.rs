//! Thread-sweep replay checks: the worker-thread count must be invisible
//! in the results.
//!
//! The replayability contract (job spec + seed → bit-identical
//! [`DesignResult`]) was pinned for reuse-on vs reuse-off in
//! `tests/eval_cache.rs`; this suite extends it across worker-thread
//! counts. The argument the static `determinism` lint cannot make on its
//! own: RNG draws happen on the coordinating thread (so the candidate
//! sequence is thread-count independent), `SolverPool::execute` writes
//! results back by candidate index (so ordering is restored), and each
//! cache entry computes deterministically after `Evaluator::reset_state`
//! (so *which* thread computes an entry cannot matter). These tests prove the
//! composition dynamically at 1, 2 and 4 worker threads — oversubscribed
//! on small hosts, which is itself part of the point.

use coolnet::prelude::*;

/// A quick single-flow search with a fixed candidate count and the reuse
/// layer on, scored by `threads` worker threads (0 = follow parallelism).
fn search(case: usize, problem: Problem, seed: u64, threads: usize) -> DesignResult {
    let bench = Benchmark::iccad_scaled(case, GridDims::new(21, 21));
    let mut opts = TreeSearchOptions::quick(seed);
    opts.parallelism = 4;
    opts.flows = vec![GlobalFlow::WestToEast];
    opts.reuse = ReuseOptions::with_worker_threads(threads);
    TreeSearch::new(&bench, opts)
        .run(problem)
        .expect("quick search must find a feasible tree network")
}

/// Bitwise equality of everything a caller can observe about a result.
fn assert_identical(a: &DesignResult, b: &DesignResult, threads: usize) {
    assert_eq!(a.label, b.label, "at {threads} worker threads");
    let pairs = [
        (a.p_sys.value(), b.p_sys.value(), "p_sys"),
        (a.w_pump.value(), b.w_pump.value(), "w_pump"),
        (a.t_max.value(), b.t_max.value(), "t_max"),
        (a.delta_t.value(), b.delta_t.value(), "delta_t"),
    ];
    for (x, y, what) in pairs {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what} differs at {threads} worker threads"
        );
    }
}

/// Sweeps worker threads for one problem, comparing every count against
/// the 1-thread reference.
fn sweep(case: usize, problem: Problem, seed: u64) {
    let reference = search(case, problem, seed, 1);
    for threads in [2, 4] {
        let swept = search(case, problem, seed, threads);
        assert_identical(&reference, &swept, threads);
    }
    // `0` (follow parallelism = 4) must also match: the default
    // configuration is one point of the sweep, not a special case.
    let default_threads = search(case, problem, seed, 0);
    assert_identical(&reference, &default_threads, 0);
}

#[test]
fn problem1_is_thread_count_invariant() {
    sweep(1, Problem::PumpingPower, 29);
}

#[test]
fn problem2_is_thread_count_invariant() {
    sweep(2, Problem::ThermalGradient, 31);
}

/// The diagnostics gate must be invisible to replay: the same probe
/// sequence yields bitwise-identical temperatures and an identical
/// rung/attempt trace at 1, 2 and 4 solver threads — with the gate
/// demonstrably engaged, not idle.
///
/// The probe at 1e-9 kPa has vanishing advection, so the steady operator
/// is a near-singular conduction Laplacian that the gate routes straight
/// to the dense rung (one attempt).
#[test]
fn adaptive_ladder_replays_bit_identically_across_solver_threads() {
    let dims = GridDims::new(11, 11);
    let bench = Benchmark::iccad_scaled(1, dims);
    let net = straight::build(
        dims,
        &tsv::alternating(dims),
        Dir::East,
        &StraightParams::default(),
    )
    .unwrap();
    let stack = bench.stack_with(std::slice::from_ref(&net)).unwrap();
    let kpa = [5.0f64, 1e-9, 8.0, 1e-9, 5.0];

    // Replays one probe sequence on a fresh simulator, returning every
    // temperature bit plus the (rung, attempts) trace per probe.
    let run = |threads: usize| -> (Vec<u64>, Vec<(usize, usize)>) {
        let cfg = ThermalConfig {
            solver_threads: threads,
            ..ThermalConfig::default()
        };
        let sim = TwoRm::new(&stack, 2, &cfg).unwrap();
        let mut bits = Vec::new();
        let mut trace = Vec::new();
        for &k in &kpa {
            let sol = sim.simulate(Pascal::from_kilopascals(k)).unwrap();
            bits.extend(sol.all_temperatures().iter().map(|t| t.to_bits()));
            trace.push((sol.stats().rung, sol.stats().attempts));
        }
        (bits, trace)
    };

    // Degenerate probes are routed to the dense rung in a single attempt;
    // healthy probes are untouched at rung 0. No sticky state — routing
    // is per-solve, so the trace is position-independent.
    let gated = run(1);
    assert_eq!(gated.1, [(0, 1), (3, 1), (0, 1), (3, 1), (0, 1)]);

    // The gate may not leak thread-count dependence into results.
    for threads in [2, 4] {
        assert_eq!(run(threads), gated, "gated replay at {threads} threads");
    }
}
