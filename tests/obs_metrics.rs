//! Cross-crate consistency checks for the `coolnet-obs` metrics layer.
//!
//! The counters are process-global, so every test takes a shared mutex and
//! works on snapshot *deltas* — absolute values would couple the tests to
//! execution order.

use coolnet::obs;
use coolnet::prelude::*;
use coolnet_opt::psearch::golden_min;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests in this binary: each one delta-measures the
/// process-global metric registry.
static METRICS: Mutex<()> = Mutex::new(());

fn metrics_lock() -> MutexGuard<'static, ()> {
    METRICS.lock().unwrap_or_else(|p| p.into_inner())
}

fn setup() -> (Benchmark, CoolingNetwork) {
    let dims = GridDims::new(21, 21);
    let bench = Benchmark::iccad_scaled(1, dims);
    let net = straight::build(
        dims,
        &tsv::alternating(dims),
        Dir::East,
        &StraightParams::default(),
    )
    .unwrap();
    (bench, net)
}

/// Inside a pure golden-section window every probe is one `Evaluator`
/// profile, which is one cached steady solve, which is one resilient
/// ladder solve — the four counters must march in lockstep.
#[test]
fn golden_min_window_counts_march_in_lockstep() {
    let _guard = metrics_lock();
    let (bench, net) = setup();
    let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
    // Warm the evaluator outside the window so the first-solve cache
    // construction doesn't show up in the deltas.
    ev.profile(Pascal::from_kilopascals(10.0)).unwrap();

    let before = obs::snapshot();
    let mut f = |p: Pascal| ev.profile(p).map(|pr| pr.delta_t.value());
    let opts = PressureSearchOptions::default();
    let (p_best, _) = golden_min(
        &mut f,
        Pascal::from_kilopascals(2.0),
        Pascal::from_kilopascals(20.0),
        &opts,
    )
    .unwrap();
    let after = obs::snapshot();

    assert!(p_best.value() > 0.0);
    let probes = after.counter_delta(&before, "psearch.probes");
    assert!(probes > 0, "golden_min must record its probes");
    assert_eq!(probes, after.counter_delta(&before, "eval.profiles"));
    assert_eq!(probes, after.counter_delta(&before, "probe.steady_solves"));
    assert_eq!(probes, after.counter_delta(&before, "ladder.solves"));
    // Warm-started probes on a healthy matrix never escalate.
    assert_eq!(after.counter_delta(&before, "ladder.escalations"), 0);
    assert_eq!(after.counter_delta(&before, "ladder.exhausted"), 0);
    // Every windowed solve was warm-started (the evaluator was pre-warmed).
    assert_eq!(probes, after.counter_delta(&before, "probe.warm_starts"));
    // Each solve runs at least one Krylov iteration.
    assert!(after.histogram_sum_delta(&before, "ladder.iterations") >= probes);
}

/// The full Problem-2 pipeline: psearch probes are a subset of evaluator
/// profiles (the pipeline also probes the cap and floor directly), every
/// profile is a steady solve, and the no-fault path never escalates.
#[test]
fn problem2_pipeline_metrics_are_consistent() {
    let _guard = metrics_lock();
    let (bench, net) = setup();
    let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
    let opts = PressureSearchOptions::default();

    let before = obs::snapshot();
    let score = evaluate_problem2(&ev, Watt::new(0.5), Kelvin::new(400.0), &opts).unwrap();
    let after = obs::snapshot();

    assert!(score.is_feasible(), "{score:?}");
    let profiles = after.counter_delta(&before, "eval.profiles");
    let psearch = after.counter_delta(&before, "psearch.probes");
    assert!(profiles > 0);
    assert!(
        psearch <= profiles,
        "psearch probes {psearch} exceed evaluator profiles {profiles}"
    );
    assert_eq!(
        profiles,
        after.counter_delta(&before, "probe.steady_solves")
    );
    assert_eq!(profiles, after.counter_delta(&before, "ladder.solves"));
    assert_eq!(after.counter_delta(&before, "ladder.escalations"), 0);
    assert_eq!(after.counter_delta(&before, "ladder.injected_faults"), 0);
    // Nothing on this path rebuilds the hydraulic model: flow assembly
    // happened once inside `Evaluator::new`, outside the window.
    assert_eq!(after.counter_delta(&before, "flow.assemblies"), 0);
}

/// The evaluator solves each distinct channel layer's hydraulics once:
/// the thermal advection and `W_pump` come from the same solve.
#[test]
fn evaluator_assembles_each_distinct_channel_layer_once() {
    let _guard = metrics_lock();
    let dims = GridDims::new(21, 21);
    let straight_net = |bench: &Benchmark, dir| {
        straight::build(dims, &bench.tsv, dir, &StraightParams::default()).unwrap()
    };

    // Case 4: three dies, one network on every channel layer.
    let case4 = Benchmark::iccad_scaled(4, dims);
    assert_eq!(case4.num_dies, 3);
    let net = straight_net(&case4, Dir::East);
    for model in [ModelChoice::fast(), ModelChoice::FourRm] {
        let before = obs::snapshot();
        Evaluator::new(&case4, &net, model).unwrap();
        let after = obs::snapshot();
        assert_eq!(
            after.counter_delta(&before, "flow.assemblies"),
            1,
            "{model:?}"
        );
    }

    // Case 1 (two dies) built from two different networks.
    let case1 = Benchmark::iccad_scaled(1, dims);
    let east = straight_net(&case1, Dir::East);
    let north = straight_net(&case1, Dir::North);
    let stack = case1.stack_with(&[east.clone(), north]).unwrap();
    let before = obs::snapshot();
    Evaluator::from_stack(&stack, &east, ModelChoice::fast()).unwrap();
    let after = obs::snapshot();
    assert_eq!(after.counter_delta(&before, "flow.assemblies"), 2);
}

/// Disabling the layer freezes every counter; re-enabling resumes them.
#[test]
fn disabled_layer_freezes_pipeline_counters() {
    let _guard = metrics_lock();
    let (bench, net) = setup();
    let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
    ev.profile(Pascal::from_kilopascals(10.0)).unwrap();

    let before = obs::snapshot();
    obs::set_enabled(false);
    let r = ev.profile(Pascal::from_kilopascals(12.0));
    obs::set_enabled(true);
    r.unwrap();
    let after = obs::snapshot();

    assert_eq!(after.counter_delta(&before, "eval.profiles"), 0);
    assert_eq!(after.counter_delta(&before, "probe.steady_solves"), 0);
    assert_eq!(after.counter_delta(&before, "ladder.solves"), 0);

    // The evaluator still works and counts once re-enabled.
    let before = obs::snapshot();
    ev.profile(Pascal::from_kilopascals(14.0)).unwrap();
    let after = obs::snapshot();
    assert_eq!(after.counter_delta(&before, "eval.profiles"), 1);
}

/// Every registered ladder counter shows up in the snapshot as an
/// explicit zero even when it never fired — a dashboard diffing two
/// snapshots must see `ladder.rung2_converged: 0`, not a missing key —
/// and the adaptive-ladder counters account for the diagnostics gate.
#[test]
fn ladder_counters_export_explicit_zeros_and_gate_routes_count() {
    let _guard = metrics_lock();
    let (bench, net) = setup();
    let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
    ev.profile(Pascal::from_kilopascals(10.0)).unwrap();

    // One solve anywhere registers the whole ladder catalog.
    let snap = obs::snapshot();
    for name in [
        "ladder.solves",
        "ladder.attempts",
        "ladder.escalations",
        "ladder.exhausted",
        "ladder.injected_faults",
        "ladder.rung0_converged",
        "ladder.rung1_converged",
        "ladder.rung2_converged",
        "ladder.rung3_converged",
        "ladder.rung4plus_converged",
        "ladder.diag_routed",
    ] {
        assert!(
            snap.counters.contains_key(name),
            "registered counter {name} missing from snapshot"
        );
    }

    // A healthy probe is not routed...
    let before = obs::snapshot();
    ev.profile(Pascal::from_kilopascals(12.0)).unwrap();
    let mid = obs::snapshot();
    assert_eq!(mid.counter_delta(&before, "ladder.diag_routed"), 0);
    assert_eq!(mid.counter_delta(&before, "ladder.rung0_converged"), 1);

    // ...while a vanishing-pressure probe makes the steady operator
    // near-singular: the gate routes it straight to the dense rung, in
    // one attempt, without ever counting as an escalation.
    ev.profile(Pascal::new(1e-6)).unwrap();
    let after = obs::snapshot();
    assert_eq!(after.counter_delta(&mid, "ladder.diag_routed"), 1);
    assert_eq!(after.counter_delta(&mid, "ladder.rung3_converged"), 1);
    assert_eq!(after.counter_delta(&mid, "ladder.escalations"), 0);
    assert_eq!(after.counter_delta(&mid, "ladder.attempts"), 1);
}
