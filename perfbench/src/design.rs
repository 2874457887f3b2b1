//! `design-p1` and `design-p2`: one staged tree search per operation.

use crate::trace::{self, TracedExec};
use crate::{
    another_fits, mean, median, ratio, set_counter_metrics, sub_seed, tail, Report, Scale,
    SetupClock,
};
use coolnet::cases::Benchmark;
use coolnet::flow::FlowModel;
use coolnet::network::builders::tree::{self, BranchStyle, TreeConfig};
use coolnet::network::builders::GlobalFlow;
use coolnet::opt::treeopt::{EvalRequest, TreeSearch, TreeSearchOptions};
use coolnet::opt::{
    evaluate_problem1, evaluate_problem2, DesignResult, Evaluator, ModelChoice, Problem,
    SearchControl,
};
use coolnet::thermal::{FourRm, ThermalConfig, TwoRm};
use coolnet::units::Pascal;
use std::time::Instant;

/// The ICCAD case of each problem: case 4 (3 dies) for Problem 1, case 2
/// (2 dies) for Problem 2. Case 3 is never used: at 41×41 no legal tree
/// exists in any flow direction, so its search ends after zero solves.
pub fn case_of(problem: Problem) -> usize {
    match problem {
        Problem::PumpingPower => 4,
        Problem::ThermalGradient => 2,
    }
}

/// SA seeds the design workloads draw from. A run takes them in turn from
/// a start the run seed picks, so runs share most of their searches:
/// search walls differ by up to 2× between SA seeds, and fresh seeds per
/// run spread run medians by a fifth.
pub const SEED_POOL: usize = 8;

/// The SA seed of a run's `i`-th search.
pub fn search_seed(seed: u64, i: u64) -> u64 {
    let k = (sub_seed(seed, 0).wrapping_add(i)) % SEED_POOL as u64;
    sub_seed(0xDAC_2017, k)
}

/// The workload input: the benchmark case at the workload grid.
pub fn bench(problem: Problem, scale: &Scale) -> Benchmark {
    Benchmark::iccad_scaled(case_of(problem), scale.dims())
}

/// Agreement required between a reported temperature and its cold
/// re-measurement, kelvin. The solver's `1e-8` residual keeps
/// temperature errors well below a millikelvin (`ThermalConfig`).
const TEMP_TOL: f64 = 1e-3;

/// Relative rounding of the Problem-2 pressure cap: the cap is
/// `sqrt(W*/G)` and its pumping power `cap² · G`, which can land a few
/// ulps above `W*`. A design that far over the budget is counted as an
/// overshoot instead of a miss.
pub const BUDGET_ROUNDING: f64 = 4.0 * f64::EPSILON;

/// Whether a Problem-2 pumping power sits above the budget by no more
/// than [`BUDGET_ROUNDING`].
pub fn rounding_overshoot(bench: &Benchmark, w_pump: f64) -> bool {
    let limit = bench.w_pump_limit().value();
    w_pump > limit && w_pump <= limit * (1.0 + BUDGET_ROUNDING)
}

/// The correctness gate of one returned design: re-measure it on a fresh
/// evaluator of the search's final model at its operating pressure,
/// require the reported figures to match, and require
/// [`Benchmark::check_design`] to report nothing (with the design's
/// pumping power for Problem 2, unless it is a [`rounding_overshoot`],
/// which the report counts instead). Returns the misses.
pub fn gate(
    report: &mut Report,
    bench: &Benchmark,
    problem: Problem,
    model: ModelChoice,
    d: &DesignResult,
) -> Vec<String> {
    let overshoot =
        problem == Problem::ThermalGradient && rounding_overshoot(bench, d.w_pump.value());
    report.budget_overshoots += u64::from(overshoot);
    let w_pump = (problem == Problem::ThermalGradient && !overshoot).then_some(d.w_pump);
    let mut misses = bench.check_design(&d.network, d.t_max, d.delta_t, w_pump);
    let ev = match Evaluator::new(bench, &d.network, model) {
        Ok(ev) => ev,
        Err(e) => {
            misses.push(format!("re-measurement could not build the model: {e}"));
            return misses;
        }
    };
    let profile = match ev.profile(d.p_sys) {
        Ok(p) => p,
        Err(e) => {
            misses.push(format!("re-measurement failed: {e}"));
            return misses;
        }
    };
    for (what, reported, measured) in [
        ("T_max", d.t_max.value(), profile.t_max.value()),
        ("dT", d.delta_t.value(), profile.delta_t.value()),
    ] {
        if (reported - measured).abs() > TEMP_TOL {
            misses.push(format!(
                "reported {what} {reported} K, re-measured {measured} K"
            ));
        }
    }
    let w = ev.w_pump(d.p_sys).value();
    if d.w_pump.value().to_bits() != w.to_bits() {
        misses.push(format!(
            "reported W_pump {} W, re-measured {w} W",
            d.w_pump.value()
        ));
    }
    misses
}

/// The model a schedule reports its design with: its last stage's.
pub fn final_model(opts: &TreeSearchOptions) -> ModelChoice {
    opts.stages.last().map_or(ModelChoice::FourRm, |s| s.model)
}

/// Bit-level identity of two designs (label and the four figures).
pub fn identical(a: &DesignResult, b: &DesignResult) -> bool {
    a.label == b.label
        && a.p_sys.value().to_bits() == b.p_sys.value().to_bits()
        && a.w_pump.value().to_bits() == b.w_pump.value().to_bits()
        && a.t_max.value().to_bits() == b.t_max.value().to_bits()
        && a.delta_t.value().to_bits() == b.delta_t.value().to_bits()
}

/// 2RM (`m = 4`) and 4RM unknown counts of `bench` with the search's
/// uniform W→E start network (`0` where it cannot be built).
pub fn unknowns(bench: &Benchmark) -> (usize, usize) {
    let flow = GlobalFlow::WestToEast;
    let trees = TreeConfig::max_trees(bench.dims, flow, BranchStyle::Binary);
    let w = bench.dims.width();
    let config = TreeConfig::uniform(
        flow,
        BranchStyle::Binary,
        trees,
        (w / 3) & !1,
        (2 * w / 3) & !1,
    );
    let Ok(stack) = tree::build(bench.dims, &bench.tsv, &bench.restricted, &config)
        .map_err(|e| e.to_string())
        .and_then(|net| {
            bench
                .stack_with(std::slice::from_ref(&net))
                .map_err(|e| e.to_string())
        })
    else {
        return (0, 0);
    };
    let cfg = ThermalConfig::default();
    (
        TwoRm::new(&stack, 4, &cfg).map_or(0, |m| m.num_nodes()),
        FourRm::new(&stack, &cfg).map_or(0, |m| m.num_nodes()),
    )
}

fn note_sizes(report: &mut Report, bench: &Benchmark) {
    let (two, four) = unknowns(bench);
    report.note("case", bench.id);
    report.note("dies", bench.num_dies);
    report.note("nodes_2rm", two);
    report.note("nodes_4rm", four);
}

/// The untraced run: whole searches, one after another, while they fit
/// in `seconds` (at least one).
pub fn measure(report: &mut Report, problem: Problem, seed: u64, seconds: f64, scale: &Scale) {
    let build = || bench(problem, scale);
    let (mut setup, bench) = SetupClock::start(scale, build);
    note_sizes(report, &bench);

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut w_pump = Vec::new();
    let mut delta_t = Vec::new();
    let mut scored = 0.0;
    for i in 0.. {
        if i > 0 {
            setup.sample(build);
        }
        let opts = scale.schedule(search_seed(seed, i));
        let model = final_model(&opts);
        let before = coolnet::obs::snapshot();
        let t0 = Instant::now();
        let design = TreeSearch::new(&bench, opts).run(problem);
        let wall = t0.elapsed().as_secs_f64();
        scored += crate::scored_requests(&coolnet::obs::snapshot(), &before);
        walls.push(wall);
        match design {
            Some(d) => {
                w_pump.push(d.w_pump.value() * 1e6);
                delta_t.push(d.delta_t.value());
                let misses = gate(report, &bench, problem, model, &d);
                report.tally(&format!("design {i}"), misses);
            }
            None => report.tally(&format!("design {i}"), vec!["no design returned".into()]),
        }
        if !another_fits(started, seconds, wall) {
            break;
        }
    }
    let total: f64 = walls.iter().sum();
    let (tail_s, pct) = tail(&walls);
    report.set("setup_s", setup.median());
    report.set("job_wall_s", median(&walls));
    report.set("w_pump_uW", median(&w_pump));
    report.set("delta_t_K", median(&delta_t));
    report.set("jobs_per_s", ratio(walls.len() as f64, total));
    report.set("job_latency_p50_s", median(&walls));
    report.set("job_latency_tail_s", tail_s);
    report.set("steps_per_s", ratio(scored, total));
    report.note("samples", walls.len());
    report.note("tail_percentile", pct);
}

/// Requests the replay re-runs through the layer entry points, per model.
const REPLAY_PER_MODEL: usize = 3;

/// The traced run: the untraced reference search, the same search through
/// a [`TracedExec`] at the host's worker count and at one worker (all
/// three must be bit-identical), then a replay of sampled requests through
/// each layer's public entry point.
pub fn trace(report: &mut Report, problem: Problem, seed: u64, scale: &Scale) {
    let bench = bench(problem, scale);
    note_sizes(report, &bench);
    let opts = scale.schedule(search_seed(seed, 0));

    let t0 = Instant::now();
    let reference = TreeSearch::new(&bench, opts.clone()).run(problem);
    let untraced_s = t0.elapsed().as_secs_f64();

    let threads = coolnet::sparse::par::effective_workers(opts.parallelism);
    let exec = TracedExec::new(
        &bench,
        opts.psearch,
        problem,
        opts.reuse.cache_capacity,
        threads,
    );
    let before = coolnet::obs::snapshot();
    let t0 = Instant::now();
    let traced = TreeSearch::new(&bench, opts.clone())
        .run_with_exec(problem, &SearchControl::unlimited(), &exec)
        .into_design();
    let traced_s = t0.elapsed().as_secs_f64();
    let after = coolnet::obs::snapshot();
    set_counter_metrics(report, &after, &before);

    let serial = TracedExec::new(&bench, opts.psearch, problem, opts.reuse.cache_capacity, 1);
    let t0 = Instant::now();
    let single = TreeSearch::new(&bench, opts.clone())
        .run_with_exec(problem, &SearchControl::unlimited(), &serial)
        .into_design();
    let single_s = t0.elapsed().as_secs_f64();

    let mut misses = Vec::new();
    match (&reference, &traced, &single) {
        (Some(r), Some(t), Some(s)) => {
            if !identical(r, t) {
                misses.push("traced design differs from the untraced one".to_owned());
            }
            if !identical(r, s) {
                misses.push("one-worker design differs from the untraced one".to_owned());
            }
            misses.extend(gate(report, &bench, problem, final_model(&opts), t));
        }
        _ => misses.push("a search returned no design".to_owned()),
    }
    report.tally("traced design", misses);

    let log = exec.finish(traced_s);
    log.set_metrics(report, &opts);
    report.set("exec.scaling_1to2", ratio(single_s, traced_s));
    report.set("trace.overhead_share", traced_s / untraced_s - 1.0);
    report.note("exec_threads", threads);

    replay(
        report,
        &bench,
        problem,
        &opts.psearch,
        &log.sample(REPLAY_PER_MODEL),
    );
}

/// Re-runs sampled requests one by one through the public entry points
/// `tree::build` → `Benchmark::stack_with` → `FlowModel::new` →
/// `TwoRm::new`/`FourRm::new` → `simulate` → `Evaluator::new` →
/// `evaluate_problem1/2`, timing each call.
fn replay(
    report: &mut Report,
    bench: &Benchmark,
    problem: Problem,
    psearch: &coolnet::opt::psearch::PressureSearchOptions,
    sample: &[(EvalRequest, Option<Pascal>)],
) {
    let mut build = Vec::new();
    let mut flow = Vec::new();
    let mut assemble = Vec::new();
    let mut simulate = Vec::new();
    let mut eval = Vec::new();
    let mut probes = 0u64;
    let flow_cfg = Evaluator::flow_config_for(bench);
    let cfg = ThermalConfig::default();
    for (req, p) in sample {
        let p = p.unwrap_or(Pascal::new(psearch.p_init));
        let (s, net) =
            trace::time(|| tree::build(bench.dims, &bench.tsv, &bench.restricted, &req.config));
        build.push(s);
        let Ok(net) = net else { continue };
        let Ok(stack) = bench.stack_with(std::slice::from_ref(&net)) else {
            continue;
        };
        flow.push(trace::time(|| FlowModel::new(&net, &flow_cfg)).0);
        match req.model {
            ModelChoice::TwoRm { m } => {
                let (s, model) = trace::time(|| TwoRm::new(&stack, m, &cfg));
                assemble.push(s);
                if let Ok(model) = model {
                    simulate.push(trace::time(|| model.simulate(p)).0);
                }
            }
            ModelChoice::FourRm => {
                let (s, model) = trace::time(|| FourRm::new(&stack, &cfg));
                assemble.push(s);
                if let Ok(model) = model {
                    simulate.push(trace::time(|| model.simulate(p)).0);
                }
            }
        }
        let Ok(ev) = Evaluator::new(bench, &net, req.model) else {
            continue;
        };
        let before = coolnet::obs::snapshot();
        let (s, _) = trace::time(|| match problem {
            Problem::PumpingPower => {
                evaluate_problem1(&ev, bench.delta_t_limit, bench.t_max_limit, psearch)
            }
            Problem::ThermalGradient => {
                evaluate_problem2(&ev, bench.w_pump_limit(), bench.t_max_limit, psearch)
            }
        });
        probes += coolnet::obs::snapshot().counter_delta(&before, "psearch.probes");
        eval.push(s);
    }
    report.set("network.build_s", mean(&build));
    report.set("flow.build_s", mean(&flow));
    report.set("thermal.assemble_s", mean(&assemble));
    report.set("thermal.simulate_s", mean(&simulate));
    report.set("psearch.eval_s", mean(&eval));
    report.set(
        "psearch.probes_per_full_eval",
        ratio(probes as f64, eval.len() as f64),
    );
    report.note("replayed_requests", sample.len());
}
