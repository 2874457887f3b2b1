//! `transient-4rm`: the scenario presets through `run_scenario` on the
//! 4RM, backward-Euler stepping a straight W→E network.

use crate::trace::time;
use crate::{
    another_fits, mean, median, ratio, set_counter_metrics, sub_seed, tail, Report, Scale,
    SetupClock,
};
use coolnet::cases::Benchmark;
use coolnet::grid::Dir;
use coolnet::network::builders::straight::{self, StraightParams};
use coolnet::network::CoolingNetwork;
use coolnet::opt::scenario::{run_scenario, ScenarioSpec, ScenarioTrace};
use coolnet::opt::ModelChoice;
use coolnet::thermal::{FourRm, ThermalConfig};
use std::time::Instant;

/// The workload input: ICCAD case 1, a straight W→E network, and the
/// preset library in an order rotated by the seed. The presets are fixed
/// inputs: scaling their heat by the seed moved the controller's pressure
/// schedule, and with it the work, by up to 30% between seeds.
pub struct Plant {
    /// The benchmark case.
    pub bench: Benchmark,
    /// The cooling network.
    pub net: CoolingNetwork,
    /// The presets, switched to the 4RM.
    pub presets: Vec<ScenarioSpec>,
}

impl Plant {
    /// Builds the inputs for `seed`.
    pub fn new(seed: u64, scale: &Scale) -> Self {
        let dims = scale.dims();
        let bench = Benchmark::iccad_scaled(1, dims);
        let net = straight::build(dims, &bench.tsv, Dir::East, &StraightParams::default())
            .expect("a straight network fits every benchmark grid");
        let die_watts = bench.power_maps[0].total().value();
        let mut presets: Vec<ScenarioSpec> = ScenarioSpec::presets(dims, die_watts)
            .into_iter()
            .map(|mut s| {
                s.model = ModelChoice::FourRm;
                s
            })
            .collect();
        let turn = (sub_seed(seed, 0) % presets.len() as u64) as usize;
        presets.rotate_left(turn);
        Self {
            bench,
            net,
            presets,
        }
    }

    fn run(&self, spec: &ScenarioSpec) -> Result<ScenarioTrace, String> {
        run_scenario(&self.bench, &self.net, spec, &ThermalConfig::default())
            .map_err(|e| e.to_string())
    }
}

/// Backward-Euler steps a spec takes (its horizon over `dt`).
fn steps_of(spec: &ScenarioSpec) -> usize {
    let ratio = spec.duration / spec.dt;
    if (ratio - ratio.round()).abs() < 1e-9 * ratio.round().max(1.0) {
        ratio.round() as usize
    } else {
        ratio.ceil() as usize
    }
}

/// The gate of one preset run: every interval present and their lengths
/// summing to the horizon, and no interval's `T_max` below its inlet
/// temperature (maximum principle).
pub fn gate(spec: &ScenarioSpec, trace: &ScenarioTrace) -> Vec<String> {
    let mut misses = Vec::new();
    let expected = steps_of(spec).div_ceil(spec.control_interval);
    if trace.intervals.len() != expected {
        misses.push(format!(
            "{} intervals, expected {expected}",
            trace.intervals.len()
        ));
    }
    let simulated: f64 = trace.intervals.iter().map(|i| i.interval_s).sum();
    if (simulated - spec.duration).abs() > 1e-9 * spec.duration.max(1.0) + spec.dt {
        misses.push(format!(
            "simulated {simulated} s of a {} s horizon",
            spec.duration
        ));
    }
    for (k, i) in trace.intervals.iter().enumerate() {
        if i.t_max < i.t_inlet {
            misses.push(format!(
                "interval {k}: T_max {} K below the inlet {} K",
                i.t_max.value(),
                i.t_inlet.value()
            ));
        }
    }
    misses
}

/// One suite pass: every preset once, gated. Returns per-preset walls and
/// fingerprints.
fn suite(report: &mut Report, plant: &Plant) -> Vec<(f64, u64, Option<ScenarioTrace>)> {
    plant
        .presets
        .iter()
        .map(|spec| {
            let (wall, trace) = time(|| plant.run(spec));
            match trace {
                Ok(t) => {
                    report.tally(&spec.name, gate(spec, &t));
                    (wall, t.fingerprint(), Some(t))
                }
                Err(e) => {
                    report.tally(&spec.name, vec![e]);
                    (wall, 0, None)
                }
            }
        })
        .collect()
}

fn note_sizes(report: &mut Report, plant: &Plant) {
    report.note("case", plant.bench.id);
    report.note("dies", plant.bench.num_dies);
    if let Ok(stack) = plant.bench.stack_with(std::slice::from_ref(&plant.net)) {
        if let Ok(m) = FourRm::new(&stack, &ThermalConfig::default()) {
            report.note("nodes_4rm", m.num_nodes());
        }
    }
}

/// The untraced run: suite passes while they fit in `seconds` (at least
/// one).
pub fn measure(report: &mut Report, seed: u64, seconds: f64, scale: &Scale) {
    let (mut setup, plant) = SetupClock::start(scale, || Plant::new(seed, scale));
    note_sizes(report, &plant);

    let started = Instant::now();
    let (mut suites, mut latencies, mut steps, mut wall) = (Vec::new(), Vec::new(), 0usize, 0.0);
    let (mut w_pump, mut peak_dt) = (Vec::new(), Vec::new());
    loop {
        if !suites.is_empty() {
            setup.sample(|| Plant::new(seed, scale));
        }
        let runs = suite(report, &plant);
        let suite_s: f64 = runs.iter().map(|r| r.0).sum();
        for (spec, (s, _, trace)) in plant.presets.iter().zip(&runs) {
            latencies.push(*s);
            steps += steps_of(spec);
            if let Some(t) = trace {
                w_pump.push(t.pumping_energy() / spec.duration * 1e6);
                peak_dt.push(t.peak_gradient().value());
            }
        }
        wall += suite_s;
        suites.push(suite_s);
        if !another_fits(started, seconds, suite_s) {
            break;
        }
    }
    let (tail_s, pct) = tail(&latencies);
    report.set("setup_s", setup.median());
    report.set("job_wall_s", median(&suites));
    report.set("w_pump_uW", median(&w_pump));
    report.set("delta_t_K", median(&peak_dt));
    report.set("jobs_per_s", ratio(latencies.len() as f64, wall));
    report.set("job_latency_p50_s", median(&latencies));
    report.set("job_latency_tail_s", tail_s);
    report.set("steps_per_s", ratio(steps as f64, wall));
    report.note("samples", latencies.len());
    report.note("tail_percentile", pct);
}

/// The traced run: the suite untraced, the suite again with counter
/// deltas (fingerprints must match), then one preset's pressure schedule
/// replayed through `FourRm::transient` and `Transient::step`.
pub fn trace(report: &mut Report, seed: u64, scale: &Scale) {
    let plant = Plant::new(seed, scale);
    note_sizes(report, &plant);
    let untraced = suite(report, &plant);
    let before = coolnet::obs::snapshot();
    let traced = suite(report, &plant);
    let after = coolnet::obs::snapshot();
    set_counter_metrics(report, &after, &before);
    let misses: Vec<String> = plant
        .presets
        .iter()
        .zip(untraced.iter().zip(&traced))
        .filter(|(_, (u, t))| u.1 != t.1)
        .map(|(s, _)| format!("{}: traced fingerprint differs", s.name))
        .collect();
    report.tally("traced suite", misses);
    let untraced_s: f64 = untraced.iter().map(|r| r.0).sum();
    let traced_s: f64 = traced.iter().map(|r| r.0).sum();
    report.set("trace.overhead_share", traced_s / untraced_s - 1.0);

    // The preset with the most pressure changes exercises rebuilds most.
    let changes = |t: &ScenarioTrace| {
        t.intervals
            .windows(2)
            .filter(|w| w[0].p_sys != w[1].p_sys)
            .count()
    };
    let Some((k, (wall, _, Some(run)))) = traced
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| r.2.as_ref().map_or(0, changes))
    else {
        return;
    };
    let spec = &plant.presets[k];
    report.note("replayed_preset", &spec.name);
    let replay = replay(&plant, spec, run);
    match replay {
        Ok((builds, step_times, replay_wall)) => {
            let spent: f64 = builds.iter().sum::<f64>() + step_times.iter().sum::<f64>();
            report.set("transient.build_s", mean(&builds));
            report.set("transient.step_s", mean(&step_times));
            report.set("scenario.loop_self_s", (wall - spent).max(0.0));
            report.set("trace.coverage", ratio(spent, replay_wall));
        }
        Err(e) => report.tally("replay", vec![e]),
    }
}

/// Replays a traced run's pressure schedule: an integrator per pressure
/// change (warm-started from the last field), the interval's power scale
/// and inlet temperature, and its steps one by one. Returns build times,
/// step times and the replay wall.
fn replay(
    plant: &Plant,
    spec: &ScenarioSpec,
    run: &ScenarioTrace,
) -> Result<(Vec<f64>, Vec<f64>, f64), String> {
    let t0 = Instant::now();
    let stack = plant
        .bench
        .stack_with(std::slice::from_ref(&plant.net))
        .map_err(|e| e.to_string())?;
    let model = FourRm::new(&stack, &ThermalConfig::default()).map_err(|e| e.to_string())?;
    let (mut builds, mut steps) = (Vec::new(), Vec::new());
    let mut snapshot = None;
    let mut tr: Option<(
        coolnet::units::Pascal,
        coolnet::thermal::transient::Transient<'_>,
    )> = None;
    for interval in &run.intervals {
        if tr.as_ref().map(|(p, _)| *p) != Some(interval.p_sys) {
            let (s, built) = time(|| model.transient(interval.p_sys, spec.dt, snapshot.as_ref()));
            builds.push(s);
            tr = Some((interval.p_sys, built.map_err(|e| e.to_string())?));
        }
        let (_, t) = tr.as_mut().expect("an integrator was just built");
        t.set_power_scale(interval.power_scale);
        t.set_inlet_temperature(interval.t_inlet);
        let n = (interval.interval_s / spec.dt).round() as usize;
        for _ in 0..n {
            let (s, r) = time(|| t.step());
            r.map_err(|e| e.to_string())?;
            steps.push(s);
        }
        snapshot = Some(t.snapshot());
    }
    Ok((builds, steps, t0.elapsed().as_secs_f64()))
}
