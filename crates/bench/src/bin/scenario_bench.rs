//! Dynamic-scenario benchmark: scores the preset scenario library
//! (hotspot migration, pump failure/recovery, inlet excursion, DVFS
//! square, stress combo) against a straight-channel cooling system and
//! checks the replay contract end to end.
//!
//! ```sh
//! cargo run --release -p coolnet-bench --bin scenario_bench
//! cargo run --release -p coolnet-bench --bin scenario_bench -- --quick
//! ```
//!
//! Writes `BENCH_scenario.json` into `--out` (default `target/experiments`).
//! Per preset the artifact records the summary scores (peak `T_max`, peak
//! `ΔT`, peak per-die thermal-stress proxy, pumping energy), the trace
//! fingerprint, and two contract bits the CI smoke step gates on:
//!
//! * `replay_identical` — a second run at 1 solver thread produced a
//!   bit-identical trace (fingerprint match);
//! * `threads_identical` — runs at 2 and 4 solver threads matched the
//!   1-thread fingerprint (`--quick` keeps the sweep; it is the point).
//!
//! `--quick` shrinks the grid so the smoke step stays fast; the committed
//! artifact at the repo root comes from a default-scale (41×41) run.

#![forbid(unsafe_code)]

use coolnet::prelude::*;
use coolnet_bench::{host_threads, write_json, HarnessOpts};
use coolnet_obs::MetricsSnapshot;
use serde::Serialize;
use std::time::Instant;

/// One scored preset scenario.
#[derive(Debug, Serialize)]
struct ScenarioResult {
    /// Preset name (`dvfs-square`, `hotspot-migration`, ...).
    name: String,
    /// Control intervals simulated.
    intervals: usize,
    /// Number of timed events in the spec.
    events: usize,
    /// Peak `T_max` over the trace, kelvin.
    peak_t_max: f64,
    /// Worst §3 gradient `ΔT` over the trace, kelvin.
    peak_gradient: f64,
    /// Worst per-die max-spatial-gradient thermal-stress proxy, kelvin.
    peak_stress: f64,
    /// Total pumping energy over the trace, joules.
    pumping_energy: f64,
    /// Wall time of the scoring run, seconds.
    wall_s: f64,
    /// FNV-1a digest of the trace's IEEE-754 bit patterns.
    fingerprint: u64,
    /// A repeat run at 1 solver thread was bit-identical.
    replay_identical: bool,
    /// Runs at 2 and 4 solver threads matched the 1-thread fingerprint.
    threads_identical: bool,
}

/// The artifact: enough context to compare runs across commits.
#[derive(Debug, Serialize)]
struct ScenarioBench {
    /// Grid side length.
    grid: u16,
    /// Thermal model backing every run (the presets' choice).
    model: String,
    /// Hardware threads on the measurement host.
    host_threads: usize,
    /// Per-preset results.
    scenarios: Vec<ScenarioResult>,
    /// Every preset's replay and thread sweeps were bit-identical.
    all_identical: bool,
    /// End-of-run snapshot of every `coolnet-obs` counter and histogram
    /// touched by the benchmark process.
    metrics: MetricsSnapshot,
}

fn run_at(
    bench: &Benchmark,
    net: &CoolingNetwork,
    spec: &ScenarioSpec,
    threads: usize,
) -> ScenarioTrace {
    let thermal = ThermalConfig {
        solver_threads: threads,
        ..ThermalConfig::default()
    };
    match run_scenario(bench, net, spec, &thermal) {
        Ok(t) => t,
        Err(e) => panic!("preset {} failed: {e}", spec.name),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut opts = HarnessOpts::from_args();
    let quick = opts.rest.iter().any(|a| a == "--quick");
    if quick && opts.grid == 41 && !opts.full {
        opts.grid = 21;
    }
    let dims = opts.dims();
    let bench = Benchmark::iccad_scaled(1, dims);
    let net = straight::build(dims, &bench.tsv, Dir::East, &StraightParams::default())?;
    let die_watts = bench.power_maps[0].total().value();
    let presets = ScenarioSpec::presets(dims, die_watts);

    println!(
        "dynamic-scenario benchmark at {0}x{0}, {1} presets, die power {die_watts:.2} W:",
        opts.grid,
        presets.len(),
    );

    let mut scenarios = Vec::new();
    for spec in &presets {
        let start = Instant::now();
        let trace = run_at(&bench, &net, spec, 1);
        let wall_s = start.elapsed().as_secs_f64();
        let fingerprint = trace.fingerprint();
        let replay_identical = run_at(&bench, &net, spec, 1).fingerprint() == fingerprint;
        let threads_identical = [2usize, 4]
            .iter()
            .all(|&t| run_at(&bench, &net, spec, t).fingerprint() == fingerprint);
        let r = ScenarioResult {
            name: spec.name.clone(),
            intervals: trace.intervals.len(),
            events: spec.events.len(),
            peak_t_max: trace.peak_t_max().value(),
            peak_gradient: trace.peak_gradient().value(),
            peak_stress: trace.peak_stress().value(),
            pumping_energy: trace.pumping_energy(),
            wall_s,
            fingerprint,
            replay_identical,
            threads_identical,
        };
        println!(
            "  {:22} {:2} intervals: T_max {:7.2} K, dT {:6.2} K, stress {:6.2} K, \
             E_pump {:8.4} mJ, replay {}, threads {}",
            r.name,
            r.intervals,
            r.peak_t_max,
            r.peak_gradient,
            r.peak_stress,
            r.pumping_energy * 1e3,
            r.replay_identical,
            r.threads_identical,
        );
        scenarios.push(r);
    }

    let all_identical = scenarios
        .iter()
        .all(|s| s.replay_identical && s.threads_identical);
    println!("all presets replay bit-identically: {all_identical}");

    let artifact = ScenarioBench {
        grid: opts.grid,
        model: "2rm".to_owned(),
        host_threads: host_threads(),
        scenarios,
        all_identical,
        metrics: coolnet_obs::snapshot(),
    };
    write_json(&opts.out_path("BENCH_scenario.json"), &artifact);
    Ok(())
}
