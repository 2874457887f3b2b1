//! Probe-path benchmark: probes/sec and solver iterations for the three
//! `steady()` configurations — cold rebuild, cached numeric reassembly,
//! and cached reassembly with parallel sparse kernels.
//!
//! ```sh
//! cargo run --release -p coolnet-bench --bin probe_bench
//! cargo run --release -p coolnet-bench --bin probe_bench -- --quick
//! ```
//!
//! Writes `BENCH_probe.json` into `--out` (default `target/experiments`).
//! `--quick` shrinks the grid and ladder for the CI smoke step; the
//! committed artifact at the repo root comes from a default-scale run.
//!
//! Solver statistics (iterations, attempts, escalations) come from the
//! `coolnet-obs` metrics layer: each configuration is measured as a
//! snapshot delta around its timed loop, and the artifact carries the
//! full end-of-run [`MetricsSnapshot`] under `metrics`. Pass
//! `--no-metrics` to disable the metrics layer and time the pure probe
//! path (the per-config statistics then read zero).

#![forbid(unsafe_code)]

use coolnet::prelude::*;
use coolnet_bench::{host_threads, write_json, HarnessOpts, LadderSummary};
use coolnet_obs::MetricsSnapshot;
use serde::Serialize;
use std::time::Instant;

/// One measured configuration of the probe path.
#[derive(Debug, Serialize)]
struct ConfigResult {
    /// Configuration name (`cold`, `cached`, `cached_par4`).
    name: String,
    /// Threads handed to the sparse kernels (1 = serial).
    solver_threads: usize,
    /// Whether every probe rebuilt assembly and ILU(0) from scratch.
    cold_rebuild: bool,
    /// Total probes timed.
    probes: usize,
    /// Wall time for all probes, seconds.
    elapsed_s: f64,
    /// Throughput.
    probes_per_sec: f64,
    /// Mean BiCGSTAB/GMRES iterations per probe (delta of the
    /// `ladder.iterations` histogram sum; 0 under `--no-metrics`).
    mean_iterations: f64,
    /// Solves that escalated past the ladder's first rung (delta of
    /// `ladder.escalations`; 0 under `--no-metrics`). Nonzero values flag
    /// a matrix regime the primary solver no longer handles.
    escalations: u64,
    /// Mean ladder attempts per probe (1.0 = first rung always
    /// converged; 0 under `--no-metrics`).
    mean_attempts: f64,
    /// Attempts beyond the first per solve (`attempts - solves` delta):
    /// the escalation tax paid in this configuration's window.
    wasted_attempts: u64,
    /// Escalations per solve in the window (0 under `--no-metrics`).
    escalation_rate: f64,
    /// Solves the diagnostics gate routed straight to the dense rung
    /// (delta of `ladder.diag_routed`).
    diag_routed: u64,
}

/// The artifact: enough context to compare runs across commits.
#[derive(Debug, Serialize)]
struct ProbeBench {
    /// ICCAD case id.
    case: usize,
    /// Grid side length.
    grid: u16,
    /// Dies in the stack (= channel layers).
    dies: usize,
    /// Unknowns in the 4RM system.
    unknowns: usize,
    /// Hardware threads on the measurement host (requested solver threads
    /// are clamped to this by the kernels).
    host_threads: usize,
    /// Pressure ladder, kPa (each repeated `reps` times).
    pressures_kpa: Vec<f64>,
    /// Ladder repetitions per configuration.
    reps: usize,
    /// Per-configuration measurements.
    configs: Vec<ConfigResult>,
    /// probes/sec of `cached` over `cold`.
    speedup_cached: f64,
    /// probes/sec of `cached_par4` over `cold` (the acceptance number).
    speedup_cached_par4: f64,
    /// Whether the metrics layer was enabled for this run (`false` under
    /// `--no-metrics`, which zeroes the solver statistics).
    metrics_enabled: bool,
    /// End-of-run snapshot of every `coolnet-obs` counter and histogram
    /// touched by the benchmark process.
    metrics: MetricsSnapshot,
}

fn ladder(lo_kpa: f64, hi_kpa: f64, steps: usize) -> Vec<f64> {
    (0..steps)
        .map(|i| lo_kpa + (hi_kpa - lo_kpa) * i as f64 / (steps - 1) as f64)
        .collect()
}

/// Runs `reps` warm-started sweeps of the ladder and times them.
fn measure(
    stack: &Stack,
    config: &ThermalConfig,
    name: &str,
    pressures_kpa: &[f64],
    reps: usize,
) -> Result<ConfigResult, ThermalError> {
    let sim = FourRm::new(stack, config)?;
    // Untimed warm-up probe: first-touch cache construction and symbolic
    // ILU(0) belong to `new()` conceptually, and every configuration pays
    // the same first solve from a flat initial guess.
    let mut prev = sim.simulate(Pascal::from_kilopascals(pressures_kpa[0]))?;

    // The obs counters are process-global; delta-ing snapshots around the
    // timed loop scopes them to exactly these `reps × len` probes. Both
    // snapshots sit outside the timed window.
    let before = coolnet_obs::snapshot();
    let start = Instant::now();
    for _ in 0..reps {
        for &kpa in pressures_kpa {
            prev = sim.simulate_with_guess(Pascal::from_kilopascals(kpa), &prev)?;
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let after = coolnet_obs::snapshot();

    let probes = reps * pressures_kpa.len();
    let iterations = after.histogram_sum_delta(&before, "ladder.iterations");
    let ladder = LadderSummary::delta(&after, &before);
    let result = ConfigResult {
        name: name.to_owned(),
        solver_threads: config.solver_threads,
        cold_rebuild: config.cold_rebuild,
        probes,
        elapsed_s,
        probes_per_sec: probes as f64 / elapsed_s,
        mean_iterations: per_probe(iterations, probes),
        escalations: ladder.escalations,
        mean_attempts: per_probe(ladder.attempts, probes),
        wasted_attempts: ladder.wasted_attempts,
        escalation_rate: ladder.escalation_rate,
        diag_routed: ladder.diag_routed,
    };
    println!(
        "  {:12} {:7.2} probes/s   {:5.1} iters/probe   {} escalations   {} wasted   \
         ({} probes, {:.2} s)",
        result.name,
        result.probes_per_sec,
        result.mean_iterations,
        result.escalations,
        result.wasted_attempts,
        probes,
        elapsed_s
    );
    Ok(result)
}

/// Mean of `num / probes`, tolerating zero probes (degenerate ladders).
fn per_probe(num: u64, probes: usize) -> f64 {
    if probes == 0 {
        0.0
    } else {
        num as f64 / probes as f64
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut opts = HarnessOpts::from_args();
    let quick = opts.rest.iter().any(|a| a == "--quick");
    let metrics_enabled = !opts.rest.iter().any(|a| a == "--no-metrics");
    coolnet_obs::set_enabled(metrics_enabled);
    if quick && opts.grid == 41 {
        opts.grid = 21;
    }
    let (steps, reps) = if quick { (6, 2) } else { (20, 5) };

    let dies = 2;
    let bench = Benchmark::iccad_scaled(2, opts.dims());
    let net = straight::build(
        bench.dims,
        &bench.tsv,
        Dir::East,
        &StraightParams::default(),
    )?;
    let stack = bench.stack_with(&vec![net; dies])?;
    // A narrow ladder around the paper's operating range: golden-section
    // and gradient probes sample nearby pressures, so consecutive
    // warm-started solves converge in a handful of iterations — the regime
    // the cache is built for.
    let pressures_kpa = ladder(8.0, 16.0, steps);

    let unknowns = FourRm::new(&stack, &ThermalConfig::default())?
        .simulate(Pascal::from_kilopascals(10.0))?
        .all_temperatures()
        .len();
    println!(
        "probe path, ICCAD case 2 at {0}x{0}, {dies} dies, {unknowns} unknowns:",
        opts.grid
    );

    let base = ThermalConfig::default();
    let cold = ThermalConfig {
        cold_rebuild: true,
        ..base.clone()
    };
    let cached = ThermalConfig {
        solver_threads: 1,
        ..base.clone()
    };
    let cached_par4 = ThermalConfig {
        solver_threads: 4,
        ..base
    };

    let configs = vec![
        measure(&stack, &cold, "cold", &pressures_kpa, reps)?,
        measure(&stack, &cached, "cached", &pressures_kpa, reps)?,
        measure(&stack, &cached_par4, "cached_par4", &pressures_kpa, reps)?,
    ];
    let speedup_cached = configs[1].probes_per_sec / configs[0].probes_per_sec;
    let speedup_cached_par4 = configs[2].probes_per_sec / configs[0].probes_per_sec;
    println!("speedup: cached {speedup_cached:.2}x, cached_par4 {speedup_cached_par4:.2}x");

    let artifact = ProbeBench {
        case: 2,
        grid: opts.grid,
        dies,
        unknowns,
        host_threads: host_threads(),
        pressures_kpa,
        reps,
        configs,
        speedup_cached,
        speedup_cached_par4,
        metrics_enabled,
        metrics: coolnet_obs::snapshot(),
    };
    write_json(&opts.out_path("BENCH_probe.json"), &artifact);
    Ok(())
}
