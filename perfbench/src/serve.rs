//! `serve-batch`: one batch submitted at once to a single job queue.

use crate::trace::union_length;
use crate::{
    another_fits, median, ratio, set_counter_metrics, sub_seed, tail, Report, Scale, SetupClock,
};
use coolnet::cases::gen::{corpus, CaseSpec};
use coolnet::cases::Benchmark;
use coolnet::obs::MetricsSnapshot;
use coolnet::opt::treeopt::{TreeSearch, TreeSearchOptions};
use coolnet::opt::Problem;
use coolnet_serve::{
    DesignSummary, GridSpec, JobArtifact, JobOutcome, JobQueue, JobSpec, QueueOptions,
};
use std::time::Instant;

/// One job of the mix with the outcome it must end in.
#[derive(Debug, Clone)]
pub struct Job {
    /// The submitted spec.
    pub spec: JobSpec,
    /// The outcome recorded for it.
    pub expected: JobOutcome,
}

/// ICCAD cases of the repeated tenants. Case 3 is left out: at 41×41 no
/// legal tree exists, so its jobs would end without a single solve.
const TENANT_CASES: [usize; 3] = [1, 2, 4];

/// Seed of the generated corpus the `case_spec` jobs come from.
const CORPUS_SEED: u64 = 2017;

/// Generated-case jobs: `(corpus index, problem, outcome)`. Each outcome
/// held on every SA seed tried at 41×41 (ten per entry); the infeasible
/// entry keeps a job that works but finds nothing in the mix.
const CORPUS_JOBS: [(usize, Problem, JobOutcome); 4] = [
    (0, Problem::PumpingPower, JobOutcome::Completed),
    (3, Problem::PumpingPower, JobOutcome::Infeasible),
    (7, Problem::ThermalGradient, JobOutcome::Completed),
    (11, Problem::PumpingPower, JobOutcome::Completed),
];

/// The queue every batch runs on: two runners over a two-thread solver
/// pool and one shared cache, as `coolnet-serve --jobs` runs a batch.
pub fn queue_options() -> QueueOptions {
    QueueOptions {
        concurrency: 2,
        pool_threads: 2,
        ..QueueOptions::default()
    }
}

/// Corpus entry `index`, moved to the workload grid at its drawn power
/// density.
fn corpus_case(index: usize, scale: &Scale) -> CaseSpec {
    let mut c = corpus(CORPUS_SEED, index + 1).swap_remove(index);
    c.total_power *= (f64::from(scale.grid) / f64::from(c.grid)).powi(2);
    c.grid = scale.grid;
    c
}

/// The batch: every `(case, problem)` tenant of [`TENANT_CASES`] with
/// `tenant_repeats` seeds each (same cache scope, different searches),
/// then the first `corpus_jobs` of [`CORPUS_JOBS`]. All quick-preset.
pub fn job_mix(seed: u64, scale: &Scale) -> Vec<Job> {
    let grid = GridSpec {
        width: scale.grid,
        height: scale.grid,
    };
    let mut jobs = Vec::new();
    let mut n = 0u64;
    for rep in 0..scale.tenant_repeats {
        for case in TENANT_CASES {
            for problem in [Problem::PumpingPower, Problem::ThermalGradient] {
                let tag = if problem == Problem::PumpingPower {
                    1
                } else {
                    2
                };
                let mut spec = JobSpec::quick(
                    format!("case{case}-p{tag}-{rep}"),
                    case,
                    problem,
                    sub_seed(seed, n),
                );
                spec.grid = grid;
                n += 1;
                jobs.push(Job {
                    spec,
                    expected: JobOutcome::Completed,
                });
            }
        }
    }
    for (index, problem, expected) in CORPUS_JOBS.into_iter().take(scale.corpus_jobs) {
        let case_spec = corpus_case(index, scale);
        let mut spec = JobSpec::quick(case_spec.name.clone(), 0, problem, sub_seed(seed, n));
        n += 1;
        spec.case_spec = Some(case_spec);
        jobs.push(Job { spec, expected });
    }
    jobs
}

/// The benchmark a spec runs on (as the queue resolves it).
fn bench_of(spec: &JobSpec) -> Benchmark {
    match &spec.case_spec {
        Some(c) => c.expand(),
        None => Benchmark::iccad_scaled(
            spec.case,
            coolnet::grid::GridDims::new(spec.grid.width, spec.grid.height),
        ),
    }
}

/// Geometric mean (`0` when empty). The objectives of a batch span
/// several cases, each on its own scale; a plain median would jump
/// between cases from seed to seed.
fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One finished batch.
struct Batch {
    /// Artifacts in submission order, each with its submit-to-artifact
    /// latency in seconds.
    jobs: Vec<(JobArtifact, f64)>,
    makespan: f64,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

/// Submits every job at once and times each from submission until its
/// artifact arrives: one waiter per handle, so a job that finishes before
/// an earlier-submitted one is timed when it finishes.
fn run_batch(queue: &JobQueue, jobs: &[Job]) -> Batch {
    let before = coolnet::obs::snapshot();
    let t0 = Instant::now();
    let handles: Vec<_> = jobs.iter().map(|j| queue.submit(j.spec.clone())).collect();
    let done: Vec<(JobArtifact, f64)> = std::thread::scope(|s| {
        let waiters: Vec<_> = handles
            .into_iter()
            .map(|h| s.spawn(move || (h.wait(), t0.elapsed().as_secs_f64())))
            .collect();
        waiters
            .into_iter()
            .map(|w| w.join().expect("a waiter thread panicked"))
            .collect()
    });
    let after = coolnet::obs::snapshot();
    let makespan = done.iter().map(|(_, l)| *l).fold(0.0, f64::max);
    Batch {
        jobs: done,
        makespan,
        before,
        after,
    }
}

/// Jobs per batch whose design is re-derived in full for the gate.
const REDERIVE_PER_BATCH: usize = 2;

/// The gate of one batch: every outcome as recorded. A deterministic
/// sample of completed designs is re-derived with a direct
/// [`TreeSearch::run`] and must be bit-identical to the artifact and pass
/// [`crate::design::gate`]; every other completed design must meet its
/// case's limits.
fn gate_batch(report: &mut Report, jobs: &[Job], batch: &Batch, seed: u64) {
    let rederive: Vec<usize> = (0..REDERIVE_PER_BATCH)
        .map(|k| (sub_seed(seed, 2_000 + k as u64) % jobs.len() as u64) as usize)
        .collect();
    for (i, (job, (artifact, _))) in jobs.iter().zip(&batch.jobs).enumerate() {
        let mut misses = Vec::new();
        if artifact.outcome != job.expected {
            misses.push(format!(
                "outcome {:?}, recorded {:?}",
                artifact.outcome, job.expected
            ));
        }
        match (&artifact.outcome, &artifact.design) {
            (JobOutcome::Completed, None) => misses.push("completed without a design".to_owned()),
            (JobOutcome::Completed, Some(d)) if rederive.contains(&i) => {
                misses.extend(rederived(report, &job.spec, d))
            }
            (JobOutcome::Completed, Some(d)) => misses.extend(limits(report, &job.spec, d)),
            _ => {}
        }
        report.tally(&artifact.id, misses);
    }
}

/// Re-derives a job's design with a direct search and gates it.
fn rederived(report: &mut Report, spec: &JobSpec, d: &DesignSummary) -> Vec<String> {
    let bench = bench_of(spec);
    let opts = TreeSearchOptions::quick(spec.seed);
    let model = crate::design::final_model(&opts);
    let Some(direct) = TreeSearch::new(&bench, opts).run(spec.problem) else {
        return vec!["direct search found no design".to_owned()];
    };
    let mut misses = crate::design::gate(report, &bench, spec.problem, model, &direct);
    let same = direct.label == d.label
        && direct.p_sys.value().to_bits() == d.p_sys_bits
        && direct.w_pump.value().to_bits() == d.w_pump_bits
        && direct.t_max.value().to_bits() == d.t_max_bits
        && direct.delta_t.value().to_bits() == d.delta_t_bits;
    if !same {
        misses.push("artifact differs from a direct search".to_owned());
    }
    misses
}

/// A design summary against its case's limits: T*max, ΔT* for Problem 1,
/// the pumping budget for Problem 2 (a [`crate::design::rounding_overshoot`]
/// is counted in the report instead).
fn limits(report: &mut Report, spec: &JobSpec, d: &DesignSummary) -> Vec<String> {
    let bench = bench_of(spec);
    let t_max = f64::from_bits(d.t_max_bits);
    let delta_t = f64::from_bits(d.delta_t_bits);
    let w_pump = f64::from_bits(d.w_pump_bits);
    let limit = bench.w_pump_limit().value();
    let mut misses = Vec::new();
    if t_max > bench.t_max_limit.value() {
        misses.push(format!("T_max {t_max} K over T*max"));
    }
    match spec.problem {
        Problem::PumpingPower if delta_t > bench.delta_t_limit.value() => {
            misses.push(format!("dT {delta_t} K over dT*"))
        }
        Problem::ThermalGradient if w_pump > limit => {
            if crate::design::rounding_overshoot(&bench, w_pump) {
                report.budget_overshoots += 1;
            } else {
                misses.push(format!("W_pump {w_pump} W over the {limit} W budget"));
            }
        }
        _ => {}
    }
    misses
}

/// The untraced run: whole batches, each on a fresh queue, while they fit
/// in `seconds` (at least one).
pub fn measure(report: &mut Report, seed: u64, seconds: f64, scale: &Scale) {
    let setup_of = |b: u64| {
        let batch_seed = sub_seed(seed, 10_000 + b);
        move || (job_mix(batch_seed, scale), JobQueue::new(queue_options()))
    };
    let (setup, first) = SetupClock::start(scale, setup_of(0));
    let mut next = Some(first);

    let started = Instant::now();
    let mut latencies = Vec::new();
    let mut walls = Vec::new();
    let mut w_pump = Vec::new();
    let mut delta_t = Vec::new();
    let (mut completed, mut makespan, mut scored) = (0usize, 0.0, 0.0);
    for b in 0.. {
        let batch_seed = sub_seed(seed, 10_000 + b);
        // Later batches build their queue outside the set-up clock:
        // building and dropping sample queues between batches hands the
        // next batch's threads other allocator arenas than the last
        // batch freed, which raised the peak RSS by ~45%.
        let (jobs, queue) = next.take().unwrap_or_else(setup_of(b));
        let batch = run_batch(&queue, &jobs);
        drop(queue);
        makespan += batch.makespan;
        scored += crate::scored_requests(&batch.after, &batch.before);
        for (job, (a, latency)) in jobs.iter().zip(&batch.jobs) {
            latencies.push(*latency);
            walls.push(a.wall_ms as f64 / 1e3);
            if a.outcome == JobOutcome::Completed {
                completed += 1;
                if let Some(d) = &a.design {
                    match job.spec.problem {
                        Problem::PumpingPower => w_pump.push(f64::from_bits(d.w_pump_bits) * 1e6),
                        Problem::ThermalGradient => delta_t.push(f64::from_bits(d.delta_t_bits)),
                    }
                }
            }
        }
        gate_batch(report, &jobs, &batch, batch_seed);
        report.note("jobs_per_batch", jobs.len());
        if !another_fits(started, seconds, batch.makespan) {
            break;
        }
    }
    let (tail_s, pct) = tail(&latencies);
    report.set("setup_s", setup.median());
    report.set("job_wall_s", median(&walls));
    report.set("w_pump_uW", geomean(&w_pump));
    report.set("delta_t_K", geomean(&delta_t));
    report.set("jobs_per_s", ratio(completed as f64, makespan));
    report.set("job_latency_p50_s", median(&latencies));
    report.set("job_latency_tail_s", tail_s);
    report.set("steps_per_s", ratio(scored, makespan));
    report.note("samples", latencies.len());
    report.note("tail_percentile", pct);
    note_mix(report, scale);
}

/// Records the queue shape and, per tenant case, dies and unknown counts.
fn note_mix(report: &mut Report, scale: &Scale) {
    let opts = queue_options();
    report.note("concurrency", opts.concurrency);
    report.note("pool_threads", opts.pool_threads);
    let cases: Vec<String> = TENANT_CASES
        .iter()
        .map(|&case| {
            let bench = Benchmark::iccad_scaled(case, scale.dims());
            let (two, four) = crate::design::unknowns(&bench);
            format!("case{case}:dies={},2rm={two},4rm={four}", bench.num_dies)
        })
        .chain(
            CORPUS_JOBS
                .iter()
                .take(scale.corpus_jobs)
                .map(|(index, _, _)| {
                    let case = corpus_case(*index, scale);
                    format!("{}:dies={}", case.name, case.num_dies)
                }),
        )
        .collect();
    report.note("cases", cases.join(" "));
}

/// The traced run: the batch once as measured, then again with the
/// serve-layer breakdown taken from batch-level snapshot deltas (per-job
/// artifact metrics bleed across concurrent jobs; the difference is
/// reported as `serve.metrics_bleed`).
pub fn trace(report: &mut Report, seed: u64, scale: &Scale) {
    let batch_seed = sub_seed(seed, 10_000);
    let jobs = job_mix(batch_seed, scale);
    let untraced = run_batch(&JobQueue::new(queue_options()), &jobs);
    let traced = run_batch(&JobQueue::new(queue_options()), &jobs);
    gate_batch(report, &jobs, &traced, batch_seed);
    let mut misses = Vec::new();
    for ((a, _), (b, _)) in untraced.jobs.iter().zip(&traced.jobs) {
        if a.deterministic_core() != b.deterministic_core() {
            misses.push(format!(
                "{}: traced artifact differs from the untraced one",
                a.id
            ));
        }
    }
    report.tally("traced batch", misses);

    set_counter_metrics(report, &traced.after, &traced.before);
    let per_job_solves: u64 = traced
        .jobs
        .iter()
        .map(|(a, _)| a.metrics.counter("ladder.solves"))
        .sum();
    let batch_solves = traced.after.counter_delta(&traced.before, "ladder.solves");
    report.set(
        "serve.metrics_bleed",
        per_job_solves as f64 - batch_solves as f64,
    );
    let run: Vec<f64> = traced
        .jobs
        .iter()
        .map(|(a, _)| a.wall_ms as f64 / 1e3)
        .collect();
    let wait: Vec<f64> = traced
        .jobs
        .iter()
        .map(|(a, l)| (l - a.wall_ms as f64 / 1e3).max(0.0))
        .collect();
    report.set("serve.run_s", median(&run));
    report.set("serve.queue_wait_s", median(&wait));
    let attempts: u32 = traced.jobs.iter().map(|(a, _)| a.attempts).sum();
    report.set(
        "serve.attempts_per_job",
        ratio(f64::from(attempts), traced.jobs.len() as f64),
    );
    let mut spans: Vec<(f64, f64)> = traced
        .jobs
        .iter()
        .map(|(a, l)| ((l - a.wall_ms as f64 / 1e3).max(0.0), *l))
        .collect();
    report.set(
        "trace.coverage",
        ratio(union_length(&mut spans), traced.makespan),
    );
    report.set(
        "trace.overhead_share",
        traced.makespan / untraced.makespan - 1.0,
    );
    report.note("jobs_per_batch", jobs.len());
    note_mix(report, scale);
}
