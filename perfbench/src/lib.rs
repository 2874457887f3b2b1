//! End-to-end and per-layer benchmark of the coolnet design flow.
//!
//! Four workloads drive the public API the way a user does:
//!
//! * `design-p1` / `design-p2` — [`TreeSearch::run`] on one ICCAD case at
//!   41×41 with the reduced schedule (three 2RM stages, then a 4RM stage);
//! * `serve-batch` — one batch submitted at once to a
//!   [`coolnet_serve::JobQueue`];
//! * `transient-4rm` — the scenario presets through
//!   [`coolnet::opt::scenario::run_scenario`] on the 4RM.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) times calls into each layer's public functions from
//! this crate's own code and takes `coolnet-obs` counter deltas around
//! them. See `README.md` for the workload and metric tables.

#![forbid(unsafe_code)]

pub mod design;
pub mod serve;
pub mod trace;
pub mod transient;

use coolnet::grid::GridDims;
use coolnet::network::builders::GlobalFlow;
use coolnet::obs::MetricsSnapshot;
use coolnet::opt::treeopt::TreeSearchOptions;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, `(name, unit)`: every untraced run reports each.
pub const END_TO_END: &[(&str, &str)] = &[
    ("job_wall_s", "s"),
    ("w_pump_uW", "uW"),
    ("delta_t_K", "K"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_s", "s"),
    ("job_latency_tail_s", "s"),
    ("steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`: every traced run reports each. A
/// layer a workload does not exercise reports `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("treeopt.self_s", "s"),
    ("sa.iterations", "count"),
    ("sa.acceptance_ratio", "ratio"),
    ("exec.batches", "count"),
    ("exec.wait_s", "s"),
    ("exec.worker_busy_share", "ratio"),
    ("exec.scaling_1to2", "ratio"),
    ("evalcache.hit_ratio", "ratio"),
    ("evalcache.evictions", "count"),
    ("evaluate.full.request_p50_s", "s"),
    ("evaluate.full.request_sum_s", "s"),
    ("evaluate.gradient_at.request_p50_s", "s"),
    ("evaluate.gradient_at.request_sum_s", "s"),
    ("evaluate.objective_at.request_p50_s", "s"),
    ("evaluate.objective_at.request_sum_s", "s"),
    ("psearch.probes", "count"),
    ("psearch.probes_per_full_eval", "count"),
    ("psearch.eval_s", "s"),
    ("network.build_s", "s"),
    ("flow.build_s", "s"),
    ("flow.assemblies", "count"),
    ("thermal.assemble_s", "s"),
    ("thermal.simulate_s", "s"),
    ("probe.symbolic_builds", "count"),
    ("probe.refreshes", "count"),
    ("probe.refresh_skips", "count"),
    ("probe.warm_starts", "count"),
    ("transient.build_s", "s"),
    ("transient.step_s", "s"),
    ("runtime.integrator_rebuilds", "count"),
    ("scenario.loop_self_s", "s"),
    ("ladder.solves", "count"),
    ("ladder.wasted_share", "ratio"),
    ("ladder.dense_routed_share", "ratio"),
    ("krylov.iters_per_solve", "count"),
    ("par.spmv_parallel", "count"),
    ("serve.queue_wait_s", "s"),
    ("serve.run_s", "s"),
    ("serve.attempts_per_job", "count"),
    ("serve.metrics_bleed", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Problem 1 (min `W_pump`) on ICCAD case 4.
    DesignP1,
    /// Problem 2 (min `ΔT` under the pumping budget) on ICCAD case 2.
    DesignP2,
    /// One batch of quick-preset jobs on a shared job queue.
    ServeBatch,
    /// The scenario presets on the 4RM.
    Transient4Rm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::DesignP1,
        Workload::DesignP2,
        Workload::ServeBatch,
        Workload::Transient4Rm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DesignP1 => "design-p1",
            Workload::DesignP2 => "design-p2",
            Workload::ServeBatch => "serve-batch",
            Workload::Transient4Rm => "transient-4rm",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`] keeps
/// the self-test fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Grid side of every workload.
    pub grid: u16,
    /// `true` runs the design workloads on the reduced schedule, `false`
    /// on the quick one.
    pub reduced: bool,
    /// Repeated-tenant seeds per `(case, problem)` in `serve-batch`.
    pub tenant_repeats: usize,
    /// Generated-corpus jobs in `serve-batch`.
    pub corpus_jobs: usize,
    /// Timed samples behind the `setup_s` median.
    pub setup_samples: usize,
    /// Set-up calls per timed sample.
    pub setup_batch: usize,
}

impl Scale {
    /// The benchmark scale: 41×41, reduced schedule, 58-job batches.
    pub fn full() -> Self {
        Self {
            grid: 41,
            reduced: true,
            tenant_repeats: 9,
            corpus_jobs: 4,
            setup_samples: 5,
            setup_batch: 20,
        }
    }

    /// A scale small enough for a unit test.
    pub fn tiny() -> Self {
        Self {
            grid: 21,
            reduced: false,
            tenant_repeats: 1,
            corpus_jobs: 1,
            setup_samples: 2,
            setup_batch: 2,
        }
    }

    /// The workload grid.
    pub fn dims(&self) -> GridDims {
        GridDims::new(self.grid, self.grid)
    }

    /// The design schedule for one SA seed, on the W→E flow only.
    pub fn schedule(&self, seed: u64) -> TreeSearchOptions {
        let mut opts = if self.reduced {
            TreeSearchOptions::reduced(seed)
        } else {
            TreeSearchOptions::quick(seed)
        };
        // All four flows cost ~30 s per 41×41 search on a 2-core host;
        // one flow leaves room for several searches per run.
        opts.flows = vec![GlobalFlow::WestToEast];
        opts
    }
}

/// One run's result: the operation tally, the metrics, and the context
/// every result is recorded with.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (designs, jobs, scenario runs).
    pub attempted: u64,
    /// Operations that failed or missed the correctness gate.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run facts: seed, host threads, grid, dies, unknown counts, ...
    pub context: BTreeMap<&'static str, String>,
    /// One line per correctness-gate miss.
    pub misses: Vec<String>,
    /// Problem-2 designs whose pumping power exceeds the budget by no
    /// more than the cap's rounding (see [`design::gate`]).
    pub budget_overshoots: u64,
}

impl Report {
    /// Records one operation; `misses` empty means it passed the gate.
    pub fn tally(&mut self, what: &str, misses: Vec<String>) {
        self.attempted += 1;
        if !misses.is_empty() {
            self.failed += 1;
            self.misses
                .extend(misses.into_iter().map(|m| format!("{what}: {m}")));
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a context fact.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.context.insert(key, value.to_string());
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, listing `names` in order.
    /// Fails when a listed metric is missing or not finite.
    pub fn result_line(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }

    /// The context as one JSON object (values as strings).
    pub fn context_line(&self) -> String {
        let overshoots = self.budget_overshoots.to_string();
        let fields: Vec<String> = self
            .context
            .iter()
            .chain([(&"budget_overshoots", &overshoots)])
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        format!("{{\"context\": {{{}}}}}", fields.join(", "))
    }
}

/// Runs one workload. `trace` selects the per-layer run.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, scale: &Scale) -> Report {
    let mut report = Report::default();
    report.note("workload", workload.name());
    report.note("seed", seed);
    report.note("host_threads", host_threads());
    report.note("grid", format!("{0}x{0}", scale.grid));
    match (workload, trace) {
        (Workload::DesignP1 | Workload::DesignP2, false) => {
            design::measure(&mut report, problem_of(workload), seed, seconds, scale)
        }
        (Workload::DesignP1 | Workload::DesignP2, true) => {
            design::trace(&mut report, problem_of(workload), seed, scale)
        }
        (Workload::ServeBatch, false) => serve::measure(&mut report, seed, seconds, scale),
        (Workload::ServeBatch, true) => serve::trace(&mut report, seed, scale),
        (Workload::Transient4Rm, false) => transient::measure(&mut report, seed, seconds, scale),
        (Workload::Transient4Rm, true) => transient::trace(&mut report, seed, scale),
    }
    if trace {
        // A layer the workload does not reach reports 0.
        for &(name, _) in PER_LAYER {
            report.metrics.entry(name).or_insert(0.0);
        }
    } else {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    report
}

fn problem_of(workload: Workload) -> coolnet::opt::Problem {
    match workload {
        Workload::DesignP1 => coolnet::opt::Problem::PumpingPower,
        _ => coolnet::opt::Problem::ThermalGradient,
    }
}

/// Hardware threads of the host.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// A seed for the `i`-th operation of a run (splitmix64 finalizer), so
/// the same `--seed` always yields the same inputs.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mean of `values` (`0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Median of `values` (`0` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile of `values` with at least ten samples beyond
/// it, as `(value, percentile)`. Below 21 samples that percentile would
/// not lie above the median, so the median stands in (percentile 50).
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 21 {
        return (median(values), 50.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = n - 11;
    (v[k], 100.0 * (k + 1) as f64 / n as f64)
}

/// Set-up timing. A sample is the mean seconds per call over
/// `scale.setup_batch` calls; each value built is dropped outside the
/// timer, so teardown (joining a queue's threads, say) does not count.
/// Samples are taken at the start of a run and again before each later
/// operation: one burst of samples sees the host at one moment, and its
/// speed wanders by a quarter within seconds.
pub struct SetupClock {
    batch: usize,
    times: Vec<f64>,
}

impl SetupClock {
    /// One untimed warm-up call, then `scale.setup_samples` samples.
    /// Returns the clock with the last value built.
    pub fn start<T>(scale: &Scale, mut f: impl FnMut() -> T) -> (Self, T) {
        let mut clock = Self {
            batch: scale.setup_batch.max(1),
            times: Vec::new(),
        };
        let mut last = f();
        for _ in 0..scale.setup_samples {
            last = clock.sample(&mut f);
        }
        (clock, last)
    }

    /// Takes one sample and returns the last value built.
    pub fn sample<T>(&mut self, mut f: impl FnMut() -> T) -> T {
        let mut spent = 0.0;
        let mut last = None;
        for _ in 0..self.batch {
            let start = Instant::now();
            let built = f();
            spent += start.elapsed().as_secs_f64();
            last = Some(built);
        }
        self.times.push(spent / self.batch as f64);
        last.expect("a sample makes at least one call")
    }

    /// The median sample: `setup_s`.
    pub fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// Counter and histogram deltas of the `sparse`, `thermal` probe and
/// `opt` layers over one window, as per-layer metrics.
pub fn set_counter_metrics(report: &mut Report, after: &MetricsSnapshot, before: &MetricsSnapshot) {
    let d = |name: &str| after.counter_delta(before, name) as f64;
    let solves = d("ladder.solves");
    let attempts = d("ladder.attempts");
    report.set("ladder.solves", solves);
    report.set("ladder.wasted_share", ratio(attempts - solves, attempts));
    report.set(
        "ladder.dense_routed_share",
        ratio(d("ladder.diag_routed"), solves),
    );
    let iters = |s: &MetricsSnapshot| {
        s.histogram("ladder.iterations")
            .map_or((0, 0), |h| (h.count, h.sum))
    };
    let (c1, s1) = iters(after);
    let (c0, s0) = iters(before);
    report.set(
        "krylov.iters_per_solve",
        ratio(s1.saturating_sub(s0) as f64, c1.saturating_sub(c0) as f64),
    );
    report.set("par.spmv_parallel", d("par.spmv_parallel"));
    for name in [
        "probe.symbolic_builds",
        "probe.refreshes",
        "probe.refresh_skips",
        "probe.warm_starts",
        "flow.assemblies",
        "psearch.probes",
        "runtime.integrator_rebuilds",
    ] {
        report.set(name, d(name));
    }
    let hits = d("eval.cache_hits");
    report.set(
        "evalcache.hit_ratio",
        ratio(hits, hits + d("eval.cache_misses")),
    );
    report.set("evalcache.evictions", d("eval.cache_evictions"));
}

/// Scoring requests (cache hits plus misses) between two snapshots.
pub fn scored_requests(after: &MetricsSnapshot, before: &MetricsSnapshot) -> f64 {
    (after.counter_delta(before, "eval.cache_hits")
        + after.counter_delta(before, "eval.cache_misses")) as f64
}

/// `num / den`, `0` when `den` is `0`.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Whether another operation of `last` seconds still fits in a window of
/// `seconds` opened at `started`.
pub fn another_fits(started: Instant, seconds: f64, last: f64) -> bool {
    started.elapsed().as_secs_f64() + last <= seconds
}
