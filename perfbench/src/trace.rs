//! The benchmark's own executor for traced design runs: an
//! [`EvalExec`] over the service's [`SolverPool`] that records a span per
//! batch and per [`RequestScorer::score`] call.

use crate::{median, ratio, Report};
use coolnet::cases::Benchmark;
use coolnet::network::builders::tree::TreeConfig;
use coolnet::opt::evalcache::EvalCache;
use coolnet::opt::psearch::PressureSearchOptions;
use coolnet::opt::treeopt::{EvalExec, EvalKind, EvalRequest, EvalResponse, TreeSearchOptions};
use coolnet::opt::{Problem, RequestScorer};
use coolnet::units::Pascal;
use coolnet_serve::pool::ScoreFn;
use coolnet_serve::SolverPool;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Times one call.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// One `RequestScorer::score` call.
#[derive(Debug, Clone, Copy)]
struct RequestSpan {
    batch: usize,
    kind: usize,
    start: f64,
    end: f64,
}

/// One `score_batch` call.
#[derive(Debug, Clone)]
struct BatchSpan {
    start: f64,
    end: f64,
    reqs: Vec<EvalRequest>,
    costs: Vec<f64>,
    p_sys: Vec<Option<Pascal>>,
}

/// Index of a request kind in the `evaluate.*` metric order.
fn kind_index(kind: EvalKind) -> usize {
    match kind {
        EvalKind::Full => 0,
        EvalKind::GradientAt(_) => 1,
        EvalKind::ObjectiveAt(_) => 2,
    }
}

/// A cached [`RequestScorer`] on a [`SolverPool`] of `threads` workers,
/// recording spans in memory.
pub struct TracedExec {
    pool: SolverPool,
    scorer: Arc<RequestScorer>,
    origin: Instant,
    threads: usize,
    requests: Arc<Mutex<Vec<RequestSpan>>>,
    batches: Mutex<Vec<BatchSpan>>,
}

impl TracedExec {
    /// An executor scoring `problem` on `bench` with a private cache of
    /// `cache_capacity` entries (`0`: uncached).
    pub fn new(
        bench: &Benchmark,
        psearch: PressureSearchOptions,
        problem: Problem,
        cache_capacity: usize,
        threads: usize,
    ) -> Self {
        let mut scorer = RequestScorer::new(bench, psearch, problem);
        if cache_capacity > 0 {
            scorer = scorer.with_cache(Arc::new(EvalCache::new(cache_capacity)), 0);
        }
        Self {
            pool: SolverPool::new(threads),
            scorer: Arc::new(scorer),
            origin: Instant::now(),
            threads: threads.max(1),
            requests: Arc::new(Mutex::new(Vec::new())),
            batches: Mutex::new(Vec::new()),
        }
    }

    /// Ends recording; `wall` is the search wall the spans should cover.
    pub fn finish(self, wall: f64) -> TraceLog {
        let lock_err = "a span recorder panicked";
        TraceLog {
            wall,
            threads: self.threads,
            requests: self.requests.lock().expect(lock_err).clone(),
            batches: self.batches.into_inner().expect(lock_err),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

impl EvalExec for TracedExec {
    fn score_batch(&self, reqs: Vec<EvalRequest>) -> Vec<EvalResponse> {
        let batch = self.batches.lock().expect("batch log lock").len();
        let scorer = Arc::clone(&self.scorer);
        let spans = Arc::clone(&self.requests);
        let origin = self.origin;
        let score: ScoreFn = Arc::new(move |req: &EvalRequest| {
            let start = origin.elapsed().as_secs_f64();
            let out = scorer.score(req);
            let end = origin.elapsed().as_secs_f64();
            let span = RequestSpan {
                batch,
                kind: kind_index(req.kind),
                start,
                end,
            };
            spans.lock().expect("request log lock").push(span);
            out
        });
        let start = self.now();
        let (out, _) = self.pool.execute(reqs.clone(), &score);
        let end = self.now();
        self.batches
            .lock()
            .expect("batch log lock")
            .push(BatchSpan {
                start,
                end,
                reqs,
                costs: out.iter().map(|r| r.0).collect(),
                p_sys: out.iter().map(|r| r.1).collect(),
            });
        out
    }
}

/// The spans of one traced search.
#[derive(Debug)]
pub struct TraceLog {
    wall: f64,
    threads: usize,
    requests: Vec<RequestSpan>,
    batches: Vec<BatchSpan>,
}

impl TraceLog {
    /// Sets the `treeopt`, `sa`, executor, `evaluate` and coverage metrics.
    pub fn set_metrics(&self, report: &mut Report, opts: &TreeSearchOptions) {
        let batch_s: f64 = self.batches.iter().map(|b| b.end - b.start).sum();
        let busy_s: f64 = self.requests.iter().map(|r| r.end - r.start).sum();
        let wait_s: f64 = self
            .requests
            .iter()
            .filter_map(|r| {
                self.batches
                    .get(r.batch)
                    .map(|b| (r.start - b.start).max(0.0))
            })
            .sum();
        report.set("treeopt.self_s", self.wall - batch_s);
        report.set("exec.batches", self.batches.len() as f64);
        report.set("exec.wait_s", wait_s);
        report.set(
            "exec.worker_busy_share",
            ratio(busy_s, self.threads as f64 * batch_s),
        );
        let names = [
            ("evaluate.full.request_p50_s", "evaluate.full.request_sum_s"),
            (
                "evaluate.gradient_at.request_p50_s",
                "evaluate.gradient_at.request_sum_s",
            ),
            (
                "evaluate.objective_at.request_p50_s",
                "evaluate.objective_at.request_sum_s",
            ),
        ];
        for (k, (p50, sum)) in names.into_iter().enumerate() {
            let d: Vec<f64> = self
                .requests
                .iter()
                .filter(|r| r.kind == k)
                .map(|r| r.end - r.start)
                .collect();
            report.set(p50, median(&d));
            report.set(sum, d.iter().sum());
        }
        let (iterations, judged, accepted) = self.sa_moves(opts.parallelism.max(1));
        report.set("sa.iterations", iterations as f64);
        report.set("sa.acceptance_ratio", ratio(accepted as f64, judged as f64));
        let mut spans: Vec<(f64, f64)> = self.requests.iter().map(|r| (r.start, r.end)).collect();
        report.set("trace.coverage", ratio(union_length(&mut spans), self.wall));
    }

    /// SA iterations and accepted moves, read off the batch stream.
    ///
    /// An iteration batch holds `parallelism` perturbations of the
    /// incumbent. A single-request batch names the incumbent outright (a
    /// round start or a group boundary). Between two iteration batches the
    /// move was accepted when the later candidates lie closer to the
    /// earlier winner than to the earlier incumbent; a single-request
    /// batch that names the winner also marks an acceptance. Returns
    /// `(iterations, judged moves, accepted moves)`.
    fn sa_moves(&self, parallelism: usize) -> (usize, usize, usize) {
        let (mut iterations, mut judged, mut accepted) = (0, 0, 0);
        let mut incumbent: Option<&TreeConfig> = None;
        let mut winner: Option<&TreeConfig> = None;
        let mut prev_len = 0;
        for b in &self.batches {
            let n = b.reqs.len();
            let full = matches!(b.reqs.first().map(|r| r.kind), Some(EvalKind::Full));
            if n == 1 {
                let named = &b.reqs[0].config;
                if let (Some(w), Some(inc)) = (winner, incumbent) {
                    if named == w || named == inc {
                        judged += 1;
                        accepted += usize::from(named == w);
                    }
                }
                incumbent = Some(named);
                winner = None;
            } else if n == parallelism && (!full || prev_len == 1) {
                iterations += 1;
                if let (Some(w), Some(inc)) = (winner, incumbent) {
                    let to = |c: &TreeConfig| -> u64 {
                        b.reqs.iter().map(|r| distance(&r.config, c)).sum()
                    };
                    judged += 1;
                    if to(w) <= to(inc) {
                        accepted += 1;
                        incumbent = Some(w);
                    }
                }
                winner = b
                    .costs
                    .iter()
                    .enumerate()
                    .min_by(|x, y| x.1.total_cmp(y.1))
                    .map(|(i, _)| &b.reqs[i].config);
            } else {
                winner = None;
            }
            prev_len = n;
        }
        (iterations, judged, accepted)
    }

    /// Up to `per_model` scored full-evaluation requests per thermal
    /// model, spread evenly over the search, with the pressure each
    /// returned.
    pub fn sample(&self, per_model: usize) -> Vec<(EvalRequest, Option<Pascal>)> {
        let full: Vec<(&EvalRequest, Option<Pascal>)> = self
            .batches
            .iter()
            .flat_map(|b| b.reqs.iter().zip(b.p_sys.iter().copied()))
            .filter(|(r, _)| matches!(r.kind, EvalKind::Full))
            .collect();
        let mut models = Vec::new();
        for (r, _) in &full {
            if !models.contains(&r.model) {
                models.push(r.model);
            }
        }
        let mut out = Vec::new();
        for model in models {
            let of: Vec<_> = full.iter().filter(|(r, _)| r.model == model).collect();
            let take = per_model.min(of.len());
            for i in 0..take {
                let (r, p) = of[i * of.len() / take];
                out.push(((*r).clone(), *p));
            }
        }
        out
    }
}

/// Sum of branch-position offsets between two configurations of the same
/// flow and tree count (`u64::MAX / 4` otherwise).
fn distance(a: &TreeConfig, b: &TreeConfig) -> u64 {
    if a.flow != b.flow || a.trees.len() != b.trees.len() {
        return u64::MAX / 4;
    }
    a.trees
        .iter()
        .zip(&b.trees)
        .map(|(x, y)| u64::from(x.b1.abs_diff(y.b1)) + u64::from(x.b2.abs_diff(y.b2)))
        .sum()
}

/// Total length covered by a set of intervals.
pub fn union_length(spans: &mut [(f64, f64)]) -> f64 {
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for &(s, e) in spans.iter() {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}
