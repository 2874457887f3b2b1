//! The solver pool: the workspace's one executor. A persistent set of
//! worker threads scores [`EvalRequest`] batches, for one search
//! ([`TreeSearch::run`](crate::treeopt::TreeSearch::run) builds a private
//! pool per run) or for every job in a process (a multi-job service
//! shares one).
//!
//! N concurrent jobs over one pool of `threads` workers time-share the
//! machine instead of oversubscribing it N-fold. The pool plugs into the
//! optimizer through the [`EvalExec`] seam (see [`PoolExec`]).
//!
//! Fault containment is structural:
//!
//! * every task runs under `catch_unwind`, so a panicking evaluation
//!   kills neither its worker thread nor its batch — the slot it failed
//!   to fill is absorbed as `(+∞, None)`, the optimizer's standard
//!   infeasible score, and counted in `sa.eval_panics`;
//! * a task is always run: by a worker, or on the submitting thread when
//!   no worker can take it, so a batch can never wait on a lost task;
//! * batch state lives behind a poison-recovering lock
//!   ([`coolnet_obs::sync`]), so a panic between lock and write cannot
//!   wedge sibling jobs sharing the pool.

use crate::treeopt::{EvalExec, EvalRequest, EvalResponse};
use coolnet_obs::sync::lock_recover;
use coolnet_obs::LazyCounter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, SendError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Evaluation tasks submitted to a [`SolverPool`].
static M_POOL_TASKS: LazyCounter = LazyCounter::new("sa.pool_tasks");
/// Evaluations that panicked (absorbed as `+∞`).
static M_EVAL_PANICS: LazyCounter = LazyCounter::new("sa.eval_panics");

/// A scoring function shared across threads: jobs wrap their
/// [`RequestScorer`](crate::RequestScorer) (plus any fault or accounting
/// shims) in one of these and hand it to [`SolverPool::execute`].
pub type ScoreFn = Arc<dyn Fn(&EvalRequest) -> EvalResponse + Send + Sync>;

/// Counters of one batch execution, for tests and health reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Tasks whose evaluation panicked (absorbed as `(+∞, None)`).
    pub panics: usize,
}

/// The result slots of one batch (`None`: not scored, or panicked) and
/// how many are still being scored.
struct BatchState {
    slots: Vec<Option<EvalResponse>>,
    pending: usize,
}

/// One batch in flight: its state plus the signal its submitter waits on.
struct Batch {
    state: Mutex<BatchState>,
    done: Condvar,
}

impl Batch {
    fn new(n: usize) -> Self {
        Self {
            state: Mutex::new(BatchState {
                slots: vec![None; n],
                pending: n,
            }),
            done: Condvar::new(),
        }
    }

    /// Records one task's result (`None`: it panicked).
    fn complete(&self, index: usize, response: Option<EvalResponse>) {
        let mut state = lock_recover(&self.state);
        if let Some(slot) = state.slots.get_mut(index) {
            *slot = response;
        }
        state.pending -= 1;
        if state.pending == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every task completed; the slots of panicked tasks
    /// become `(+∞, None)`.
    fn wait(&self) -> (Vec<EvalResponse>, BatchStats) {
        let mut state = lock_recover(&self.state);
        while state.pending > 0 {
            state = self.done.wait(state).unwrap_or_else(|p| p.into_inner());
        }
        let panics = state.slots.iter().filter(|slot| slot.is_none()).count();
        let out = state
            .slots
            .iter_mut()
            .map(|slot| slot.take().unwrap_or((f64::INFINITY, None)))
            .collect();
        (out, BatchStats { panics })
    }
}

/// One request of a batch, scored by whichever thread runs it.
struct Task {
    index: usize,
    req: EvalRequest,
    score: ScoreFn,
    batch: Arc<Batch>,
}

impl Task {
    fn run(self) {
        let response = match catch_unwind(AssertUnwindSafe(|| (self.score)(&self.req))) {
            Ok(response) => Some(response),
            Err(_) => {
                M_EVAL_PANICS.inc();
                None
            }
        };
        self.batch.complete(self.index, response);
    }
}

/// A persistent pool of evaluation worker threads.
#[derive(Debug)]
pub struct SolverPool {
    /// `None` when no worker could be started: batches are then scored
    /// on the calling thread.
    task_tx: Option<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
}

impl SolverPool {
    /// Spawns a pool of `threads` workers (clamped to at least one) and
    /// returns once every worker runs. A worker the OS refuses to spawn is
    /// left out; with none running, batches are scored on the caller.
    ///
    /// The wait keeps a process's memory flat across successive pools.
    /// Under glibc a thread's first allocation binds it to a malloc arena,
    /// taking the one most recently released by an exited thread first.
    /// A job queue stops its workers last, so their arenas, which still
    /// hold the freed evaluation cache, are the first a new pool's
    /// workers take, as long as those workers allocate before the caller
    /// starts other threads. When a runner started first and took one of
    /// them, the worker grew a new heap: on a 2-core host a 58-job batch
    /// on a second queue then peaked at ~970 instead of ~730 MiB, in about
    /// one run of five.
    pub fn new(threads: usize) -> Self {
        let (task_tx, task_rx) = channel::<Task>();
        let task_rx = Arc::new(Mutex::new(task_rx));
        let mut spawned = Vec::new();
        for i in 0..threads.max(1) {
            let rx = Arc::clone(&task_rx);
            // A fresh channel per worker: the first send on it allocates
            // in the sending thread.
            let (started_tx, started_rx) = channel::<()>();
            let worker = std::thread::Builder::new()
                .name(format!("coolnet-solve-{i}"))
                .spawn(move || {
                    // The receiver is dropped only after the wait below,
                    // unless `new` itself unwound: then there is no pool
                    // to serve.
                    if started_tx.send(()).is_ok() {
                        Self::worker_loop(&rx);
                    }
                });
            match worker {
                Ok(worker) => spawned.push((worker, started_rx)),
                Err(_) => break,
            }
        }
        // Keep the workers that started; one that exited before
        // signalling cannot take tasks.
        let workers: Vec<_> = spawned
            .into_iter()
            .filter_map(|(worker, started_rx)| started_rx.recv().ok().map(|()| worker))
            .collect();
        Self {
            task_tx: (!workers.is_empty()).then_some(task_tx),
            workers,
        }
    }

    /// Number of worker threads (`0`: batches run on the calling thread).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    fn worker_loop(rx: &Mutex<Receiver<Task>>) {
        loop {
            // Lock only around the receive so workers pull tasks
            // concurrently (a `while let` would hold the guard through
            // the task). The task's own `catch_unwind` keeps the worker
            // alive to serve other jobs, and the lock recovers if that
            // ever failed.
            let Ok(task) = lock_recover(rx).recv() else {
                return; // pool shut down
            };
            task.run();
        }
    }

    /// Scores `reqs` on the pool, preserving order. Panicking evaluations
    /// are absorbed as `(+∞, None)` and counted in the returned stats.
    ///
    /// Many jobs may call this concurrently; their tasks interleave on the
    /// shared workers. Completion is per-batch: the call returns when all
    /// of *its* slots are accounted for, independent of sibling batches.
    pub fn execute(
        &self,
        reqs: Vec<EvalRequest>,
        score: &ScoreFn,
    ) -> (Vec<EvalResponse>, BatchStats) {
        M_POOL_TASKS.add(reqs.len() as u64);
        let batch = Arc::new(Batch::new(reqs.len()));
        for (index, req) in reqs.into_iter().enumerate() {
            let task = Task {
                index,
                req,
                score: Arc::clone(score),
                batch: Arc::clone(&batch),
            };
            // A task no worker can take runs here instead.
            match &self.task_tx {
                Some(tx) => {
                    if let Err(SendError(task)) = tx.send(task) {
                        task.run();
                    }
                }
                None => task.run(),
            }
        }
        batch.wait()
    }
}

impl Drop for SolverPool {
    fn drop(&mut self) {
        // Closing the channel wakes every idle worker with a disconnect.
        self.task_tx = None;
        for worker in self.workers.drain(..) {
            // A worker can only panic outside the per-task catch (i.e. in
            // the loop plumbing); surfacing that at shutdown is correct.
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// A [`SolverPool`] bound to one scoring function: the [`EvalExec`] a
/// search scores its candidate batches through.
pub struct PoolExec<'a> {
    /// The pool the batches run on.
    pub pool: &'a SolverPool,
    /// The function every request is scored with.
    pub score: ScoreFn,
}

impl EvalExec for PoolExec<'_> {
    fn score_batch(&self, reqs: Vec<EvalRequest>) -> Vec<EvalResponse> {
        self.pool.execute(reqs, &self.score).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treeopt::EvalKind;
    use crate::ModelChoice;
    use coolnet_network::builders::tree::{BranchStyle, TreeConfig};
    use coolnet_network::builders::GlobalFlow;

    fn req(tag: u16) -> EvalRequest {
        EvalRequest {
            config: TreeConfig::uniform(GlobalFlow::WestToEast, BranchStyle::Binary, 1, tag, tag),
            model: ModelChoice::fast(),
            kind: EvalKind::Full,
        }
    }

    #[test]
    fn pool_preserves_order_and_absorbs_panics() {
        let pool = SolverPool::new(3);
        let score: ScoreFn = Arc::new(|r: &EvalRequest| {
            let tag = r.config.trees[0].b1;
            assert!(tag != 4, "injected evaluation panic");
            (f64::from(tag), None)
        });
        let reqs: Vec<_> = (0..8).map(req).collect();
        let (out, stats) = pool.execute(reqs, &score);
        assert_eq!(stats.panics, 1);
        for (i, (cost, _)) in out.iter().enumerate() {
            if i == 4 {
                assert!(cost.is_infinite(), "panicked slot absorbed as +inf");
            } else {
                assert_eq!(*cost, i as f64);
            }
        }
        // The pool stays fully usable after the panic, for empty batches
        // too.
        let (again, stats) = pool.execute(vec![req(1), req(2)], &score);
        assert_eq!(stats.panics, 0);
        assert_eq!(again, vec![(1.0, None), (2.0, None)]);
        assert_eq!(pool.execute(Vec::new(), &score).0, Vec::new());
    }

    #[test]
    fn pool_without_workers_scores_on_the_caller() {
        // What `new` builds when the OS refuses every worker thread.
        let pool = SolverPool {
            task_tx: None,
            workers: Vec::new(),
        };
        let caller = std::thread::current().id();
        let score: ScoreFn = Arc::new(move |r: &EvalRequest| {
            assert_eq!(std::thread::current().id(), caller);
            let tag = r.config.trees[0].b1;
            assert!(tag != 2, "injected evaluation panic");
            (f64::from(tag), None)
        });
        let (out, stats) = pool.execute((0..4).map(req).collect(), &score);
        assert_eq!(stats.panics, 1);
        assert_eq!(
            out,
            vec![(0.0, None), (1.0, None), (f64::INFINITY, None), (3.0, None)]
        );
    }

    #[test]
    fn concurrent_batches_share_one_pool() {
        let pool = Arc::new(SolverPool::new(2));
        let score: ScoreFn =
            Arc::new(|r: &EvalRequest| (f64::from(r.config.trees[0].b1) * 2.0, None));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    let score = score.clone();
                    s.spawn(move || pool.execute((0..6).map(req).collect(), &score))
                })
                .collect();
            for h in handles {
                let (out, stats) = h.join().unwrap();
                assert_eq!(stats.panics, 0);
                let costs: Vec<f64> = out.iter().map(|(c, _)| *c).collect();
                assert_eq!(costs, vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
            }
        });
    }
}
