//! The process-wide solver pool: one persistent set of worker threads
//! scoring [`EvalRequest`] batches for *every* job in the process.
//!
//! [`TreeSearch`](coolnet_opt::treeopt::TreeSearch) can run its own
//! per-run pool, but a multi-job service wants evaluation threads to be a
//! process resource: N concurrent jobs over one pool of `threads` workers
//! time-share the machine instead of oversubscribing it N-fold. The pool
//! plugs into the optimizer through the [`EvalExec`] seam (see
//! [`PooledExec`]).
//!
//! Fault containment is structural:
//!
//! * every task runs under `catch_unwind`, so a panicking evaluation
//!   kills neither its worker thread nor its batch — the slot it failed
//!   to fill is absorbed as `(+∞, None)`, the optimizer's standard
//!   infeasible score;
//! * batch completion is signalled by an RAII guard whose `Drop` fires
//!   even while a task unwinds, so the submitting job can never deadlock
//!   on a lost completion;
//! * result slots live behind poison-recovering locks
//!   ([`coolnet_obs::sync`]), so a panic between lock and write cannot
//!   wedge sibling jobs sharing the pool.

use coolnet_obs::sync::lock_recover;
use coolnet_opt::treeopt::{EvalRequest, EvalResponse};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A scoring function shared across threads: jobs wrap their
/// [`RequestScorer`](coolnet_opt::RequestScorer) (plus any fault or
/// accounting shims) in one of these and hand it to
/// [`SolverPool::execute`].
pub type ScoreFn = Arc<dyn Fn(&EvalRequest) -> EvalResponse + Send + Sync>;

type Task = Box<dyn FnOnce() + Send>;

/// Counters of one batch execution, for tests and health reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Tasks whose evaluation panicked (absorbed as `(+∞, None)`).
    pub panics: usize,
}

/// A persistent pool of evaluation worker threads shared by all jobs.
pub struct SolverPool {
    task_tx: Mutex<Option<Sender<Task>>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for SolverPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Sends on the batch's completion channel when dropped — including a
/// drop during panic unwinding, which is what makes task completion
/// unlosable.
struct DoneGuard {
    done: Sender<bool>,
    panicked: bool,
}

impl Drop for DoneGuard {
    fn drop(&mut self) {
        // The receiver may be gone if the submitting job itself panicked
        // and abandoned the batch; a lost signal is then harmless.
        let _ = self.done.send(self.panicked);
    }
}

impl SolverPool {
    /// Spawns a pool of `threads` workers (clamped to at least one) and
    /// returns once every worker runs.
    ///
    /// The wait keeps a process's memory flat across successive pools.
    /// Under glibc a thread's first allocation binds it to a malloc arena,
    /// taking the one most recently released by an exited thread first.
    /// A [`JobQueue`](crate::JobQueue) stops its workers last, so their
    /// arenas, which still hold the freed evaluation cache, are the first
    /// a new pool's workers take, as long as those workers allocate
    /// before the caller starts other threads. When a runner started
    /// first and took one of them, the worker grew a new heap: on a
    /// 2-core host a 58-job batch on a second queue then peaked at ~970
    /// instead of ~730 MiB, in about one run of five.
    pub fn new(threads: usize) -> Self {
        let (task_tx, task_rx) = channel::<Task>();
        let task_rx = Arc::new(Mutex::new(task_rx));
        let (workers, started): (Vec<_>, Vec<_>) = (0..threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&task_rx);
                // A fresh channel per worker: the first send on it
                // allocates in the sending thread.
                let (started_tx, started_rx) = channel::<()>();
                let worker = std::thread::Builder::new()
                    .name(format!("coolnet-solve-{i}"))
                    .spawn(move || {
                        // The receiver outlives this send: it is
                        // dropped only after the wait below.
                        let _ = started_tx.send(());
                        Self::worker_loop(&rx)
                    })
                    .expect("spawning a solver pool worker thread");
                (worker, started_rx)
            })
            .unzip();
        for started_rx in started {
            // An error means the worker exited before signalling; it ran
            // either way.
            let _ = started_rx.recv();
        }
        Self {
            task_tx: Mutex::new(Some(task_tx)),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    fn worker_loop(rx: &Mutex<Receiver<Task>>) {
        loop {
            // Lock only around the receive so workers pull tasks
            // concurrently; recover the lock if a sibling panicked between
            // recv and unlock (cannot happen today, but the pool must not
            // rely on that).
            let task = match lock_recover(rx).recv() {
                Ok(task) => task,
                Err(_) => return, // pool shut down
            };
            // The task's own DoneGuard reports the panic; the worker
            // thread survives to serve other jobs.
            let _ = catch_unwind(AssertUnwindSafe(task));
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
        let n = reqs.len();
        let slots = Arc::new(Mutex::new(vec![None; n]));
        let (done_tx, done_rx) = channel::<bool>();
        let mut dispatched = 0usize;
        {
            let guard = lock_recover(&self.task_tx);
            let Some(tx) = guard.as_ref() else {
                // Pool already shut down: absorb the whole batch.
                return (vec![(f64::INFINITY, None); n], BatchStats { panics: 0 });
            };
            for (i, req) in reqs.into_iter().enumerate() {
                let slots = Arc::clone(&slots);
                let score = Arc::clone(score);
                let done = done_tx.clone();
                let task: Task = Box::new(move || {
                    let mut guard = DoneGuard {
                        done,
                        panicked: true,
                    };
                    let response = score(&req);
                    lock_recover(&slots)[i] = Some(response);
                    guard.panicked = false;
                });
                if tx.send(task).is_err() {
                    break; // workers gone; remaining slots stay None
                }
                dispatched += 1;
            }
        }
        drop(done_tx);
        let mut stats = BatchStats::default();
        for _ in 0..dispatched {
            match done_rx.recv() {
                Ok(panicked) => stats.panics += usize::from(panicked),
                Err(_) => break, // unreachable: guards always signal
            }
        }
        let mut filled = lock_recover(&slots);
        let out = filled
            .iter_mut()
            .map(|slot| slot.take().unwrap_or((f64::INFINITY, None)))
            .collect();
        (out, stats)
    }
}

impl Drop for SolverPool {
    fn drop(&mut self) {
        // Closing the channel wakes every idle worker with a disconnect.
        *lock_recover(&self.task_tx) = None;
        for worker in self.workers.drain(..) {
            // A worker can only panic outside the per-task catch (i.e. in
            // the loop plumbing); surfacing that at shutdown is correct.
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolnet_network::builders::tree::{BranchStyle, TreeConfig};
    use coolnet_network::builders::GlobalFlow;
    use coolnet_opt::treeopt::EvalKind;
    use coolnet_opt::ModelChoice;

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
        // The pool stays fully usable after the panic.
        let (again, stats) = pool.execute(vec![req(1), req(2)], &score);
        assert_eq!(stats.panics, 0);
        assert_eq!(again, vec![(1.0, None), (2.0, None)]);
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
