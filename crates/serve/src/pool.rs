//! The solver pool, re-exported from [`coolnet_opt::pool`]: a
//! [`JobQueue`](crate::JobQueue) scores every job's candidate batches on
//! one shared [`SolverPool`].

pub use coolnet_opt::pool::{BatchStats, PoolExec, ScoreFn, SolverPool};
