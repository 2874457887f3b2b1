//! Solver resilience: the escalation ladder and fault-injection harness.
//!
//! The SA design flows (Algorithms 1–3) evaluate dozens of candidate
//! networks per iteration over thousands of moves, and the run-time control
//! loop chains thousands of sequential transient solves; a single
//! ill-conditioned candidate must cost one infeasible score, not a dead
//! process or a wedged run. [`SolveLadder`] provides that guarantee for
//! every linear solve backing the hydraulic and thermal models: an ordered
//! list of [`Rung`]s (solver kind × preconditioner) tried in order, one
//! attempt each, returning the solution together with a [`SolveReport`]
//! that records every attempt for observability.
//!
//! Two presets cover the workspace's systems:
//!
//! * [`SolveLadder::spd`] — for the symmetric positive definite pressure
//!   systems of Eq. (3): CG first, then ILU(0)-BiCGSTAB, restarted GMRES,
//!   and finally a dense LU below a size cap;
//! * [`SolveLadder::nonsymmetric`] (the [`Default`]) — for the
//!   advection–diffusion thermal systems of Eq. (6): BiCGSTAB first, then
//!   GMRES with an escalating restart, then dense LU.
//!
//! The first rung of each preset reproduces the exact solver call the
//! models made before the ladder existed, so the no-fault fast path is
//! numerically identical to the historical behavior.
//!
//! The companion [`fault`] module (compiled under `cfg(test)` or the
//! `fault-inject` feature) injects deterministic failures at chosen
//! attempt indices so tests can force every rung — including the terminal
//! dense fallback — and prove the whole stack degrades gracefully.

use crate::csr::CsrMatrix;
use crate::ops;
use crate::precond::{Ilu0, Preconditioner};
use crate::solve::{self, Solution, SolveError, SolveStats, SolverOptions};
use coolnet_obs::{LazyCounter, LazyHistogram};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Ladder solves that returned a solution.
static M_SOLVES: LazyCounter = LazyCounter::new("ladder.solves");
/// Solver attempts actually run (skips excluded), successful or not.
static M_ATTEMPTS: LazyCounter = LazyCounter::new("ladder.attempts");
/// Solves that needed more than their first attempt.
static M_ESCALATIONS: LazyCounter = LazyCounter::new("ladder.escalations");
/// Solves for which every rung failed or was inapplicable.
static M_EXHAUSTED: LazyCounter = LazyCounter::new("ladder.exhausted");
/// Attempts whose outcome was forced by the fault-injection harness.
static M_INJECTED: LazyCounter = LazyCounter::new("ladder.injected_faults");
/// Iterations of each successful solve (from [`SolveStats`]).
static M_ITERATIONS: LazyHistogram = LazyHistogram::new("ladder.iterations");
/// Per-rung convergence outcomes; rungs past the array share the last slot
/// (no preset ladder is that deep).
static M_RUNG_CONVERGED: [LazyCounter; 5] = [
    LazyCounter::new("ladder.rung0_converged"),
    LazyCounter::new("ladder.rung1_converged"),
    LazyCounter::new("ladder.rung2_converged"),
    LazyCounter::new("ladder.rung3_converged"),
    LazyCounter::new("ladder.rung4plus_converged"),
];
/// Solves the diagnostics gate routed straight to the terminal dense rung.
static M_DIAG_ROUTED: LazyCounter = LazyCounter::new("ladder.diag_routed");

/// Eagerly registers every ladder metric so snapshots report explicit
/// zeros for counters that have not fired (e.g. `ladder.rung1_converged`
/// on a run where no solve ever converged on rung 1). Without this,
/// "never fired" and "not instrumented" are indistinguishable in an
/// exported [`coolnet_obs::MetricsSnapshot`].
fn register_metrics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        M_SOLVES.register();
        M_ATTEMPTS.register();
        M_ESCALATIONS.register();
        M_EXHAUSTED.register();
        M_INJECTED.register();
        M_ITERATIONS.register();
        for c in &M_RUNG_CONVERGED {
            c.register();
        }
        M_DIAG_ROUTED.register();
    });
}

/// Default dimension cap for the terminal dense-LU rung: above this the
/// O(n³) factorization costs more than declaring the probe infeasible.
pub const DENSE_FALLBACK_CAP: usize = 4096;

/// Systems whose `|net_dominance|` ([`MatrixDiagnostics`]) falls below
/// this are numerically singular, and the diagnostics gate routes them to
/// the terminal dense rung. The value sits in the measured gap between the
/// workspace's escalating thermal probes (`≤ 2.3e-9`, conduction
/// Laplacians whose advection vanishes at the lowest probed pressures) and
/// the weakest healthy solves (`≥ 4.2e-9`).
pub const SINGULAR_NET_DOMINANCE: f64 = 3e-9;

/// Which Krylov (or direct) solver a [`Rung`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverKind {
    /// Preconditioned conjugate gradients ([`solve::cg`]); SPD systems only.
    Cg,
    /// Preconditioned BiCGSTAB ([`solve::bicgstab`]).
    Bicgstab,
    /// Restarted GMRES ([`solve::gmres`]) with the given restart length.
    Gmres {
        /// Krylov subspace dimension between restarts (`0` selects 50).
        restart: usize,
    },
    /// Dense partially pivoted LU; only attempted when the system dimension
    /// is at most `max_dim` (the rung is recorded as skipped otherwise).
    DenseLu {
        /// Largest dimension this rung accepts.
        max_dim: usize,
    },
}

impl fmt::Display for SolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverKind::Cg => f.write_str("cg"),
            SolverKind::Bicgstab => f.write_str("bicgstab"),
            SolverKind::Gmres { restart } => write!(f, "gmres({restart})"),
            SolverKind::DenseLu { max_dim } => write!(f, "dense-lu(≤{max_dim})"),
        }
    }
}

/// Which preconditioner a [`Rung`] pairs with its solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrecondSpec {
    /// The preconditioner the caller passed to [`SolveLadder::solve`]
    /// (e.g. a cached ILU(0) factorization on the probe path).
    Caller,
    /// A fresh ILU(0) factorization, built from the matrix per attempt —
    /// recovers from a stale or poisoned caller preconditioner.
    Ilu0,
}

impl fmt::Display for PrecondSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrecondSpec::Caller => f.write_str("caller"),
            PrecondSpec::Ilu0 => f.write_str("ilu0"),
        }
    }
}

/// One step of the escalation ladder, run once at the caller's tolerance
/// and iteration budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rung {
    /// Solver to run.
    pub solver: SolverKind,
    /// Preconditioner to pair it with.
    pub precond: PrecondSpec,
}

impl Rung {
    /// A rung running `solver` under `precond`.
    pub fn new(solver: SolverKind, precond: PrecondSpec) -> Self {
        Self { solver, precond }
    }
}

/// Cheap structural diagnostics of a system matrix, measured in one
/// `O(nnz)` pass (negligible next to any Krylov solve on the same matrix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixDiagnostics {
    /// System dimension (rows).
    pub dim: usize,
    /// Smallest `|a_ii|` over all rows (`0` flags a structural zero pivot).
    pub min_abs_diag: f64,
    /// Largest `|a_ii|` over all rows.
    pub max_abs_diag: f64,
    /// Minimum per-row dominance `|a_ii| / Σ_{j≠i} |a_ij|`
    /// (`∞` for rows without off-diagonals).
    pub min_row_dominance: f64,
    /// Net diagonal dominance `Σ_i (|a_ii| − Σ_{j≠i} |a_ij|) / Σ_i |a_ii|`
    /// (`0` for an all-zero diagonal). Conservation-law operators (flow
    /// and thermal balances alike) have interior rows that cancel exactly,
    /// so this measures the *boundary* coupling that makes the system
    /// solvable; values near zero flag a numerically singular system.
    pub net_dominance: f64,
}

impl MatrixDiagnostics {
    /// Measures `a`.
    pub fn measure(a: &CsrMatrix) -> Self {
        let n = a.rows();
        let mut min_abs_diag = f64::INFINITY;
        let mut max_abs_diag = 0.0_f64;
        let mut min_row_dominance = f64::INFINITY;
        let mut total_excess = 0.0_f64;
        let mut total_diag = 0.0_f64;
        for r in 0..n {
            let (cols, vals) = a.row(r);
            let mut d = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize == r {
                    d += v.abs();
                } else {
                    off += v.abs();
                }
            }
            min_abs_diag = min_abs_diag.min(d);
            max_abs_diag = max_abs_diag.max(d);
            let dominance = if off > 0.0 { d / off } else { f64::INFINITY };
            min_row_dominance = min_row_dominance.min(dominance);
            total_excess += d - off;
            total_diag += d;
        }
        let net_dominance = if total_diag > 0.0 {
            total_excess / total_diag
        } else {
            0.0
        };
        Self {
            dim: n,
            min_abs_diag: if n == 0 { 0.0 } else { min_abs_diag },
            max_abs_diag,
            min_row_dominance,
            net_dominance,
        }
    }

    /// Whether the diagnostics gate routes this system straight to the
    /// terminal dense rung instead of burning the Krylov rungs that cannot
    /// converge on it: a structural zero pivot, a non-finite net dominance,
    /// or `|net_dominance|` below [`SINGULAR_NET_DOMINANCE`].
    ///
    /// The gate is *conservative by construction*: it only fires on
    /// numerically singular systems, where the Krylov rungs fail within
    /// any realistic budget and the escalation would have ended at the
    /// dense rung anyway. Routing therefore reproduces the escalated
    /// solve's solution bit for bit (dense LU ignores the initial guess and
    /// tolerance), just without the dead attempts. Systems the gate misses
    /// still escalate normally.
    pub fn is_near_singular(&self) -> bool {
        self.dim > 0
            && (self.min_abs_diag <= 0.0
                || !self.net_dominance.is_finite()
                || self.net_dominance.abs() < SINGULAR_NET_DOMINANCE)
    }
}

/// Outcome of one ladder attempt, recorded in a [`SolveReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// The solver converged.
    Converged {
        /// Iterations the solver performed.
        iterations: usize,
        /// Final relative residual.
        residual: f64,
    },
    /// The solver failed with the given error.
    Failed(SolveError),
    /// The rung was not applicable and no solver ran.
    Skipped {
        /// Why the rung was skipped (e.g. over the dense size cap).
        reason: String,
    },
}

/// One attempted (or skipped) rung execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// Ladder rung index.
    pub rung: usize,
    /// Solver the rung ran.
    pub solver: SolverKind,
    /// Preconditioner the rung paired with it.
    pub precond: PrecondSpec,
    /// Whether the fault-injection harness forced this attempt's outcome.
    pub injected: bool,
    /// What happened.
    pub outcome: AttemptOutcome,
}

/// The attempt-by-attempt record of one [`SolveLadder::solve`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveReport {
    /// Every attempt in execution order, skips included.
    pub attempts: Vec<Attempt>,
}

impl SolveReport {
    /// Number of attempts that actually ran a solver (skips excluded).
    pub fn tried(&self) -> usize {
        self.attempts
            .iter()
            .filter(|a| !matches!(a.outcome, AttemptOutcome::Skipped { .. }))
            .count()
    }

    /// The rung index that converged, if any.
    pub fn succeeded_rung(&self) -> Option<usize> {
        self.attempts
            .iter()
            .find(|a| matches!(a.outcome, AttemptOutcome::Converged { .. }))
            .map(|a| a.rung)
    }

    /// Whether the solve needed more than its first attempt.
    pub fn escalated(&self) -> bool {
        self.tried() > 1
    }

    /// The last solver error recorded, if any attempt failed.
    pub fn last_error(&self) -> Option<&SolveError> {
        self.attempts.iter().rev().find_map(|a| match &a.outcome {
            AttemptOutcome::Failed(e) => Some(e),
            _ => None,
        })
    }

    /// Number of attempts whose outcome was forced by fault injection.
    pub fn injected_faults(&self) -> usize {
        self.attempts.iter().filter(|a| a.injected).count()
    }
}

/// A solution produced by the ladder: the vector, its [`SolveStats`]
/// (with `rung`/`attempts` filled in), and the full [`SolveReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct LadderSolution {
    /// The solution vector.
    pub solution: Vec<f64>,
    /// Convergence statistics of the successful attempt.
    pub stats: SolveStats,
    /// Every attempt made on the way there.
    pub report: SolveReport,
}

/// Every rung failed (or was inapplicable); carries the full record.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderError {
    /// The attempt-by-attempt record of the exhausted ladder.
    pub report: SolveReport,
}

impl fmt::Display for LadderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.report.last_error() {
            Some(e) => write!(
                f,
                "solver ladder exhausted after {} attempts over {} rungs; last error: {e}",
                self.report.tried(),
                self.report.attempts.len(),
            ),
            None => f.write_str("solver ladder has no applicable rungs"),
        }
    }
}

impl Error for LadderError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.report
            .last_error()
            .map(|e| e as &(dyn Error + 'static))
    }
}

impl From<LadderError> for SolveError {
    /// Collapses the report to its last recorded solver error, for callers
    /// whose error types wrap [`SolveError`].
    fn from(e: LadderError) -> Self {
        e.report
            .last_error()
            .cloned()
            .unwrap_or(SolveError::NotConverged {
                iterations: 0,
                residual: f64::INFINITY,
            })
    }
}

/// The ordered escalation ladder.
///
/// Configs saved while the ladder still carried a retry policy, per-rung
/// budget factors and gate settings still load: those keys are ignored,
/// and they only ever held the values this ladder now hard-codes (one
/// attempt per rung at the caller's budget, gate on at
/// [`SINGULAR_NET_DOMINANCE`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveLadder {
    /// Rungs tried in order.
    pub rungs: Vec<Rung>,
}

impl Default for SolveLadder {
    /// The [`nonsymmetric`](Self::nonsymmetric) ladder — safe for every
    /// matrix class the workspace produces.
    fn default() -> Self {
        Self::nonsymmetric()
    }
}

impl SolveLadder {
    /// Ladder for symmetric positive definite systems (the pressure solve
    /// of Eq. (3)): CG with the caller's preconditioner, then
    /// ILU(0)-BiCGSTAB, then restarted GMRES, then dense LU.
    pub fn spd() -> Self {
        Self {
            rungs: vec![
                Rung::new(SolverKind::Cg, PrecondSpec::Caller),
                Rung::new(SolverKind::Bicgstab, PrecondSpec::Ilu0),
                Rung::new(SolverKind::Gmres { restart: 60 }, PrecondSpec::Ilu0),
                Rung::new(
                    SolverKind::DenseLu {
                        max_dim: DENSE_FALLBACK_CAP,
                    },
                    PrecondSpec::Caller,
                ),
            ],
        }
    }

    /// Ladder for nonsymmetric advection–diffusion systems (the thermal
    /// solve of Eq. (6)): BiCGSTAB, then GMRES with an escalating restart,
    /// then dense LU — the same cascade `thermal::assembly` used before
    /// this layer existed, with one extra long-restart GMRES rung.
    pub fn nonsymmetric() -> Self {
        Self {
            rungs: vec![
                Rung::new(SolverKind::Bicgstab, PrecondSpec::Caller),
                Rung::new(SolverKind::Gmres { restart: 60 }, PrecondSpec::Caller),
                Rung::new(SolverKind::Gmres { restart: 150 }, PrecondSpec::Ilu0),
                Rung::new(
                    SolverKind::DenseLu {
                        max_dim: DENSE_FALLBACK_CAP,
                    },
                    PrecondSpec::Caller,
                ),
            ],
        }
    }

    /// Solves `A·x = b`, trying rungs in order until one converges.
    ///
    /// `caller` is the preconditioner rungs with [`PrecondSpec::Caller`]
    /// use (typically a cached ILU(0) factorization); [`PrecondSpec::Ilu0`]
    /// rungs build their own from `a`. Every candidate solution is checked
    /// for finite entries before being accepted, so NaN-poisoned
    /// arithmetic escalates instead of propagating.
    ///
    /// The diagnostics gate runs first: a system
    /// [`MatrixDiagnostics::is_near_singular`] marks goes straight to the
    /// terminal dense rung (when the ladder ends in one that accepts it)
    /// in one attempt. If that attempt fails, the full cascade runs from
    /// rung 0.
    ///
    /// # Errors
    ///
    /// Returns [`LadderError`] with the full [`SolveReport`] when every
    /// rung fails or is inapplicable.
    pub fn solve(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        caller: &dyn Preconditioner,
        options: &SolverOptions,
    ) -> Result<LadderSolution, LadderError> {
        // Output finiteness is guarded per attempt inside the rung loop;
        // here only the system shape is validated.
        assert_eq!(a.rows(), b.len(), "rhs length must match the system");
        register_metrics();
        let plan = PlanState::current();
        let mut report = SolveReport::default();

        if let Some(terminal) = self.terminal_dense_rung(a.rows()) {
            if terminal > 0 && MatrixDiagnostics::measure(a).is_near_singular() {
                M_DIAG_ROUTED.inc();
                if let Some(sol) =
                    self.try_rung(terminal, a, b, caller, options, &plan, &mut report)
                {
                    return Ok(self.finish(sol, terminal, report));
                }
            }
        }

        for ri in 0..self.rungs.len() {
            if let Some(sol) = self.try_rung(ri, a, b, caller, options, &plan, &mut report) {
                return Ok(self.finish(sol, ri, report));
            }
        }
        M_EXHAUSTED.inc();
        M_ATTEMPTS.add(report.tried() as u64);
        M_INJECTED.add(report.injected_faults() as u64);
        Err(LadderError { report })
    }

    /// The rung index the diagnostics gate may route to: the last rung,
    /// provided it is a dense LU that accepts `n` unknowns.
    fn terminal_dense_rung(&self, n: usize) -> Option<usize> {
        let (ri, rung) = self.rungs.iter().enumerate().next_back()?;
        match rung.solver {
            SolverKind::DenseLu { max_dim } if n <= max_dim => Some(ri),
            _ => None,
        }
    }

    /// Runs rung `ri` once, recording the attempt (or the skip) in
    /// `report`; returns the solution if it converged.
    #[allow(clippy::too_many_arguments)]
    fn try_rung(
        &self,
        ri: usize,
        a: &CsrMatrix,
        b: &[f64],
        caller: &dyn Preconditioner,
        options: &SolverOptions,
        plan: &PlanState,
        report: &mut SolveReport,
    ) -> Option<Solution> {
        let rung = &self.rungs[ri];
        let n = a.rows();
        let record = |report: &mut SolveReport, injected: bool, outcome: AttemptOutcome| {
            report.attempts.push(Attempt {
                rung: ri,
                solver: rung.solver,
                precond: rung.precond,
                injected,
                outcome,
            });
        };
        if let SolverKind::DenseLu { max_dim } = rung.solver {
            if n > max_dim {
                let reason = format!("{n} unknowns exceed the {max_dim}-unknown dense cap");
                record(report, false, AttemptOutcome::Skipped { reason });
                return None;
            }
        }
        let built = match rung.precond {
            PrecondSpec::Caller => None,
            PrecondSpec::Ilu0 => Some(Ilu0::new(a)),
        };
        let m: &dyn Preconditioner = match &built {
            Some(p) => p,
            None => caller,
        };
        let mut opts = options.clone();
        opts.max_iterations = options.cap(n).max(1);

        let inject = plan.next();
        let injected = inject.is_some();
        let result = match inject {
            Some(Inject::Fail(e)) => Err(e),
            other => run_rung(rung.solver, a, b, m, &opts).and_then(|mut sol| {
                if matches!(other, Some(Inject::Poison)) {
                    if let Some(x0) = sol.solution.first_mut() {
                        *x0 = f64::NAN;
                    }
                }
                if sol.solution.iter().all(|v| v.is_finite()) {
                    Ok(sol)
                } else {
                    Err(SolveError::NonFinite)
                }
            }),
        };
        match result {
            Ok(sol) => {
                let outcome = AttemptOutcome::Converged {
                    iterations: sol.stats.iterations,
                    residual: sol.stats.residual,
                };
                record(report, injected, outcome);
                Some(sol)
            }
            Err(e) => {
                record(report, injected, AttemptOutcome::Failed(e));
                None
            }
        }
    }

    /// Stamps stats, records the success metrics and packages the result.
    fn finish(&self, sol: Solution, ri: usize, report: SolveReport) -> LadderSolution {
        let stats = SolveStats {
            rung: ri,
            attempts: report.tried(),
            ..sol.stats
        };
        M_SOLVES.inc();
        M_ATTEMPTS.add(stats.attempts as u64);
        M_ESCALATIONS.add(u64::from(report.escalated()));
        M_INJECTED.add(report.injected_faults() as u64);
        M_ITERATIONS.record(stats.iterations as u64);
        M_RUNG_CONVERGED[ri.min(M_RUNG_CONVERGED.len() - 1)].inc();
        LadderSolution {
            solution: sol.solution,
            stats,
            report,
        }
    }
}

/// Dispatches one rung's solver.
fn run_rung(
    kind: SolverKind,
    a: &CsrMatrix,
    b: &[f64],
    m: &dyn Preconditioner,
    options: &SolverOptions,
) -> Result<Solution, SolveError> {
    match kind {
        SolverKind::Cg => solve::cg(a, b, m, options),
        SolverKind::Bicgstab => solve::bicgstab(a, b, m, options),
        SolverKind::Gmres { restart } => solve::gmres(a, b, m, restart, options),
        SolverKind::DenseLu { .. } => {
            let x = a.to_dense().solve(b)?;
            let b_norm = ops::norm2(b);
            let residual = if b_norm > 0.0 {
                a.residual_norm(&x, b) / b_norm
            } else {
                0.0
            };
            Ok(Solution {
                solution: x,
                stats: SolveStats {
                    iterations: 0,
                    residual,
                    ..SolveStats::default()
                },
            })
        }
    }
}

/// What the fault plan dictates for one attempt.
// The variants are only constructed under fault injection; without it the
// match arms over them remain but nothing produces them.
#[cfg_attr(not(any(test, feature = "fault-inject")), allow(dead_code))]
enum Inject {
    /// Fail the attempt with this error without running the solver.
    Fail(SolveError),
    /// Run the solver, then poison the solution with a NaN.
    Poison,
}

#[cfg(any(test, feature = "fault-inject"))]
struct PlanState(Option<std::sync::Arc<fault::FaultPlan>>);

#[cfg(any(test, feature = "fault-inject"))]
impl PlanState {
    fn current() -> Self {
        Self(fault::active())
    }

    fn next(&self) -> Option<Inject> {
        match self.0.as_ref()?.next()? {
            fault::FaultKind::Breakdown => {
                Some(Inject::Fail(SolveError::Breakdown { iterations: 0 }))
            }
            fault::FaultKind::NotConverged => Some(Inject::Fail(SolveError::NotConverged {
                iterations: 0,
                residual: f64::INFINITY,
            })),
            fault::FaultKind::PoisonNan => Some(Inject::Poison),
        }
    }
}

#[cfg(not(any(test, feature = "fault-inject")))]
struct PlanState;

#[cfg(not(any(test, feature = "fault-inject")))]
impl PlanState {
    fn current() -> Self {
        Self
    }

    fn next(&self) -> Option<Inject> {
        None
    }
}

/// Deterministic fault injection for the escalation ladder.
///
/// A [`FaultPlan`] maps global *attempt indices* (every ladder attempt in
/// the process ticks one shared counter while a plan is active) to
/// [`FaultKind`]s. Activate a plan with [`inject`]; the returned
/// [`FaultScope`] deactivates it on drop and holds a process-wide gate so
/// concurrently running tests cannot consume each other's fault indices.
///
/// Only compiled under `cfg(test)` or the `fault-inject` feature; release
/// builds of dependent crates contain none of this machinery.
#[cfg(any(test, feature = "fault-inject"))]
pub mod fault {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard};

    /// The failure mode to inject at an attempt index.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultKind {
        /// The attempt fails with [`SolveError::Breakdown`]
        /// (the solver does not run).
        ///
        /// [`SolveError::Breakdown`]: crate::solve::SolveError::Breakdown
        Breakdown,
        /// The attempt fails with [`SolveError::NotConverged`]
        /// (the solver does not run).
        ///
        /// [`SolveError::NotConverged`]: crate::solve::SolveError::NotConverged
        NotConverged,
        /// The solver runs, then its solution is poisoned with a NaN —
        /// exercising the ladder's finiteness guard.
        PoisonNan,
    }

    /// A deterministic schedule of injected faults, keyed by the global
    /// attempt counter that ticks while the plan is active.
    #[derive(Debug)]
    pub struct FaultPlan {
        faults: BTreeMap<usize, FaultKind>,
        cursor: AtomicUsize,
        fired: AtomicUsize,
    }

    impl FaultPlan {
        /// A plan injecting the given `(attempt_index, kind)` pairs.
        pub fn at<I: IntoIterator<Item = (usize, FaultKind)>>(faults: I) -> Arc<Self> {
            Arc::new(Self {
                faults: faults.into_iter().collect(),
                cursor: AtomicUsize::new(0),
                fired: AtomicUsize::new(0),
            })
        }

        /// A plan failing the first `count` attempts with `kind`.
        pub fn fail_first(count: usize, kind: FaultKind) -> Arc<Self> {
            Self::at((0..count).map(|i| (i, kind)))
        }

        /// An empty plan: injects nothing, but (via [`inject`]) still holds
        /// the serialization gate — use in tests asserting no-fault behavior.
        pub fn none() -> Arc<Self> {
            Self::at([])
        }

        /// Ticks the attempt counter and returns the fault at that index.
        pub(crate) fn next(&self) -> Option<FaultKind> {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let fault = self.faults.get(&i).copied();
            if fault.is_some() {
                self.fired.fetch_add(1, Ordering::Relaxed);
            }
            fault
        }

        /// How many ladder attempts consulted this plan.
        pub fn consulted(&self) -> usize {
            self.cursor.load(Ordering::Relaxed)
        }

        /// How many faults actually fired.
        pub fn fired(&self) -> usize {
            self.fired.load(Ordering::Relaxed)
        }
    }

    static ACTIVE: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);
    static GATE: Mutex<()> = Mutex::new(());

    fn lock_active() -> MutexGuard<'static, Option<Arc<FaultPlan>>> {
        // Poisoning is harmless here: the registry holds no invariants
        // beyond "some plan or none", so take the lock over.
        coolnet_obs::sync::lock_recover(&ACTIVE)
    }

    /// The currently active plan, if any.
    pub(crate) fn active() -> Option<Arc<FaultPlan>> {
        lock_active().clone()
    }

    /// Activates `plan` for the duration of the returned scope.
    ///
    /// The scope holds a process-wide gate, serializing fault-injected
    /// sections across test threads; drop it to deactivate the plan.
    pub fn inject(plan: &Arc<FaultPlan>) -> FaultScope {
        let gate = coolnet_obs::sync::lock_recover(&GATE);
        *lock_active() = Some(Arc::clone(plan));
        FaultScope { _gate: gate }
    }

    /// RAII guard of an active [`FaultPlan`]; clears it on drop.
    pub struct FaultScope {
        _gate: MutexGuard<'static, ()>,
    }

    impl Drop for FaultScope {
        fn drop(&mut self) {
            *lock_active() = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fault::{FaultKind, FaultPlan};
    use super::*;
    use crate::coo::TripletBuilder;
    use crate::precond::{Identity, Jacobi};

    /// Nonsymmetric advection–diffusion matrix (same as solve.rs tests).
    fn advection(n: usize, peclet: f64) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0 + peclet);
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
                b.add(i + 1, i, -1.0 - peclet);
            }
        }
        b.to_csr()
    }

    /// 1-D Poisson matrix (SPD).
    fn poisson(n: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
                b.add(i + 1, i, -1.0);
            }
        }
        b.to_csr()
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 7) as f64) - 3.0).collect()
    }

    fn check_close(a: &CsrMatrix, x: &[f64], b: &[f64]) {
        let exact = a.to_dense().solve(b).unwrap();
        for (xi, ei) in x.iter().zip(&exact) {
            assert!((xi - ei).abs() < 1e-6, "{xi} vs {ei}");
        }
    }

    #[test]
    fn no_fault_path_succeeds_on_first_rung() {
        let a = advection(40, 2.0);
        let b = rhs(40);
        let plan = FaultPlan::none();
        let _scope = fault::inject(&plan);
        let sol = SolveLadder::nonsymmetric()
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap();
        assert_eq!(sol.stats.rung, 0);
        assert_eq!(sol.stats.attempts, 1);
        assert_eq!(sol.report.succeeded_rung(), Some(0));
        assert!(!sol.report.escalated());
        assert_eq!(sol.report.injected_faults(), 0);
        check_close(&a, &sol.solution, &b);
        // The first rung reproduces the direct solver call bit for bit.
        let direct = solve::bicgstab(&a, &b, &Ilu0::new(&a), &SolverOptions::default()).unwrap();
        assert_eq!(sol.solution, direct.solution);
    }

    #[test]
    fn spd_ladder_runs_cg_first() {
        let a = poisson(30);
        let b = rhs(30);
        let plan = FaultPlan::none();
        let _scope = fault::inject(&plan);
        let sol = SolveLadder::spd()
            .solve(&a, &b, &Jacobi::new(&a), &SolverOptions::default())
            .unwrap();
        assert_eq!(sol.stats.rung, 0);
        check_close(&a, &sol.solution, &b);
    }

    #[test]
    fn every_rung_recovers_from_faults_below_it() {
        let a = advection(40, 2.0);
        let b = rhs(40);
        let ladder = SolveLadder::nonsymmetric();
        for k in 1..=3 {
            let plan = FaultPlan::fail_first(k, FaultKind::Breakdown);
            let _scope = fault::inject(&plan);
            let sol = ladder
                .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
                .unwrap();
            assert_eq!(sol.stats.rung, k, "expected rung {k}");
            assert_eq!(sol.stats.attempts, k + 1);
            assert_eq!(sol.report.succeeded_rung(), Some(k));
            assert!(sol.report.escalated());
            assert_eq!(sol.report.injected_faults(), k);
            assert_eq!(plan.fired(), k);
            check_close(&a, &sol.solution, &b);
        }
    }

    #[test]
    fn dense_lu_is_the_terminal_rung() {
        let a = advection(25, 1.0);
        let b = rhs(25);
        let plan = FaultPlan::fail_first(3, FaultKind::NotConverged);
        let _scope = fault::inject(&plan);
        let sol = SolveLadder::nonsymmetric()
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap();
        assert_eq!(sol.stats.rung, 3);
        assert!(matches!(
            sol.report.attempts[3].solver,
            SolverKind::DenseLu { .. }
        ));
        check_close(&a, &sol.solution, &b);
    }

    #[test]
    fn nan_poisoning_escalates_via_finiteness_guard() {
        let a = advection(30, 1.5);
        let b = rhs(30);
        let plan = FaultPlan::at([(0, FaultKind::PoisonNan)]);
        let _scope = fault::inject(&plan);
        let sol = SolveLadder::nonsymmetric()
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap();
        assert_eq!(sol.stats.rung, 1);
        assert!(sol.solution.iter().all(|v| v.is_finite()));
        assert_eq!(
            sol.report.attempts[0].outcome,
            AttemptOutcome::Failed(SolveError::NonFinite)
        );
        assert!(sol.report.attempts[0].injected);
    }

    #[test]
    fn exhausted_ladder_reports_every_failure() {
        let a = advection(20, 1.0);
        let b = rhs(20);
        let plan = FaultPlan::fail_first(4, FaultKind::Breakdown);
        let _scope = fault::inject(&plan);
        let err = SolveLadder::nonsymmetric()
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap_err();
        assert_eq!(err.report.attempts.len(), 4);
        assert_eq!(err.report.tried(), 4);
        assert_eq!(err.report.succeeded_rung(), None);
        assert!(matches!(
            err.report.last_error(),
            Some(SolveError::Breakdown { .. })
        ));
        assert!(err.to_string().contains("exhausted"));
        let solve_err: SolveError = err.into();
        assert!(matches!(solve_err, SolveError::Breakdown { .. }));
    }

    #[test]
    fn oversized_system_skips_the_dense_rung() {
        let a = advection(10, 1.0);
        let b = rhs(10);
        let mut ladder = SolveLadder::nonsymmetric();
        ladder.rungs[3].solver = SolverKind::DenseLu { max_dim: 4 };
        let plan = FaultPlan::fail_first(3, FaultKind::Breakdown);
        let _scope = fault::inject(&plan);
        let err = ladder
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap_err();
        // Three injected failures plus the skipped dense rung.
        assert_eq!(err.report.attempts.len(), 4);
        assert_eq!(err.report.tried(), 3);
        assert!(matches!(
            err.report.attempts[3].outcome,
            AttemptOutcome::Skipped { .. }
        ));
    }

    #[test]
    fn report_display_names_solvers() {
        assert_eq!(SolverKind::Gmres { restart: 60 }.to_string(), "gmres(60)");
        assert_eq!(PrecondSpec::Ilu0.to_string(), "ilu0");
        assert!(SolverKind::DenseLu { max_dim: 9 }.to_string().contains('9'));
        assert_eq!(SolverKind::Cg.to_string(), "cg");
        assert_eq!(SolverKind::Bicgstab.to_string(), "bicgstab");
    }

    /// Near-singular conduction-style Laplacian: every row sum is a tiny
    /// `ε`, so `net_dominance ≈ ε/2` sits far below the gate threshold —
    /// the shape of the workspace's escalating low-pressure thermal probes.
    fn near_singular(n: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            let neighbors = usize::from(i > 0) + usize::from(i + 1 < n);
            b.add(i, i, neighbors as f64 + 1e-12);
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
                b.add(i + 1, i, -1.0);
            }
        }
        b.to_csr()
    }

    #[test]
    fn matrix_diagnostics_measure_matches_hand_computation() {
        // [[ 4, -1], [-2, 2]]
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 4.0);
        b.add(0, 1, -1.0);
        b.add(1, 0, -2.0);
        b.add(1, 1, 2.0);
        let d = MatrixDiagnostics::measure(&b.to_csr());
        assert_eq!(d.dim, 2);
        assert_eq!(d.min_abs_diag, 2.0);
        assert_eq!(d.max_abs_diag, 4.0);
        // Row dominances are 4/1 and 2/2.
        assert_eq!(d.min_row_dominance, 1.0);
        // Net: ((4-1) + (2-2)) / (4+2).
        assert_eq!(d.net_dominance, 0.5);

        let healthy = MatrixDiagnostics::measure(&advection(40, 2.0));
        assert!(!healthy.is_near_singular());
        let sick = MatrixDiagnostics::measure(&near_singular(40));
        assert!(sick.net_dominance.abs() < SINGULAR_NET_DOMINANCE);
        assert!(sick.is_near_singular());
    }

    #[test]
    fn gate_routes_near_singular_system_to_dense_rung() {
        let a = near_singular(25);
        let b = rhs(25);
        let plan = FaultPlan::none();
        let _scope = fault::inject(&plan);
        let sol = SolveLadder::nonsymmetric()
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap();
        // One attempt, straight at the terminal dense rung: no escalation
        // recorded, no Krylov budget burned.
        assert_eq!(sol.stats.rung, 3);
        assert_eq!(sol.report.tried(), 1);
        assert_eq!(sol.report.attempts[0].rung, 3);
        assert!(!sol.report.escalated());
        // Bitwise-identical to the dense LU the full escalation cascade
        // ends on (dense LU ignores attempt history, the initial guess and
        // the tolerance).
        assert_eq!(sol.solution, a.to_dense().solve(&b).unwrap());
    }

    #[test]
    fn failed_routed_attempt_falls_back_to_the_full_cascade() {
        let a = near_singular(25);
        let b = rhs(25);
        let plan = FaultPlan::fail_first(1, FaultKind::Breakdown);
        let _scope = fault::inject(&plan);
        let sol = SolveLadder::nonsymmetric()
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap();
        // Attempt 0 is the routed dense rung taking the injected fault;
        // the cascade then starts over at rung 0, where ILU(0) is exact on
        // a tridiagonal matrix.
        assert_eq!(sol.report.attempts[0].rung, 3);
        assert!(sol.report.attempts[0].injected);
        assert_eq!(sol.report.attempts[1].rung, 0);
        assert_eq!(sol.stats.rung, 0);
        assert_eq!(sol.report.tried(), 2);
        assert!(sol.solution.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gate_stands_down_when_dense_rung_cannot_take_the_system() {
        let a = near_singular(10);
        let b = rhs(10);
        let mut ladder = SolveLadder::nonsymmetric();
        ladder.rungs[3].solver = SolverKind::DenseLu { max_dim: 4 };
        let plan = FaultPlan::none();
        let _scope = fault::inject(&plan);
        // No dense rung available: the ladder escalates normally (and
        // exhausts, since every Krylov rung stalls on a singular system).
        let err = ladder
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap_err();
        assert_eq!(err.report.attempts[0].rung, 0);
        assert!(matches!(
            err.report.attempts.last().unwrap().outcome,
            AttemptOutcome::Skipped { .. }
        ));
    }

    #[test]
    fn natural_escalation_ends_on_the_first_rung_that_converges() {
        let a = advection(40, 2.0);
        let b = rhs(40);
        let ladder = SolveLadder::nonsymmetric();
        // A one-iteration budget and an identity caller preconditioner
        // starve the caller-preconditioned Krylov rungs naturally; the
        // ladder escalates until a rung that builds its own (exact,
        // tridiagonal) ILU(0) or the dense terminal rung succeeds.
        let opts = SolverOptions {
            max_iterations: 1,
            ..SolverOptions::default()
        };
        let plan = FaultPlan::none();
        let _scope = fault::inject(&plan);
        let sol = ladder.solve(&a, &b, &Identity::new(40), &opts).unwrap();
        assert!(sol.stats.rung > 0, "expected a natural escalation");
        assert!(sol.report.escalated());
        assert_eq!(sol.report.injected_faults(), 0);
        assert_eq!(sol.report.tried(), sol.stats.rung + 1);
        check_close(&a, &sol.solution, &b);
        // The ladder keeps no state between solves: the same system
        // escalates the same way again, bit for bit.
        let again = ladder.solve(&a, &b, &Identity::new(40), &opts).unwrap();
        assert_eq!(again.report, sol.report);
        assert_eq!(again.solution, sol.solution);
    }

    #[test]
    fn ladder_json_saved_with_retired_knobs_still_loads() {
        // Both presets as serialized before the retry policy, the per-rung
        // budget factors and the gate settings were removed, with the
        // retired key names spliced into the template.
        let saved = |rungs: &str| {
            let template = format!(
                r#"{{"rungs":[{rungs}],"policy":{{"{{AP}}":1,"tolerance_growth":10.0,"max_tolerance":0.0001}},"gate":{{"enabled":true,"singular_net_dominance":0.000000003}}}}"#
            );
            template
                .replace("{AP}", concat!("attempts_per", "_rung"))
                .replace("{TF}", concat!("tolerance", "_factor"))
                .replace("{IF}", concat!("iteration", "_factor"))
        };
        let nonsymmetric = saved(
            r#"{"solver":"Bicgstab","precond":"Caller","{TF}":1.0,"{IF}":1.0},{"solver":{"Gmres":{"restart":60}},"precond":"Caller","{TF}":1.0,"{IF}":1.0},{"solver":{"Gmres":{"restart":150}},"precond":"Ilu0","{TF}":1.0,"{IF}":1.0},{"solver":{"DenseLu":{"max_dim":4096}},"precond":"Caller","{TF}":1.0,"{IF}":1.0}"#,
        );
        let spd = saved(
            r#"{"solver":"Cg","precond":"Caller","{TF}":1.0,"{IF}":1.0},{"solver":"Bicgstab","precond":"Ilu0","{TF}":1.0,"{IF}":1.0},{"solver":{"Gmres":{"restart":60}},"precond":"Ilu0","{TF}":1.0,"{IF}":1.0},{"solver":{"DenseLu":{"max_dim":4096}},"precond":"Caller","{TF}":1.0,"{IF}":1.0}"#,
        );
        assert!(nonsymmetric.contains("\"gate\"") && !nonsymmetric.contains("{TF}"));
        let loaded: SolveLadder = serde_json::from_str(&nonsymmetric).unwrap();
        assert_eq!(loaded, SolveLadder::nonsymmetric());
        let loaded: SolveLadder = serde_json::from_str(&spd).unwrap();
        assert_eq!(loaded, SolveLadder::spd());
        // And today's ladders round-trip.
        for ladder in [SolveLadder::nonsymmetric(), SolveLadder::spd()] {
            let json = serde_json::to_string(&ladder).unwrap();
            assert_eq!(serde_json::from_str::<SolveLadder>(&json).unwrap(), ladder);
        }
    }
}
