//! Sparse linear-algebra substrate for the `coolnet` workspace.
//!
//! The paper implements its solvers on top of Eigen; this crate is the
//! from-scratch Rust replacement. It provides exactly what the hydraulic and
//! thermal models need:
//!
//! * [`TripletBuilder`] — coordinate-format assembly with duplicate
//!   accumulation, the natural way to build the conductance matrices of
//!   Eqs. (3)–(6);
//! * [`CsrMatrix`] — compressed sparse row storage with matrix–vector
//!   products and structural queries;
//! * [`DenseMatrix`] — small dense matrices with partially pivoted LU,
//!   used as a reference solver in tests and for tiny systems;
//! * Krylov solvers: [`solve::cg`] (preconditioned conjugate gradients, for
//!   the symmetric positive definite pressure systems) and
//!   [`solve::bicgstab`] (for the nonsymmetric advection–diffusion thermal
//!   systems);
//! * preconditioners: [`precond::Identity`], [`precond::Jacobi`],
//!   [`precond::Ilu0`];
//! * [`SolveLadder`] — the escalation ladder the physical models solve
//!   through (rungs of solver × preconditioner, tried in order behind a
//!   diagnostics gate that routes numerically singular systems to the
//!   dense rung, with a [`SolveReport`] of every attempt), plus a
//!   deterministic fault-injection harness (`resilience::fault`,
//!   test/feature gated).
//!
//! # Examples
//!
//! Solve a small SPD system with CG:
//!
//! ```
//! use coolnet_sparse::{TripletBuilder, precond::Jacobi, solve};
//!
//! # fn main() -> Result<(), coolnet_sparse::SolveError> {
//! let mut b = TripletBuilder::new(2, 2);
//! b.add(0, 0, 4.0);
//! b.add(0, 1, 1.0);
//! b.add(1, 0, 1.0);
//! b.add(1, 1, 3.0);
//! let a = b.to_csr();
//! let rhs = vec![1.0, 2.0];
//! let x = solve::cg(&a, &rhs, &Jacobi::new(&a), &solve::SolverOptions::default())?;
//! assert!(a.residual_norm(&x.solution, &rhs) < 1e-8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

/// Triplet (COO) accumulation for building matrices.
pub mod coo;
/// Compressed sparse row storage.
pub mod csr;
/// Small dense LU solves (reference and fallback path).
pub mod dense;
/// Matrix-vector products and related kernels.
pub mod ops;
/// Row-partitioned parallel SpMV and blocked dense kernels.
pub mod par;
/// ILU(0) and Jacobi preconditioners.
pub mod precond;
/// Escalation-ladder solver resilience and fault injection.
pub mod resilience;
/// CG and BiCGSTAB iterative solvers.
pub mod solve;

pub use coo::TripletBuilder;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use resilience::{LadderError, LadderSolution, MatrixDiagnostics, SolveLadder, SolveReport};
pub use solve::{Solution, SolveError, SolveStats, SolverOptions};
