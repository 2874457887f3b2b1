//! Row-partitioned parallel sparse kernels.
//!
//! The probe path of the thermal models spends almost all of its time in
//! the Krylov loops: sparse matrix–vector products plus a handful of dense
//! dot/axpy sweeps per iteration. This module parallelizes those kernels on
//! [`std::thread::scope`] workers.
//!
//! Two design points keep the kernels honest:
//!
//! * **The partition is data, computed once.** [`RowPartition`] balances
//!   contiguous row ranges by stored-nonzero count. Callers that solve the
//!   same sparsity pattern many times (the pressure-probe loop) compute it
//!   once and pass it through [`SolverOptions`](crate::SolverOptions), so
//!   per-solve setup is zero.
//! * **Scoped threads are spawned per call**, which costs tens of
//!   microseconds; the partition therefore degenerates to a single range
//!   (serial execution) below [`MIN_PAR_NNZ`] where the spawn overhead
//!   would exceed the work. The dense kernels apply the same reasoning via
//!   [`MIN_PAR_LEN`].

use crate::csr::CsrMatrix;
use crate::ops;
use coolnet_obs::LazyCounter;

/// Sparse matrix–vector products that actually fanned out across workers
/// (multi-range partition); the evidence that a configured thread count
/// reached the parallel kernels instead of silently falling back to the
/// serial path.
static M_SPMV_PARALLEL: LazyCounter = LazyCounter::new("par.spmv_parallel");

/// Below this stored-nonzero count a matrix kernel runs serially: one
/// scoped-thread spawn (~10–50 µs) costs more than the whole sweep.
pub const MIN_PAR_NNZ: usize = 32_768;

/// Below this vector length the dense kernels (dot, axpy, norm) run
/// serially for the same reason.
pub const MIN_PAR_LEN: usize = 65_536;

/// Caps a requested worker count at the host's available parallelism.
///
/// These kernels are CPU-bound: more compute threads than hardware threads
/// only adds scheduling overhead, so the solver options and the probe
/// cache clamp requested counts through this helper (a request of `0` is
/// treated as serial).
pub fn effective_workers(requested: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    requested.clamp(1, hw)
}

/// A partition of the rows of one sparsity pattern into contiguous ranges
/// of approximately equal stored-nonzero count, one range per worker.
///
/// Build it once per pattern with [`RowPartition::new`] and reuse it for
/// every product against that pattern; the ranges stay valid as long as
/// `row_ptr` does (numeric value updates do not invalidate it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPartition {
    /// Half-open row ranges `[lo, hi)`, contiguous and covering `0..rows`.
    ranges: Vec<(usize, usize)>,
    rows: usize,
}

impl RowPartition {
    /// Computes a partition of `a`'s rows into at most `threads` ranges
    /// balanced by nonzero count. Returns a single-range (serial) partition
    /// when `threads <= 1` or the matrix is too small for scoped-thread
    /// parallelism to pay for itself (see [`MIN_PAR_NNZ`]).
    pub fn new(a: &CsrMatrix, threads: usize) -> Self {
        let rows = a.rows();
        let workers = threads.max(1).min(rows.max(1));
        if workers == 1 || a.nnz() < MIN_PAR_NNZ {
            return Self::serial(rows);
        }
        let row_ptr = a.row_ptr();
        let nnz = a.nnz();
        let mut ranges = Vec::with_capacity(workers);
        let mut lo = 0usize;
        for w in 0..workers {
            if lo >= rows {
                break;
            }
            // Ideal cumulative nonzero count at the end of worker w.
            let target = nnz * (w + 1) / workers;
            let mut hi = lo + 1;
            while hi < rows && row_ptr[hi] < target {
                hi += 1;
            }
            if w + 1 == workers {
                hi = rows;
            }
            ranges.push((lo, hi));
            lo = hi;
        }
        Self { ranges, rows }
    }

    /// A single-range partition: every kernel runs on the calling thread.
    pub fn serial(rows: usize) -> Self {
        Self {
            ranges: vec![(0, rows)],
            rows,
        }
    }

    /// Number of worker ranges (1 means serial execution).
    pub fn num_ranges(&self) -> usize {
        self.ranges.len()
    }

    /// Total number of rows covered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The half-open row ranges, in order.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }
}

/// Computes rows `lo..hi` of `y = A·x` on the calling thread.
fn spmv_rows(a: &CsrMatrix, x: &[f64], y: &mut [f64], lo: usize, hi: usize) {
    for (r, yr) in (lo..hi).zip(y.iter_mut()) {
        let (cols, vals) = a.row(r);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * x[c as usize];
        }
        *yr = acc;
    }
}

/// Matrix–vector product `y = A·x`, row-partitioned across scoped threads.
///
/// With a single-range partition this is exactly
/// [`CsrMatrix::mul_vec_into`]; with more ranges each worker writes its own
/// contiguous slice of `y`, so the result is deterministic for a fixed
/// partition.
///
/// # Panics
///
/// Panics if dimensions mismatch or `part` does not cover `a`'s rows.
pub fn spmv(a: &CsrMatrix, x: &[f64], y: &mut [f64], part: &RowPartition) {
    assert_eq!(x.len(), a.cols(), "x has wrong length");
    assert_eq!(y.len(), a.rows(), "y has wrong length");
    assert_eq!(part.rows(), a.rows(), "partition does not match matrix");
    if part.num_ranges() <= 1 {
        a.mul_vec_into(x, y);
        return;
    }
    M_SPMV_PARALLEL.inc();
    // Split y into one disjoint slice per range; ranges are contiguous and
    // ordered, so a sweep of split_at_mut suffices.
    std::thread::scope(|scope| {
        let mut rest = y;
        let mut offset = 0usize;
        for &(lo, hi) in part.ranges() {
            debug_assert_eq!(lo, offset);
            let (chunk, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            offset = hi;
            scope.spawn(move || spmv_rows(a, x, chunk, lo, hi));
        }
    });
}

/// Splits `0..len` into up to `threads` contiguous blocks of near-equal
/// length.
fn blocks(len: usize, threads: usize) -> Vec<(usize, usize)> {
    let workers = threads.max(1).min(len.max(1));
    let chunk = len.div_ceil(workers);
    (0..workers)
        .map(|w| (w * chunk, ((w + 1) * chunk).min(len)))
        .filter(|&(lo, hi)| lo < hi)
        .collect()
}

/// Blocked dot product. Serial below [`MIN_PAR_LEN`]; above it, fixed
/// per-block partial sums are reduced in block order, so the result is
/// deterministic for a fixed `threads`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64], threads: usize) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    if threads <= 1 || a.len() < MIN_PAR_LEN {
        return ops::dot(a, b);
    }
    let blocks = blocks(a.len(), threads);
    let mut partial = vec![0.0f64; blocks.len()];
    std::thread::scope(|scope| {
        for (slot, &(lo, hi)) in partial.iter_mut().zip(&blocks) {
            scope.spawn(move || *slot = ops::dot(&a[lo..hi], &b[lo..hi]));
        }
    });
    partial.iter().sum()
}

/// Blocked Euclidean norm `‖a‖₂` (see [`dot`]).
pub fn norm2(a: &[f64], threads: usize) -> f64 {
    dot(a, a, threads).sqrt()
}

/// Blocked `y += alpha * x`. Serial below [`MIN_PAR_LEN`].
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64], threads: usize) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if threads <= 1 || x.len() < MIN_PAR_LEN {
        ops::axpy(alpha, x, y);
        return;
    }
    let blocks = blocks(x.len(), threads);
    std::thread::scope(|scope| {
        let mut rest = y;
        let mut offset = 0usize;
        for &(lo, hi) in &blocks {
            debug_assert_eq!(lo, offset);
            let (chunk, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            offset = hi;
            scope.spawn(move || ops::axpy(alpha, &x[lo..hi], chunk));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletBuilder;

    fn banded(n: usize, band: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 4.0 + (i % 7) as f64);
            for d in 1..=band {
                if i + d < n {
                    b.add(i, i + d, -1.0 / d as f64);
                    b.add(i + d, i, -0.5 / d as f64);
                }
            }
        }
        b.to_csr()
    }

    #[test]
    fn small_matrices_partition_serially() {
        let a = banded(100, 2);
        let p = RowPartition::new(&a, 8);
        assert_eq!(p.num_ranges(), 1);
        assert_eq!(p.ranges(), &[(0, 100)]);
    }

    #[test]
    fn partition_covers_all_rows_contiguously() {
        let n = 20_000;
        let a = banded(n, 3); // nnz ≈ 7n > MIN_PAR_NNZ
        assert!(a.nnz() >= MIN_PAR_NNZ);
        let p = RowPartition::new(&a, 4);
        assert_eq!(p.num_ranges(), 4);
        let mut next = 0;
        for &(lo, hi) in p.ranges() {
            assert_eq!(lo, next);
            assert!(hi > lo);
            next = hi;
        }
        assert_eq!(next, n);
        // Balanced within a factor of 2 of the ideal share.
        let ideal = a.nnz() / 4;
        for &(lo, hi) in p.ranges() {
            let nnz = a.row_ptr()[hi] - a.row_ptr()[lo];
            assert!(nnz < 2 * ideal, "range {lo}..{hi} holds {nnz} nnz");
        }
    }

    #[test]
    fn parallel_spmv_matches_serial() {
        let n = 20_000;
        let a = banded(n, 3);
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 101) as f64) - 50.0).collect();
        let serial = a.mul_vec(&x);
        for threads in [2, 3, 4, 7] {
            let p = RowPartition::new(&a, threads);
            let mut y = vec![0.0; n];
            spmv(&a, &x, &mut y, &p);
            assert_eq!(y, serial, "threads = {threads}");
        }
    }

    #[test]
    fn spmv_with_serial_partition_matches_mul_vec() {
        let a = banded(50, 2);
        let x: Vec<f64> = (0..50).map(|i| i as f64 * 0.25).collect();
        let mut y = vec![0.0; 50];
        spmv(&a, &x, &mut y, &RowPartition::serial(50));
        assert_eq!(y, a.mul_vec(&x));
    }

    #[test]
    fn blocked_dot_and_axpy_match_serial() {
        let n = MIN_PAR_LEN + 17;
        let a: Vec<f64> = (0..n).map(|i| ((i % 97) as f64) * 0.125).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i % 89) as f64) - 44.0).collect();
        let exact = ops::dot(&a, &b);
        let par = dot(&a, &b, 4);
        assert!((par - exact).abs() <= 1e-9 * exact.abs().max(1.0));
        assert!((norm2(&a, 4) - ops::norm2(&a)).abs() < 1e-9);

        let mut y1 = b.clone();
        let mut y2 = b.clone();
        ops::axpy(0.5, &a, &mut y1);
        axpy(0.5, &a, &mut y2, 4);
        assert_eq!(y1, y2); // disjoint blocks: bitwise identical
    }

    #[test]
    fn dense_kernels_fall_back_below_threshold() {
        let a = vec![1.0; 64];
        let b = vec![2.0; 64];
        assert_eq!(dot(&a, &b, 8), 128.0);
        let mut y = vec![0.0; 64];
        axpy(2.0, &a, &mut y, 8);
        assert_eq!(y, vec![2.0; 64]);
    }

    #[test]
    fn partition_caps_workers_at_rows() {
        let a = banded(3, 1);
        let p = RowPartition::new(&a, 16);
        assert_eq!(p.rows(), 3);
        assert_eq!(p.num_ranges(), 1); // tiny: serial
    }
}
