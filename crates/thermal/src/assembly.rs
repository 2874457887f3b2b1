//! Shared assembly core for the 4RM and 2RM simulators.
//!
//! Both models reduce to the same algebraic shape: a conduction operator
//! that is independent of the operating point, plus an advection operator
//! and an inlet source that scale linearly with the system pressure drop
//! (flows are linear in `P_sys`). [`Assembled`] stores the two parts
//! separately so a pressure sweep costs one re-combination and one Krylov
//! solve per point instead of a full re-assembly.

use crate::config::{AdvectionScheme, ThermalConfig};
use crate::error::ThermalError;
use crate::solution::{Resolution, SourceLayerTemps, ThermalSolution};
use coolnet_grid::GridDims;
use coolnet_obs::LazyCounter;
use coolnet_sparse::par::{self, RowPartition};
use coolnet_sparse::precond::Ilu0;
use coolnet_sparse::{CsrMatrix, SolverOptions, TripletBuilder};
use coolnet_units::Pascal;
use std::sync::{Arc, Mutex};

/// One-time symbolic [`ProbeCache`] constructions (union pattern + ILU(0)
/// structure + row partition).
static M_SYMBOLIC_BUILDS: LazyCounter = LazyCounter::new("probe.symbolic_builds");
/// Numeric refreshes: matrix values rewritten + numeric ILU(0) sweep.
static M_REFRESHES: LazyCounter = LazyCounter::new("probe.refreshes");
/// Refreshes skipped because the cache was already at the probed pressure.
static M_REFRESH_SKIPS: LazyCounter = LazyCounter::new("probe.refresh_skips");
/// Probes warm-started from the cache's solution history.
static M_WARM_STARTS: LazyCounter = LazyCounter::new("probe.warm_starts");
/// Warm starts that linearly extrapolated through two prior solutions.
static M_EXTRAPOLATIONS: LazyCounter = LazyCounter::new("probe.warm_start_extrapolations");
/// Steady-state solves, cached and cold paths alike.
static M_STEADY_SOLVES: LazyCounter = LazyCounter::new("probe.steady_solves");

/// Node indices of one source layer plus its spatial resolution.
#[derive(Debug, Clone)]
pub(crate) struct SourceLayerMeta {
    pub layer_index: usize,
    pub dims: GridDims,
    pub resolution: Resolution,
    /// Node index per layer position (row-major; fine or coarse).
    pub nodes: Vec<usize>,
}

/// The assembled, pressure-parametric thermal system.
#[derive(Debug, Clone)]
pub(crate) struct Assembled {
    /// Number of thermal nodes.
    pub n: usize,
    /// Conduction couplings (pressure-independent triplets).
    pub cond: Vec<(u32, u32, f64)>,
    /// Advection couplings at `P_sys = 1` (scale linearly with pressure).
    pub adv_unit: Vec<(u32, u32, f64)>,
    /// Die power per node (RHS, pressure-independent).
    pub rhs_source: Vec<f64>,
    /// `C_v · Q_in` per node at `P_sys = 1`; multiplied by
    /// `P_sys · T_in` when forming the RHS.
    pub rhs_inlet_unit: Vec<f64>,
    /// Thermal capacitance per node in J/K (for the transient extension).
    pub capacitance: Vec<f64>,
    /// Source-layer metadata for building solutions.
    pub source_meta: Vec<SourceLayerMeta>,
    /// Lazily built probe-path cache (symbolic pattern + ILU structure).
    pub cache: ProbeCacheCell,
}

/// One-time symbolic state of the probe path, built on the first `steady`
/// call and reused for every subsequent pressure probe.
///
/// The matrix `A(p) = cond + p · adv_unit` is linear in the system
/// pressure, so its sparsity pattern never changes: the union pattern, the
/// slot-aligned split into conduction and unit-advection values, the
/// ILU(0) symbolic structure, and the solver's row partition can all be
/// computed once. A probe then only rewrites `nnz` values in place and
/// runs the numeric ILU sweep.
#[derive(Debug)]
pub(crate) struct ProbeCache {
    /// System matrix on the union pattern; values rewritten per probe.
    matrix: CsrMatrix,
    /// Conduction (pressure-independent) value per stored slot.
    base_values: Vec<f64>,
    /// Unit-advection value per stored slot (scaled by `P_sys` per probe).
    adv_values: Vec<f64>,
    /// ILU(0) factor with reusable symbolic structure.
    ilu: Ilu0,
    /// Row partition shared with the solver kernels.
    partition: Arc<RowPartition>,
    /// Worker-thread count the partition was built for (as requested in
    /// the config, before hardware clamping).
    threads: usize,
    /// Pressure of the last [`refresh`](ProbeCache::refresh); identical
    /// re-probes (golden-section reuses interior points) skip the numeric
    /// phase entirely.
    refreshed_p: Option<f64>,
    /// Last converged `(p, x)`, for warm-start extrapolation.
    last: Option<(f64, Vec<f64>)>,
    /// Next-to-last converged `(p, x)`.
    prev: Option<(f64, Vec<f64>)>,
}

impl ProbeCache {
    /// Builds the symbolic state for `asm`'s couplings.
    fn build(asm: &Assembled, threads: usize) -> Self {
        // Union pattern over conduction and advection couplings, assembled
        // with all-positive placeholder values: `from_triplets` drops
        // entries that cancel to exactly zero, and real coefficient pairs
        // can cancel at specific pressures, so the pattern must be built
        // from values that cannot cancel.
        let mut b =
            TripletBuilder::with_capacity(asm.n, asm.n, asm.cond.len() + asm.adv_unit.len());
        for &(r, c, _) in asm.cond.iter().chain(&asm.adv_unit) {
            b.add(r as usize, c as usize, 1.0);
        }
        let matrix = b.to_csr();
        let nnz = matrix.nnz();
        let mut base_values = vec![0.0; nnz];
        let mut adv_values = vec![0.0; nnz];
        for &(r, c, v) in &asm.cond {
            if let Some(s) = matrix.slot(r as usize, c as usize) {
                base_values[s] += v;
            }
        }
        for &(r, c, v) in &asm.adv_unit {
            if let Some(s) = matrix.slot(r as usize, c as usize) {
                adv_values[s] += v;
            }
        }
        let ilu = Ilu0::symbolic(&matrix);
        let partition = Arc::new(RowPartition::new(&matrix, par::effective_workers(threads)));
        M_SYMBOLIC_BUILDS.inc();
        Self {
            matrix,
            base_values,
            adv_values,
            ilu,
            partition,
            threads,
            refreshed_p: None,
            last: None,
            prev: None,
        }
    }

    /// Numeric phase: rewrites the matrix values for pressure `p` and
    /// re-runs the numeric ILU(0) sweep on the cached structure. A no-op
    /// when the cache is already at `p`.
    fn refresh(&mut self, p: f64) {
        if self.refreshed_p == Some(p) {
            M_REFRESH_SKIPS.inc();
            return;
        }
        M_REFRESHES.inc();
        let values = self.matrix.values_mut();
        for ((v, &base), &adv) in values
            .iter_mut()
            .zip(&self.base_values)
            .zip(&self.adv_values)
        {
            *v = base + p * adv;
        }
        self.ilu.refactor(&self.matrix);
        self.refreshed_p = Some(p);
    }

    /// Initial iterate for a probe at `p` from the solution history.
    ///
    /// With two recorded solutions and a modest step, linearly extrapolates
    /// `x(p)` through them — temperatures vary smoothly with pressure, so
    /// this starts the Krylov iteration several orders of magnitude closer
    /// than the previous solution alone. Falls back to the last solution,
    /// then to `None` (caller supplies its own guess).
    fn guess(&self, p: f64) -> Option<Vec<f64>> {
        match (&self.last, &self.prev) {
            (Some((p1, x1)), Some((p0, x0))) if (p1 - p0).abs() > 1e-12 * p1.abs() => {
                let t = (p - p1) / (p1 - p0);
                M_WARM_STARTS.inc();
                if t.abs() <= 4.0 {
                    M_EXTRAPOLATIONS.inc();
                    Some(x1.iter().zip(x0).map(|(&a, &b)| a + t * (a - b)).collect())
                } else {
                    // A wild extrapolation factor (direction reversal, big
                    // jump) is worse than the plain warm start.
                    Some(x1.clone())
                }
            }
            (Some((_, x1)), _) => {
                M_WARM_STARTS.inc();
                Some(x1.clone())
            }
            _ => None,
        }
    }

    /// Forgets the solution history (and with it the warm-start guesses).
    ///
    /// After a reset the next probe starts from the caller's guess exactly
    /// like a freshly built cache would. The symbolic structure, the
    /// numeric values, and `refreshed_p` are kept: they are pure functions
    /// of the assembly and the probed pressure, so reusing them is
    /// value-identical to rebuilding — only the *iterate history* can make
    /// a reused cache diverge from a fresh one.
    fn reset_history(&mut self) {
        self.last = None;
        self.prev = None;
    }

    /// Records a converged solution for future warm starts.
    fn record(&mut self, p: f64, x: &[f64]) {
        if let Some((p1, x1)) = &mut self.last {
            if (*p1 - p).abs() <= 1e-12 * p.abs() {
                x1.clear();
                x1.extend_from_slice(x);
                return;
            }
        }
        self.prev = self.last.take();
        self.last = Some((p, x.to_vec()));
    }
}

/// Interior-mutable holder for the lazily built [`ProbeCache`].
///
/// Cloning an [`Assembled`] resets the cache: it is derived state that the
/// clone rebuilds on its first probe, which keeps `Clone` cheap and avoids
/// sharing mutable solver state across threads.
#[derive(Debug, Default)]
pub(crate) struct ProbeCacheCell(Mutex<Option<ProbeCache>>);

impl Clone for ProbeCacheCell {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Assembled {
    /// Drops the probe cache's warm-start solution history, restoring the
    /// state a freshly built cache starts from (used by evaluator reuse to
    /// keep repeated evaluations bitwise-identical to fresh ones).
    pub(crate) fn reset_probe_history(&self) {
        let mut guard = coolnet_obs::sync::lock_recover(&self.cache.0);
        if let Some(cache) = guard.as_mut() {
            cache.reset_history();
        }
    }

    /// The RHS at pressure `p`: die power plus the inlet advection source.
    fn rhs_at(&self, p: f64, t_inlet: f64) -> Vec<f64> {
        self.rhs_source
            .iter()
            .zip(&self.rhs_inlet_unit)
            .map(|(&q, &g_in)| q + g_in * p * t_inlet)
            .collect()
    }

    /// Builds the full system matrix and RHS at the given pressure.
    ///
    /// This is the cold (reference) assembly path; the probe loop goes
    /// through the [`ProbeCache`] numeric phase instead.
    pub fn system(&self, p_sys: Pascal, t_inlet: f64) -> (CsrMatrix, Vec<f64>) {
        let p = p_sys.value();
        let mut b =
            TripletBuilder::with_capacity(self.n, self.n, self.cond.len() + self.adv_unit.len());
        for &(r, c, v) in &self.cond {
            b.add(r as usize, c as usize, v);
        }
        for &(r, c, v) in &self.adv_unit {
            b.add(r as usize, c as usize, v * p);
        }
        (b.to_csr(), self.rhs_at(p, t_inlet))
    }

    /// Solves the steady-state system at `p_sys`.
    ///
    /// Unless `config.cold_rebuild` is set, the solve reuses the cached
    /// symbolic state ([`ProbeCache`]): per probe only the matrix values
    /// are rewritten and the numeric ILU(0) sweep re-run.
    pub fn steady(
        &self,
        p_sys: Pascal,
        config: &ThermalConfig,
        guess: Option<&[f64]>,
    ) -> Result<ThermalSolution, ThermalError> {
        if p_sys.value() <= 0.0 {
            return Err(ThermalError::ZeroFlow);
        }
        M_STEADY_SOLVES.inc();
        let t_inlet = config.t_inlet.value();
        let mut options = SolverOptions::with_tolerance(config.tolerance);
        options.initial_guess = Some(match guess {
            Some(g) => g.to_vec(),
            None => vec![t_inlet; self.n],
        });
        options.max_iterations = (8 * self.n).max(400);
        options.threads = config.solver_threads;

        if !config.cold_rebuild {
            // Lock poisoning only happens if a panic escaped mid-refresh,
            // which may have left a partially refreshed cache behind: drop
            // the cached state (forcing the from-scratch rebuild below) and
            // clear the flag so later calls warm-start normally again.
            let poisoned = self.cache.0.is_poisoned();
            let mut guard = coolnet_obs::sync::lock_recover(&self.cache.0);
            if poisoned {
                *guard = None;
                self.cache.0.clear_poison();
            }
            let rebuild = match guard.as_ref() {
                Some(c) => c.threads != config.solver_threads,
                None => true,
            };
            if rebuild {
                *guard = Some(ProbeCache::build(self, config.solver_threads));
            }
            if let Some(cache) = guard.as_mut() {
                cache.refresh(p_sys.value());
                options.partition = Some(Arc::clone(&cache.partition));
                // The cache's solution history gives a better initial
                // iterate than the caller's single previous solution (the
                // two coincide except for the extrapolation).
                if let Some(g) = cache.guess(p_sys.value()) {
                    options.initial_guess = Some(g);
                }
                let rhs = self.rhs_at(p_sys.value(), t_inlet);
                // The ladder's first rung is the historical BiCGSTAB call
                // with the cached ILU(0); escalation rungs (GMRES, fresh
                // ILU(0), dense LU) only engage when it fails.
                let solution = config
                    .ladder
                    .solve(&cache.matrix, &rhs, &cache.ilu, &options)?;
                cache.record(p_sys.value(), &solution.solution);
                return Ok(self.extract(solution.solution, solution.stats));
            }
        }

        // Cold path: full assembly and factorization from scratch.
        let (matrix, rhs) = self.system(p_sys, t_inlet);
        let precond = Ilu0::new(&matrix);
        let solution = config.ladder.solve(&matrix, &rhs, &precond, &options)?;
        Ok(self.extract(solution.solution, solution.stats))
    }

    /// Packages raw node temperatures into a [`ThermalSolution`].
    pub fn extract(&self, temps: Vec<f64>, stats: coolnet_sparse::SolveStats) -> ThermalSolution {
        let layers = self
            .source_meta
            .iter()
            .map(|m| {
                let values = m.nodes.iter().map(|&i| temps[i]).collect();
                SourceLayerTemps::new(m.layer_index, m.dims, m.resolution, values)
            })
            .collect();
        ThermalSolution::new(layers, temps, stats)
    }

    /// Adds the advection coupling for a face carrying flow `q_unit` (at
    /// `P_sys = 1`) from node `up` into node `down` of the energy balance.
    ///
    /// For the balance row of node `i` written as `A·T = b`, the net
    /// advected energy into `i` from a neighboring liquid node `j` carrying
    /// `Q_ji` is `C_v · Q_ji · T*` with `T* = (T_i + T_j)/2` (central,
    /// Eq. (6)) or the upwind temperature. This helper adds both rows of
    /// one face at once; `q_unit` is the *signed* flow from `i` to `j`.
    #[allow(clippy::too_many_arguments)]
    pub fn add_advection_face(
        &mut self,
        i: usize,
        j: usize,
        q_unit: f64,
        cv: f64,
        scheme: AdvectionScheme,
    ) {
        // Flow from j into i is -q_unit; into j is +q_unit.
        match scheme {
            AdvectionScheme::Central => {
                // Row i: -(Cv·Q_ji/2)·(T_i + T_j), Q_ji = -q_unit.
                let half = cv * q_unit / 2.0;
                self.adv_unit.push((i as u32, i as u32, half));
                self.adv_unit.push((i as u32, j as u32, half));
                // Row j: Q_ij = +q_unit.
                self.adv_unit.push((j as u32, j as u32, -half));
                self.adv_unit.push((j as u32, i as u32, -half));
            }
            AdvectionScheme::Upwind => {
                // Energy into i: Cv·Q_ji·T_up where T_up = T_j if Q_ji > 0
                // (flow j→i), else T_i. Row coefficients are -Cv·Q_ji on the
                // upwind unknown. Flow sign is fixed at assembly time from
                // the unit solution; the field direction does not change
                // with P_sys (linearity), so this is exact for all P_sys.
                let c = cv * q_unit;
                if q_unit > 0.0 {
                    // i → j: into j from i carries T_i; out of i carries T_i.
                    self.adv_unit.push((i as u32, i as u32, c));
                    self.adv_unit.push((j as u32, i as u32, -c));
                } else {
                    // j → i: into i carries T_j.
                    self.adv_unit.push((i as u32, j as u32, c));
                    self.adv_unit.push((j as u32, j as u32, -c));
                }
            }
        }
    }

    /// Adds the inlet/outlet advection terms of a node: `q_in_unit` enters
    /// at `T_in` (RHS) and `q_out_unit` leaves at the node temperature
    /// (diagonal).
    pub fn add_port_advection(&mut self, i: usize, q_in_unit: f64, q_out_unit: f64, cv: f64) {
        if q_in_unit != 0.0 {
            self.rhs_inlet_unit[i] += cv * q_in_unit;
            // Mass entering also leaves through cell faces or the outlet;
            // the inlet face itself carries no T_i term.
        }
        if q_out_unit != 0.0 {
            self.adv_unit.push((i as u32, i as u32, cv * q_out_unit));
        }
    }

    /// Adds a symmetric conductance between two nodes.
    pub fn add_conductance(&mut self, i: usize, j: usize, g: f64) {
        if g <= 0.0 {
            return;
        }
        self.cond.push((i as u32, i as u32, g));
        self.cond.push((j as u32, j as u32, g));
        self.cond.push((i as u32, j as u32, -g));
        self.cond.push((j as u32, i as u32, -g));
    }
}

/// Series combination of two half-path conductances (Eqs. (5) and (7)):
/// `g = g_a·g_b / (g_a + g_b)`, zero if either vanishes.
pub(crate) fn series(g_a: f64, g_b: f64) -> f64 {
    if g_a <= 0.0 || g_b <= 0.0 {
        0.0
    } else {
        g_a * g_b / (g_a + g_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty(n: usize) -> Assembled {
        Assembled {
            n,
            cond: Vec::new(),
            adv_unit: Vec::new(),
            rhs_source: vec![0.0; n],
            rhs_inlet_unit: vec![0.0; n],
            capacitance: vec![1.0; n],
            source_meta: vec![SourceLayerMeta {
                layer_index: 0,
                dims: GridDims::new(n as u16, 1),
                resolution: Resolution::Fine,
                nodes: (0..n).collect(),
            }],
            cache: ProbeCacheCell::default(),
        }
    }

    #[test]
    fn series_combination() {
        assert_eq!(series(2.0, 2.0), 1.0);
        assert_eq!(series(0.0, 5.0), 0.0);
        assert_eq!(series(5.0, 0.0), 0.0);
    }

    #[test]
    fn central_advection_row_sums_preserve_energy() {
        // One face between nodes 0 and 1 carrying q: column sums of the
        // advection operator must vanish for interior faces (what enters j
        // left i).
        let mut a = empty(2);
        a.add_advection_face(0, 1, 3.0, 2.0, AdvectionScheme::Central);
        let mut col_sums = [0.0f64; 2];
        for &(_, c, v) in &a.adv_unit {
            col_sums[c as usize] += v;
        }
        assert!(col_sums.iter().all(|s| s.abs() < 1e-12), "{col_sums:?}");
    }

    #[test]
    fn upwind_advection_is_conservative_too() {
        let mut a = empty(2);
        a.add_advection_face(0, 1, -1.5, 4.0, AdvectionScheme::Upwind);
        let mut col_sums = [0.0f64; 2];
        for &(_, c, v) in &a.adv_unit {
            col_sums[c as usize] += v;
        }
        assert!(col_sums.iter().all(|s| s.abs() < 1e-12));
    }

    #[test]
    fn pure_advection_chain_transports_inlet_temperature() {
        // Inlet -> node0 -> node1 -> outlet at flow q: with no conduction
        // and central differencing, both nodes sit at T_in in steady state.
        let mut a = empty(2);
        let (cv, q) = (4e6, 1e-9);
        a.add_port_advection(0, q, 0.0, cv);
        a.add_advection_face(0, 1, q, cv, AdvectionScheme::Central);
        a.add_port_advection(1, 0.0, q, cv);
        let sol = a
            .steady(Pascal::new(1.0), &ThermalConfig::default(), None)
            .unwrap();
        for &t in sol.all_temperatures() {
            assert!((t - 300.0).abs() < 1e-6, "t = {t}");
        }
    }

    #[test]
    fn heated_advection_chain_rises_by_q_over_cvq() {
        // Node 0 receives power P; outlet temperature rise = P / (Cv·Q).
        let mut a = empty(2);
        let (cv, q) = (4e6, 1e-9);
        a.add_port_advection(0, q, 0.0, cv);
        a.add_advection_face(0, 1, q, cv, AdvectionScheme::Upwind);
        a.add_port_advection(1, 0.0, q, cv);
        a.rhs_source[0] = 0.01; // 10 mW
        let sol = a
            .steady(Pascal::new(1.0), &ThermalConfig::default(), None)
            .unwrap();
        let rise = 0.01 / (cv * q);
        let t = sol.all_temperatures();
        assert!((t[1] - (300.0 + rise)).abs() / rise < 1e-6, "t = {t:?}");
    }

    #[test]
    fn zero_pressure_is_rejected() {
        let a = empty(2);
        assert!(matches!(
            a.steady(Pascal::new(0.0), &ThermalConfig::default(), None),
            Err(ThermalError::ZeroFlow)
        ));
    }

    #[test]
    fn conduction_diffuses_between_nodes() {
        // Two nodes coupled by conduction, node 0 pinned by strong flow at
        // T_in, node 1 heated: T_1 = T_0 + P/g.
        let mut a = empty(2);
        a.add_port_advection(0, 1e-6, 1e-6, 4e6); // strong flushing flow
        a.add_conductance(0, 1, 0.5);
        a.rhs_source[1] = 1.0;
        let sol = a
            .steady(Pascal::new(1.0), &ThermalConfig::default(), None)
            .unwrap();
        let t = sol.all_temperatures();
        assert!((t[1] - t[0] - 2.0).abs() < 1e-3, "t = {t:?}");
    }
}
