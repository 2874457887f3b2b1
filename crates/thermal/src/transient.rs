//! Transient thermal analysis (backward Euler), the §2.3 extension.
//!
//! Both compact models expose the same algebraic structure
//! `A(P_sys)·T = b`, so the transient extension is shared: with nodal heat
//! capacities `C`, backward Euler solves
//! `(C/Δt + A)·T^{k+1} = (C/Δt)·T^k + b` each step — unconditionally
//! stable, so large steps are safe.

use crate::assembly::Assembled;
use crate::config::ThermalConfig;
use crate::error::ThermalError;
use crate::fourrm::FourRm;
use crate::power::PowerMap;
use crate::solution::{Resolution, ThermalSolution};
use crate::tworm::TwoRm;
use coolnet_sparse::par::RowPartition;
use coolnet_sparse::precond::Ilu0;
use coolnet_sparse::{CsrMatrix, SolveStats, SolverOptions, TripletBuilder};
use coolnet_units::{Kelvin, Pascal};
use std::sync::Arc;

/// A transient integrator over one of the compact models.
///
/// # Examples
///
/// See `examples/transient_power_step.rs` for a die-power step response.
#[derive(Debug)]
pub struct Transient<'a> {
    assembled: &'a Assembled,
    config: ThermalConfig,
    matrix: CsrMatrix,
    precond: Ilu0,
    /// Row partition of `matrix` for the parallel solver kernels, built
    /// once for the configured `solver_threads`.
    partition: Arc<RowPartition>,
    /// Die-power part of the RHS (unscaled).
    rhs_power: Vec<f64>,
    /// Inlet-advection part of the RHS (fixed for a given pressure and
    /// inlet temperature).
    rhs_inlet: Vec<f64>,
    /// System pressure this integrator was built at (the advection
    /// operator bakes it in).
    p_sys: f64,
    /// Current coolant inlet temperature in kelvin.
    t_inlet: f64,
    /// Run-time multiplier on the die power (DVFS modeling).
    power_scale: f64,
    cap_over_dt: Vec<f64>,
    temps: Vec<f64>,
    dt: f64,
    time: f64,
    last_stats: SolveStats,
}

impl FourRm {
    /// Starts a transient run at pressure `p_sys` with time step `dt`
    /// seconds, from a uniform `T_in` initial condition (or `initial`).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::ZeroFlow`] for non-positive pressure or
    /// `dt <= 0`.
    pub fn transient(
        &self,
        p_sys: Pascal,
        dt: f64,
        initial: Option<&ThermalSolution>,
    ) -> Result<Transient<'_>, ThermalError> {
        Transient::new(self.assembled(), self.config().clone(), p_sys, dt, initial)
    }
}

impl TwoRm {
    /// Starts a transient run at pressure `p_sys` with time step `dt`
    /// seconds, from a uniform `T_in` initial condition (or `initial`).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::ZeroFlow`] for non-positive pressure or
    /// `dt <= 0`.
    pub fn transient(
        &self,
        p_sys: Pascal,
        dt: f64,
        initial: Option<&ThermalSolution>,
    ) -> Result<Transient<'_>, ThermalError> {
        Transient::new(self.assembled(), self.config().clone(), p_sys, dt, initial)
    }
}

impl<'a> Transient<'a> {
    fn new(
        assembled: &'a Assembled,
        config: ThermalConfig,
        p_sys: Pascal,
        dt: f64,
        initial: Option<&ThermalSolution>,
    ) -> Result<Self, ThermalError> {
        if p_sys.value() <= 0.0 || dt <= 0.0 {
            return Err(ThermalError::ZeroFlow);
        }
        let (steady_matrix, _) = assembled.system(p_sys, config.t_inlet.value());
        let rhs_power = assembled.rhs_source.clone();
        let rhs_inlet: Vec<f64> = assembled
            .rhs_inlet_unit
            .iter()
            .map(|&g| g * p_sys.value() * config.t_inlet.value())
            .collect();
        let n = assembled.n;
        let cap_over_dt: Vec<f64> = assembled.capacitance.iter().map(|c| c / dt).collect();
        // (C/dt + A)
        let mut b = TripletBuilder::with_capacity(n, n, steady_matrix.nnz() + n);
        for (r, c, v) in steady_matrix.iter() {
            b.add(r, c, v);
        }
        for (i, &c) in cap_over_dt.iter().enumerate() {
            b.add(i, i, c);
        }
        let matrix = b.to_csr();
        let precond = Ilu0::new(&matrix);
        // Honor the *requested* thread count (clamped by rows/nnz inside
        // `RowPartition::new`, not by host cores): the partition shape is
        // part of the transient replay contract — a trace must be
        // bit-identical for a given `solver_threads` on any machine — so
        // the host's core count must not leak into the partition. Mild
        // oversubscription on small hosts costs microseconds per product.
        let partition = Arc::new(RowPartition::new(&matrix, config.solver_threads.max(1)));
        let temps = match initial {
            Some(sol) => sol.all_temperatures().to_vec(),
            None => vec![config.t_inlet.value(); n],
        };
        let t_inlet = config.t_inlet.value();
        Ok(Self {
            assembled,
            config,
            matrix,
            precond,
            partition,
            rhs_power,
            rhs_inlet,
            p_sys: p_sys.value(),
            t_inlet,
            power_scale: 1.0,
            cap_over_dt,
            temps,
            dt,
            time: 0.0,
            last_stats: SolveStats::default(),
        })
    }

    /// Scales the die power by `scale` from the next step on — the DVFS
    /// hook of the paper's future-work section ("combining cooling networks
    /// with run-time thermal management ... to handle dynamic die power").
    ///
    /// # Panics
    ///
    /// Panics if `scale` is negative or non-finite.
    pub fn set_power_scale(&mut self, scale: f64) {
        assert!(
            scale.is_finite() && scale >= 0.0,
            "power scale must be finite and non-negative"
        );
        self.power_scale = scale;
    }

    /// The current die-power multiplier.
    pub fn power_scale(&self) -> f64 {
        self.power_scale
    }

    /// Replaces the power map of source layer `source_layer` (0-based among
    /// the stack's source layers) from the next step on — the spatial
    /// companion of [`set_power_scale`](Self::set_power_scale), for hotspot
    /// migration and per-block sleep/boost scenarios. Only the RHS is
    /// refreshed; the system matrix is untouched, so this is O(cells).
    ///
    /// For a coarse (2RM) layer the map is aggregated per coarse thermal
    /// cell, exactly as at assembly time. The global
    /// [`power_scale`](Self::power_scale) still multiplies the new map.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::BadStack`] if `source_layer` is out of range
    /// or `map` has the wrong grid dimensions.
    pub fn set_power_map(
        &mut self,
        source_layer: usize,
        map: &PowerMap,
    ) -> Result<(), ThermalError> {
        let meta = self
            .assembled
            .source_meta
            .get(source_layer)
            .ok_or_else(|| ThermalError::BadStack {
                reason: format!(
                    "source layer {source_layer} out of range (stack has {})",
                    self.assembled.source_meta.len()
                ),
            })?;
        if map.dims() != meta.dims {
            return Err(ThermalError::BadStack {
                reason: format!(
                    "power map is {:?} but source layer {source_layer} is {:?}",
                    map.dims(),
                    meta.dims
                ),
            });
        }
        match meta.resolution {
            Resolution::Fine => {
                for (k, &w) in map.values().iter().enumerate() {
                    self.rhs_power[meta.nodes[k]] = w;
                }
            }
            Resolution::Coarse(c) => {
                let cw = c.coarse_width() as usize;
                for (cx, cy) in c.iter() {
                    let e = c.extent(cx, cy);
                    let cc = cy as usize * cw + cx as usize;
                    self.rhs_power[meta.nodes[cc]] = map.block_total(e.x0, e.y0, e.x1, e.y1);
                }
            }
        }
        Ok(())
    }

    /// Changes the coolant inlet temperature from the next step on —
    /// models supply-loop excursions (chiller setpoint drift, warm-water
    /// cooling episodes). Only the inlet part of the RHS depends on
    /// `T_in`, so this is a cheap refresh; the operator is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `t_inlet` is non-finite or non-positive.
    pub fn set_inlet_temperature(&mut self, t_inlet: Kelvin) {
        let t = t_inlet.value();
        assert!(
            t.is_finite() && t > 0.0,
            "inlet temperature must be finite and positive"
        );
        self.t_inlet = t;
        for (dst, &g) in self
            .rhs_inlet
            .iter_mut()
            .zip(&self.assembled.rhs_inlet_unit)
        {
            *dst = g * self.p_sys * t;
        }
    }

    /// The current coolant inlet temperature.
    pub fn inlet_temperature(&self) -> Kelvin {
        Kelvin::new(self.t_inlet)
    }

    /// Simulated time elapsed in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The fixed time step in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Advances one backward-Euler step.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::Solver`] if every rung of the configured
    /// solver ladder fails.
    pub fn step(&mut self) -> Result<(), ThermalError> {
        let rhs: Vec<f64> = self
            .rhs_power
            .iter()
            .zip(&self.rhs_inlet)
            .zip(self.cap_over_dt.iter().zip(&self.temps))
            .map(|((&q, &inlet), (&c, &t))| q * self.power_scale + inlet + c * t)
            .collect();
        let mut options = SolverOptions::with_tolerance(self.config.tolerance);
        options.initial_guess = Some(self.temps.clone());
        options.threads = self.config.solver_threads;
        options.partition = Some(Arc::clone(&self.partition));
        let sol = self
            .config
            .ladder
            .solve(&self.matrix, &rhs, &self.precond, &options)?;
        self.temps = sol.solution;
        self.last_stats = sol.stats;
        self.time += self.dt;
        Ok(())
    }

    /// Advances `steps` steps.
    ///
    /// # Errors
    ///
    /// Returns the first step error.
    pub fn run(&mut self, steps: usize) -> Result<(), ThermalError> {
        for _ in 0..steps {
            self.step()?;
        }
        Ok(())
    }

    /// A snapshot of the current temperature field.
    pub fn snapshot(&self) -> ThermalSolution {
        self.assembled.extract(self.temps.clone(), self.last_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerMap;
    use crate::stack::Stack;
    use coolnet_grid::{Cell, Dir, GridDims, Side};
    use coolnet_network::{CoolingNetwork, PortKind};

    fn channels(dims: GridDims) -> CoolingNetwork {
        let mut b = CoolingNetwork::builder(dims);
        let mut y = 0;
        while y < dims.height() {
            b.segment(Cell::new(0, y), Dir::East, dims.width());
            y += 2;
        }
        b.port(PortKind::Inlet, Side::West, 0, dims.height() - 1);
        b.port(PortKind::Outlet, Side::East, 0, dims.height() - 1);
        b.build().unwrap()
    }

    fn stack_with_map(dims: GridDims, map: PowerMap) -> Stack {
        Stack::interlayer(dims, 100e-6, vec![map], &[channels(dims)], 200e-6).unwrap()
    }

    fn stack(dims: GridDims, watts: f64) -> Stack {
        stack_with_map(dims, PowerMap::uniform(dims, watts))
    }

    #[test]
    fn converges_to_steady_state() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 3.0);
        let sim = FourRm::new(&s, &ThermalConfig::default()).unwrap();
        let p = Pascal::from_kilopascals(5.0);
        let steady = sim.simulate(p).unwrap();
        let mut tr = sim.transient(p, 5e-3, None).unwrap();
        tr.run(400).unwrap();
        let final_t = tr.snapshot().max_temperature().value();
        let steady_t = steady.max_temperature().value();
        assert!(
            (final_t - steady_t).abs() < 0.05 * (steady_t - 300.0),
            "transient {final_t} vs steady {steady_t}"
        );
    }

    #[test]
    fn temperature_rises_monotonically_from_cold_start() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 3.0);
        let sim = TwoRm::new(&s, 3, &ThermalConfig::default()).unwrap();
        let mut tr = sim
            .transient(Pascal::from_kilopascals(5.0), 1e-3, None)
            .unwrap();
        let mut last = 300.0;
        for _ in 0..10 {
            tr.step().unwrap();
            let t = tr.snapshot().max_temperature().value();
            assert!(t >= last - 1e-9, "t = {t}, last = {last}");
            last = t;
        }
        assert!(last > 300.0);
        assert!((tr.time() - 10e-3).abs() < 1e-12);
    }

    #[test]
    fn starting_from_steady_state_stays_there() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 2.0);
        let sim = FourRm::new(&s, &ThermalConfig::default()).unwrap();
        let p = Pascal::from_kilopascals(5.0);
        let steady = sim.simulate(p).unwrap();
        let mut tr = sim.transient(p, 1e-2, Some(&steady)).unwrap();
        tr.run(3).unwrap();
        let t = tr.snapshot().max_temperature().value();
        assert!((t - steady.max_temperature().value()).abs() < 1e-6);
    }

    #[test]
    fn power_scale_changes_the_steady_target() {
        // Halving the power mid-run must steer toward a halved rise.
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 4.0);
        let sim = TwoRm::new(&s, 3, &ThermalConfig::default()).unwrap();
        let p = Pascal::from_kilopascals(5.0);
        let steady_full = sim.simulate(p).unwrap().max_temperature().value();
        let mut tr = sim.transient(p, 5e-3, None).unwrap();
        tr.run(200).unwrap();
        let at_full = tr.snapshot().max_temperature().value();
        assert!((at_full - steady_full).abs() < 0.1 * (steady_full - 300.0));
        tr.set_power_scale(0.5);
        assert_eq!(tr.power_scale(), 0.5);
        tr.run(400).unwrap();
        let at_half = tr.snapshot().max_temperature().value();
        let expected = 300.0 + 0.5 * (steady_full - 300.0);
        assert!(
            (at_half - expected).abs() < 0.15 * (steady_full - 300.0),
            "at_half = {at_half}, expected ~{expected}"
        );
    }

    #[test]
    #[should_panic(expected = "power scale")]
    fn negative_power_scale_panics() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 1.0);
        let sim = TwoRm::new(&s, 3, &ThermalConfig::default()).unwrap();
        let mut tr = sim
            .transient(Pascal::from_kilopascals(5.0), 1e-3, None)
            .unwrap();
        tr.set_power_scale(-1.0);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 2.0);
        let sim = FourRm::new(&s, &ThermalConfig::default()).unwrap();
        assert!(sim.transient(Pascal::new(0.0), 1e-3, None).is_err());
        assert!(sim
            .transient(Pascal::from_kilopascals(1.0), 0.0, None)
            .is_err());
    }

    /// A two-die 4RM stack large enough (nnz ≥ `MIN_PAR_NNZ`) for the
    /// parallel spmv kernel to engage.
    fn big_stack(dims: GridDims) -> Stack {
        let net = channels(dims);
        Stack::interlayer(
            dims,
            100e-6,
            vec![PowerMap::uniform(dims, 8.0), PowerMap::uniform(dims, 8.0)],
            &[net.clone(), net],
            200e-6,
        )
        .unwrap()
    }

    /// Regression for the ignored-`solver_threads` bug: `Transient::step`
    /// built its `SolverOptions` without `threads`/`partition`, so the
    /// transient path always ran the serial kernels no matter what
    /// `ThermalConfig::solver_threads` said (the steady probe path wired
    /// them correctly). Pre-fix, the `par.spmv_parallel` delta below was 0
    /// with `solver_threads = 4`. The temperatures must stay bit-identical
    /// to a serial run: spmv is row-partitioned (each row's dot product is
    /// computed identically regardless of which worker owns it) and the
    /// reductions stay serial at these sizes.
    #[test]
    fn solver_threads_reach_parallel_kernels_bit_identically() {
        let dims = GridDims::new(41, 41);
        let s = big_stack(dims);
        let p = Pascal::from_kilopascals(10.0);

        let serial_cfg = ThermalConfig::default();
        assert_eq!(serial_cfg.solver_threads, 1, "baseline must be serial");
        let sim1 = FourRm::new(&s, &serial_cfg).unwrap();
        let mut tr1 = sim1.transient(p, 1e-3, None).unwrap();
        tr1.run(5).unwrap();
        let temps1 = tr1.snapshot().all_temperatures().to_vec();

        let par_cfg = ThermalConfig {
            solver_threads: 4,
            ..ThermalConfig::default()
        };
        let sim4 = FourRm::new(&s, &par_cfg).unwrap();
        let before = coolnet_obs::snapshot();
        let mut tr4 = sim4.transient(p, 1e-3, None).unwrap();
        tr4.run(5).unwrap();
        let after = coolnet_obs::snapshot();
        let temps4 = tr4.snapshot().all_temperatures().to_vec();

        assert_eq!(temps1.len(), temps4.len());
        for (a, b) in temps1.iter().zip(&temps4) {
            assert_eq!(a.to_bits(), b.to_bits(), "serial {a} vs threaded {b}");
        }
        let parallel_spmvs = after.counter_delta(&before, "par.spmv_parallel");
        assert!(
            parallel_spmvs > 0,
            "solver_threads = 4 never reached the parallel spmv kernel \
             (pre-fix behavior: options.threads was left at 0)"
        );
    }

    #[test]
    fn power_map_swap_steers_to_the_new_steady_target() {
        let dims = GridDims::new(9, 9);
        let s_uniform = stack(dims, 3.0);
        let mut hotspot = PowerMap::uniform(dims, 1.5);
        hotspot.add_block(0, 0, 3, 3, 1.5);
        let s_hot = stack_with_map(dims, hotspot.clone());
        let p = Pascal::from_kilopascals(5.0);
        let cfg = ThermalConfig::default();
        let steady_hot = TwoRm::new(&s_hot, 3, &cfg)
            .unwrap()
            .simulate(p)
            .unwrap()
            .max_temperature()
            .value();

        // Start on the uniform map, swap to the hotspot map mid-run: the
        // transient must converge to the hotspot steady state (same
        // operator, RHS-only change).
        let sim = TwoRm::new(&s_uniform, 3, &cfg).unwrap();
        let mut tr = sim.transient(p, 5e-3, None).unwrap();
        tr.run(100).unwrap();
        tr.set_power_map(0, &hotspot).unwrap();
        tr.run(600).unwrap();
        let at_hot = tr.snapshot().max_temperature().value();
        assert!(
            (at_hot - steady_hot).abs() < 0.05 * (steady_hot - 300.0),
            "after swap {at_hot} vs hotspot steady {steady_hot}"
        );
    }

    #[test]
    fn power_map_validation_rejects_bad_inputs() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 2.0);
        let sim = TwoRm::new(&s, 3, &ThermalConfig::default()).unwrap();
        let mut tr = sim
            .transient(Pascal::from_kilopascals(5.0), 1e-3, None)
            .unwrap();
        let wrong_dims = PowerMap::uniform(GridDims::new(5, 5), 1.0);
        assert!(matches!(
            tr.set_power_map(0, &wrong_dims),
            Err(ThermalError::BadStack { .. })
        ));
        let ok_map = PowerMap::uniform(dims, 1.0);
        assert!(matches!(
            tr.set_power_map(7, &ok_map),
            Err(ThermalError::BadStack { .. })
        ));
        tr.set_power_map(0, &ok_map).unwrap();
    }

    #[test]
    fn inlet_excursion_shifts_the_steady_field_uniformly() {
        // With adiabatic boundaries the coolant is the only heat sink, so
        // raising T_in by δ shifts the steady field by exactly δ.
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 3.0);
        let sim = FourRm::new(&s, &ThermalConfig::default()).unwrap();
        let p = Pascal::from_kilopascals(5.0);
        let steady = sim.simulate(p).unwrap();
        let base = steady.max_temperature().value();
        let mut tr = sim.transient(p, 1e-2, Some(&steady)).unwrap();
        tr.set_inlet_temperature(Kelvin::new(310.0));
        assert_eq!(tr.inlet_temperature().value(), 310.0);
        tr.run(800).unwrap();
        let shifted = tr.snapshot().max_temperature().value();
        assert!(
            (shifted - (base + 10.0)).abs() < 0.5,
            "expected ~{} got {shifted}",
            base + 10.0
        );
    }

    #[test]
    #[should_panic(expected = "inlet temperature")]
    fn non_positive_inlet_temperature_panics() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 1.0);
        let sim = TwoRm::new(&s, 3, &ThermalConfig::default()).unwrap();
        let mut tr = sim
            .transient(Pascal::from_kilopascals(5.0), 1e-3, None)
            .unwrap();
        tr.set_inlet_temperature(Kelvin::new(0.0));
    }
}
