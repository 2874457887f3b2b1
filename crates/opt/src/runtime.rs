//! Run-time thermal management with adjustable flow rates — the paper's
//! future-work direction ("combining cooling networks with run-time
//! thermal management techniques (e.g., DVFS and adjustable flow rates) to
//! handle dynamic die power", §7).
//!
//! A [`PowerTrace`] describes die power over time (DVFS phases); a
//! proportional [`FlowController`] adjusts the pump pressure at a fixed
//! control interval to keep `T_max` at a setpoint, spending pumping energy
//! only when the workload requires it.
//!
//! [`simulate_adaptive_flow`] is a thin front end to the scenario engine:
//! each phase start becomes a [`EventAction::PowerScale`] event of a
//! [`ScenarioSpec`], and [`run_scenario`] does the stepping — one time
//! loop for both, so a trace and the equivalent scenario produce the same
//! bits.

use crate::evaluate::ModelChoice;
use crate::scenario::{
    run_scenario, EventAction, ScenarioError, ScenarioEvent, ScenarioSpec, ScenarioTrace,
};
use coolnet_cases::Benchmark;
use coolnet_network::CoolingNetwork;
use coolnet_thermal::ThermalConfig;
use coolnet_units::{Kelvin, Pascal};
use serde::{Deserialize, Serialize};

/// A piecewise-constant die-power schedule: `(duration_s, power_scale)`
/// phases applied to the benchmark's nominal power maps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    phases: Vec<(f64, f64)>,
}

impl PowerTrace {
    /// Creates a trace from `(duration_s, power_scale)` phases.
    ///
    /// # Panics
    ///
    /// Panics if any duration or scale is non-positive/negative.
    pub fn new(phases: Vec<(f64, f64)>) -> Self {
        assert!(!phases.is_empty(), "trace needs at least one phase");
        for &(d, s) in &phases {
            assert!(d > 0.0, "phase duration must be positive");
            assert!(s >= 0.0, "power scale must be non-negative");
        }
        Self { phases }
    }

    /// A simple high/low/high DVFS-like pattern.
    pub fn dvfs_square(period: f64, high: f64, low: f64) -> Self {
        Self::new(vec![
            (period, high),
            (period, low),
            (period, high),
            (period, low),
        ])
    }

    /// Total trace duration in seconds.
    pub fn duration(&self) -> f64 {
        self.phases.iter().map(|(d, _)| d).sum()
    }

    /// One power-scale event per phase, at the phase start (the running
    /// sum of the durations before it). The last phase holds to the end.
    fn events(&self) -> Vec<ScenarioEvent> {
        let mut start = 0.0;
        self.phases
            .iter()
            .map(|&(d, scale)| {
                let at = start;
                start += d;
                ScenarioEvent {
                    at,
                    action: EventAction::PowerScale { scale },
                }
            })
            .collect()
    }
}

/// A proportional controller on the pump pressure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowController {
    /// `T_max` setpoint.
    pub target: Kelvin,
    /// Proportional gain in Pa per kelvin of error.
    pub gain: f64,
    /// Lower pressure bound (pump idle).
    pub p_min: Pascal,
    /// Upper pressure bound (pump limit).
    pub p_max: Pascal,
}

impl FlowController {
    /// The next pressure given the current one and the measured `T_max`.
    pub fn update(&self, current: Pascal, t_max: Kelvin) -> Pascal {
        let error = t_max.value() - self.target.value();
        let p = current.value() + self.gain * error;
        Pascal::new(p.clamp(self.p_min.value(), self.p_max.value()))
    }
}

/// Options of a run-time simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOptions {
    /// Integrator time step in seconds.
    pub dt: f64,
    /// Steps between control actions.
    pub control_interval: usize,
    /// Thermal model for the plant.
    pub model: ModelChoice,
    /// Initial pump pressure.
    pub p_initial: Pascal,
    /// Thermal configuration of the plant (solver ladder, threads,
    /// tolerance, inlet temperature).
    pub thermal: ThermalConfig,
}

impl Default for RuntimeOptions {
    /// 1 ms steps, control every 10 steps, 2RM plant, 5 kPa start,
    /// default thermal configuration.
    fn default() -> Self {
        Self {
            dt: 1e-3,
            control_interval: 10,
            model: ModelChoice::fast(),
            p_initial: Pascal::from_kilopascals(5.0),
            thermal: ThermalConfig::default(),
        }
    }
}

/// Simulates closed-loop run-time thermal management of one cooling
/// system under a dynamic power trace. Returns one interval per control
/// step; a phase takes effect at the first control boundary at or after
/// its start, like every [`ScenarioEvent`].
///
/// # Errors
///
/// [`ScenarioError::Spec`] for options or a controller the scenario
/// engine rejects (e.g. a zero control interval or a non-finite time
/// step); [`ScenarioError::Run`] — carrying the failing control step,
/// simulated time, active pressure and the intervals completed before the
/// fault — if stack building or a solve fails.
pub fn simulate_adaptive_flow(
    bench: &Benchmark,
    network: &CoolingNetwork,
    trace: &PowerTrace,
    controller: &FlowController,
    opts: &RuntimeOptions,
) -> Result<ScenarioTrace, ScenarioError> {
    let spec = ScenarioSpec {
        name: "adaptive-flow".to_owned(),
        duration: trace.duration(),
        dt: opts.dt,
        control_interval: opts.control_interval,
        model: opts.model,
        controller: *controller,
        p_initial: opts.p_initial,
        events: trace.events(),
    };
    run_scenario(bench, network, &spec, &opts.thermal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::tests::metrics_lock;
    use coolnet_grid::{tsv, Dir, GridDims};
    use coolnet_network::builders::straight::{self, StraightParams};

    fn setup() -> (Benchmark, CoolingNetwork) {
        let dims = GridDims::new(15, 15);
        let bench = Benchmark::iccad_scaled(1, dims);
        let net = straight::build(
            dims,
            &tsv::alternating(dims),
            Dir::East,
            &StraightParams::default(),
        )
        .unwrap();
        (bench, net)
    }

    fn adaptive() -> FlowController {
        FlowController {
            target: Kelvin::new(310.0),
            gain: 800.0,
            p_min: Pascal::from_kilopascals(0.5),
            p_max: Pascal::from_kilopascals(10.0),
        }
    }

    fn at_10_kpa() -> RuntimeOptions {
        RuntimeOptions {
            dt: 1e-3,
            control_interval: 10,
            p_initial: Pascal::from_kilopascals(10.0),
            ..RuntimeOptions::default()
        }
    }

    #[test]
    fn trace_phases_become_power_scale_events() {
        let t = PowerTrace::new(vec![(1.0, 1.0), (2.0, 0.3)]);
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at, 0.0);
        assert_eq!(events[0].action, EventAction::PowerScale { scale: 1.0 });
        assert_eq!(events[1].at, 1.0);
        assert_eq!(events[1].action, EventAction::PowerScale { scale: 0.3 });
        assert_eq!(t.duration(), 3.0);
    }

    #[test]
    fn controller_raises_pressure_when_hot() {
        let c = FlowController {
            target: Kelvin::new(320.0),
            gain: 100.0,
            p_min: Pascal::new(1e3),
            p_max: Pascal::new(1e5),
        };
        let p = c.update(Pascal::new(5e3), Kelvin::new(330.0));
        assert!((p.value() - 6e3).abs() < 1e-9);
        // And clamps at bounds.
        let p = c.update(Pascal::new(9.99e4), Kelvin::new(400.0));
        assert_eq!(p.value(), 1e5);
        let p = c.update(Pascal::new(1.2e3), Kelvin::new(250.0));
        assert_eq!(p.value(), 1e3);
    }

    #[test]
    fn controller_drives_pressure_toward_the_active_bound() {
        // Deterministic closed-loop checks: with an unreachably low
        // setpoint the loop must pump up; with an unreachably high one it
        // must relax to idle.
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let trace = PowerTrace::new(vec![(0.1, 1.0)]);
        let opts = RuntimeOptions {
            dt: 1e-3,
            control_interval: 10,
            p_initial: Pascal::from_kilopascals(5.0),
            ..RuntimeOptions::default()
        };
        let run = |target: f64| {
            let controller = FlowController {
                target: Kelvin::new(target),
                gain: 2000.0,
                p_min: Pascal::from_kilopascals(0.5),
                p_max: Pascal::from_kilopascals(60.0),
            };
            simulate_adaptive_flow(&bench, &net, &trace, &controller, &opts)
                .unwrap()
                .intervals
        };
        // Always too hot relative to a 300.5 K target: pressure must rise.
        let hot = run(300.5);
        assert!(hot.last().unwrap().p_sys.value() > hot[0].p_sys.value());
        // Always cool vs a 390 K target: pressure must fall to idle.
        let cool = run(390.0);
        assert!(cool.last().unwrap().p_sys.value() < 5.0e3);
        for s in hot.iter().chain(&cool) {
            assert!(s.t_max.value() > 299.9 && s.t_max.value() < 400.0);
        }
    }

    #[test]
    fn adaptive_control_saves_pumping_energy_vs_fixed() {
        // The headline claim of run-time management: equal thermal envelope,
        // less pumping energy, on a high/low power trace.
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let trace = PowerTrace::new(vec![(0.05, 1.0), (0.05, 0.1)]);
        let opts = at_10_kpa();
        let fixed = FlowController {
            target: Kelvin::new(310.0),
            gain: 0.0,
            p_min: Pascal::from_kilopascals(10.0),
            p_max: Pascal::from_kilopascals(10.0),
        };
        let energy = |c: &FlowController| {
            simulate_adaptive_flow(&bench, &net, &trace, c, &opts)
                .unwrap()
                .pumping_energy()
        };
        let (e_fixed, e_adaptive) = (energy(&fixed), energy(&adaptive()));
        assert!(
            e_adaptive < e_fixed,
            "adaptive {e_adaptive} !< fixed {e_fixed}"
        );
    }

    #[test]
    fn moving_controller_trace_is_pinned_bitwise() {
        // Digest of every interval's time, length, power scale, pressure,
        // T_max and W_pump bits, recorded from the dedicated run-time loop
        // this function replaced, on a trace whose phase boundary both
        // loops read the same way. The pressure moves 10 -> 4.58 -> 0.5
        // kPa, so the run rebuilds its integrator twice.
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let trace = PowerTrace::new(vec![(0.05, 1.0), (0.05, 0.1)]);
        let run = simulate_adaptive_flow(&bench, &net, &trace, &adaptive(), &at_10_kpa()).unwrap();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for s in &run.intervals {
            for bits in [
                s.time.to_bits(),
                s.interval_s.to_bits(),
                s.power_scale.to_bits(),
                s.p_sys.value().to_bits(),
                s.t_max.value().to_bits(),
                s.w_pump.value().to_bits(),
            ] {
                for b in bits.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        assert_eq!(run.intervals.len(), 10);
        assert_eq!(h, 0x34e5_7092_420e_066c);
        assert_eq!(run.pumping_energy().to_bits(), 0x3f12_9fed_b650_0174);
    }

    #[test]
    fn dvfs_phases_switch_on_the_control_boundary() {
        // Regression: the run-time loop compared its accumulated interval
        // start with an accumulated phase end, so at 1 ms x 10 steps
        // interval 10 (t = 0.09999999999999999 < 0.1) still read the low
        // phase and interval 15 (t = 0.15 < 0.15000000000000002) the high
        // one. Phase starts are control boundaries up to an epsilon.
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let trace = PowerTrace::dvfs_square(0.05, 1.0, 0.2);
        let run = simulate_adaptive_flow(&bench, &net, &trace, &adaptive(), &at_10_kpa()).unwrap();
        let scales: Vec<f64> = run.intervals.iter().map(|s| s.power_scale).collect();
        assert_eq!(scales.len(), 20);
        for (k, &s) in scales.iter().enumerate() {
            let want = if (k / 5) % 2 == 0 { 1.0 } else { 0.2 };
            assert_eq!(s, want, "interval {k}: {scales:?}");
        }
        assert_eq!((scales[10], scales[15]), (1.0, 0.2));
    }

    #[test]
    fn bad_run_time_options_are_typed_errors() {
        // Previously a zero control interval panicked dividing by zero and
        // a NaN time step returned an empty, valid-looking trace.
        let (bench, net) = setup();
        let trace = PowerTrace::new(vec![(0.05, 1.0)]);
        for opts in [
            RuntimeOptions {
                control_interval: 0,
                ..RuntimeOptions::default()
            },
            RuntimeOptions {
                dt: f64::NAN,
                ..RuntimeOptions::default()
            },
        ] {
            match simulate_adaptive_flow(&bench, &net, &trace, &adaptive(), &opts) {
                Err(ScenarioError::Spec { .. }) => {}
                other => panic!("{opts:?}: want a spec error, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn bad_trace_is_rejected() {
        PowerTrace::new(vec![(0.0, 1.0)]);
    }

    #[test]
    fn partial_final_interval_is_clamped_to_the_trace_remainder() {
        // Regression for the trace-end overrun: a 0.105 s trace used to
        // simulate 11 full intervals = 0.110 s, and the pumping energy
        // charged a full 0.010 s for the 0.005 s remainder. Post-fix the
        // final interval runs exactly the 5 remaining steps.
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let trace = PowerTrace::new(vec![(0.105, 1.0)]);
        let clamped = FlowController {
            target: Kelvin::new(320.0),
            gain: 0.0,
            p_min: Pascal::from_kilopascals(10.0),
            p_max: Pascal::from_kilopascals(10.0),
        };
        let run = simulate_adaptive_flow(&bench, &net, &trace, &clamped, &at_10_kpa()).unwrap();
        let samples = &run.intervals;
        assert_eq!(samples.len(), 11);
        for s in &samples[..10] {
            assert!((s.interval_s - 0.010).abs() < 1e-12, "{s:?}");
        }
        let last = samples.last().unwrap();
        assert!(
            (last.interval_s - 0.005).abs() < 1e-12,
            "final interval simulated {} s, want the 0.005 s remainder \
             (pre-fix behavior: a full 0.010 s)",
            last.interval_s
        );
        // Total simulated time and charged energy match the trace.
        let simulated: f64 = samples.iter().map(|s| s.interval_s).sum();
        assert!((simulated - 0.105).abs() < 1e-12);
        let w = samples[0].w_pump.value();
        let energy = run.pumping_energy();
        assert!(
            (energy - w * 0.105).abs() < 1e-9 * w.max(1.0),
            "energy {energy} != w_pump x duration {}",
            w * 0.105
        );
    }

    #[test]
    fn clamped_controller_reuses_the_integrator() {
        // A controller clamped to a single pressure must build the
        // transient integrator once for the whole trace, not once per
        // control step — verified via the runtime.integrator_rebuilds
        // counter. Sample timestamps must stamp the interval *start*.
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let trace = PowerTrace::new(vec![(0.1, 1.0)]);
        let opts = at_10_kpa();
        let clamped = FlowController {
            target: Kelvin::new(320.0),
            gain: 0.0,
            p_min: Pascal::from_kilopascals(10.0),
            p_max: Pascal::from_kilopascals(10.0),
        };
        let before = coolnet_obs::snapshot();
        let run = simulate_adaptive_flow(&bench, &net, &trace, &clamped, &opts).unwrap();
        let after = coolnet_obs::snapshot();

        // Exact-ratio trace: exactly 10 intervals, no spurious 11th.
        assert_eq!(run.intervals.len(), 10);
        let rebuilds = after.counter_delta(&before, "runtime.integrator_rebuilds");
        assert_eq!(rebuilds, 1, "clamped run rebuilt {rebuilds} times");
        assert_eq!(after.counter_delta(&before, "runtime.control_steps"), 10);
        assert_eq!(after.counter_delta(&before, "scenario.runs"), 1);
        // The single phase is one event, applied at t = 0.
        assert_eq!(after.counter_delta(&before, "scenario.events_applied"), 1);

        // Interval-start timestamps: first sample at t = 0, fixed spacing.
        let interval = opts.dt * opts.control_interval as f64;
        for (i, s) in run.intervals.iter().enumerate() {
            assert!((s.time - i as f64 * interval).abs() < 1e-12, "{s:?}");
            assert_eq!(s.power_scale, 1.0);
        }
    }

    #[test]
    fn moving_controller_rebuilds_once_per_pressure_change() {
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let trace = PowerTrace::new(vec![(0.05, 1.0)]);
        let opts = RuntimeOptions {
            dt: 1e-3,
            control_interval: 10,
            p_initial: Pascal::from_kilopascals(5.0),
            ..RuntimeOptions::default()
        };
        // Unreachable setpoint with a live gain: the pressure moves every
        // step until it clamps at p_max.
        let hot = FlowController {
            target: Kelvin::new(300.5),
            gain: 2000.0,
            p_min: Pascal::from_kilopascals(0.5),
            p_max: Pascal::from_kilopascals(60.0),
        };
        let before = coolnet_obs::snapshot();
        let run = simulate_adaptive_flow(&bench, &net, &trace, &hot, &opts).unwrap();
        let after = coolnet_obs::snapshot();
        let changes = run
            .intervals
            .windows(2)
            .filter(|w| w[0].p_sys != w[1].p_sys)
            .count() as u64;
        assert!(changes > 0, "the controller never moved the pressure");
        let rebuilds = after.counter_delta(&before, "runtime.integrator_rebuilds");
        assert_eq!(rebuilds, 1 + changes, "{:#?}", run.intervals);
        assert_eq!(after.counter_delta(&before, "runtime.control_steps"), 5);
        assert_eq!(after.counter_delta(&before, "scenario.runs"), 1);
    }
}
