//! Tiny-size self-test: every metric is emitted on every workload, and the
//! correctness gate rejects a design pushed over `T*max`.

use coolnet::opt::treeopt::TreeSearch;
use coolnet::opt::Problem;
use coolnet::units::Kelvin;
use coolnet_perfbench::{design, run, Report, Scale, Workload, END_TO_END, PER_LAYER};

#[test]
fn every_metric_is_emitted_on_every_workload() {
    let scale = Scale::tiny();
    for workload in Workload::ALL {
        for (trace, names) in [(false, END_TO_END), (true, PER_LAYER)] {
            let report = run(workload, 7, 1e-3, trace, &scale);
            let line = report
                .result_line(names)
                .unwrap_or_else(|e| panic!("{} trace {trace}: {e}", workload.name()));
            for (name, unit) in names {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(line.contains(&entry), "{}: {name} missing", workload.name());
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
            assert!(line.starts_with("{\"correct\": "), "{line}");
            assert!(
                report.attempted > 0,
                "{}: nothing attempted",
                workload.name()
            );
        }
    }
}

#[test]
fn gate_rejects_a_design_over_t_max() {
    let scale = Scale::tiny();
    let problem = Problem::PumpingPower;
    let bench = design::bench(problem, &scale);
    let opts = scale.schedule(3);
    let model = design::final_model(&opts);
    let found = TreeSearch::new(&bench, opts)
        .run(problem)
        .expect("the tiny case has a feasible tree");
    let mut report = Report::default();
    let misses = design::gate(&mut report, &bench, problem, model, &found);
    assert!(misses.is_empty(), "{misses:?}");

    let mut pushed = found.clone();
    pushed.t_max = Kelvin::new(bench.t_max_limit.value() + 0.5);
    let misses = design::gate(&mut report, &bench, problem, model, &pushed);
    assert!(misses.iter().any(|m| m.contains("T_max")), "{misses:?}");
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let values: Vec<f64> = (1..=40).map(f64::from).collect();
    assert_eq!(coolnet_perfbench::tail(&values), (30.0, 75.0));
    let few: Vec<f64> = (1..=9).map(f64::from).collect();
    assert_eq!(coolnet_perfbench::tail(&few), (5.0, 50.0));
}
