//! End-to-end robustness of the closed calibration loop (ISSUE 5
//! tentpole acceptance): when the backend drifts away from the profile,
//! a server that calibrates online — quarantining drifted cells,
//! re-pricing its planning tables and re-scheduling through the anytime
//! ladder — must serve the *same* trace at least as well as a server
//! that keeps planning on the stale profile, on both tail latency and
//! deadline misses.  And with no drift at all, the whole loop must be
//! invisible: bit-identical histories with calibration on or off.

use hios_core::bounds;
use hios_cost::{AnalyticCostModel, CalibrationConfig};
use hios_graph::{LayeredDagConfig, generate_layered_dag};
use hios_serve::{
    Request, ServeConfig, ServeReport, ServedModel, WorkloadConfig, generate_trace, serve_drift,
};
use hios_sim::{DriftPlan, FaultPlan, FaultScript, FlapSpec};

const GPUS: usize = 3;

fn model(seed: u64, ops: usize) -> ServedModel {
    let graph = generate_layered_dag(&LayeredDagConfig {
        ops,
        layers: 6,
        deps: ops * 2,
        seed,
    })
    .expect("feasible tenant model");
    let cost = AnalyticCostModel::a40_nvlink().build_table(&graph);
    ServedModel {
        name: format!("tenant{seed}"),
        graph,
        cost,
    }
}

fn trace(models: &[ServedModel], requests: usize, rate: f64, factor: f64) -> Vec<Request> {
    let nominal: Vec<f64> = models
        .iter()
        .map(|m| bounds::combined_bound(&m.graph, &m.cost, GPUS))
        .collect();
    generate_trace(
        &WorkloadConfig {
            requests,
            arrival_rate_rps: rate,
            deadline_factor: factor,
            seed: 17,
        },
        &nominal,
    )
}

fn run(
    models: &[ServedModel],
    reqs: &[Request],
    drift: &DriftPlan,
    calibrate: bool,
) -> ServeReport {
    let mut cfg = ServeConfig::new(GPUS);
    if calibrate {
        cfg.calibration = Some(CalibrationConfig::default());
    }
    serve_drift(models, reqs, &FaultPlan::new(vec![]), drift, &cfg)
        .expect("well-formed serving setup")
        .report
}

#[test]
fn adaptive_calibration_beats_static_planning_under_drift() {
    let models = vec![model(41, 36), model(42, 48)];
    let reqs = trace(&models, 80, 150.0, 8.0);
    let scenarios: Vec<(&str, DriftPlan)> = vec![
        // GPU 2 ramps to a sustained 5x slowdown early in the run.
        ("ramp", DriftPlan::ramp(2, 5.0, 30.0, 1.0, 5.0, 6)),
        // A bursty co-tenant steals GPU 2 at 4x for 60% of every 40 ms.
        ("bursts", DriftPlan::bursts(2, 5.0, 40.0, 0.6, 4.0, 2000.0)),
        // A seeded biased random walk drags GPU 2 slower over time.
        (
            "walk",
            DriftPlan::random_walk(2, 9, 2000.0, 10.0, 0.05, 0.12, 8.0),
        ),
    ];
    let mut strictly_better = false;
    for (name, drift) in &scenarios {
        let stat = run(&models, &reqs, drift, false);
        let adap = run(&models, &reqs, drift, true);
        assert!(
            adap.drift_alarms > 0 && adap.recalibrations > 0,
            "{name}: the loop must detect the drift (alarms {}, recal {})",
            adap.drift_alarms,
            adap.recalibrations
        );
        assert!(
            adap.p99_ms <= stat.p99_ms,
            "{name}: adaptive p99 {:.3} ms must not exceed static {:.3} ms",
            adap.p99_ms,
            stat.p99_ms
        );
        assert!(
            adap.miss_rate <= stat.miss_rate,
            "{name}: adaptive miss rate {:.3} must not exceed static {:.3}",
            adap.miss_rate,
            stat.miss_rate
        );
        if adap.p99_ms < stat.p99_ms || adap.miss_rate < stat.miss_rate {
            strictly_better = true;
        }
    }
    assert!(
        strictly_better,
        "calibration must strictly improve at least one drift scenario"
    );
}

#[test]
fn no_drift_makes_the_loop_invisible() {
    let models = vec![model(41, 36), model(42, 48)];
    let reqs = trace(&models, 60, 150.0, 12.0);
    let off = run(&models, &reqs, &DriftPlan::none(), false);
    let on = run(&models, &reqs, &DriftPlan::none(), true);
    assert_eq!(on.drift_alarms, 0);
    assert_eq!(on.recalibrations, 0);
    assert_eq!(off, on, "calibration on a drift-free run must be a no-op");
}

/// Golden value: pins the outcome stream of a run with a flapping GPU,
/// drift and calibration that repairs requests in flight.  Unlike the
/// relational tests above, it fails on any change to a latency bit, a
/// disposition, a repair count or the digest's own fold, even one that
/// is self-consistent.  Recompute it only for an intended behaviour
/// change, and record why.
#[test]
fn history_digest_of_a_repairing_drift_run_is_pinned() {
    let models = vec![model(41, 36), model(42, 48)];
    let reqs = trace(&models, 300, 800.0, 8.0);
    // GPU 0 fails for 60 ms three times, 120 ms apart.
    let faults = FaultScript {
        flaps: vec![FlapSpec {
            gpu: 0,
            first_fail_ms: 20.0,
            down_ms: 60.0,
            up_ms: 60.0,
            cycles: 3,
        }],
        ..FaultScript::default()
    }
    .compile(&models[0].graph, GPUS)
    .expect("valid flap script");
    let drift = DriftPlan::random_walk(2, 9, 500.0, 10.0, 0.05, 0.0, 2.0);
    let mut cfg = ServeConfig::new(GPUS);
    cfg.calibration = Some(CalibrationConfig::default());
    let report = serve_drift(&models, &reqs, &faults, &drift, &cfg)
        .expect("well-formed serving setup")
        .report;
    assert!(report.repairs >= 1, "repairs {}", report.repairs);
    assert_eq!(
        report.history_digest, 0x75b3_6ab0_e6f1_2bf4,
        "digest {:#018x}",
        report.history_digest
    );
}
