//! One module per group of paper figures.

pub mod drift;
pub mod ext;
pub mod faults;
pub mod fleet;
pub mod hetero;
pub mod micro;
pub mod overload;
pub mod restart;
pub mod scaling;
pub mod schedcost;
pub mod serving;
pub mod sim;
pub mod testbed;
pub mod worked;

use crate::{RunCfg, Table};
use hios_core::bounds;
use hios_cost::AnalyticCostModel;
use hios_graph::{LayeredDagConfig, generate_layered_dag};
use hios_serve::{
    ClassMix, ClassStats, PriorityClass, ServeConfig, ServeReport, ServedModel, WorkloadConfig,
    generate_trace_with_classes, serve,
};
use hios_sim::FaultPlan;
use serde_json::Value;

/// A named experiment: CLI name + the function producing its table.
pub type Experiment = (&'static str, fn(&RunCfg) -> Table);

/// Every experiment, keyed by CLI name.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("fig1", micro::fig1 as fn(&RunCfg) -> Table),
        ("fig2", micro::fig2),
        ("fig4", worked::fig4),
        ("fig5", worked::fig5),
        ("fig6", worked::fig6),
        ("fig7", sim::fig7),
        ("fig8", sim::fig8),
        ("fig9", sim::fig9),
        ("fig10", sim::fig10),
        ("fig11", sim::fig11),
        ("fig12", testbed::fig12),
        ("fig13", testbed::fig13),
        ("fig14", schedcost::fig14),
        ("ext_window", ext::ext_window),
        ("ext_ios_pruning", ext::ext_ios_pruning),
        ("ext_semantics", ext::ext_semantics),
        ("ext_gpus_cnn", ext::ext_gpus_cnn),
        ("ext_model_zoo", ext::ext_model_zoo),
        ("sched-scaling", scaling::sched_scaling),
        ("fault-matrix", faults::fault_matrix),
        ("serving", serving::serving),
        ("hetero", hetero::hetero),
        ("drift", drift::drift),
        ("overload", overload::overload),
        ("restart", restart::restart),
        ("fleet", fleet::fleet),
    ]
}

/// Tenant models of the serving experiments: one seeded layered DAG per
/// `(seed, ops)` pair (six layers, two edges per operator), priced on
/// the A40/NVLink profile.
pub(crate) fn tenants(specs: &[(u64, usize)]) -> Vec<ServedModel> {
    specs
        .iter()
        .map(|&(seed, ops)| {
            let graph = generate_layered_dag(&LayeredDagConfig {
                ops,
                layers: 6,
                deps: ops * 2,
                seed,
            })
            .expect("feasible tenant workload");
            let cost = AnalyticCostModel::a40_nvlink().build_table(&graph);
            ServedModel {
                name: format!("tenant{seed}"),
                graph,
                cost,
            }
        })
        .collect()
}

/// Each tenant's provable latency bound on `gpus` GPUs, the yardstick
/// deadlines are drawn against.
pub(crate) fn nominal(models: &[ServedModel], gpus: usize) -> Vec<f64> {
    models
        .iter()
        .map(|m| bounds::combined_bound(&m.graph, &m.cost, gpus))
        .collect()
}

/// Sustained completions per second of one `gpus`-GPU cluster, measured
/// with a saturating probe: `requests` class-mixed arrivals far faster
/// than service, deadlines effectively infinite.  Deterministic: the
/// probe runs on the virtual clock like every other cell.
pub(crate) fn saturated_rate_rps(
    models: &[ServedModel],
    gpus: usize,
    requests: usize,
    seed: u64,
) -> f64 {
    let trace = generate_trace_with_classes(
        &WorkloadConfig {
            requests,
            arrival_rate_rps: 20_000.0,
            deadline_factor: 1.0e6,
            seed,
        },
        &nominal(models, gpus),
        &ClassMix::default(),
    );
    let out = serve(
        models,
        &trace,
        &FaultPlan::new(vec![]),
        &ServeConfig::new(gpus),
    )
    .expect("well-formed probe setup");
    1000.0 * out.report.completed as f64 / out.report.horizon_ms
}

/// One priority class's outcome, as the per-class object of the
/// `overload` and `fleet` points.
pub(crate) fn class_json(stats: &[ClassStats; 3], class: PriorityClass) -> Value {
    let s = &stats[class.index()];
    Value::Object(fields![
        ("total", s.total),
        ("on_time", s.on_time),
        ("shed", s.shed),
        ("p99_ms", s.p99_ms),
        ("miss_rate", s.miss_rate),
        ("goodput_rps", s.goodput_rps),
    ])
}

/// The latency and goodput fields of a serving run, in the order the
/// `serving` and `drift` points carry them.
pub(crate) fn latency_fields(r: &ServeReport) -> Vec<(String, Value)> {
    fields![
        ("completed", r.completed),
        ("on_time", r.on_time),
        ("p50_ms", r.p50_ms),
        ("p95_ms", r.p95_ms),
        ("p99_ms", r.p99_ms),
        ("miss_rate", r.miss_rate),
        ("shed_rate", r.shed_rate),
        ("goodput_rps", r.goodput_rps),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturated_rate_is_positive_and_finite() {
        let rate = saturated_rate_rps(&tenants(&[(41, 36), (42, 48)]), 3, 120, 13);
        assert!(rate.is_finite() && rate > 0.0, "rate {rate}");
    }
}
