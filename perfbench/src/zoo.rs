//! `compile-zoo`: a closed loop with one caller that turns a zoo of DAGs
//! into multi-GPU plans.
//!
//! Every pass runs HIOS-LP and HIOS-MR at M ∈ {2, 4} on Inception-v3,
//! NASNet-A, RandWire and seeded layered DAGs of 400 and 1000
//! operators, and evaluates each plan.  The `hios-core` schedulers do
//! nearly all the work; serving, simulation and the store do none.

use crate::tracer::{Layer, Tracer, geomean, median, percentile};
use crate::{Metrics, Outcome, RunArgs, fnv, mix64, run_passes, timed_build};
use hios_core::{Algorithm, Schedule, SchedulerOptions, bounds, evaluate, run_scheduler};
use hios_cost::{AnalyticCostModel, CostTable};
use hios_graph::{Graph, LayeredDagConfig, generate_layered_dag};
use hios_models::{ModelConfig, RandWireConfig, inception_v3, nasnet_a, randwire};
use std::time::Instant;

/// Instance names, in pass order; per-layer metric names use them.
pub const INSTANCES: [&str; 5] = [
    "inception",
    "nasnet",
    "randwire",
    "layered400",
    "layered1000",
];

/// GPU budgets every instance is scheduled for.
pub const GPUS: [usize; 2] = [2, 4];

/// The two schedulers and their metric-name prefixes.
pub const ALGOS: [(Algorithm, &str); 2] = [(Algorithm::HiosLp, "lp"), (Algorithm::HiosMr, "mr")];

/// One instance with everything the correctness checks need.
struct Instance {
    graph: Graph,
    cost: CostTable,
    /// Single-GPU Sequential latency, ms: every plan must be at most it.
    sequential_ms: f64,
    /// `combined_bound` at each entry of [`GPUS`]: every plan must be at
    /// least it.
    bound_ms: [f64; 2],
}

fn layered(ops: usize, seed: u64) -> Graph {
    generate_layered_dag(&LayeredDagConfig {
        ops,
        layers: (ops * 4 / 25).max(4),
        deps: 2 * ops,
        seed,
    })
    .expect("feasible layered DAG")
}

/// Builds the zoo from `seed`.  Smoke runs shrink the two layered DAGs
/// (the metric names keep their full-size labels).
fn setup(seed: u64, smoke: bool) -> Vec<Instance> {
    let (small, large) = if smoke { (60, 120) } else { (400, 1000) };
    let graphs = [
        inception_v3(&ModelConfig::default()),
        nasnet_a(&ModelConfig::with_input(331)),
        randwire(&ModelConfig::default(), &RandWireConfig::default()),
        layered(small, mix64(seed ^ 0x400)),
        layered(large, mix64(seed ^ 0x1000)),
    ];
    let model = AnalyticCostModel::a40_nvlink();
    graphs
        .into_iter()
        .map(|graph| {
            let cost = model.build_table(&graph);
            let sequential_ms = run_scheduler(
                Algorithm::Sequential,
                &graph,
                &cost,
                &SchedulerOptions::new(1),
            )
            .expect("Sequential schedules every DAG")
            .latency_ms;
            let bound_ms = GPUS.map(|m| bounds::combined_bound(&graph, &cost, m));
            Instance {
                graph,
                cost,
                sequential_ms,
                bound_ms,
            }
        })
        .collect()
}

/// One produced plan.
struct Plan {
    schedule: Schedule,
    latency_ms: f64,
    eval_ms: Result<f64, String>,
}

pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let build = || setup(args.seed, args.smoke);
    let (zoo, first_setup_s) = timed_build(build);

    let calls_per_pass = INSTANCES.len() * ALGOS.len() * GPUS.len();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut digests = Vec::new();
    let (mut ratios, mut met) = (Vec::new(), 0usize);
    // Per-call host times of traced passes, ms, indexed like the pass.
    let mut sched_ms: Vec<Vec<f64>> = vec![Vec::new(); calls_per_pass];
    let mut eval_us = Vec::new();
    let mut first_error: Option<String> = None;

    let rebuild = || timed_build(build).1;
    let passes = run_passes(
        args,
        tracer,
        first_setup_s,
        rebuild,
        |tracer, clock, pass| {
            let plans = clock.time(|| {
                tracer.begin("pass.compile-zoo", Layer::Bench, pass as u64);
                let mut plans = Vec::with_capacity(calls_per_pass);
                for inst in &zoo {
                    for &(algo, _) in &ALGOS {
                        for &m in &GPUS {
                            let id = plans.len() as u64;
                            let t = Instant::now();
                            let out = tracer.span("core.run_scheduler", Layer::Core, id, || {
                                run_scheduler(
                                    algo,
                                    &inst.graph,
                                    &inst.cost,
                                    &SchedulerOptions::new(m),
                                )
                            });
                            let sched_s = t.elapsed().as_secs_f64();
                            let plan = out.map_err(|e| e.to_string()).map(|o| {
                                let t = Instant::now();
                                let eval = tracer.span("core.evaluate", Layer::Core, id, || {
                                    evaluate(&inst.graph, &inst.cost, &o.schedule)
                                });
                                let eval_s = t.elapsed().as_secs_f64();
                                if tracer.enabled() {
                                    eval_us.push(eval_s * 1e6);
                                }
                                Plan {
                                    schedule: o.schedule,
                                    latency_ms: o.latency_ms,
                                    eval_ms: eval.map(|r| r.latency).map_err(|e| e.to_string()),
                                }
                            });
                            if tracer.enabled() {
                                sched_ms[id as usize].push(sched_s * 1e3);
                            }
                            plans.push(plan);
                        }
                    }
                }
                tracer.end();
                plans
            });

            // Correctness, outside the timed pass.
            let mut digest = fnv::OFFSET;
            let (mut pass_ratios, mut pass_met) = (Vec::new(), 0usize);
            for (i, plan) in plans.iter().enumerate() {
                attempted += 1;
                let k = i / (ALGOS.len() * GPUS.len());
                let inst = &zoo[k];
                let gi = i % GPUS.len();
                let verdict = plan
                    .as_ref()
                    .map_err(Clone::clone)
                    .and_then(|p| check_plan(p, inst, GPUS[gi], inst.bound_ms[gi]));
                match verdict {
                    Ok(p) => {
                        fnv::eat(&mut digest, p.schedule.content_digest());
                        fnv::eat(&mut digest, p.latency_ms.to_bits());
                        pass_ratios.push(p.latency_ms / inst.bound_ms[gi]);
                        pass_met += usize::from(p.latency_ms < inst.sequential_ms);
                    }
                    Err(e) => {
                        failed += 1;
                        first_error.get_or_insert(format!("{} plan {i}: {e}", INSTANCES[k]));
                    }
                }
            }
            digests.push(digest);
            ratios = pass_ratios;
            met = pass_met;
        },
    );

    let plans_per_pass = calls_per_pass as f64;
    let mut m = Metrics::default();
    if tracer.enabled() {
        let mut all = Vec::new();
        let mut i = 0;
        for inst in INSTANCES {
            for &(_, a) in &ALGOS {
                for &g in &GPUS {
                    m.set(&format!("core.{a}.{inst}.m{g}.ms"), median(&sched_ms[i]));
                    all.extend_from_slice(&sched_ms[i]);
                    i += 1;
                }
            }
        }
        m.set("sched_ms_p50", percentile(&all, 0.5));
        m.set("sched_ms_p90", percentile(&all, 0.9));
        m.set("sched.calls", all.len() as f64);
        m.set("core.eval.us", median(&eval_us));
        // Only traced passes record spans: the core calls' self time,
        // and the benchmark loop's own time outside them, per pass.
        let traced = passes.traced.len() as f64;
        for (layer, secs) in tracer.self_time() {
            match layer {
                Layer::Core => m.set("core.self_s", secs / traced),
                Layer::Bench => m.set("unattributed_s", secs / traced),
                _ => {}
            }
        }
    }
    let mut notes = vec![format!(
        "compile-zoo: {} scheduler calls per pass, {} untraced passes",
        calls_per_pass,
        passes.untraced.len()
    )];
    if let Some(e) = first_error {
        notes.push(format!("first failure: {e}"));
    }
    let digest_stable = digests.windows(2).all(|w| w[0] == w[1]);
    Outcome {
        attempted,
        failed,
        digest: digests.first().copied().unwrap_or(0),
        digest_stable,
        passes,
        work_per_pass: plans_per_pass,
        bound_ratio: if ratios.is_empty() {
            f64::NAN
        } else {
            geomean(&ratios)
        },
        met_share: met as f64 / plans_per_pass,
        layer: m,
        notes,
    }
}

/// The plan checks: structurally valid, evaluates to the latency the
/// scheduler reported, and lies between the provable lower bound and
/// the Sequential baseline.
fn check_plan<'a>(
    p: &'a Plan,
    inst: &Instance,
    m: usize,
    bound_ms: f64,
) -> Result<&'a Plan, String> {
    p.schedule
        .validate_full(&inst.graph, Some(&vec![true; m]))
        .map_err(|e| format!("validate_full: {e}"))?;
    let eval = p.eval_ms.clone()?;
    let tol = 1e-9 * p.latency_ms.abs().max(1.0);
    if (eval - p.latency_ms).abs() > tol {
        return Err(format!(
            "evaluate gives {eval} ms, scheduler reported {} ms",
            p.latency_ms
        ));
    }
    if p.latency_ms < bound_ms - tol {
        return Err(format!(
            "latency {} ms below the lower bound {bound_ms} ms",
            p.latency_ms
        ));
    }
    if p.latency_ms > inst.sequential_ms + tol {
        return Err(format!(
            "latency {} ms above Sequential {} ms",
            p.latency_ms, inst.sequential_ms
        ));
    }
    Ok(p)
}
