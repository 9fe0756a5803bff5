//! The two serving workloads: `fleet-steady` and `serve-churn`.
//!
//! * `fleet-steady` — an open loop in virtual time: a fault-free
//!   [`serve_fleet`] over 4 clusters × 3 GPUs and six tenants, with
//!   class-mixed Poisson arrivals at 55% of the calibrated capacity and
//!   a tight deadline on every eighth Gold request, so hedging runs.
//!   Nearly every dispatch hits the schedule cache, so the per-dispatch
//!   path (fingerprint, plan clone, full simulation) dominates.
//! * `serve-churn` — [`serve_drift`] on one 3-GPU cluster with three
//!   tenants of 60–120 operators at 50% load, one GPU flapping fail/heal
//!   throughout, a drift random walk on another GPU with calibration on,
//!   and a fresh plan store per call.  The cache keeps being invalidated:
//!   ladder misses, store writes, repairs and recalibrations run.  A pass
//!   serves nine independently seeded traces of 10,000 requests, one call
//!   each, every one under its own fixed drift walk.  How a trace's
//!   arrivals meet the flaps and the drift can throw the call into an
//!   upgrade storm that lasts to its end (a full-LP upgrade that loses to
//!   the cached plan is not remembered, so every idle moment runs it
//!   again).  Such a storm made about one 30,000-request call in twelve
//!   take 2.3–2.8 times as long as the others.  Nine shorter calls
//!   average such draws within a pass.
//!
//! A serving call is opaque from outside, so the traced run splits its
//! host time by probing each layer's public call on the workload's own
//! models and plans and multiplying the per-call time by the count the
//! public reports give; what is left is `unattributed_s`.

use crate::tracer::{Layer, Tracer, geomean, median, time_each, time_per_call};
use crate::{Metrics, Outcome, RunArgs, fnv, mix64, out_dir, run_passes, timed_build};
use hios_core::repair::{RepairConfig, RepairPolicy, repair_schedule};
use hios_core::{EvalWorkspace, SchedBudget, Schedule, ScheduleCacheKey, bounds, evaluate};
use hios_cost::{AnalyticCostModel, CalibrationConfig, Calibrator};
use hios_graph::{LayeredDagConfig, OpId, generate_layered_dag, topo::topo_order};
use hios_serve::report::ReportInputs;
use hios_serve::{
    AnytimeLadder, ClassMix, Disposition, FleetConfig, FleetFaults, FleetOutcome, HealthConfig,
    HealthSample, HealthView, LadderConfig, Policy, PriorityClass, Request, Router, RouterConfig,
    RungCap, ServeConfig, ServeOutcome, ServeReport, ServedModel, StoreConfig, WorkloadConfig,
    fleet_history_digest, generate_trace_with_classes, history_digest, serve, serve_drift,
    serve_fleet, summarize, trace_span_ms,
};
use hios_sim::{DriftPlan, FaultPlan, FaultScript, FlapSpec, Scaling, simulate_scaled};
use hios_store::{PlanKey, PlanStore, StoreOptions};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FleetSteady,
    ServeChurn,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::FleetSteady => "fleet-steady",
            Kind::ServeChurn => "serve-churn",
        }
    }

    fn clusters(self) -> usize {
        match self {
            Kind::FleetSteady => 4,
            Kind::ServeChurn => 1,
        }
    }

    /// Independently seeded traces per pass, one serving call each.
    fn segments(self) -> usize {
        match self {
            Kind::FleetSteady => 1,
            Kind::ServeChurn => 9,
        }
    }

    /// Requests per trace.
    fn requests(self, smoke: bool) -> usize {
        match (self, smoke) {
            (Kind::FleetSteady, false) => 100_000,
            (Kind::ServeChurn, false) => 10_000,
            (Kind::FleetSteady, true) => 2_000,
            (Kind::ServeChurn, true) => 150,
        }
    }

    /// Offered load as a share of the calibrated capacity.
    fn load(self) -> f64 {
        match self {
            Kind::FleetSteady => 0.55,
            Kind::ServeChurn => 0.50,
        }
    }
}

/// GPUs per cluster.
const GPUS: usize = 3;

/// Deadline slack over each request's lower bound.
const DEADLINE_FACTOR: f64 = 25.0;

/// The tight deadline factor of every eighth Gold request (fleet-steady),
/// under the hedge threshold so hedged dispatch runs.
const TIGHT_FACTOR: f64 = 3.6;

/// The GPU that flaps and the GPU that drifts (serve-churn).
const FLAP_GPU: usize = 0;
const DRIFT_GPU: usize = 2;

/// Seed of the drift random walk of segment 0; segment `k` walks with
/// `DRIFT_SEED + k`.  Fixed, like the tenants: a walk path shapes a whole
/// serving call, so drawing it from `--seed` would make host time depend
/// more on the paths than on the code.
const DRIFT_SEED: u64 = 9;

/// Flap duty cycle, ms.
const FLAP_DOWN_MS: f64 = 8.0;
const FLAP_UP_MS: f64 = 300.0;

/// One trace with the faults and drift laid over its span.
struct Segment {
    trace: Vec<Request>,
    faults: FaultPlan,
    drift: DriftPlan,
}

/// Everything a pass needs, built by [`setup`].
struct Scenario {
    models: Vec<ServedModel>,
    /// `combined_bound` of each model on one cluster.
    bounds: Vec<f64>,
    segments: Vec<Segment>,
    serve_cfg: ServeConfig,
    fleet_cfg: FleetConfig,
    trace_gen_s: f64,
    build_table_s: f64,
}

fn layered(ops: usize, seed: u64) -> hios_graph::Graph {
    generate_layered_dag(&LayeredDagConfig {
        ops,
        layers: 6,
        deps: ops * 2,
        seed,
    })
    .expect("feasible tenant DAG")
}

/// Requests one cluster completes per virtual second under saturation.
fn cluster_rate_rps(models: &[ServedModel], bounds: &[f64], seed: u64) -> f64 {
    let probe = generate_trace_with_classes(
        &WorkloadConfig {
            requests: 150,
            arrival_rate_rps: 20_000.0,
            deadline_factor: 1.0e6,
            seed,
        },
        bounds,
        &ClassMix::default(),
    );
    let out = serve(models, &probe, &FaultPlan::none(), &ServeConfig::new(GPUS))
        .expect("well-formed capacity probe");
    1000.0 * out.report.completed as f64 / out.report.horizon_ms
}

fn store_path(tag: &str) -> PathBuf {
    out_dir().join(format!("store-{}-{tag}", std::process::id()))
}

fn setup(kind: Kind, seed: u64, smoke: bool) -> Scenario {
    // The tenants are fixed per workload (fleet-steady serves the six
    // tenants of the `fleet` experiment); the seed draws the traffic.
    let tenants: &[(u64, usize)] = match kind {
        Kind::FleetSteady => &[(61, 24), (62, 30), (63, 20), (64, 36), (65, 26), (66, 32)],
        Kind::ServeChurn => &[(71, 60), (72, 90), (73, 120)],
    };
    let graphs: Vec<_> = tenants.iter().map(|&(s, ops)| layered(ops, s)).collect();
    let cost_model = AnalyticCostModel::a40_nvlink();
    let t = Instant::now();
    let costs: Vec<_> = graphs.iter().map(|g| cost_model.build_table(g)).collect();
    let build_table_s = t.elapsed().as_secs_f64();
    let models: Vec<ServedModel> = graphs
        .into_iter()
        .zip(costs)
        .enumerate()
        .map(|(i, (graph, cost))| ServedModel {
            name: format!("tenant{i}"),
            graph,
            cost,
        })
        .collect();
    let bounds: Vec<f64> = models
        .iter()
        .map(|m| bounds::combined_bound(&m.graph, &m.cost, GPUS))
        .collect();
    let rate = kind.load() * kind.clusters() as f64 * cluster_rate_rps(&models, &bounds, 29);

    let mut serve_cfg = ServeConfig::new(GPUS);
    if kind == Kind::ServeChurn {
        serve_cfg.calibration = Some(CalibrationConfig::default());
        // Opening the (empty) store each call starts from is part of
        // set-up; the pass itself opens a fresh log per call.
        let dir = store_path("setup");
        std::fs::create_dir_all(&dir).expect("create the store directory");
        drop(PlanStore::open(dir.join("plans.log"), StoreOptions::default()).expect("open store"));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let mut trace_gen_s = 0.0;
    let segments = (0..kind.segments() as u64)
        .map(|k| {
            let t = Instant::now();
            let mut trace = generate_trace_with_classes(
                &WorkloadConfig {
                    requests: kind.requests(smoke),
                    arrival_rate_rps: rate,
                    deadline_factor: DEADLINE_FACTOR,
                    seed: mix64(seed ^ 0x7ace ^ (k << 40)),
                },
                &bounds,
                &ClassMix::default(),
            );
            trace_gen_s += t.elapsed().as_secs_f64();
            let span_ms = trace_span_ms(&trace);
            let (mut faults, mut drift) = (FaultPlan::none(), DriftPlan::none());
            match kind {
                Kind::FleetSteady => {
                    for r in &mut trace {
                        if r.class == PriorityClass::Gold && r.id % 8 == 0 {
                            r.deadline_ms = r.arrival_ms + TIGHT_FACTOR * bounds[r.model];
                        }
                    }
                }
                Kind::ServeChurn => {
                    let first_fail_ms = 0.02 * span_ms;
                    let cycles = ((span_ms - first_fail_ms) / (FLAP_DOWN_MS + FLAP_UP_MS)) as u32;
                    faults = FaultScript {
                        flaps: vec![FlapSpec {
                            gpu: FLAP_GPU,
                            first_fail_ms,
                            down_ms: FLAP_DOWN_MS,
                            up_ms: FLAP_UP_MS,
                            cycles: cycles.max(1),
                        }],
                        ..FaultScript::default()
                    }
                    .compile(&models[0].graph, GPUS)
                    .expect("valid flap script");
                    drift = DriftPlan::random_walk(
                        DRIFT_GPU,
                        DRIFT_SEED + k,
                        span_ms,
                        10.0,
                        0.05,
                        0.0,
                        2.0,
                    );
                }
            }
            Segment {
                trace,
                faults,
                drift,
            }
        })
        .collect();
    Scenario {
        models,
        bounds,
        segments,
        serve_cfg,
        fleet_cfg: FleetConfig::new(kind.clusters(), GPUS),
        trace_gen_s,
        build_table_s,
    }
}

/// What one pass returned.
enum PassOut {
    Fleet(Box<FleetOutcome>),
    /// One outcome per segment.
    Clusters(Vec<ServeOutcome>),
}

impl PassOut {
    /// Each cluster's (or segment's) own serve outcome.
    fn clusters(&self) -> Vec<&ServeOutcome> {
        match self {
            PassOut::Fleet(f) => f.clusters.iter().collect(),
            PassOut::Clusters(c) => c.iter().collect(),
        }
    }

    fn digest(&self) -> u64 {
        match self {
            PassOut::Fleet(f) => f.report.history_digest,
            PassOut::Clusters(c) => {
                let mut h = fnv::OFFSET;
                for o in c {
                    fnv::eat(&mut h, o.report.history_digest);
                }
                h
            }
        }
    }

    /// `(request id, completed latency if it completed, model)` per
    /// record, one list per segment.
    fn records(&self) -> Vec<Vec<(u64, Option<f64>, usize)>> {
        match self {
            PassOut::Fleet(f) => vec![
                f.records
                    .iter()
                    .map(|r| {
                        let lat = match r.disposition.terminal() {
                            hios_serve::FleetDisposition::Completed { latency_ms, .. } => {
                                Some(*latency_ms)
                            }
                            _ => None,
                        };
                        (r.request.id, lat, r.request.model)
                    })
                    .collect(),
            ],
            PassOut::Clusters(c) => c
                .iter()
                .map(|o| {
                    o.records
                        .iter()
                        .map(|r| {
                            let lat = match r.disposition {
                                Disposition::Completed { latency_ms, .. } => Some(latency_ms),
                                _ => None,
                            };
                            (r.request.id, lat, r.request.model)
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// `(on_time, total, goodput_rps, gold p99 ms, miss_rate)`.  Over
    /// segments: counts add up, goodput is on-time completions per
    /// virtual second of all segments, the miss rate is weighted by
    /// requests and the Gold p99 is the segments' mean.
    fn headline(&self) -> (usize, usize, f64, f64, f64) {
        let gold = PriorityClass::Gold.index();
        match self {
            PassOut::Fleet(f) => {
                let r = &f.report;
                (
                    r.on_time,
                    r.total,
                    r.goodput_rps,
                    r.class_stats[gold].p99_ms,
                    r.miss_rate,
                )
            }
            PassOut::Clusters(c) => {
                let on_time: usize = c.iter().map(|o| o.report.on_time).sum();
                let total: usize = c.iter().map(|o| o.report.total).sum();
                let horizon_ms: f64 = c.iter().map(|o| o.report.horizon_ms).sum();
                let missed: f64 = c
                    .iter()
                    .map(|o| o.report.miss_rate * o.report.total as f64)
                    .sum();
                let p99: f64 = c
                    .iter()
                    .map(|o| o.report.class_stats[gold].p99_ms)
                    .sum::<f64>()
                    / c.len() as f64;
                (
                    on_time,
                    total,
                    1000.0 * on_time as f64 / horizon_ms,
                    p99,
                    missed / total as f64,
                )
            }
        }
    }
}

/// Counts a traced pass's public reports give, for the attribution.
#[derive(Default)]
struct Counts {
    attempts: f64,
    cache: (f64, f64),
    rungs: [f64; 5],
    repairs: f64,
    upgrades: f64,
    breaker_opens: f64,
    drift_alarms: f64,
    cache_invalidations: f64,
    store_puts: f64,
    store_gets: f64,
    store_hits: f64,
    hedges_issued: f64,
    hedge_wasted: f64,
    routes: f64,
    heartbeats: f64,
    observations: f64,
    calibration_sims: f64,
    goodput_rps: f64,
    gold_p99_ms: f64,
    miss_rate: f64,
    /// Host seconds of re-running the report fold and the digests over
    /// the pass's records (both run once per pass inside the serving
    /// call).
    summarize_s: f64,
    digest_s: f64,
}

fn report_inputs(r: &ServeReport) -> ReportInputs {
    ReportInputs {
        horizon_ms: r.horizon_ms,
        attempts: r.attempts,
        repairs: r.repairs,
        breaker_opens: r.breaker_opens,
        cache: r.cache,
        rungs: r.rungs,
        upgrades: r.upgrades,
        drift_alarms: r.drift_alarms,
        recalibrations: r.recalibrations,
        cache_invalidations: r.cache_invalidations,
        cache_evictions: r.cache_evictions,
        store: r.store,
        store_recovery: r.store_recovery,
        store_io_errors: r.store_io_errors,
        retry_budget_denied: r.retry_budget_denied,
        flap_escalations: r.flap_escalations,
        brownout: r.brownout.clone(),
    }
}

/// Gathers the counts of a traced pass and times the report fold and the
/// digests on its records.  Returns whether re-folding each cluster's
/// records reproduced its report.
fn count(kind: Kind, sc: &Scenario, out: &PassOut, tracer: &mut Tracer, c: &mut Counts) -> bool {
    let mut reports_agree = true;
    let drifted = sc.segments.iter().all(|s| !s.drift.is_none());
    *c = Counts::default();
    for cl in out.clusters() {
        let r = &cl.report;
        c.attempts += r.attempts as f64;
        c.cache.0 += r.cache.0 as f64;
        c.cache.1 += r.cache.1 as f64;
        for (acc, &n) in c.rungs.iter_mut().zip(&r.rungs) {
            *acc += n as f64;
        }
        c.repairs += r.repairs as f64;
        c.upgrades += r.upgrades as f64;
        c.breaker_opens += r.breaker_opens as f64;
        c.drift_alarms += r.drift_alarms as f64;
        c.cache_invalidations += r.cache_invalidations as f64;
        c.store_puts += (r.store.puts_full + r.store.puts_delta) as f64;
        c.store_gets += (r.store.hits + r.store.misses) as f64;
        c.store_hits += r.store.hits as f64;
        let inputs = report_inputs(r);
        let t = Instant::now();
        let again = tracer.span("serve.report.summarize", Layer::Serve, 0, || {
            summarize(&cl.records, &inputs)
        });
        c.summarize_s += t.elapsed().as_secs_f64();
        reports_agree &= again == *r;
        let t = Instant::now();
        let d = tracer.span("serve.report.digest", Layer::Serve, 0, || {
            history_digest(&cl.records)
        });
        c.digest_s += t.elapsed().as_secs_f64();
        reports_agree &= d == r.history_digest;
        if sc.serve_cfg.calibration.is_some() {
            // Every clean completion feeds one observation per operator,
            // and, when drift bent its timeline, costs a second,
            // drift-free simulation for the prediction.
            for r in &cl.records {
                if let Disposition::Completed { repairs: 0, .. } = r.disposition {
                    c.observations += sc.models[r.request.model].graph.num_ops() as f64;
                    if drifted {
                        c.calibration_sims += 1.0;
                    }
                }
            }
        }
    }
    (c.goodput_rps, c.gold_p99_ms, c.miss_rate) = {
        let (_, _, g, p, m) = out.headline();
        (g, p, m)
    };
    if let PassOut::Fleet(f) = out {
        let r = &f.report;
        c.hedges_issued = r.hedges_issued as f64;
        c.hedge_wasted = r.hedge_wasted as f64;
        c.routes = (r.total + r.rerouted) as f64;
        let heartbeat_ms = sc.fleet_cfg.health.heartbeat_ms;
        c.heartbeats = (r.horizon_ms / heartbeat_ms).floor() * kind.clusters() as f64;
        let t = Instant::now();
        let d = tracer.span("serve.report.fleet_digest", Layer::Serve, 0, || {
            fleet_history_digest(&f.records)
        });
        c.digest_s += t.elapsed().as_secs_f64();
        reports_agree &= d == r.history_digest;
    }
    reports_agree
}

pub fn run(kind: Kind, args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let build = || setup(kind, args.seed, args.smoke);
    let (sc, first_setup_s) = timed_build(build);
    let n: usize = sc.segments.iter().map(|s| s.trace.len()).sum();

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut digests = Vec::new();
    let (mut bound_ratio, mut met_share) = (f64::NAN, f64::NAN);
    let mut counts = Counts::default();
    let mut entry_s = Vec::new();
    let mut notes = Vec::new();

    let rebuild = || timed_build(build).1;
    let passes = run_passes(
        args,
        tracer,
        first_setup_s,
        rebuild,
        |tracer, clock, pass| {
            let store_dir = store_path(&pass.to_string());
            // Every serving call starts from a fresh, empty plan store.
            let cfgs: Vec<ServeConfig> = (0..sc.segments.len())
                .map(|k| {
                    let mut cfg = sc.serve_cfg.clone();
                    if kind == Kind::ServeChurn {
                        let dir = store_dir.join(k.to_string());
                        std::fs::create_dir_all(&dir).expect("create the pass store directory");
                        cfg.store = Some(StoreConfig::at(dir.join("plans.log")));
                    }
                    cfg
                })
                .collect();
            // Each serving call is its own timed block, so a long pass gets a
            // host-speed sample between its calls.
            tracer.begin(&format!("pass.{}", kind.name()), Layer::Bench, pass as u64);
            let out = match kind {
                Kind::FleetSteady => clock
                    .time(|| {
                        tracer.span("serve.serve_fleet", Layer::Serve, pass as u64, || {
                            let trace = &sc.segments[0].trace;
                            serve_fleet(&sc.models, trace, &FleetFaults::none(), &sc.fleet_cfg)
                        })
                    })
                    .map(|f| PassOut::Fleet(Box::new(f))),
                Kind::ServeChurn => sc
                    .segments
                    .iter()
                    .zip(&cfgs)
                    .map(|(seg, cfg)| {
                        clock.time(|| {
                            tracer.span("serve.serve_drift", Layer::Serve, pass as u64, || {
                                serve_drift(&sc.models, &seg.trace, &seg.faults, &seg.drift, cfg)
                            })
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(PassOut::Clusters),
            };
            let entry = clock.raw_s();
            tracer.end();
            let _ = std::fs::remove_dir_all(&store_dir);

            // Correctness, outside the timed pass.
            attempted += n as u64;
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    failed += n as u64;
                    notes.push(format!("pass {pass}: serving returned Err: {e}"));
                    return;
                }
            };
            let records = out.records();
            let mut not_one = 0u64;
            for (seg, recs) in sc.segments.iter().zip(&records) {
                let mut seen = vec![0u32; seg.trace.len()];
                for &(id, _, _) in recs {
                    match seen.get_mut(id as usize) {
                        Some(k) => *k += 1,
                        None => not_one += 1,
                    }
                }
                not_one += seen.iter().filter(|&&k| k != 1).count() as u64;
            }
            if not_one > 0 {
                notes.push(format!(
                    "pass {pass}: {not_one} requests without exactly one terminal record"
                ));
            }
            failed += not_one.min(n as u64);
            digests.push(out.digest());
            if pass == 0 {
                let ratios: Vec<f64> = records
                    .iter()
                    .flatten()
                    .filter_map(|&(_, lat, model)| lat.map(|l| l / sc.bounds[model]))
                    .collect();
                bound_ratio = if ratios.is_empty() {
                    f64::NAN
                } else {
                    geomean(&ratios)
                };
                let (on_time, total, ..) = out.headline();
                met_share = on_time as f64 / total as f64;
            }
            if tracer.enabled() {
                entry_s.push(entry);
                if !count(kind, &sc, &out, tracer, &mut counts) {
                    failed += 1;
                    notes.push(format!(
                        "pass {pass}: re-folding the records did not reproduce the report"
                    ));
                }
            }
        },
    );

    let mut m = Metrics::default();
    m.set("serve.trace.generate.ms", sc.trace_gen_s * 1e3);
    m.set("cost.build_table.ms", sc.build_table_s * 1e3);
    if tracer.enabled() {
        probe_layers(kind, &sc, args, tracer, &counts, median(&entry_s), &mut m);
    }
    notes.insert(
        0,
        format!(
            "{}: {n} requests per pass in {} trace(s), over {} cluster(s) of {GPUS} GPUs, \
             {} untraced passes",
            kind.name(),
            sc.segments.len(),
            kind.clusters(),
            passes.untraced.len()
        ),
    );
    let digest_stable = !digests.is_empty() && digests.windows(2).all(|w| w[0] == w[1]);
    Outcome {
        attempted,
        failed,
        digest: digests.first().copied().unwrap_or(0),
        digest_stable,
        passes,
        work_per_pass: n as f64,
        bound_ratio,
        met_share,
        layer: m,
        notes,
    }
}

/// Per-call host time of each layer's public call on the workload's own
/// models, plus the attribution of the serving call's host time.
fn probe_layers(
    kind: Kind,
    sc: &Scenario,
    args: &RunArgs,
    tracer: &mut Tracer,
    c: &Counts,
    entry_s: f64,
    m: &mut Metrics,
) {
    let budget = if args.smoke { 0.005 } else { 0.15 };
    let models = &sc.models;
    let k = models.len();
    let alive = vec![true; GPUS];
    tracer.begin("probes", Layer::Bench, 0);

    let fp_s = time_per_call(tracer, "core.fingerprint", Layer::Core, budget, |i| {
        let mdl = &models[i % k];
        black_box(ScheduleCacheKey::for_platform(
            &mdl.graph, &alive, &mdl.cost,
        ));
    });

    let ladder_cfg = sc.serve_cfg.ladder;
    let mut warm = AnytimeLadder::new(ladder_cfg);
    let decide = |ladder: &mut AnytimeLadder, i: usize, cap: RungCap| {
        let mdl = &models[i % k];
        ladder
            .decide_capped(
                &mdl.graph,
                &mdl.cost,
                &alive,
                0,
                f64::INFINITY,
                0,
                Policy::Anytime,
                cap,
            )
            .expect("every tenant schedules on a healthy cluster")
    };
    for i in 0..k {
        decide(&mut warm, i, RungCap::Full);
    }
    let hit_s = time_per_call(tracer, "serve.ladder.hit", Layer::Serve, budget, |i| {
        black_box(decide(&mut warm, i, RungCap::Full));
    });
    // Cold ladders without a budget, so each cap picks exactly its rung.
    let cold_cfg = LadderConfig {
        budget: SchedBudget::unlimited(),
        ..ladder_cfg
    };
    let mut miss = |name: &str, cap: RungCap| {
        time_each(tracer, name, Layer::Core, 3, budget, |i| {
            let mut ladder = AnytimeLadder::new(cold_cfg);
            let t = Instant::now();
            black_box(decide(&mut ladder, i, cap));
            t.elapsed().as_secs_f64()
        })
    };
    let miss_full_s = miss("serve.ladder.miss.full_lp", RungCap::Full);
    let miss_inter_s = miss("serve.ladder.miss.inter_lp", RungCap::InterLp);
    let miss_greedy_s = miss("serve.ladder.miss.greedy", RungCap::Greedy);
    let upgrade_s = time_each(
        tracer,
        "serve.ladder.upgrade",
        Layer::Core,
        3,
        budget,
        |i| {
            let mdl = &models[i % k];
            let mut ladder = AnytimeLadder::new(cold_cfg);
            decide(&mut ladder, i, RungCap::Greedy);
            let t = Instant::now();
            black_box(
                ladder.upgrade(&mdl.graph, &mdl.cost, &alive, 0, |s: &Schedule| {
                    evaluate(&mdl.graph, &mdl.cost, s).map_or(f64::INFINITY, |r| r.latency)
                }),
            );
            t.elapsed().as_secs_f64()
        },
    );

    // The plans the cache serves, simulated under the workload's scaling.
    let plans: Vec<Schedule> = (0..k)
        .map(|i| decide(&mut warm, i, RungCap::Full).schedule)
        .collect();
    let scaling = match kind {
        Kind::FleetSteady => Scaling::identity(GPUS),
        Kind::ServeChurn => {
            let mut s = Scaling::identity(GPUS);
            s.gpu[DRIFT_GPU] = 1.37;
            s
        }
    };
    let sim_s = time_per_call(tracer, "sim.simulate_scaled", Layer::Sim, budget, |i| {
        let mdl = &models[i % k];
        black_box(simulate_scaled(
            &mdl.graph,
            &mdl.cost,
            &plans[i % k],
            &sc.serve_cfg.sim,
            &scaling,
        ))
        .expect("served plans simulate");
    });

    let mut ws = EvalWorkspace::new();
    let repair_s = time_each(
        tracer,
        "core.repair_schedule",
        Layer::Core,
        3,
        budget,
        |i| {
            let mdl = &models[i % k];
            let order = topo_order(&mdl.graph);
            let mut completed = vec![false; mdl.graph.num_ops()];
            for v in &order[..order.len() / 2] {
                completed[v.index()] = true;
            }
            let mut alive = vec![true; GPUS];
            alive[FLAP_GPU] = false;
            let t = Instant::now();
            black_box(repair_schedule(
                &mut ws,
                &mdl.graph,
                &mdl.cost,
                &completed,
                &alive,
                &RepairConfig::new(RepairPolicy::Reschedule),
            ))
            .expect("repair on two survivors");
            t.elapsed().as_secs_f64()
        },
    );

    let clusters = sc.fleet_cfg.clusters.len().max(2);
    let router = Router::new(RouterConfig::default(), clusters).expect("valid fleet size");
    let routable = vec![true; clusters];
    let choose_s = time_per_call(tracer, "serve.router.choose", Layer::Serve, budget, |i| {
        black_box(router.choose((i % k) as u64, &routable, |cl| (cl * 7 + i) % 5));
    });
    let mut health = HealthView::new(HealthConfig::default(), clusters).expect("valid health view");
    let beat_s = time_per_call(
        tracer,
        "serve.health.heartbeat",
        Layer::Serve,
        budget,
        |i| {
            black_box(&mut health).heartbeat(
                i % clusters,
                HealthSample {
                    queue_fill: (i % 10) as f64 / 10.0,
                    miss_rate: Some(0.01),
                    alive_frac: 1.0,
                },
            );
        },
    );

    let dir = store_path("probe");
    std::fs::create_dir_all(&dir).expect("create the probe store directory");
    let open_s = time_each(tracer, "store.open", Layer::Store, 3, budget, |i| {
        let path = dir.join(format!("open{i}.log"));
        let t = Instant::now();
        drop(PlanStore::open(&path, StoreOptions::default()).expect("open a fresh store"));
        let s = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_file(&path);
        s
    });
    let mut store = PlanStore::open(dir.join("plans.log"), StoreOptions::default())
        .expect("open the probe store");
    let key = |i: usize| {
        let mdl = &models[i % k];
        PlanKey::from_cache_key(
            &ScheduleCacheKey::for_platform(&mdl.graph, &alive, &mdl.cost),
            i as u64,
        )
    };
    let mut puts = 0usize;
    let put_s = time_per_call(tracer, "store.put", Layer::Store, budget, |i| {
        store
            .put(key(i), &plans[i % k], 1.0 + i as f64)
            .expect("store put");
        puts = i + 1;
    });
    let get_s = time_per_call(tracer, "store.get", Layer::Store, budget, |i| {
        black_box(store.get(&key(i % puts)));
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let n_ops = models[0].graph.num_ops();
    let mut cal = Calibrator::new(GPUS, n_ops, CalibrationConfig::default());
    let observe_s = time_per_call(
        tracer,
        "cost.calibrator.observe",
        Layer::Cost,
        budget,
        |i| {
            let ratio = 1.0 + 0.01 * (i % 7) as f64;
            black_box(cal.observe(i % GPUS, OpId((i / GPUS % n_ops) as u32), ratio, 1.0))
                .expect("usable observation");
        },
    );
    tracer.end();

    // Attribution of the serving call's host time, per pass.
    let hits = c.rungs[0];
    let decides: f64 = c.rungs.iter().sum();
    let core = fp_s * decides
        + miss_full_s * c.rungs[2]
        + miss_inter_s * c.rungs[3]
        + miss_greedy_s * c.rungs[4]
        + repair_s * c.repairs
        + upgrade_s * c.upgrades;
    let sim = sim_s * (c.attempts + c.calibration_sims);
    let serve = (hit_s - fp_s).max(0.0) * hits
        + choose_s * c.routes
        + beat_s * c.heartbeats
        + c.summarize_s
        + c.digest_s;
    let store = put_s * c.store_puts + get_s * c.store_gets;
    let cost = observe_s * c.observations;

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let values: [(&str, f64); 44] = [
        ("core.fingerprint.us", fp_s * 1e6),
        ("core.fingerprint.calls", decides),
        (
            "core.cache.hit_ratio",
            ratio(c.cache.0, c.cache.0 + c.cache.1),
        ),
        ("core.repair.us", repair_s * 1e6),
        ("serve.repairs", c.repairs),
        ("sim.simulate.us", sim_s * 1e6),
        ("sim.dispatches", c.attempts),
        ("sim.calibration_sims", c.calibration_sims),
        ("serve.ladder.hit.us", hit_s * 1e6),
        ("serve.ladder.miss.full_lp.us", miss_full_s * 1e6),
        ("serve.ladder.miss.inter_lp.us", miss_inter_s * 1e6),
        ("serve.ladder.miss.greedy.us", miss_greedy_s * 1e6),
        ("serve.rungs.cached", c.rungs[0]),
        ("serve.rungs.store", c.rungs[1]),
        ("serve.rungs.full_lp", c.rungs[2]),
        ("serve.rungs.inter_lp", c.rungs[3]),
        ("serve.rungs.greedy", c.rungs[4]),
        ("serve.ladder.upgrade.ms", upgrade_s * 1e3),
        ("serve.upgrades", c.upgrades),
        ("serve.router.choose.us", choose_s * 1e6),
        ("serve.router.calls", c.routes),
        ("serve.health.heartbeat.us", beat_s * 1e6),
        ("serve.health.heartbeats", c.heartbeats),
        ("serve.hedges_issued", c.hedges_issued),
        (
            "serve.hedge.waste_ratio",
            ratio(c.hedge_wasted, c.hedges_issued),
        ),
        ("serve.report.summarize.ms", c.summarize_s * 1e3),
        ("serve.report.digest.ms", c.digest_s * 1e3),
        ("store.open.ms", open_s * 1e3),
        ("store.put.us", put_s * 1e6),
        ("store.get.us", get_s * 1e6),
        ("store.puts", c.store_puts),
        ("store.hit_ratio", ratio(c.store_hits, c.store_gets)),
        ("cost.calibrator.observe.us", observe_s * 1e6),
        ("cost.calibrator.observations", c.observations),
        ("serve.drift_alarms", c.drift_alarms),
        ("serve.cache_invalidations", c.cache_invalidations),
        ("serve.breaker_opens", c.breaker_opens),
        ("serve.goodput_rps", c.goodput_rps),
        ("serve.gold_p99_ms", c.gold_p99_ms),
        ("serve.miss_rate", c.miss_rate),
        ("core.self_s", core),
        ("sim.self_s", sim),
        ("serve.self_s", serve),
        ("store.self_s", store),
    ];
    for (name, v) in values {
        m.set(name, v);
    }
    m.set("cost.self_s", cost);
    m.set(
        "unattributed_s",
        entry_s - (core + sim + serve + store + cost),
    );
}
