//! `fleet`: fleet serving with failure-aware routing, cluster failover,
//! and hedged dispatch (`hios-serve::fleet`).
//!
//! Four independent clusters — each its own `hios-sim` platform,
//! breakers, and store-less serve loop — sit behind a router doing
//! per-tenant rendezvous hashing with power-of-two-choices on queue
//! depth, driven by heartbeat-EWMA health.  The sweep crosses router
//! policy × cluster-fault shape on one shared class-mixed trace:
//!
//! * `failover` — health-filtered routing, kill-time queue drain with
//!   deadline-checked re-routing, hedged dispatch for tight-slack Gold;
//! * `static` — the ablation: pure consistent hashing, health-blind, no
//!   failover, no hedging.
//!
//! Fault shapes: `none`, `cluster-kill` (the cluster that is primary
//! for the most tenants dies at half the arrival span), `partition`
//! (the router loses that cluster for 15% of the span), and `degrade`
//! (all its GPUs slow 4× mid-run).  The arrival rate is calibrated: a
//! saturating probe measures one cluster's sustained service rate and
//! the fleet runs at 55% of four clusters' aggregate, so losing one of
//! four leaves survivors under nominal capacity — failover has real
//! headroom, and the ablation's losses are the router's fault alone.
//! Every eighth Gold request carries a tight deadline (under the hedge
//! slack threshold), so hedged dispatch runs against real traffic.
//!
//! A machine-readable summary lands in `BENCH_fleet.json` at the
//! repository root; headline fields:
//!
//! * `gold_goodput_kept` — under the mid-run kill, failover keeps Gold
//!   goodput ≥ 0.95× the fault-free failover run;
//! * `static_strictly_worse` — the static-hash ablation completes
//!   strictly fewer requests on time in every kill cell and loses every
//!   post-kill request routed to the dead cluster;
//! * `zero_lost` — every cell accounts for every request with exactly
//!   one typed disposition;
//! * `deterministic` — the fault-free fleet run is digest-identical
//!   across repetitions and rayon thread counts.
//!
//! `--validate` fails the run on any of these four criteria.

use super::{class_json, nominal, saturated_rate_rps, tenants};
use crate::table::f3;
use crate::{Headline, RunCfg, Table};
use hios_serve::fleet::{FleetConfig, FleetFaults, FleetOutcome, serve_fleet};
use hios_serve::{
    ClassMix, FleetDisposition, FleetReport, FleetShedReason, PriorityClass, Request, Router,
    RouterConfig, RouterPolicy, ServedModel, WorkloadConfig, generate_trace_with_classes,
    trace_span_ms,
};
use hios_sim::{ClusterFaultEvent, ClusterFaultKind};
use rayon::prelude::*;
use serde_json::Value;

/// Clusters in the fleet.
const CLUSTERS: usize = 4;

/// GPUs per cluster.
const GPUS_PER_CLUSTER: usize = 3;

/// Six tenant models: enough to spread over four clusters.
const TENANTS: &[(u64, usize)] = &[(61, 24), (62, 30), (63, 20), (64, 36), (65, 26), (66, 32)];

/// Deadline slack factor over the nominal bound.
const DEADLINE_FACTOR: f64 = 25.0;

/// Every eighth Gold request gets this tight deadline factor instead —
/// under the default hedge threshold (4× the admission bound), so the
/// deadline-critical slice of Gold traffic exercises hedged dispatch.
const TIGHT_FACTOR: f64 = 3.6;

/// Fleet load as a fraction of the four clusters' aggregate calibrated
/// service rate: 55%, so queues are real (kill-time drains have work
/// to re-route) while three survivors still absorb a dead cluster's
/// tenants below saturation.
const LOAD_FRACTION: f64 = 0.55;

/// One cell of the sweep.
#[derive(Clone, Copy)]
struct CellCfg {
    /// Fault shape name.
    shape: &'static str,
    /// Whether the router fails over (vs the static-hash ablation).
    failover: bool,
}

/// One cell's outcome.
struct CellOut {
    cfg: CellCfg,
    report: FleetReport,
    /// Requests in the trace minus records produced (must be 0).
    lost: i64,
    /// For the static kill cell: whether every post-kill request routed
    /// to the dead cluster was lost to it (the ablation's signature).
    static_lost_all_on_dead: Option<bool>,
}

fn policy_name(failover: bool) -> &'static str {
    if failover { "failover" } else { "static" }
}

/// The fleet arrival rate: [`LOAD_FRACTION`] of four clusters'
/// aggregate sustained service rate.
fn arrival_rate_rps(models: &[ServedModel]) -> f64 {
    LOAD_FRACTION * CLUSTERS as f64 * saturated_rate_rps(models, GPUS_PER_CLUSTER, 150, 29)
}

/// Requests in the burst landing exactly at the kill instant.
const BURST: usize = 48;

/// The shared trace: class-mixed Poisson arrivals at the calibrated
/// rate, with two deterministic edits.  Every eighth Gold request's
/// deadline is tightened to [`TIGHT_FACTOR`]× its bound so hedged
/// dispatch has deadline-critical traffic to protect.  And a
/// [`BURST`]-request Bronze burst lands at exactly half the span — the
/// kill instant.  Arrivals beat same-timestamp fault events (insertion
/// order breaks event-queue ties), so the burst is admitted, the kill
/// catches it queued, and the drain's re-route path runs against real
/// backlog instead of whatever the queue happens to hold.
fn build_trace(models: &[ServedModel], requests: usize, rate: f64) -> Vec<Request> {
    let nominal = nominal(models, GPUS_PER_CLUSTER);
    let mut trace = generate_trace_with_classes(
        &WorkloadConfig {
            requests,
            arrival_rate_rps: rate,
            deadline_factor: DEADLINE_FACTOR,
            seed: 31,
        },
        &nominal,
        &ClassMix::default(),
    );
    for r in &mut trace {
        if r.class == PriorityClass::Gold && r.id % 8 == 0 {
            r.deadline_ms = r.arrival_ms + TIGHT_FACTOR * nominal[r.model];
        }
    }
    // The burst sits mid-trace, so the span (last arrival) is unchanged
    // and `0.5 * span` here is bit-identical to the kill time computed
    // in `faults_for`.
    let burst_at = 0.5 * trace_span_ms(&trace);
    let at = trace.partition_point(|r| r.arrival_ms <= burst_at);
    let burst = (0..BURST).map(|i| {
        let model = i % models.len();
        Request {
            id: requests as u64 + i as u64,
            model,
            arrival_ms: burst_at,
            deadline_ms: burst_at + DEADLINE_FACTOR * nominal[model],
            class: PriorityClass::Bronze,
        }
    });
    trace.splice(at..at, burst);
    trace
}

/// The cluster that is the rendezvous primary for the most tenants —
/// the worst single cluster to lose.
fn hottest_cluster(models: &[ServedModel]) -> usize {
    let router = Router::new(RouterConfig::default(), CLUSTERS).expect("valid fleet size");
    let mut tenants_on = [0usize; CLUSTERS];
    for tenant in 0..models.len() {
        tenants_on[router.static_target(tenant as u64)] += 1;
    }
    (0..CLUSTERS)
        .max_by_key(|&c| (tenants_on[c], std::cmp::Reverse(c)))
        .expect("non-empty fleet")
}

/// The cluster-fault script of a shape, anchored to the arrival span.
fn faults_for(shape: &'static str, span_ms: f64, hot: usize) -> FleetFaults {
    let events = match shape {
        "none" => vec![],
        "cluster-kill" => vec![ClusterFaultEvent {
            at_ms: 0.5 * span_ms,
            cluster: hot,
            kind: ClusterFaultKind::ClusterKill,
        }],
        "partition" => vec![ClusterFaultEvent {
            at_ms: 0.35 * span_ms,
            cluster: hot,
            kind: ClusterFaultKind::PartitionRouter {
                heal_ms: 0.15 * span_ms,
            },
        }],
        "degrade" => vec![ClusterFaultEvent {
            at_ms: 0.4 * span_ms,
            cluster: hot,
            kind: ClusterFaultKind::ClusterDegrade { factor: 4.0 },
        }],
        other => panic!("unknown fault shape {other}"),
    };
    FleetFaults {
        per_cluster: Vec::new(),
        cluster_events: events,
    }
}

fn fleet_config(failover: bool) -> FleetConfig {
    let mut cfg = FleetConfig::new(CLUSTERS, GPUS_PER_CLUSTER);
    if !failover {
        cfg.router.policy = RouterPolicy::StaticHash;
        cfg.hedge = None;
    }
    cfg
}

fn run_fleet(
    models: &[ServedModel],
    trace: &[Request],
    shape: &'static str,
    failover: bool,
    hot: usize,
) -> FleetOutcome {
    let faults = faults_for(shape, trace_span_ms(trace), hot);
    serve_fleet(models, trace, &faults, &fleet_config(failover)).expect("well-formed fleet setup")
}

fn run_cell(models: &[ServedModel], trace: &[Request], c: CellCfg, hot: usize) -> CellOut {
    let out = run_fleet(models, trace, c.shape, c.failover, hot);
    let lost = trace.len() as i64 - out.records.len() as i64;
    // The ablation's signature: every post-kill request whose static
    // hash lands on the dead cluster dies with it.
    let static_lost_all_on_dead = (!c.failover && c.shape == "cluster-kill").then(|| {
        let router = Router::new(RouterConfig::default(), CLUSTERS).expect("valid fleet size");
        let kill_ms = 0.5 * trace_span_ms(trace);
        out.records
            .iter()
            .filter(|r| {
                r.request.arrival_ms >= kill_ms
                    && router.static_target(r.request.model as u64) == hot
            })
            .all(|r| {
                matches!(
                    r.disposition.terminal(),
                    FleetDisposition::Shed {
                        reason: FleetShedReason::DeadCluster { .. },
                        ..
                    }
                )
            })
    });
    CellOut {
        cfg: c,
        report: out.report,
        lost,
        static_lost_all_on_dead,
    }
}

impl CellOut {
    fn to_json(&self) -> Value {
        let r = &self.report;
        Value::Object(fields![
            ("fault", self.cfg.shape),
            ("policy", policy_name(self.cfg.failover)),
            ("total", r.total),
            ("completed", r.completed),
            ("on_time", r.on_time),
            ("shed", r.shed),
            ("lost", self.lost),
            ("miss_rate", r.miss_rate),
            ("goodput_rps", r.goodput_rps),
            ("gold", class_json(&r.class_stats, PriorityClass::Gold)),
            ("silver", class_json(&r.class_stats, PriorityClass::Silver)),
            ("bronze", class_json(&r.class_stats, PriorityClass::Bronze)),
            ("rerouted", r.rerouted),
            ("failover_sheds", r.failover_sheds),
            ("dead_cluster_sheds", r.dead_cluster_sheds),
            ("partitioned_sheds", r.partitioned_sheds),
            ("backpressure_sheds", r.backpressure_sheds),
            ("hedges_issued", r.hedges_issued),
            ("hedge_wins_secondary", r.hedge_wins_secondary),
            ("hedge_cancelled", r.hedge_cancelled),
            ("cluster_kills", r.cluster_kills),
            ("partitions", r.partitions),
            ("history_digest", format!("{:016x}", r.history_digest)),
        ])
    }
}

/// The acceptance criteria over the grid.  `gold_goodput_ratio` is the
/// failover Gold goodput under the kill ÷ the fault-free one;
/// `deterministic` says whether the fault-free run replayed
/// digest-identically across repetitions and thread counts.
fn headline(outs: &[CellOut], deterministic: bool) -> Headline {
    let find = |shape: &str, failover: bool| {
        outs.iter()
            .find(|o| o.cfg.shape == shape && o.cfg.failover == failover)
    };
    let baseline = find("none", true).expect("fault-free failover cell");
    let killed = find("cluster-kill", true).expect("kill failover cell");
    let gold = PriorityClass::Gold.index();
    let base_gold = baseline.report.class_stats[gold].goodput_rps;
    let gold_goodput_ratio = if base_gold > 0.0 {
        killed.report.class_stats[gold].goodput_rps / base_gold
    } else {
        0.0
    };

    let mut static_strictly_worse = true;
    for o in outs.iter().filter(|o| !o.cfg.failover) {
        let Some(fo) = find(o.cfg.shape, true) else {
            continue;
        };
        if o.cfg.shape == "cluster-kill" {
            static_strictly_worse &= o.report.on_time < fo.report.on_time;
            static_strictly_worse &= o.report.dead_cluster_sheds > 0;
            static_strictly_worse &= fo.report.dead_cluster_sheds == 0;
            static_strictly_worse &= o.static_lost_all_on_dead == Some(true);
        }
    }

    Headline::new()
        .num("gold_goodput_ratio", gold_goodput_ratio)
        .check(
            "gold_goodput_kept",
            gold_goodput_ratio >= 0.95,
            format!(
                "failover must keep Gold goodput >= 0.95x the no-fault run, got {gold_goodput_ratio:.4}"
            ),
        )
        .check(
            "static_strictly_worse",
            static_strictly_worse,
            "the static-hash ablation must be strictly worse in every kill cell",
        )
        .check(
            "zero_lost",
            outs.iter().all(|o| o.lost == 0),
            "every request must end in exactly one record",
        )
        .check(
            "deterministic",
            deterministic,
            "fault-free fleet run must be digest-identical across reps and thread counts",
        )
}

/// The `fleet` experiment.
pub fn fleet(cfg: &RunCfg) -> Table {
    let models = tenants(TENANTS);
    let rate = arrival_rate_rps(&models);
    let hot = hottest_cluster(&models);
    let requests = if cfg.smoke { 2_000 } else { 100_000 };
    let shapes: &[&'static str] = if cfg.smoke {
        &["none", "cluster-kill"]
    } else {
        &["none", "cluster-kill", "partition", "degrade"]
    };
    let trace = build_trace(&models, requests, rate);

    let mut cells: Vec<CellCfg> = Vec::new();
    for &shape in shapes {
        for failover in [true, false] {
            cells.push(CellCfg { shape, failover });
        }
    }
    let outs: Vec<CellOut> = cells
        .into_par_iter()
        .map(|c| run_cell(&models, &trace, c, hot))
        .collect();

    // Determinism: the fault-free failover run must be digest-identical
    // across repetitions and rayon thread counts.  (Sequential on
    // purpose: RAYON_NUM_THREADS is process-global.)
    let base_digest = outs
        .iter()
        .find(|o| o.cfg.shape == "none" && o.cfg.failover)
        .expect("fault-free failover cell")
        .report
        .history_digest;
    let rep_digest = run_fleet(&models, &trace, "none", true, hot)
        .report
        .history_digest;
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let d1 = run_fleet(&models, &trace, "none", true, hot)
        .report
        .history_digest;
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let d4 = run_fleet(&models, &trace, "none", true, hot)
        .report
        .history_digest;
    std::env::remove_var("RAYON_NUM_THREADS");
    let deterministic = base_digest == rep_digest && base_digest == d1 && base_digest == d4;

    let mut t = Table::new(
        "fleet",
        "Fleet serving: failure-aware routing + failover + hedging vs static hashing",
        &[
            "fault",
            "policy",
            "on_time",
            "shed",
            "gold_ontime",
            "rerouted",
            "fo_sheds",
            "dead_sheds",
            "hedges",
            "hedge_wins",
            "gold_p99_ms",
        ],
    );
    for o in &outs {
        let r = &o.report;
        t.push(vec![
            o.cfg.shape.to_string(),
            policy_name(o.cfg.failover).to_string(),
            r.on_time.to_string(),
            r.shed.to_string(),
            r.class_stats[0].on_time.to_string(),
            r.rerouted.to_string(),
            r.failover_sheds.to_string(),
            r.dead_cluster_sheds.to_string(),
            r.hedges_issued.to_string(),
            r.hedge_wins_secondary.to_string(),
            f3(r.class_stats[0].p99_ms),
        ]);
    }

    let points: Vec<Value> = outs.iter().map(CellOut::to_json).collect();
    crate::write_bench_json(
        "fleet",
        cfg,
        fields![
            ("experiment", "fleet"),
            ("clusters", CLUSTERS),
            ("gpus_per_cluster", GPUS_PER_CLUSTER),
            ("smoke", cfg.smoke),
            ("requests", requests),
            ("rate_rps", rate),
            ("load_fraction", LOAD_FRACTION),
            ("deadline_factor", DEADLINE_FACTOR),
            ("killed_cluster", hot),
            ("points", points),
        ],
        headline(&outs, deterministic),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_cell_headlines_hold_at_small_scale() {
        let models = tenants(TENANTS);
        let rate = arrival_rate_rps(&models);
        let hot = hottest_cluster(&models);
        let trace = build_trace(&models, 1_200, rate);
        let outs: Vec<CellOut> = [
            ("none", true),
            ("none", false),
            ("cluster-kill", true),
            ("cluster-kill", false),
        ]
        .iter()
        .map(|&(shape, failover)| run_cell(&models, &trace, CellCfg { shape, failover }, hot))
        .collect();
        headline(&outs, true).assert_holds(&[
            "zero_lost",
            "static_strictly_worse",
            "gold_goodput_kept",
        ]);
    }

    #[test]
    fn every_fault_shape_builds_a_valid_script() {
        for shape in ["none", "cluster-kill", "partition", "degrade"] {
            let f = faults_for(shape, 500.0, 1);
            hios_sim::validate_cluster_events(&f.cluster_events, CLUSTERS).unwrap();
        }
    }
}
