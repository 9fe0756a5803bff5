//! `overload`: overload-hardened serving under SLO priority classes and
//! correlated failures (`hios-serve` brownout controller + retry budget
//! + flap-aware breakers).
//!
//! An admit-everything server collapses uniformly under overload: the
//! queue sheds blindly, every class misses together, and a correlated
//! fault turns the retry path into a storm.  This study sweeps load
//! multiplier × fault shape × hardening mode on a shared 3-GPU backend
//! serving two tenant DAGs under a Gold/Silver/Bronze arrival mix:
//!
//! * `brownout` — [`hios_serve::OverloadConfig`] attached: hysteresis
//!   brownout levels (cap the ladder → shed Bronze → Gold only), the
//!   server-global retry budget, and flap-escalating breakers;
//! * `static` — the same server with no overload hardening.
//!
//! The load axis is calibrated, not guessed: a saturating probe trace
//! measures the backend's sustained service rate, and `1x` is pinned at
//! 75% of it (a healthy utilization), so `2x`/`3x` are honest overload
//! multiples on any cost model.  Fault shapes are `none`, a correlated
//! `domain-kill` (one two-GPU host dies mid-run), and `flapping` (a GPU
//! cycling fail/heal on a deterministic duty cycle).
//!
//! A machine-readable summary lands in `BENCH_overload.json` at the
//! repository root; headline fields:
//!
//! * `gold_protected_overloaded` — brownout Gold on-time ≥ static in
//!   **every** cell at ≥ 1.5× load;
//! * `transitions_bounded` — no cell's brownout controller oscillates
//!   (hysteresis + dwell keep the transition count small);
//! * `nominal_identical` — at 1× load with no faults, the attached
//!   controller is bit-identical to the unhardened server;
//! * `deterministic_replay` — the deepest overload cell replays
//!   digest-identically;
//! * `brownout_sheds_total` ≥ 1 — the overloaded cells actually brown
//!   out (the controller must act, not win by accident).
//!
//! `--validate` fails the run on any of these five criteria.

use super::{class_json, nominal, saturated_rate_rps, tenants};
use crate::table::f3;
use crate::{Headline, RunCfg, Table};
use hios_serve::{
    ClassMix, OverloadConfig, PriorityClass, Request, ServeConfig, ServeReport, ServedModel,
    WorkloadConfig, generate_trace_with_classes, serve, trace_span_ms,
};
use hios_sim::{DomainKill, FaultPlan, FaultScript, FlapSpec, host_domains};
use rayon::prelude::*;
use serde_json::Value;

/// GPUs in the shared backend (two on one host, one on its own).
const GPUS: usize = 3;

/// The two tenant models served in every cell.
const TENANTS: &[(u64, usize)] = &[(41, 36), (42, 48)];

/// GPUs per PCIe-switch failure domain.
const GPUS_PER_HOST: usize = 2;

/// Requests per cell.
const REQUESTS: usize = 200;

/// Deadline slack factor over the nominal bound.
const DEADLINE_FACTOR: f64 = 30.0;

/// Transition bound per cell: far below the outcome-event count, so a
/// pass certifies hysteresis, not luck.
const MAX_TRANSITIONS: u64 = 48;

/// One cell of the sweep.
#[derive(Clone, Copy)]
struct CellCfg {
    /// Load multiplier over the calibrated 1x rate.
    mult: f64,
    /// Fault shape name.
    shape: &'static str,
    /// Whether overload hardening is attached.
    harden: bool,
}

/// One cell's outcome.
struct CellOut {
    cfg: CellCfg,
    report: ServeReport,
}

impl CellOut {
    fn to_json(&self) -> Value {
        let r = &self.report;
        Value::Object(fields![
            ("load_mult", self.cfg.mult),
            ("fault", self.cfg.shape),
            ("mode", mode_name(self.cfg.harden)),
            ("completed", r.completed),
            ("on_time", r.on_time),
            ("p99_ms", r.p99_ms),
            ("miss_rate", r.miss_rate),
            ("goodput_rps", r.goodput_rps),
            ("gold", class_json(&r.class_stats, PriorityClass::Gold)),
            ("silver", class_json(&r.class_stats, PriorityClass::Silver)),
            ("bronze", class_json(&r.class_stats, PriorityClass::Bronze)),
            ("shed_queue", r.shed_queue),
            ("shed_brownout", r.shed_brownout),
            ("shed_retry_budget", r.shed_retry_budget),
            ("retry_budget_denied", r.retry_budget_denied),
            ("flap_escalations", r.flap_escalations),
            ("brownout_transitions", r.brownout.transitions),
            ("brownout_max_level", r.brownout.max_level),
            ("brownout_timeline", r.brownout.timeline),
            ("history_digest", format!("{:016x}", r.history_digest)),
        ])
    }
}

fn mode_name(harden: bool) -> &'static str {
    if harden { "brownout" } else { "static" }
}

/// The `1x` load: 75% of the backend's sustained service rate.
fn rate_1x_rps(models: &[ServedModel]) -> f64 {
    0.75 * saturated_rate_rps(models, GPUS, 120, 13)
}

/// The shared class-mixed arrival trace of one load multiplier.
fn trace_for(models: &[ServedModel], rate_rps: f64) -> Vec<Request> {
    generate_trace_with_classes(
        &WorkloadConfig {
            requests: REQUESTS,
            arrival_rate_rps: rate_rps,
            deadline_factor: DEADLINE_FACTOR,
            seed: 17,
        },
        &nominal(models, GPUS),
        &ClassMix::default(),
    )
}

/// The fault plan of a shape, anchored to the trace's arrival span.
fn faults_for(models: &[ServedModel], shape: &'static str, span_ms: f64) -> FaultPlan {
    let script = match shape {
        "none" => return FaultPlan::new(vec![]),
        // One two-GPU host dies mid-run: a correlated loss of 2/3 of
        // the platform in a single instant.
        "domain-kill" => FaultScript {
            domains: host_domains(GPUS, GPUS_PER_HOST),
            kills: vec![DomainKill {
                at_ms: 0.4 * span_ms,
                domain: 0,
            }],
            ..FaultScript::default()
        },
        // The lone-host GPU cycles fail/heal: each up interval outlasts
        // the breaker reset, so every cycle closes the breaker and the
        // re-trip lands inside the flap window — the worst shape for a
        // breaker without flap detection.
        "flapping" => FaultScript {
            flaps: vec![FlapSpec {
                gpu: GPUS - 1,
                first_fail_ms: 0.2 * span_ms,
                down_ms: 6.0,
                up_ms: 30.0,
                cycles: 4,
            }],
            ..FaultScript::default()
        },
        other => panic!("unknown fault shape {other}"),
    };
    script
        .compile(&models[0].graph, GPUS)
        .expect("valid fault script")
}

fn run_cell(models: &[ServedModel], rate_1x: f64, c: CellCfg) -> CellOut {
    let trace = trace_for(models, c.mult * rate_1x);
    let faults = faults_for(models, c.shape, trace_span_ms(&trace));
    let mut cfg = ServeConfig::new(GPUS);
    if c.harden {
        cfg.overload = Some(OverloadConfig::default());
    }
    let out = serve(models, &trace, &faults, &cfg).expect("well-formed serving setup");
    CellOut {
        cfg: c,
        report: out.report,
    }
}

/// The acceptance criteria over the grid.  Cells come in
/// `(brownout, static)` pairs per `(mult, shape)`; `deterministic_replay`
/// says whether the deepest cell replayed digest-identically.
/// `worst_gold_margin` is the worst brownout-vs-static Gold on-time
/// deficit (≥ 0 is good).
fn headline(outs: &[CellOut], deterministic_replay: bool) -> Headline {
    let mut worst_margin = i64::MAX;
    let mut max_transitions = 0u64;
    let mut sheds = 0u64;
    for pair in outs.chunks(2) {
        let [brn, stat] = pair else {
            panic!("cells come in mode pairs");
        };
        debug_assert!(brn.cfg.harden && !stat.cfg.harden);
        max_transitions = max_transitions.max(brn.report.brownout.transitions);
        if brn.cfg.mult < 1.5 {
            continue; // nominal cells are judged by digest identity
        }
        sheds += brn.report.shed_brownout as u64;
        let gold = PriorityClass::Gold.index();
        let margin = brn.report.class_stats[gold].on_time as i64
            - stat.report.class_stats[gold].on_time as i64;
        worst_margin = worst_margin.min(margin);
    }
    if worst_margin == i64::MAX {
        worst_margin = 0; // no overloaded cell
    }
    // Digest identity at nominal load: the attached controller must not
    // perturb a server that never needs it.
    let nominal_pair: Vec<u64> = outs
        .iter()
        .filter(|o| o.cfg.mult == 1.0 && o.cfg.shape == "none")
        .map(|o| o.report.history_digest)
        .collect();
    Headline::new()
        .check(
            "gold_protected_overloaded",
            worst_margin >= 0,
            format!(
                "brownout must keep Gold on-time >= static in every >=1.5x cell \
                 (worst margin {worst_margin})"
            ),
        )
        .check(
            "transitions_bounded",
            max_transitions <= MAX_TRANSITIONS,
            format!(
                "brownout controller oscillated: {max_transitions} transitions > {MAX_TRANSITIONS}"
            ),
        )
        .check(
            "nominal_identical",
            matches!(nominal_pair.as_slice(), [a, b] if a == b),
            "at 1x no-fault the controller must be digest-identical to the static server",
        )
        .check(
            "deterministic_replay",
            deterministic_replay,
            "overload cells must replay bit-identically",
        )
        .num("worst_gold_margin", worst_margin as f64)
        .num("max_transitions", max_transitions as f64)
        .at_least(
            "brownout_sheds_total",
            sheds as f64,
            1.0,
            "overloaded cells must actually brown out",
        )
}

/// The `overload` experiment.
pub fn overload(cfg: &RunCfg) -> Table {
    let models = tenants(TENANTS);
    let rate_1x = rate_1x_rps(&models);
    let (mults, shapes): (&[f64], &[&'static str]) = if cfg.smoke {
        (&[1.0, 2.0], &["none", "domain-kill"])
    } else {
        (&[1.0, 1.5, 2.0, 3.0], &["none", "domain-kill", "flapping"])
    };
    let mut cells: Vec<CellCfg> = Vec::new();
    for &mult in mults {
        for &shape in shapes {
            for harden in [true, false] {
                cells.push(CellCfg {
                    mult,
                    shape,
                    harden,
                });
            }
        }
    }
    let outs: Vec<CellOut> = cells
        .into_par_iter()
        .map(|c| run_cell(&models, rate_1x, c))
        .collect();

    // Deterministic replay of the deepest overload cell.
    let deepest = CellCfg {
        mult: *mults.last().expect("non-empty sweep"),
        shape: shapes[1],
        harden: true,
    };
    let replay_digest = run_cell(&models, rate_1x, deepest).report.history_digest;
    let original_digest = outs
        .iter()
        .find(|o| o.cfg.mult == deepest.mult && o.cfg.shape == deepest.shape && o.cfg.harden)
        .expect("deepest cell ran")
        .report
        .history_digest;
    let deterministic_replay = replay_digest == original_digest;

    let mut t = Table::new(
        "overload",
        "Overload-hardened serving: brownout + retry budget vs an unhardened server",
        &[
            "load",
            "fault",
            "mode",
            "gold_ontime",
            "silver_ontime",
            "bronze_ontime",
            "shed_brn",
            "shed_q",
            "rb_denied",
            "trans",
            "maxlvl",
            "p99_ms",
        ],
    );
    for o in &outs {
        let r = &o.report;
        t.push(vec![
            format!("{:.1}x", o.cfg.mult),
            o.cfg.shape.to_string(),
            mode_name(o.cfg.harden).to_string(),
            r.class_stats[0].on_time.to_string(),
            r.class_stats[1].on_time.to_string(),
            r.class_stats[2].on_time.to_string(),
            r.shed_brownout.to_string(),
            r.shed_queue.to_string(),
            r.retry_budget_denied.to_string(),
            r.brownout.transitions.to_string(),
            r.brownout.max_level.to_string(),
            f3(r.p99_ms),
        ]);
    }

    let points: Vec<Value> = outs.iter().map(CellOut::to_json).collect();
    crate::write_bench_json(
        "overload",
        cfg,
        fields![
            ("experiment", "overload"),
            ("gpus", GPUS),
            ("smoke", cfg.smoke),
            ("rate_1x_rps", rate_1x),
            ("requests_per_cell", REQUESTS),
            ("deadline_factor", DEADLINE_FACTOR),
            ("points", points),
        ],
        headline(&outs, deterministic_replay),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overloaded_cell_browns_out_and_protects_gold() {
        let models = tenants(TENANTS);
        let rate_1x = rate_1x_rps(&models);
        let outs: Vec<CellOut> = [true, false]
            .iter()
            .map(|&harden| {
                run_cell(
                    &models,
                    rate_1x,
                    CellCfg {
                        mult: 2.0,
                        shape: "none",
                        harden,
                    },
                )
            })
            .collect();
        headline(&outs, true).assert_holds(&[
            "gold_protected_overloaded",
            "brownout_sheds_total",
            "transitions_bounded",
        ]);
    }

    #[test]
    fn every_fault_shape_compiles_to_a_valid_plan() {
        let models = tenants(TENANTS);
        for shape in ["none", "domain-kill", "flapping"] {
            faults_for(&models, shape, 300.0);
        }
    }
}
