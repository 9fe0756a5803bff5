//! Experiment harness for the HIOS reproduction.
//!
//! One module per paper figure under [`experiments`]; the `hios-bench`
//! binary drives them through [`run_experiments`], which writes CSV + a
//! markdown summary under `results/`.  Shared plumbing (tables,
//! statistics, the random-DAG sweep runner, the `BENCH_*.json` writer
//! and its `Headline`) lives in this crate root.

#![warn(missing_docs)]

/// JSON object fields from `(key, value)` pairs, in order; a value is
/// anything serializable (numbers, bools, strings, vectors, `Value`s).
macro_rules! fields {
    ($(($key:expr, $value:expr)),* $(,)?) => {
        vec![$(($key.to_string(), serde::Serialize::to_value(&$value))),*]
    };
}

pub mod experiments;
pub mod table;

pub use table::Table;

use hios_core::{Algorithm, SchedulerOptions, run_scheduler};
use hios_cost::{RandomCostConfig, random_cost_table};
use hios_graph::{LayeredDagConfig, generate_layered_dag};
use rayon::prelude::*;
use serde_json::Value;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Global run configuration.
#[derive(Clone, Debug)]
pub struct RunCfg {
    /// Random instances per data point (paper: 30).
    pub seeds: u64,
    /// Output directory for CSV/markdown artifacts.
    pub out_dir: std::path::PathBuf,
    /// CI smoke mode: experiments that honour it shrink their grid and
    /// repetition counts to seconds of runtime.
    pub smoke: bool,
    /// Debug gate: structurally validate every schedule the experiments
    /// produce (see [`hios_core::Schedule::validate_full`]).
    pub validate: bool,
}

impl Default for RunCfg {
    fn default() -> Self {
        RunCfg {
            seeds: 30,
            out_dir: "results".into(),
            smoke: false,
            validate: false,
        }
    }
}

impl RunCfg {
    /// Where result file `<stem>.<ext>` goes: under `out_dir`, with a
    /// smoke run's files named `<stem>.smoke.<ext>` (git-ignored), so a
    /// smoke run never overwrites the recorded full-run tables.
    pub(crate) fn out_path(&self, stem: &str, ext: &str) -> PathBuf {
        let smoke = if self.smoke { ".smoke" } else { "" };
        self.out_dir.join(format!("{stem}{smoke}.{ext}"))
    }
}

/// Runs `experiments` in order, writing each table's CSV and one
/// combined `summary.md` to [`RunCfg::out_path`], with progress on
/// stderr.
pub fn run_experiments(cfg: &RunCfg, experiments: &[experiments::Experiment]) {
    std::fs::create_dir_all(&cfg.out_dir).expect("create results dir");
    let mut summary = String::from("# HIOS reproduction results\n\n");
    summary.push_str(&format!("seeds per simulation point: {}\n\n", cfg.seeds));
    for (name, run) in experiments {
        let started = std::time::Instant::now();
        eprint!("running {name} ... ");
        let table = run(cfg);
        let csv = cfg.out_path(&table.name, "csv");
        table.write_csv(&csv).expect("write csv");
        eprintln!(
            "done in {:.1}s -> {}",
            started.elapsed().as_secs_f64(),
            csv.display()
        );
        summary.push_str(&table.to_markdown());
    }
    let path = cfg.out_path("summary", "md");
    std::fs::write(&path, summary).expect("write summary");
    eprintln!("wrote {}", path.display());
}

/// The repository root (this crate lives at `crates/hios-bench`).
fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Where [`write_bench_json`] puts experiment `name`'s summary: the
/// committed `BENCH_<name>.json` at the repository root for a full run,
/// the git-ignored `results/<name>.smoke.json` for a smoke run, so smoke
/// runs and tests never overwrite the recorded full-run numbers.
pub(crate) fn bench_json_path(name: &str, smoke: bool) -> PathBuf {
    if smoke {
        repo_root()
            .join("results")
            .join(format!("{name}.smoke.json"))
    } else {
        repo_root().join(format!("BENCH_{name}.json"))
    }
}

/// An experiment's headline: named entries in declaration order, which
/// is also their order in the `BENCH_*.json` file.  Each criterion is
/// declared once, here, with its failure message; [`write_bench_json`]
/// records it and, under `--validate`, enforces it, and unit tests check
/// it by name ([`Headline::assert_holds`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct Headline {
    entries: Vec<(String, Value)>,
    /// `(name, message)` of every failed criterion.
    failures: Vec<(&'static str, String)>,
}

impl Headline {
    /// An empty headline.
    pub(crate) fn new() -> Self {
        Headline::default()
    }

    fn entry(mut self, name: &'static str, value: Value, failure: Option<String>) -> Self {
        self.entries.push((name.to_string(), value));
        if let Some(why) = failure {
            self.failures.push((name, format!("{name}: {why}")));
        }
        self
    }

    /// A pass/fail criterion, recorded as a JSON bool; `why` says what
    /// failing it means.
    pub(crate) fn check(self, name: &'static str, pass: bool, why: impl fmt::Display) -> Self {
        self.entry(name, Value::Bool(pass), (!pass).then(|| why.to_string()))
    }

    /// A plain reported number.
    pub(crate) fn num(self, name: &'static str, value: f64) -> Self {
        self.entry(name, Value::Num(value), None)
    }

    /// A number that must be at least `min`.
    pub(crate) fn at_least(self, name: &'static str, value: f64, min: f64, why: &str) -> Self {
        let failure = (value < min).then(|| format!("{value}, required ≥ {min}: {why}"));
        self.entry(name, Value::Num(value), failure)
    }

    /// A number that must equal `want`.
    pub(crate) fn exactly(self, name: &'static str, value: f64, want: f64, why: &str) -> Self {
        let failure = (value != want).then(|| format!("{value}, required == {want}: {why}"));
        self.entry(name, Value::Num(value), failure)
    }

    /// Panics, naming each failure, unless every criterion in `names`
    /// holds.  Also panics on a name the headline does not declare.
    #[cfg(test)]
    pub(crate) fn assert_holds(&self, names: &[&str]) {
        for name in names {
            let declared = self.entries.iter().any(|(n, _)| n == name);
            assert!(declared, "`{name}` is not in the headline");
        }
        let failed: Vec<&str> = self
            .failures
            .iter()
            .filter(|(n, _)| names.contains(n))
            .map(|(_, msg)| msg.as_str())
            .collect();
        assert!(failed.is_empty(), "{}", failed.join("; "));
    }
}

/// Writes experiment `name`'s machine-readable summary, pretty-printed,
/// to [`bench_json_path`]: the `envelope` fields in order, then
/// `headline`.  Under `--validate` a failed headline criterion fails
/// the run first, naming every failure.
pub(crate) fn write_bench_json(
    name: &str,
    cfg: &RunCfg,
    mut envelope: Vec<(String, Value)>,
    headline: Headline,
) {
    if cfg.validate && !headline.failures.is_empty() {
        let failed: Vec<String> = headline.failures.into_iter().map(|(_, m)| m).collect();
        panic!(
            "{name} headline failed --validate:\n  {}",
            failed.join("\n  ")
        );
    }
    envelope.push(("headline".into(), Value::Object(headline.entries)));
    let path = bench_json_path(name, cfg.smoke);
    let rendered = serde_json::to_string_pretty(&Value::Object(envelope)).expect("JSON rendering");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create the bench output directory");
    }
    std::fs::write(&path, rendered + "\n")
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Mean and sample standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

/// One data point of the simulation study: per-algorithm latency
/// statistics over `seeds` random instances of the given workload
/// (paper §V-A methodology).
#[allow(clippy::too_many_arguments)]
pub fn random_sweep_point(
    ops: usize,
    layers: usize,
    deps: usize,
    p: f64,
    gpus: usize,
    seeds: u64,
    algorithms: &[Algorithm],
) -> HashMap<Algorithm, (f64, f64)> {
    let per_seed: Vec<HashMap<Algorithm, f64>> = (0..seeds)
        .into_par_iter()
        .map(|seed| {
            let g = generate_layered_dag(&LayeredDagConfig {
                ops,
                layers,
                deps,
                seed,
            })
            .expect("feasible workload config");
            let cost = random_cost_table(&g, &RandomCostConfig::paper_default(seed).with_p(p));
            let opts = SchedulerOptions::new(gpus);
            algorithms
                .iter()
                .map(|&a| (a, run_scheduler(a, &g, &cost, &opts).unwrap().latency_ms))
                .collect()
        })
        .collect();
    algorithms
        .iter()
        .map(|&a| {
            let xs: Vec<f64> = per_seed.iter().map(|m| m[&a]).collect();
            (a, mean_std(&xs))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_headline(beats: bool, alarms: f64) -> Headline {
        Headline::new()
            .num("ratio", 0.5)
            .check("beats", beats, "must beat the baseline")
            .at_least("alarms_total", alarms, 1.0, "must alarm")
            .exactly("served", 0.0, 0.0, "must serve nothing")
    }

    #[test]
    fn validate_fails_the_run_naming_every_failed_check() {
        let cfg = RunCfg {
            smoke: true,
            validate: true,
            ..Default::default()
        };
        let name = "headline-selftest";
        let path = bench_json_path(name, true);
        let err = std::panic::catch_unwind(|| {
            write_bench_json(name, &cfg, vec![], sample_headline(false, 0.0))
        })
        .expect_err("a failed check must fail the run");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("beats: must beat the baseline"), "{msg}");
        assert!(msg.contains("alarms_total: 0, required ≥ 1: must alarm"));
        assert!(!msg.contains("served"), "{msg}");
        assert!(!path.exists(), "a failed run writes nothing");
        // Passing criteria write the headline in declaration order.
        write_bench_json(
            name,
            &cfg,
            fields![("experiment", name)],
            sample_headline(true, 3.0),
        );
        let json = std::fs::read_to_string(&path).expect("recorded");
        std::fs::remove_file(&path).expect("clean up");
        let headline = r#""headline": {
    "ratio": 0.5,
    "beats": true,
    "alarms_total": 3,
    "served": 0
  }"#;
        assert!(json.contains(headline), "{json}");
    }

    #[test]
    #[should_panic(expected = "beats: must beat the baseline")]
    fn assert_holds_names_the_failed_criterion() {
        sample_headline(false, 3.0).assert_holds(&["alarms_total", "beats"]);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[3.0]), (3.0, 0.0));
    }

    #[test]
    fn sweep_point_orders_algorithms_correctly() {
        let stats = random_sweep_point(
            60,
            6,
            120,
            0.8,
            4,
            4,
            &[Algorithm::Sequential, Algorithm::HiosLp],
        );
        let seq = stats[&Algorithm::Sequential].0;
        let lp = stats[&Algorithm::HiosLp].0;
        assert!(lp < seq, "HIOS-LP {lp} must beat sequential {seq}");
        assert!(
            stats[&Algorithm::Sequential].1 > 0.0,
            "variance across seeds"
        );
    }
}
