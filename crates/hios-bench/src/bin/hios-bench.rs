//! CLI driving the figure-regeneration experiments.
//!
//! ```text
//! hios-bench [EXPERIMENT ...] [--seeds N] [--quick] [--smoke] [--validate] [--out DIR]
//! ```
//!
//! With no experiment names, runs everything (fig1..fig14).  `--quick`
//! drops the per-point instance count from the paper's 30 to 8 for a fast
//! smoke run; `--smoke` shrinks grids further for CI.  `--validate`
//! structurally checks every schedule the experiments produce and fails
//! the run on any failed headline criterion.  Results land in
//! `<out>/figNN_*.csv` plus a combined `<out>/summary.md`; a smoke run
//! writes `<out>/*.smoke.csv` and `<out>/summary.smoke.md` instead.

use hios_bench::experiments::{Experiment, all_experiments};
use hios_bench::{RunCfg, run_experiments};

fn main() {
    let mut cfg = RunCfg::default();
    let mut chosen: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                cfg.seeds = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seeds needs a number"));
            }
            "--quick" => cfg.seeds = 8,
            "--smoke" => {
                cfg.smoke = true;
                cfg.seeds = 4;
            }
            "--validate" => cfg.validate = true,
            "--out" => {
                cfg.out_dir = args
                    .next()
                    .unwrap_or_else(|| die("--out needs a directory"))
                    .into();
            }
            "--help" | "-h" => {
                println!(
                    "usage: hios-bench [EXPERIMENT ...] [--seeds N] [--quick] [--smoke] [--validate] [--out DIR]\n\
                     experiments: {}",
                    all_experiments()
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                return;
            }
            name if !name.starts_with('-') => chosen.push(name.to_string()),
            other => die(&format!("unknown flag {other}")),
        }
    }

    let experiments = all_experiments();
    let to_run: Vec<Experiment> = if chosen.is_empty() {
        experiments
    } else {
        chosen
            .iter()
            .map(|c| {
                *experiments
                    .iter()
                    .find(|(n, _)| n == c)
                    .unwrap_or_else(|| die(&format!("unknown experiment `{c}`")))
            })
            .collect()
    };
    run_experiments(&cfg, &to_run);
}

fn die(msg: &str) -> ! {
    eprintln!("hios-bench: {msg}");
    std::process::exit(2);
}
