//! Tiny-size runs of every workload, untraced and traced: the result
//! line parses, carries every metric `BENCHMARK.json` names with its
//! unit, and no operation failed.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> (Value, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hios-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.05",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    (
        serde_json::from_str(last).expect("the result line parses"),
        stdout,
    )
}

fn check(workload: &str, trace: bool) {
    let (result, stdout) = run(workload, trace, &[]);
    assert_eq!(result["correct"], Value::Bool(true), "{stdout}");
    assert_eq!(result["failed"], 0u64, "error_rate must be 0:\n{stdout}");
    assert!(result["attempted"].as_u64().unwrap_or(0) >= 1);
    for key in [
        "provenance",
        "host_cores=",
        "rayon_num_threads=",
        "git_commit=",
        "rustc=",
        "smoke=true",
    ] {
        assert!(stdout.contains(key), "provenance lacks {key}:\n{stdout}");
    }
    let wanted = manifest();
    let list = if trace { "per_layer" } else { "end_to_end" };
    let wanted = wanted[list].as_array().expect("metric list");
    let Value::Object(metrics) = &result["metrics"] else {
        panic!("metrics is not an object:\n{stdout}");
    };
    assert_eq!(metrics.len(), wanted.len(), "{workload}: metric count");
    for w in wanted {
        let name = w["name"].as_str().expect("metric name");
        let got = &result["metrics"][name];
        assert_eq!(got["unit"], w["unit"], "{workload}: unit of {name}");
        let v = got["value"].as_f64().unwrap_or(f64::NAN);
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        if !trace {
            assert!(
                v > 0.0,
                "{workload}: end-to-end metric {name} must not be 0"
            );
        }
    }
}

#[test]
fn compile_zoo_emits_every_metric() {
    check("compile-zoo", false);
    check("compile-zoo", true);
}

#[test]
fn fleet_steady_emits_every_metric() {
    check("fleet-steady", false);
    check("fleet-steady", true);
}

#[test]
fn serve_churn_emits_every_metric() {
    check("serve-churn", false);
    check("serve-churn", true);
}

#[test]
fn held_out_mode_draws_other_inputs() {
    let digest = |extra: &[&str]| {
        let (_, stdout) = run("compile-zoo", false, extra);
        stdout
            .lines()
            .find(|l| l.starts_with("history_digest="))
            .expect("a digest line")
            .to_string()
    };
    let plain = digest(&[]);
    assert_eq!(plain, digest(&[]), "same seed, same inputs");
    assert_ne!(plain, digest(&["--held-out"]), "held-out inputs differ");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_hios-perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
