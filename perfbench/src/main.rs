//! The repository benchmark: end-to-end and per-layer timings of the
//! HIOS workspace, measured from outside the crates by timing calls
//! into their public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile-zoo|fleet-steady|serve-churn> --seed <n> \
//!     --seconds <s> --trace <0|1> [--smoke] [--held-out]
//! ```
//!
//! Earlier lines of standard output are human-readable (provenance,
//! digest, notes); the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.  `--trace 0` reports the
//! end-to-end metrics from untraced passes; `--trace 1` reports the
//! per-layer metrics from a traced run and writes its spans as a
//! Chrome trace under `perfbench/out/`.  Any failed operation or
//! correctness check makes the exit code 1.

mod hostref;
mod serving;
mod tracer;
mod zoo;

use hostref::HostClock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use tracer::{Tracer, json_str, median};

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 3] = ["compile-zoo", "fleet-steady", "serve-churn"];

/// End-to-end metrics with units, reported by every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("bound_ratio", "ratio"),
    ("met_share", "ratio"),
];

/// Per-layer metrics with units, reported by every workload's traced
/// run (0 where the workload does not exercise the layer).
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for inst in zoo::INSTANCES {
        for (_, a) in zoo::ALGOS {
            for g in zoo::GPUS {
                v.push((format!("core.{a}.{inst}.m{g}.ms"), "ms"));
            }
        }
    }
    let fixed: [(&str, &'static str); 55] = [
        ("sched_ms_p50", "ms"),
        ("sched_ms_p90", "ms"),
        ("sched.calls", "count"),
        ("core.eval.us", "us"),
        ("core.fingerprint.us", "us"),
        ("core.fingerprint.calls", "count"),
        ("core.cache.hit_ratio", "ratio"),
        ("core.repair.us", "us"),
        ("serve.repairs", "count"),
        ("sim.simulate.us", "us"),
        ("sim.dispatches", "count"),
        ("sim.calibration_sims", "count"),
        ("serve.ladder.hit.us", "us"),
        ("serve.ladder.miss.full_lp.us", "us"),
        ("serve.ladder.miss.inter_lp.us", "us"),
        ("serve.ladder.miss.greedy.us", "us"),
        ("serve.rungs.cached", "count"),
        ("serve.rungs.store", "count"),
        ("serve.rungs.full_lp", "count"),
        ("serve.rungs.inter_lp", "count"),
        ("serve.rungs.greedy", "count"),
        ("serve.ladder.upgrade.ms", "ms"),
        ("serve.upgrades", "count"),
        ("serve.router.choose.us", "us"),
        ("serve.router.calls", "count"),
        ("serve.health.heartbeat.us", "us"),
        ("serve.health.heartbeats", "count"),
        ("serve.hedges_issued", "count"),
        ("serve.hedge.waste_ratio", "ratio"),
        ("serve.report.summarize.ms", "ms"),
        ("serve.report.digest.ms", "ms"),
        ("serve.trace.generate.ms", "ms"),
        ("cost.build_table.ms", "ms"),
        ("store.open.ms", "ms"),
        ("store.put.us", "us"),
        ("store.get.us", "us"),
        ("store.puts", "count"),
        ("store.hit_ratio", "ratio"),
        ("cost.calibrator.observe.us", "us"),
        ("cost.calibrator.observations", "count"),
        ("serve.drift_alarms", "count"),
        ("serve.cache_invalidations", "count"),
        ("serve.breaker_opens", "count"),
        ("serve.goodput_rps", "req/s"),
        ("serve.gold_p99_ms", "ms"),
        ("serve.miss_rate", "ratio"),
        ("core.self_s", "s"),
        ("sim.self_s", "s"),
        ("serve.self_s", "s"),
        ("store.self_s", "s"),
        ("cost.self_s", "s"),
        ("unattributed_s", "s"),
        ("traced.wall_s", "s"),
        ("untraced.wall_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ];
    v.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

/// Command-line arguments.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub held_out: bool,
}

impl RunArgs {
    fn parse() -> Result<RunArgs, String> {
        let mut it = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut smoke, mut held_out) = (false, false);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    seconds = Some(
                        value()?
                            .parse::<f64>()
                            .map_err(|e| format!("--seconds: {e}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    })
                }
                "--smoke" => smoke = true,
                "--held-out" => held_out = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        let seed = seed.ok_or("--seed is required")?;
        Ok(RunArgs {
            workload,
            // The held-out mode runs the same workload on inputs derived
            // from a second seed that no plain `--seed n` run produces.
            seed: if held_out {
                mix64(seed ^ 0x4e1d_0075_5eed)
            } else {
                seed
            },
            seconds,
            trace: trace.unwrap_or(false),
            smoke,
            held_out,
        })
    }
}

/// Named per-layer values.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Runs `build` once: the build and its host seconds.
pub fn timed_build<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let built = build();
    (built, t.elapsed().as_secs_f64())
}

/// Host measurements of one run.  Times are host seconds scaled to the
/// reference host speed ([`hostref`]), except `untraced_raw`.
pub struct Passes {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
    /// Unscaled host seconds of the untraced passes, for the log.
    pub untraced_raw: Vec<f64>,
    /// Seconds of every set-up: the first, then the rebuilds between
    /// passes.
    pub setup: Vec<f64>,
    /// Seconds of every host-speed reference sample.
    pub reference: Vec<f64>,
    /// `VmHWM` after set-up and the first pass, MB.
    pub peak_rss_mb: f64,
}

/// Runs timed passes for `args.seconds`: untraced ones only, or, in a
/// traced run, untraced and traced passes alternately (so the tracing
/// overhead is measured under the same conditions).  `pass` times its
/// work with the [`HostClock`] it is given, one block or several; its
/// checks run outside those blocks.
///
/// After each pass, outside its time, `rebuild` sets the workload up
/// again and returns the seconds that took, until the rebuilds have
/// taken 2% of the pass (at least three).  So the set-up median samples
/// the host over the whole run, as the passes do.  Each set-up is scaled
/// by the reference sample taken before it.  Peak memory is read after
/// the first pass: later passes repeat the same work, and only the
/// allocator's fragmentation would move it.
pub fn run_passes(
    args: &RunArgs,
    tracer: &mut Tracer,
    first_setup_s: f64,
    mut rebuild: impl FnMut() -> f64,
    mut pass: impl FnMut(&mut Tracer, &mut HostClock, usize),
) -> Passes {
    let (min_passes, min_rebuilds) = if args.smoke { (1, 1) } else { (3, 3) };
    let mut clock = HostClock::new();
    let mut out = Passes {
        untraced: Vec::new(),
        traced: Vec::new(),
        untraced_raw: Vec::new(),
        setup: vec![first_setup_s * clock.scale_now()],
        reference: Vec::new(),
        peak_rss_mb: f64::NAN,
    };
    let started = Instant::now();
    let mut i = 0;
    loop {
        let traced = args.trace && i % 2 == 1;
        tracer.set_enabled(traced);
        if i > 0 {
            clock.resample();
        }
        pass(tracer, &mut clock, i);
        let (raw, scaled) = clock.take();
        if i == 0 {
            out.peak_rss_mb = peak_rss_mb();
        }
        if traced {
            out.traced.push(scaled);
        } else {
            out.untraced.push(scaled);
            out.untraced_raw.push(raw);
        }
        clock.resample();
        let (mut spent, mut reps) = (0.0, 0);
        while reps < min_rebuilds || spent < 0.02 * raw {
            let s = rebuild();
            out.setup.push(s * clock.scale_now());
            spent += s;
            reps += 1;
        }
        i += 1;
        let enough = out.untraced.len() >= min_passes && (!args.trace || !out.traced.is_empty());
        if enough && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    tracer.set_enabled(args.trace);
    out.reference = clock.samples;
    out
}

/// What one workload run produced.
pub struct Outcome {
    /// Checked operations (plans, or served requests summed over passes).
    pub attempted: u64,
    /// Operations that returned `Err` or failed a check.
    pub failed: u64,
    /// History digest of the first pass.
    pub digest: u64,
    /// Whether every pass of the run produced the same digest.
    pub digest_stable: bool,
    pub passes: Passes,
    /// Plans or requests per pass.
    pub work_per_pass: f64,
    /// Virtual: geometric mean of latency ÷ provable lower bound.
    pub bound_ratio: f64,
    /// Virtual: share of work that met its target.
    pub met_share: f64,
    /// Per-layer metrics (traced runs).
    pub layer: Metrics,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

/// FNV-1a over u64 words, for the benchmark's own digests.
pub mod fnv {
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    pub fn eat(h: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

/// splitmix64 finalizer: derives independent sub-seeds from `--seed`.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Directory for traces and temporary plan stores, inside the package.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// First line of `cmd args` on standard output, run from the checkout
/// root, or "unknown".  Git does not look for a repository above that
/// root, so outside a git checkout the commit is "unknown".
fn command_line(cmd: &str, args: &[&str]) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    std::process::Command::new(cmd)
        .args(args)
        .current_dir(&root)
        .env("GIT_CEILING_DIRECTORIES", root.join(".."))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &RunArgs) -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("held_out", args.held_out.to_string()),
        ("smoke", args.smoke.to_string()),
        ("trace", args.trace.to_string()),
        ("seconds", args.seconds.to_string()),
        ("host_cores", cores.to_string()),
        (
            "rayon_num_threads",
            std::env::var("RAYON_NUM_THREADS").unwrap_or_default(),
        ),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
        ("rustc", command_line("rustc", &["--version"])),
    ]
}

/// Caps the load at one process of `RAYON_NUM_THREADS` ≤ host cores;
/// unset, it runs single-threaded, which keeps host times steady on a
/// shared machine.
fn pin_threads() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let asked = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok());
    let threads = match asked {
        Some(n) if (1..=cores).contains(&n) => n,
        Some(_) => cores,
        None => 1,
    };
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
}

fn main() -> ExitCode {
    let args = match RunArgs::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    pin_threads();
    let prov = provenance(&args);
    let mut tracer = Tracer::new(args.trace);
    let out = match args.workload.as_str() {
        "compile-zoo" => zoo::run(&args, &mut tracer),
        "fleet-steady" => serving::run(serving::Kind::FleetSteady, &args, &mut tracer),
        "serve-churn" => serving::run(serving::Kind::ServeChurn, &args, &mut tracer),
        _ => unreachable!("workload names are checked by RunArgs::parse"),
    };

    let mut line = String::from("provenance");
    for (k, v) in &prov {
        let _ = write!(line, " {k}={v}");
    }
    println!("{line}");
    for n in &out.notes {
        println!("{n}");
    }
    println!(
        "history_digest={:016x} stable_across_passes={}",
        out.digest, out.digest_stable
    );
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "error_rate={error_rate} ({} of {} failed)",
        out.failed, out.attempted
    );

    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    if args.trace {
        let traced = median(&out.passes.traced);
        let untraced = median(&out.passes.untraced);
        let mut layer = out.layer;
        layer.set("traced.wall_s", traced);
        layer.set("untraced.wall_s", untraced);
        layer.set("trace.overhead_ratio", traced / untraced);
        for (name, unit) in per_layer_metrics() {
            let v = layer.get(&name);
            metrics.push((name, unit, v));
        }
        let smoke = if args.smoke { "-smoke" } else { "" };
        let path = out_dir().join(format!("trace-{}{smoke}.json", args.workload));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, tracer.chrome_trace(&prov)));
        match written {
            Ok(()) => println!(
                "chrome trace: {} ({} spans)",
                path.display(),
                tracer.spans().len()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    } else {
        let u = &out.passes.untraced;
        let values = [
            median(&out.passes.setup),
            out.work_per_pass / median(u),
            out.passes.peak_rss_mb,
            out.bound_ratio,
            out.met_share,
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), unit, v));
        }
        let raw = &out.passes.untraced_raw;
        println!(
            "untraced passes: {}, median {} s scaled to the reference host speed, {} s unscaled \
             (unscaled host seconds per pass: {raw:?}); set-ups: {}; reference samples: median {} s, \
             nominal {} s",
            u.len(),
            median(u),
            median(raw),
            out.passes.setup.len(),
            median(&out.passes.reference),
            hostref::NOMINAL_S
        );
    }

    let correct =
        out.failed == 0 && out.digest_stable && metrics.iter().all(|(_, _, v)| v.is_finite());
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        // A non-finite value already makes the run incorrect; `null`
        // keeps the line parseable.
        let value = if v.is_finite() {
            v.to_string()
        } else {
            "null".into()
        };
        let _ = write!(
            json,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
