//! The IBIS benchmark: end-to-end metrics from untraced runs, per-layer
//! metrics from a traced run. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <paper_hdd|scale_512|tenants_chaos|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is 0 only when every
//! output check passed.

mod catalog;
mod outcome;
mod replay;
mod run;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <paper_hdd|scale_512|tenants_chaos|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                workload = Some(Some(w));
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// Removes every `IBIS_*` variable, so nothing ambient can change what a
/// run measures: `ClusterConfig::default()` reads the recorder, metrics,
/// faults, tracing and partition settings from the environment.
fn pin_environment() {
    let ours: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("IBIS_"))
        .collect();
    for k in ours {
        std::env::remove_var(k);
    }
}

/// The commit the benchmark was built from, when its sources sit in a git
/// checkout; `unknown` otherwise. Git may not look above the directory
/// that holds the benchmark.
fn git_rev() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a subdirectory");
    let mut cmd = std::process::Command::new("git");
    cmd.args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null());
    if let Some(ceiling) = root.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", ceiling);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Provenance stamped into the output and the span file.
fn provenance(w: Workload, args: &Args) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("git_rev", git_rev()),
        ("nproc", nproc.to_string()),
        ("profile", profile.to_string()),
        ("workload", w.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ]
}

/// The result line: one JSON object.
fn result_line(m: &run::Measured, correct: bool) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.attempted, m.failed
    );
    for (i, (name, value, unit)) in m.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Runs every workload in a fresh child process each, in order, passing
/// the other arguments through; fails if any child fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    pin_environment();
    let Some(w) = args.workload else {
        return run_all(&args);
    };
    let header = provenance(w, &args);
    let stamp: Vec<String> = header.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("perfbench {}", stamp.join(" "));
    let mut m = if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.json", w.name(), args.seed));
        run::traced(w, args.seed, args.seconds, &path, &header)
    } else {
        run::untraced(w, args.seed, args.seconds)
    };
    for line in &m.notes {
        println!("{line}");
    }
    for (name, value, unit) in &m.metrics {
        println!("{:<44} {value:>20} {unit}", format!("{}/{name}", w.name()));
    }
    let expected: Vec<(String, &str)> = if args.trace {
        catalog::per_layer()
    } else {
        catalog::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let printed: Vec<(String, &str)> = m.metrics.iter().map(|(n, _, u)| (n.clone(), *u)).collect();
    if printed != expected {
        m.failures
            .push("printed metrics differ from the catalogue".to_string());
    }
    for (name, value, _) in m.metrics.iter_mut() {
        if !stats::valid_metric_name(name) {
            m.failures.push(format!("invalid metric name {name:?}"));
        }
        if !value.is_finite() {
            m.failures
                .push(format!("metric {name} is not a finite number"));
            *value = 0.0;
        }
    }
    for f in &m.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = m.failures.is_empty();
    println!("{}", result_line(&m, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
