//! `run` and `traced`: every workload, each in its own child process
//! (so peak memory and allocator state are per workload), gathered into
//! one result file.

use crate::contract::get;
use crate::machine;
use crate::stats::summarize;
use crate::workloads::{parallel_jobs, Workload};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

/// The arguments of `run` / `traced`.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub trace: bool,
    pub smoke: bool,
    pub seed: u64,
    pub seconds: f64,
    pub out: Option<String>,
}

/// Child runs per workload, all on `--seed`: a metric's value is the
/// median of the runs' values, and its spread over them is what the
/// host alone does to the same work (A/A), which is what `compare`
/// holds a move against. Three runs of every workload fit the six
/// minutes the whole suite may take.
pub const RUNS: u64 = 3;

fn object(entries: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// What one child run printed, parsed.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Metric name to `(value, unit)`.
    metrics: BTreeMap<String, (f64, String)>,
    profile: Option<Value>,
    /// The `output` line: what the repetitions computed.
    output: String,
    /// The `host_factor` line: how slow the host was (median over the
    /// repetitions); absent from a traced run.
    host_factor: Option<f64>,
}

fn run_child(exe: &std::path::Path, w: Workload, args: &SuiteArgs) -> Result<Child, String> {
    let output = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(args.smoke.then_some("--smoke"))
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut child = Child {
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
        profile: None,
        output: String::new(),
        host_factor: None,
    };
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        if let Some(json) = line.strip_prefix("profile ") {
            child.profile = serde_json::from_str(json).ok();
            continue;
        }
        if let Some(output) = line.strip_prefix("output ") {
            child.output = output.to_owned();
        } else if let Some(factor) = line.strip_prefix("host_factor ") {
            child.host_factor = factor
                .split_whitespace()
                .next()
                .and_then(|f| f.parse().ok());
        }
        println!("{line}");
    }
    let result: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{} exited with {} and no result line ({e})",
            w.name(),
            output.status
        )
    })?;
    child.correct = get(&result, "correct") == Some(&Value::Bool(true));
    child.attempted = get(&result, "attempted")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    child.failed = get(&result, "failed").and_then(Value::as_u64).unwrap_or(0);
    if let Some(Value::Object(metrics)) = get(&result, "metrics") {
        for (name, entry) in metrics {
            let value = get(entry, "value").and_then(Value::as_f64).unwrap_or(0.0);
            let unit = match get(entry, "unit") {
                Some(Value::Str(u)) => u.clone(),
                _ => String::new(),
            };
            child.metrics.insert(name.clone(), (value, unit));
        }
    }
    Ok(child)
}

/// Run the whole suite; returns whether every check passed.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let started = Instant::now();
    // Minutes of measuring should not end in "no such directory".
    if let Some(path) = &args.out {
        std::fs::write(path, "").map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let load_start = machine::warn_if_loaded("start");
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let jobs = parallel_jobs();
    let mut all_correct = true;
    let mut workloads = BTreeMap::new();

    for w in Workload::ALL {
        let children = (0..RUNS)
            .map(|_| run_child(&exe, w, args))
            .collect::<Result<Vec<_>, _>>()?;
        // One seed: every run checked itself, and they must agree.
        let correct = children
            .iter()
            .all(|c| c.correct && c.output == children[0].output);
        all_correct &= correct;
        let attempted: u64 = children.iter().map(|c| c.attempted).sum();
        let failed: u64 = children.iter().map(|c| c.failed).sum();

        let mut metrics = BTreeMap::new();
        println!("{} over {RUNS} runs:", w.name());
        for (name, (_, unit)) in &children[0].metrics {
            let samples: Vec<f64> = children
                .iter()
                .filter_map(|c| c.metrics.get(name).map(|(v, _)| *v))
                .collect();
            let s = summarize(&samples);
            println!(
                "  {name:<34} {:>14.6} {unit:<6} min {:.6} max {:.6} n {} spread {:.2}%",
                s.median,
                s.min,
                s.max,
                s.n,
                s.spread * 100.0
            );
            metrics.insert(
                name.clone(),
                object([
                    ("unit", Value::Str(unit.clone())),
                    ("value", Value::Float(s.median)),
                    ("min", Value::Float(s.min)),
                    ("max", Value::Float(s.max)),
                    ("n", Value::PosInt(s.n as u64)),
                    ("spread", Value::Float(s.spread)),
                    (
                        "samples",
                        Value::Array(samples.into_iter().map(Value::Float).collect()),
                    ),
                ]),
            );
        }
        let entry = object([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::PosInt(attempted)),
            ("failed", Value::PosInt(failed)),
            (
                "failed_share",
                Value::Float(failed as f64 / attempted.max(1) as f64),
            ),
            ("threads", Value::PosInt(w.threads(jobs) as u64)),
            ("output", Value::Str(children[0].output.clone())),
            // Per run: how slow the host was while it was measured.
            (
                "host_factor",
                Value::Array(
                    children
                        .iter()
                        .filter_map(|c| c.host_factor)
                        .map(Value::Float)
                        .collect(),
                ),
            ),
            ("metrics", Value::Object(metrics)),
            // The traced run's merged span profile; null otherwise.
            (
                "profile",
                children
                    .into_iter()
                    .find_map(|c| c.profile)
                    .unwrap_or(Value::Null),
            ),
        ]);
        workloads.insert(w.name().to_owned(), entry);
    }

    let total_s = started.elapsed().as_secs_f64();
    println!(
        "total {total_s:.1} s for {} workloads ({} run(s) of {} s each), at most {} threads on {} hardware threads",
        Workload::ALL.len(),
        RUNS,
        args.seconds,
        Workload::ALL.iter().map(|w| w.threads(jobs)).max().unwrap_or(1),
        machine::nproc()
    );
    machine::warn_if_loaded("end");
    let doc = object([
        ("schema", Value::Str("bt-benchmark-v1".to_owned())),
        (
            "kind",
            Value::Str(if args.trace { "traced" } else { "run" }.to_owned()),
        ),
        ("smoke", Value::Bool(args.smoke)),
        ("run_seconds", Value::Float(args.seconds)),
        ("runs", Value::PosInt(RUNS)),
        ("total_s", Value::Float(total_s)),
        ("machine", machine::fingerprint(args.seed, jobs, load_start)),
        ("workloads", Value::Object(workloads)),
    ]);
    if let Some(path) = &args.out {
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("result written to {path}");
    }
    Ok(all_correct)
}
