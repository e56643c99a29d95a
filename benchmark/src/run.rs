//! One measured run of one workload — what the driver invokes — and the
//! JSON it prints.
//!
//! Closed loop, one client: a warm-up repetition, after which the
//! process's peak resident set is read; a reference repetition where
//! the workload is checked against another one; then timed repetitions
//! on the same inputs, back to back, until `--seconds` have passed.
//! Every repetition is the same work and must compute what the
//! reference computed.
//!
//! Each timing metric is the median over the repetitions (`setup_s`
//! their minimum, see [`statistic`]). Wall time is reported in
//! calibrated seconds: every repetition's time is divided by the
//! host-speed factor a fixed calibration loop read right before and
//! right after it (see [`crate::calib`] for why and what it buys).

use crate::calib::{calibrated, Calibrator};
use crate::contract::Contract;
use crate::machine;
use crate::stats::{median, summarize};
use crate::traced;
use crate::workloads::{parallel_jobs, pinned, reproduces, run_rep, Output, Rep, Sizes, Workload};
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    /// The self-test's sizes instead of the measured ones.
    pub smoke: bool,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunArgs {
    /// How large the workloads of this run are.
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::STD
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` for every metric the run reports, in contract
    /// order.
    pub metrics: Vec<(String, f64)>,
    /// Per-repetition samples behind each median (end-to-end runs).
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Why `correct` is false, one line per failed check.
    pub complaints: Vec<String>,
    /// The traced run's merged span profile (`bt_obs::Profile::to_json`).
    pub profile_json: Option<String>,
    /// What the repetitions computed (each the same): per-swarm event
    /// counts and digests.
    pub first_output: Output,
}

/// Call `one` until `seconds` have passed, at least once. Every call
/// gets the same inputs, so every repetition is the same work.
pub fn repeat(seconds: f64, mut one: impl FnMut() -> Rep) -> Vec<Rep> {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.is_empty() || start.elapsed() < budget {
        reps.push(one());
    }
    reps
}

/// The output checks every run makes, trace or not: one line per
/// failed check, none when the outputs are correct.
pub fn check(args: &RunArgs, reference: &Rep, reps: &[Rep]) -> Vec<String> {
    let mut complaints = Vec::new();
    let w = args.workload;
    if reference.failed > 0 {
        complaints.push(format!(
            "reference repetition of {} failed {} of {} operations",
            w.reference().name(),
            reference.failed,
            reference.attempted
        ));
    }
    // One seed, one program: every repetition computes what the
    // reference computed, and what the first repetition computed.
    if let Some((i, rep)) = reps
        .iter()
        .enumerate()
        .find(|(_, rep)| !reproduces(w, rep, reference) || rep.output != reps[0].output)
    {
        complaints.push(format!(
            "repetition {i} of {} does not reproduce {} on seed {}: {:x?} vs {:x?}",
            w.name(),
            w.reference().name(),
            args.seed,
            rep.output,
            reference.output
        ));
    }
    if args.seed == 42 {
        if let Some(pins) = pinned(w, args.sizes()) {
            let got: Vec<(u64, u64)> = reps[0]
                .output
                .digests
                .iter()
                .copied()
                .zip(reps[0].output.events.iter().copied())
                .collect();
            if got != pins {
                complaints.push(format!(
                    "{} at seed 42 left the pinned outputs: got {got:x?}, pinned {pins:x?}",
                    w.name()
                ));
            }
        }
    }
    complaints
}

impl Outcome {
    /// Fold the reference repetition and the failed checks into the
    /// counts: a failed check is a failed operation too, so it shows in
    /// `failed_share`, not only in `correct`.
    pub fn settle(mut self, reference: &Rep, complaints: Vec<String>) -> Outcome {
        self.attempted += reference.attempted;
        self.failed += reference.failed + complaints.len() as u64;
        self.complaints = complaints;
        self.correct = self.failed == 0;
        self
    }
}

/// Run one workload as the driver asks and measure it.
pub fn measure(args: &RunArgs, contract: &Contract) -> Outcome {
    let jobs = parallel_jobs();
    let (w, sizes) = (args.workload, args.sizes());
    assert!(
        w.threads(jobs) <= machine::nproc().max(2),
        "a workload never runs more threads than the host has"
    );
    // Warm-up: discarded for timing. The process has run the program
    // once and allocated nothing of the benchmark's own, so its peak
    // resident set now is the program's.
    let warm_up = run_rep(w, sizes, args.seed, jobs, None);
    let peak_rss_mib = machine::peak_rss_mib();
    // What every repetition must reproduce.
    let reference = if w.reference() == w {
        warm_up
    } else {
        run_rep(w.reference(), sizes, args.seed, jobs, None)
    };

    if args.trace {
        let (out, complaints) = traced::measure(args, contract, jobs, &reference);
        return out.settle(&reference, complaints);
    }
    let mut calibrator = Calibrator::new();
    let mut before = calibrator.factor();
    let reps = repeat(args.seconds, || {
        let mut rep = run_rep(w, sizes, args.seed, jobs, None);
        let after = calibrator.factor();
        rep.host_factor = (before + after) / 2.0;
        before = after;
        rep
    });
    let complaints = check(args, &reference, &reps);
    let mut out = end_to_end(&reps, w.threads(jobs), peak_rss_mib, contract);
    out.first_output = reps[0].output.clone();
    out.settle(&reference, complaints)
}

/// The value a run reports for a metric: the median of its samples,
/// except for `setup_s`, which is their minimum. Set-up on the simulator
/// workloads is 2–5 ms of fixed work plus whatever page faults the
/// allocator's state after the last repetition adds — up to three times
/// as much again. Over ten runs the per-run medians of the observed
/// crowd's set-up fell in two groups, 2.4–2.7 ms and 3.8–4.6 ms; the
/// minimum is the work itself, which is what a change that moves work
/// into set-up raises.
fn statistic(name: &str, samples: &[f64]) -> f64 {
    if name == "setup_s" {
        samples.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        median(samples)
    }
}

fn end_to_end(reps: &[Rep], threads: usize, peak_rss_mib: f64, contract: &Contract) -> Outcome {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for rep in reps {
        let mut push = |name: &str, v: f64| samples.entry(name.to_owned()).or_default().push(v);
        // Set-up is one thread computing; the rest of the CPU time is the
        // timed region's, shared among the threads the program computes on.
        let busy_s = (rep.cpu_s - rep.setup_s) / threads as f64;
        let wall_s = rep.wall_s.max(1e-9);
        let calibrated_s = calibrated(wall_s, busy_s, rep.host_factor);
        push("setup_s", rep.setup_s);
        push("wall_cal_s", calibrated_s);
        push("events_per_cal_s", rep.events as f64 / calibrated_s);
        push("host_factor", rep.host_factor);
        push("busy_share", busy_s.clamp(0.0, wall_s) / wall_s);
    }
    // One reading per process, taken after the warm-up repetition.
    samples.insert("peak_rss_mib".to_owned(), vec![peak_rss_mib]);
    Outcome {
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics: contract
            .end_to_end
            .iter()
            .filter_map(|def| {
                Some((
                    def.name.clone(),
                    statistic(&def.name, samples.get(&def.name)?),
                ))
            })
            .collect(),
        samples,
        ..Outcome::default()
    }
}

/// A JSON number; a reading that is no number (0 ÷ 0) prints as 0.
fn number(v: f64) -> Value {
    Value::Float(if v.is_finite() { v } else { 0.0 })
}

/// The one-line JSON object the driver reads: exactly `correct`,
/// `attempted`, `failed` and `metrics`, the metrics being those the
/// contract lists for this kind of run, each with its value and unit.
pub fn result_line(out: &Outcome, contract: &Contract, trace: bool) -> String {
    let defs = if trace {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    let metrics: BTreeMap<String, Value> = defs
        .iter()
        .map(|def| {
            let value = out
                .metrics
                .iter()
                .find(|(name, _)| *name == def.name)
                .map_or(0.0, |(_, v)| *v);
            let entry: BTreeMap<String, Value> = [
                ("value".to_owned(), number(value)),
                ("unit".to_owned(), Value::Str(def.unit.clone())),
            ]
            .into();
            (def.name.clone(), Value::Object(entry))
        })
        .collect();
    let line: BTreeMap<String, Value> = [
        ("correct".to_owned(), Value::Bool(out.correct)),
        ("attempted".to_owned(), Value::PosInt(out.attempted.max(1))),
        ("failed".to_owned(), Value::PosInt(out.failed)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ]
    .into();
    serde_json::to_string(&Value::Object(line)).expect("a Value serialises")
}

/// Print every metric of the run by name with its unit; end-to-end
/// metrics with the median, min, max and n of the samples behind them.
pub fn print_human(args: &RunArgs, out: &Outcome, contract: &Contract) {
    let jobs = parallel_jobs();
    println!(
        "workload {} sizes {} seed {} seconds {} trace {} threads {} (nproc {})",
        args.workload.name(),
        if args.smoke { "smoke" } else { "std" },
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.threads(jobs),
        machine::nproc(),
    );
    for (name, value) in &out.metrics {
        let unit = contract.metric(name).map_or("", |m| m.unit.as_str());
        match out.samples.get(name) {
            Some(samples) => {
                let s = summarize(samples);
                println!(
                    "  {name:<34} {value:>14.6} {unit:<6} median {:.6} min {:.6} max {:.6} n {}",
                    s.median, s.min, s.max, s.n
                );
            }
            None => println!("  {name:<34} {value:>14.6} {unit}"),
        }
    }
    println!(
        "  {:<34} {:>14.6}        failed {} of {} attempted",
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for c in &out.complaints {
        println!("  CHECK FAILED: {c}");
    }
    // How slow the host was, and the share of the wall time that was
    // divided by it.
    if let (Some(factors), Some(busy)) = (
        out.samples.get("host_factor"),
        out.samples.get("busy_share"),
    ) {
        let s = summarize(factors);
        println!(
            "host_factor {:.4} min {:.4} max {:.4} busy_share {:.3}",
            s.median,
            s.min,
            s.max,
            median(busy)
        );
    }
    // Equal between any two runs on one seed, whatever the host did.
    println!(
        "output events={:?} digests={:x?}",
        out.first_output.events, out.first_output.digests
    );
}
