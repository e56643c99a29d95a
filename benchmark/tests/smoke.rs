//! Self-test of the benchmark at its smoke sizes (crowd of 1 000,
//! torrents {2, 19}, 16 MiB) on seed 42, the pinned one: the binary and
//! `BENCHMARK.json` agree on every name, the file is within the
//! contract's limits, a repeated run computes the same thing, a pin
//! that no longer holds fails the run, and `run` and `compare` work end
//! to end.

use bt_benchmark::contract::Contract;
use bt_benchmark::run::{check, result_line, Outcome, RunArgs};
use bt_benchmark::workloads::{pinned, Rep, Sizes, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// What one run of the binary printed, taken apart.
struct Printed {
    /// Metric names on the human-readable lines: what the run measured
    /// itself, before the result line's zero fill.
    produced: Vec<String>,
    /// The `output` line: event counts and digests of the repetitions.
    output: String,
    /// The last line.
    result: String,
}

fn run(workload: &str, trace: u8) -> Printed {
    let out = Command::new(env!("CARGO_BIN_EXE_bt-benchmark"))
        .args(["--workload", workload, "--seed", "42", "--seconds", "0.3"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    Printed {
        produced: lines
            .iter()
            .filter_map(|l| l.strip_prefix("  "))
            .filter_map(|l| l.split_whitespace().next())
            .filter(|name| *name != "failed_share" && *name != "CHECK")
            .map(str::to_owned)
            .collect(),
        output: lines
            .iter()
            .find(|l| l.starts_with("output "))
            .unwrap_or_else(|| panic!("{workload}: no output line"))
            .to_string(),
        result: lines.last().expect("a result line").to_string(),
    }
}

/// Metric names of a result line, with how often each occurs.
fn metric_names(result: &str) -> BTreeMap<String, usize> {
    let doc: serde_json::Value = serde_json::from_str(result).expect("the last line is JSON");
    let serde_json::Value::Object(top) = &doc else {
        panic!("the result is not an object: {result}")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(top["correct"], serde_json::Value::Bool(true), "{result}");
    assert_eq!(top["failed"].as_u64(), Some(0), "{result}");
    assert!(top["attempted"].as_u64() >= Some(1));
    let serde_json::Value::Object(metrics) = &top["metrics"] else {
        panic!("metrics is not an object")
    };
    metrics
        .keys()
        .map(|name| {
            // A parsed object cannot show a repeated key; the text can.
            let quoted = format!("\"{name}\":{{");
            (name.clone(), result.matches(&quoted).count())
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn contract_is_within_its_limits() {
    let c = Contract::load();
    assert!((2..=8).contains(&c.workloads.len()));
    assert!((1..=16).contains(&c.end_to_end.len()));
    assert!((1..=128).contains(&c.per_layer.len()));
    assert!((1..=60).contains(&c.run_seconds));
    assert!(bt_benchmark::contract::BENCHMARK_JSON.len() <= 64 * 1024);

    let mut seen = BTreeSet::new();
    let names = c
        .workloads
        .iter()
        .map(|(name, _)| name)
        .chain(c.end_to_end.iter().chain(&c.per_layer).map(|m| &m.name));
    for name in names {
        assert!(well_formed(name), "malformed name `{name}`");
        assert!(seen.insert(name.clone()), "`{name}` is used twice");
    }
    for (name, why) in &c.workloads {
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{name}: the why is one line of at most 200 characters"
        );
    }
    for m in &c.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    let setup = c.metric("setup_s").expect("setup_s is required");
    assert_eq!(setup.unit, "s");
    assert_eq!(setup.better, bt_benchmark::contract::Better::Lower);
    let widest = c
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    for m in c.end_to_end.iter().chain(&c.per_layer) {
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || "_/%.-".contains(ch)),
            "{}: malformed unit `{}`",
            m.name,
            m.unit
        );
    }
    // The workloads the binary knows are the workloads the file lists.
    let listed: Vec<&str> = c.workloads.iter().map(|(n, _)| n.as_str()).collect();
    let known: Vec<&str> = bt_benchmark::workloads::Workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    assert_eq!(listed, known);
}

#[test]
fn every_named_metric_is_emitted_exactly_once() {
    let c = Contract::load();
    let end_to_end: BTreeSet<&str> = c.end_to_end.iter().map(|m| m.name.as_str()).collect();
    let per_layer: BTreeSet<&str> = c.per_layer.iter().map(|m| m.name.as_str()).collect();
    let mut measured_somewhere = BTreeSet::new();

    for (workload, _) in &c.workloads {
        let plain = run(workload, 0);
        let names = metric_names(&plain.result);
        assert_eq!(
            names.keys().map(String::as_str).collect::<BTreeSet<_>>(),
            end_to_end,
            "{workload}: --trace 0 prints exactly the end-to-end metrics"
        );
        assert!(names.values().all(|&n| n == 1), "{workload}: {names:?}");
        // Every end-to-end metric is measured, none filled in, none 0.
        assert_eq!(
            plain
                .produced
                .iter()
                .map(String::as_str)
                .collect::<BTreeSet<_>>(),
            end_to_end
        );
        assert!(
            !plain.result.contains("\"value\":0}") && !plain.result.contains("\"value\":0,"),
            "{workload}: an end-to-end metric reads 0: {}",
            plain.result
        );

        let traced = run(workload, 1);
        let names = metric_names(&traced.result);
        assert_eq!(
            names.keys().map(String::as_str).collect::<BTreeSet<_>>(),
            per_layer,
            "{workload}: --trace 1 prints exactly the per-layer metrics"
        );
        assert!(names.values().all(|&n| n == 1), "{workload}: {names:?}");
        let mut once = BTreeSet::new();
        for name in &traced.produced {
            assert!(
                per_layer.contains(name.as_str()),
                "{workload}: measured `{name}`, which BENCHMARK.json does not list"
            );
            assert!(once.insert(name), "{workload}: measured `{name}` twice");
        }
        measured_somewhere.extend(traced.produced.iter().cloned());

        // The same seed computes the same thing, traced or not.
        assert_eq!(plain.output, traced.output, "{workload}: outputs differ");
        if workload != "net_bulk" {
            assert_eq!(
                plain.output,
                run(workload, 0).output,
                "{workload}: not repeatable"
            );
        }
    }
    let unmeasured: Vec<&&str> = per_layer
        .iter()
        .filter(|name| !measured_somewhere.contains(**name))
        .collect();
    assert!(
        unmeasured.is_empty(),
        "listed in BENCHMARK.json but measured on no workload: {unmeasured:?}"
    );
}

/// A repetition that computed exactly what is pinned for `workload`.
fn pinned_rep(workload: Workload) -> Rep {
    let pins = pinned(workload, Sizes::SMOKE).expect("the smoke sizes are pinned");
    let mut rep = Rep {
        attempted: 1,
        ..Rep::default()
    };
    for (digest, events) in pins {
        rep.output.digests.push(digest);
        rep.output.events.push(events);
    }
    rep
}

#[test]
fn a_stale_pin_fails_the_run() {
    let contract = Contract::load();
    for workload in [Workload::Table1Serial, Workload::Crowd] {
        let args = RunArgs {
            workload,
            smoke: true,
            seed: 42,
            seconds: 0.0,
            trace: false,
        };
        let good = pinned_rep(workload);
        assert_eq!(
            check(&args, &good, std::slice::from_ref(&good)),
            Vec::<String>::new()
        );

        // The program now computes something else on the pinned seed,
        // reference and repetition alike: only the pin can tell.
        let mut drifted = good.clone();
        drifted.output.digests[0] ^= 1;
        let complaints = check(&args, &drifted, std::slice::from_ref(&drifted));
        assert_eq!(complaints.len(), 1, "{complaints:?}");
        assert!(complaints[0].contains("pinned"), "{complaints:?}");
        let out = Outcome::default().settle(&drifted, complaints);
        assert!(!out.correct);
        assert_eq!((out.attempted, out.failed), (1, 1));
        let line = result_line(&out, &contract, false);
        assert!(line.contains("\"correct\":false"), "{line}");
        assert!(line.contains("\"failed\":1"), "{line}");

        // On any other seed nothing is pinned.
        let other = RunArgs { seed: 7, ..args };
        assert!(check(&other, &drifted, std::slice::from_ref(&drifted)).is_empty());

        // A repetition that departs from the reference fails on any seed.
        let complaints = check(&other, &good, std::slice::from_ref(&drifted));
        assert_eq!(complaints.len(), 1, "{complaints:?}");
        assert!(
            complaints[0].contains("does not reproduce"),
            "{complaints:?}"
        );
    }
}

#[test]
fn run_writes_a_result_file_that_compare_accepts() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let file = dir.join("smoke_run.json");
    let file = file.to_str().expect("a utf-8 path");
    let exe = env!("CARGO_BIN_EXE_bt-benchmark");
    let run = Command::new(exe)
        .args(["run", "--smoke", "--seconds", "0.2", "--out", file])
        .output()
        .expect("the benchmark binary starts");
    assert!(
        run.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&run.stdout)
    );
    let text = std::fs::read_to_string(file).expect("run wrote the result file");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("the result file is JSON");
    let serde_json::Value::Object(top) = &doc else {
        panic!("the result file is not an object")
    };
    let serde_json::Value::Object(machine) = &top["machine"] else {
        panic!("no machine fingerprint")
    };
    for key in [
        "nproc",
        "cpu_model",
        "rustc",
        "governor",
        "commit",
        "seed",
        "jobs",
    ] {
        assert!(machine.contains_key(key), "fingerprint lacks `{key}`");
    }
    let serde_json::Value::Object(workloads) = &top["workloads"] else {
        panic!("no workloads")
    };
    let contract = Contract::load();
    assert_eq!(workloads.len(), contract.workloads.len());

    // A file agrees with itself: nothing regressed, exit 0.
    let same = Command::new(exe)
        .args(["compare", file, file])
        .output()
        .expect("the benchmark binary starts");
    let table = String::from_utf8_lossy(&same.stdout);
    assert!(same.status.success(), "{table}");
    assert!(!table.contains("regressed"), "{table}");

    // Two copies of the file that agree on how steady the wall time is
    // (a fifth-of-a-second run is not) and differ by half in its value:
    // the slower one regresses, exit 1.
    let steady = dir.join("smoke_steady.json");
    let slower = dir.join("smoke_slower.json");
    for (path, scale) in [(&steady, 1.0), (&slower, 1.5)] {
        let mut copy = doc.clone();
        for wall in wall_entries(&mut copy) {
            let value = wall["value"].as_f64().expect("a number") * scale;
            wall.insert("value".to_owned(), serde_json::Value::Float(value));
            wall.insert("spread".to_owned(), serde_json::Value::Float(0.01));
        }
        std::fs::write(
            path,
            serde_json::to_string(&copy).expect("a Value serialises"),
        )
        .expect("the test directory is writable");
    }
    let judged = Command::new(exe)
        .arg("compare")
        .args([&steady, &slower])
        .output()
        .expect("the benchmark binary starts");
    let table = String::from_utf8_lossy(&judged.stdout);
    assert_eq!(judged.status.code(), Some(1), "{table}");
    assert_eq!(
        table.matches("regressed").count(),
        contract.workloads.len(),
        "{table}"
    );
}

/// The `wall_cal_s` entry of every workload of a result file.
fn wall_entries(
    doc: &mut serde_json::Value,
) -> Vec<&mut std::collections::BTreeMap<String, serde_json::Value>> {
    let serde_json::Value::Object(top) = doc else {
        panic!("the result file is not an object")
    };
    let Some(serde_json::Value::Object(workloads)) = top.get_mut("workloads") else {
        panic!("no workloads")
    };
    workloads
        .values_mut()
        .map(|entry| {
            let serde_json::Value::Object(entry) = entry else {
                panic!("a workload entry is not an object")
            };
            let Some(serde_json::Value::Object(metrics)) = entry.get_mut("metrics") else {
                panic!("a workload entry has no metrics")
            };
            let Some(serde_json::Value::Object(wall)) = metrics.get_mut("wall_cal_s") else {
                panic!("a workload entry has no wall_cal_s")
            };
            wall
        })
        .collect()
}
