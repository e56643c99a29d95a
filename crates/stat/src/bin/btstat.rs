//! `btstat` — offline fleet analytics over `--emit-dir` run artifacts.
//!
//! ```text
//! btstat merge DIR...  [--out fleet.json] [--html fleet.html]
//! btstat diff  A B     [--out diff.json] [--flame-a a.folded] [--flame-b b.folded] [--top N]
//! btstat bisect A B    [--window K] [--out bisect.json]
//! ```
//!
//! Reports go to stdout as JSON; progress and human summaries go to
//! stderr, so `btstat ... | python3 -m json.tool` always works.
//! `bisect` exits 0 whether the traces match or not — a located
//! divergence is a *successful* diagnosis; only missing/invalid inputs
//! exit nonzero. A flag the verb does not know, or one missing its
//! value, exits 2 before any directory is read.

use std::path::Path;
use std::process::ExitCode;

use bt_stat::{attribute, bisect_traces, diff_runs, FleetReport, RunArtifacts};

const USAGE: &str = "usage:
  btstat merge DIR... [--out FILE] [--html FILE]
  btstat diff A B [--out FILE] [--flame-a FILE] [--flame-b FILE] [--top N]
  btstat bisect A B [--window K] [--out FILE]

Each DIR is a run directory written by `swarmrun --emit-dir DIR`
(run.json + metrics.jsonl/series.json/profile.json/trace.jsonl).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("merge") => cmd_merge(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("bisect") => cmd_bisect(&args[1..]),
        Some("--help" | "-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::from(if args.is_empty() { 2 } else { 0 });
        }
        Some(other) => Err(format!("unknown verb `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("btstat: {msg}");
            ExitCode::from(2)
        }
    }
}

/// A verb's command line: its run directories and its `--flag value`
/// pairs.
struct Args<'a> {
    dirs: Vec<&'a str>,
    flags: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Split `args`, accepting only the flags in `known`, each with a
    /// value.
    fn parse(args: &'a [String], known: &[&str]) -> Result<Args<'a>, String> {
        let mut parsed = Args {
            dirs: Vec::new(),
            flags: Vec::new(),
        };
        let mut iter = args.iter().map(String::as_str);
        while let Some(arg) = iter.next() {
            if !arg.starts_with("--") {
                parsed.dirs.push(arg);
            } else if !known.contains(&arg) {
                return Err(format!("unknown flag `{arg}`\n{USAGE}"));
            } else {
                match iter.next() {
                    Some(value) if !value.starts_with("--") => parsed.flags.push((arg, value)),
                    _ => return Err(format!("`{arg}` needs a value\n{USAGE}")),
                }
            }
        }
        Ok(parsed)
    }

    /// Value of `--flag V`, if given.
    fn flag(&self, name: &str) -> Option<&'a str> {
        self.flags.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
    }
}

fn load_run(dir: &str) -> Result<RunArtifacts, String> {
    RunArtifacts::load(Path::new(dir)).map_err(|e| e.to_string())
}

fn emit(out: Option<&str>, body: &str) -> Result<(), String> {
    if let Some(path) = out {
        std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("btstat: wrote {path}");
    }
    println!("{body}");
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, &["--out", "--html"])?;
    let dirs = &args.dirs;
    if dirs.is_empty() {
        return Err(format!("merge needs at least one run directory\n{USAGE}"));
    }
    let runs = dirs
        .iter()
        .map(|d| load_run(d))
        .collect::<Result<Vec<_>, _>>()?;
    let report = FleetReport::merge(runs);
    for v in report.verdicts() {
        eprintln!(
            "btstat: verdict {} {} ({})",
            v.name,
            if v.healthy { "ok" } else { "WARN" },
            v.detail
        );
    }
    if let Some(path) = args.flag("--html") {
        std::fs::write(path, report.to_html()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("btstat: wrote {path}");
    }
    emit(args.flag("--out"), &report.to_json())
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, &["--out", "--flame-a", "--flame-b", "--top"])?;
    let [a_dir, b_dir] = args.dirs.as_slice() else {
        return Err(format!("diff needs exactly two run directories\n{USAGE}"));
    };
    let a = load_run(a_dir)?;
    let b = load_run(b_dir)?;
    let top = args
        .flag("--top")
        .map(|v| v.parse::<usize>().map_err(|_| format!("bad --top `{v}`")))
        .transpose()?
        .unwrap_or(0);

    let empty = Default::default;
    let mut diff = diff_runs(
        a.metrics.as_ref().unwrap_or(&empty()),
        b.metrics.as_ref().unwrap_or(&empty()),
    );
    if let (Some(pa), Some(pb)) = (&a.profile, &b.profile) {
        diff.spans = attribute(pa, pb, top);
    }
    eprint!("{}", diff.render());

    for (flag_name, run) in [("--flame-a", &a), ("--flame-b", &b)] {
        if let Some(path) = args.flag(flag_name) {
            let profile = run
                .profile
                .as_ref()
                .ok_or_else(|| format!("{}: run has no profile.json", run.key()))?;
            std::fs::write(path, profile.to_collapsed()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("btstat: wrote {path} (collapsed stacks for {})", run.key());
        }
    }
    emit(args.flag("--out"), &diff.to_json())
}

fn cmd_bisect(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, &["--window", "--out"])?;
    let [a_dir, b_dir] = args.dirs.as_slice() else {
        return Err(format!("bisect needs exactly two run directories\n{USAGE}"));
    };
    let window = args
        .flag("--window")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| format!("bad --window `{v}`"))
        })
        .transpose()?
        .unwrap_or(3);
    let a = load_run(a_dir)?;
    let b = load_run(b_dir)?;
    let trace = |run: &RunArtifacts, dir: &str| {
        run.trace_jsonl
            .clone()
            .ok_or_else(|| format!("{dir}: no trace.jsonl (re-run with --emit-dir)"))
    };
    let report = bisect_traces(&trace(&a, a_dir)?, &trace(&b, b_dir)?, window);
    eprintln!(
        "btstat: digests {} vs {} — {}",
        a.digest,
        b.digest,
        if report.is_identical() {
            "traces identical"
        } else {
            "traces diverge"
        }
    );
    eprint!("{}", report.render());
    emit(args.flag("--out"), &report.to_json())
}
