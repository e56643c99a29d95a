//! `bt-benchmark`: the repo's benchmark.
//!
//! ```text
//! bt-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, as the driver asks
//! bt-benchmark run    [--seed N] [--seconds S] [--out FILE]      every workload
//! bt-benchmark traced [--seed N] [--seconds S] [--out FILE]      every workload, traced
//! bt-benchmark compare A.json B.json                             judge two result files
//! ```
//!
//! `--smoke` shrinks the workloads to the self-test's sizes.

use bt_benchmark::compare::compare;
use bt_benchmark::contract::Contract;
use bt_benchmark::run::{measure, print_human, result_line, RunArgs};
use bt_benchmark::suite::{self, SuiteArgs};
use bt_benchmark::workloads::Workload;
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "usage: bt-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
       bt-benchmark run|traced [--seed N] [--seconds S] [--smoke] [--out FILE]
       bt-benchmark compare A.json B.json";

/// The value after `name`, parsed; `Ok(None)` when the flag is absent.
fn flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let raw = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    raw.parse()
        .map(Some)
        .map_err(|_| format!("{name}: cannot read `{raw}`"))
}

fn seconds(args: &[String], contract: &Contract) -> Result<f64, String> {
    let s = flag::<f64>(args, "--seconds")?.unwrap_or(contract.run_seconds as f64);
    if s.is_finite() && s >= 0.0 {
        Ok(s)
    } else {
        Err(format!("--seconds: `{s}` is not a length of time"))
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let contract = Contract::load();
    let smoke = args.iter().any(|a| a == "--smoke");
    match args.first().map(String::as_str) {
        Some("compare") => match args {
            [_, a, b] => Ok(!compare(a, b, &contract)?),
            _ => Err("compare takes two result files".to_owned()),
        },
        Some(kind @ ("run" | "traced")) => suite::run(&SuiteArgs {
            trace: kind == "traced",
            smoke,
            seed: flag(args, "--seed")?.unwrap_or(42),
            seconds: seconds(args, &contract)?,
            out: flag(args, "--out")?,
        }),
        _ => {
            let name: String =
                flag(args, "--workload")?.ok_or_else(|| "--workload is required".to_owned())?;
            let run = RunArgs {
                workload: Workload::from_name(&name)
                    .ok_or_else(|| format!("--workload: unknown workload `{name}`"))?,
                smoke,
                seed: flag(args, "--seed")?.unwrap_or(42),
                seconds: seconds(args, &contract)?,
                trace: match flag::<u8>(args, "--trace")? {
                    None | Some(0) => false,
                    Some(1) => true,
                    Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
                },
            };
            let out = measure(&run, &contract);
            print_human(&run, &out, &contract);
            if let Some(profile) = &out.profile_json {
                println!("profile {profile}");
            }
            println!("{}", result_line(&out, &contract, run.trace));
            // The driver reads `correct` from the line; the exit code
            // says only that the run itself went through.
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bt-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
