//! The machine fingerprint written into every result file, and the
//! process-level readings (`VmHWM`, load average) the runs report.

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_owned()
    })
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The 1-minute load average, if `/proc/loadavg` is readable.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process so far, MiB (`VmHWM`); 0 where
/// `/proc/self/status` is missing.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_model() -> Option<String> {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()?
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

/// Warn on stderr (never fail) when the host is busy enough to disturb
/// a measurement: load average above half the hardware threads.
pub fn warn_if_loaded(when: &str) -> Option<f64> {
    let load = load_average()?;
    if load > nproc() as f64 / 2.0 {
        eprintln!(
            "warning: 1-min load average {load:.2} at {when} exceeds nproc/2 = {:.1}; \
             timings will be noisy",
            nproc() as f64 / 2.0
        );
    }
    Some(load)
}

/// Everything needed to judge whether two result files are comparable.
pub fn fingerprint(seed: u64, jobs: usize, load_start: Option<f64>) -> Value {
    let text = |v: Option<String>| Value::Str(v.unwrap_or_else(|| "unknown".to_owned()));
    let number = |v: Option<f64>| v.map_or(Value::Null, Value::Float);
    let mut map = BTreeMap::new();
    map.insert("nproc".to_owned(), Value::PosInt(nproc() as u64));
    map.insert("cpu_model".to_owned(), text(cpu_model()));
    map.insert("rustc".to_owned(), text(first_line_of("rustc", &["-V"])));
    map.insert(
        "governor".to_owned(),
        text(
            std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .ok()
                .map(|s| s.trim().to_owned()),
        ),
    );
    map.insert("load_1m_start".to_owned(), number(load_start));
    map.insert("load_1m_end".to_owned(), number(load_average()));
    map.insert(
        "commit".to_owned(),
        text(first_line_of("git", &["rev-parse", "HEAD"])),
    );
    map.insert("seed".to_owned(), Value::PosInt(seed));
    map.insert("jobs".to_owned(), Value::PosInt(jobs as u64));
    Value::Object(map)
}
