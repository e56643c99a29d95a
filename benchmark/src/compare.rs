//! `compare A B`: judge two result files metric by metric.
//!
//! Metrics with a bound (the end-to-end ones) get a verdict; metrics
//! without (the per-layer ones) are ranked by how far they moved, so a
//! moved headline names its layer.

use crate::contract::{get, Better, Contract};
use serde_json::Value;

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The spread between the file's own samples is wider than the
    /// bound, so a move of the size of the bound could not be seen.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B's median against A's. `worse` is how much worse B is than A
/// as a share of A (negative when better). A metric whose spread
/// exceeds its bound is unresolved; otherwise it regressed when worse
/// by more than the bound, improved when better by more than the spread
/// (and by more than nothing), and is unchanged in between.
pub fn judge(a: f64, b: f64, better: Better, bound: f64, spread: f64) -> (f64, Verdict) {
    let worse = if a == 0.0 {
        match (b == 0.0, better) {
            (true, _) => 0.0,
            // From zero, any move is a whole one.
            (false, Better::Lower) => 1.0,
            (false, Better::Higher) => -1.0,
        }
    } else {
        match better {
            Better::Lower => (b - a) / a.abs(),
            Better::Higher => (a - b) / a.abs(),
        }
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < 0.0 && -worse > spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

fn number(v: &Value, key: &str) -> f64 {
    get(v, key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not a result file: {e}"))
}

/// Compare result files `a` and `b`, print both tables, and return
/// whether any pair regressed.
pub fn compare(path_a: &str, path_b: &str, contract: &Contract) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for key in ["smoke", "run_seconds"] {
        if get(&a, key) != get(&b, key) {
            return Err(format!(
                "{path_a} and {path_b} differ in `{key}`: not comparable"
            ));
        }
    }
    for (label, doc) in [("A", &a), ("B", &b)] {
        let m = get(doc, "machine");
        let text = |key: &str| match m.and_then(|m| get(m, key)) {
            Some(Value::Str(s)) => s.clone(),
            Some(other) => serde_json::to_string(other).unwrap_or_default(),
            None => "?".to_owned(),
        };
        println!(
            "{label}: commit {} seed {} nproc {} cpu {} load {}..{}",
            text("commit"),
            text("seed"),
            text("nproc"),
            text("cpu_model"),
            text("load_1m_start"),
            text("load_1m_end"),
        );
    }

    let seed = |doc: &Value| get(doc, "machine").and_then(|m| get(m, "seed")).cloned();
    let same_seed = seed(&a) == seed(&b);

    println!(
        "\n{:<18} {:<16} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse%", "spread%", "bound%"
    );
    let mut regressed = false;
    let mut moved: Vec<(f64, String)> = Vec::new();
    for (workload, _) in &contract.workloads {
        let (Some(wa), Some(wb)) = (
            get(&a, "workloads").and_then(|w| get(w, workload)),
            get(&b, "workloads").and_then(|w| get(w, workload)),
        ) else {
            continue;
        };
        // Any rise in the share of failed operations regresses.
        let (fa, fb) = (number(wa, "failed_share"), number(wb, "failed_share"));
        let row =
            |metric: &str, ma: f64, mb: f64, worse: f64, spread: f64, bound: f64, v: Verdict| {
                println!(
                    "{workload:<18} {metric:<16} {ma:>14.6} {mb:>14.6} {:>8.2} {:>8.2} {:>7.1}  {}",
                    worse * 100.0,
                    spread * 100.0,
                    bound * 100.0,
                    v.name()
                );
                v == Verdict::Regressed
            };
        let (worse, verdict) = judge(fa, fb, Better::Lower, 0.0, 0.0);
        regressed |= row("failed_share", fa, fb, worse, 0.0, 0.0, verdict);
        // One seed, one program: event counts and digests must agree.
        if same_seed && get(wa, "output") != get(wb, "output") {
            regressed = true;
            println!(
                "{workload:<18} output differs: A {:?} B {:?}",
                get(wa, "output"),
                get(wb, "output")
            );
        }

        let (Some(Value::Object(ma)), Some(mb)) = (get(wa, "metrics"), get(wb, "metrics")) else {
            continue;
        };
        for (name, entry_a) in ma {
            let (Some(def), Some(entry_b)) = (contract.metric(name), get(mb, name)) else {
                continue;
            };
            let (va, vb) = (number(entry_a, "value"), number(entry_b, "value"));
            let spread = number(entry_a, "spread").max(number(entry_b, "spread"));
            match def.bound {
                Some(bound) => {
                    let (worse, verdict) = judge(va, vb, def.better, bound, spread);
                    regressed |= row(name, va, vb, worse, spread, bound, verdict);
                }
                None => {
                    let (worse, _) = judge(va, vb, def.better, f64::INFINITY, 0.0);
                    if worse != 0.0 {
                        moved.push((
                            worse,
                            format!(
                                "{workload:<18} {name:<36} {va:>14.6} {vb:>14.6} {:>8.2}  {}",
                                worse * 100.0,
                                def.unit
                            ),
                        ));
                    }
                }
            }
        }
    }

    if !moved.is_empty() {
        // Largest move first, whichever way: the layer behind a moved
        // headline is near the top.
        moved.sort_by(|x, y| y.0.abs().total_cmp(&x.0.abs()));
        println!(
            "\nper-layer metrics by size of move\n{:<18} {:<36} {:>14} {:>14} {:>8}  unit",
            "workload", "metric", "A", "B", "worse%"
        );
        for (_, line) in moved.iter().take(40) {
            println!("{line}");
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let v = |a, b, better, bound, spread| judge(a, b, better, bound, spread).1;
        assert_eq!(v(1.0, 1.2, Better::Lower, 0.1, 0.02), Verdict::Regressed);
        assert_eq!(v(1.0, 0.8, Better::Higher, 0.1, 0.02), Verdict::Regressed);
        assert_eq!(v(1.0, 1.05, Better::Lower, 0.1, 0.02), Verdict::Unchanged);
        assert_eq!(v(1.0, 0.9, Better::Lower, 0.1, 0.02), Verdict::Improved);
        assert_eq!(v(1.0, 0.99, Better::Lower, 0.1, 0.02), Verdict::Unchanged);
        assert_eq!(v(1.0, 1.2, Better::Lower, 0.1, 0.15), Verdict::Unresolved);
        // failed_share: bound 0, any increase regresses, none does not.
        assert_eq!(v(0.0, 0.0, Better::Lower, 0.0, 0.0), Verdict::Unchanged);
        assert_eq!(v(0.0, 0.01, Better::Lower, 0.0, 0.0), Verdict::Regressed);
    }
}
