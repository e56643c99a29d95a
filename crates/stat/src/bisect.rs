//! `btstat bisect`: the determinism debugger.
//!
//! When two runs that should be identical report different
//! `SwarmResult::digest()`s, the causal traces are the highest-
//! resolution evidence available: both are emitted in a canonical
//! order (sorted by `(t, cat, id)`, byte-stable line layout), so the
//! *first line where they disagree* is the first observable point of
//! divergence — everything before it is provably identical behaviour.
//! This module walks the two JSONLs in lockstep, compares canonical
//! lines (no parsing on the happy path), and reports that first
//! divergence with both lines and a ±K window of raw lines of context,
//! turning "digest mismatch" from a dead end into a pinpointed event.

use serde_json::Value;

use crate::artifacts::push_json_str;

/// What stands in for a diverging line that is not a JSON object (a
/// truncated file, say): the divergence location is still the answer.
const UNPARSEABLE: &str = "{\"t\":0,\"cat\":\"\",\"name\":\"<unparseable>\",\"id\":0}";

/// `line` itself when it is one JSON object — trace lines are already
/// the canonical objects — and the [`UNPARSEABLE`] stand-in otherwise.
fn event_json(line: &str) -> &str {
    match serde_json::from_str::<Value>(line) {
        Ok(Value::Object(_)) => line,
        _ => UNPARSEABLE,
    }
}

/// The outcome of comparing two trace streams.
#[derive(Clone, Debug, PartialEq)]
pub enum BisectReport {
    /// Every event line matched (and the streams had equal length).
    Identical {
        /// Number of matching events.
        events: usize,
    },
    /// The streams disagree, first at `index`.
    Diverged {
        /// 0-based index of the first differing line.
        index: usize,
        /// Run A's raw line at that index (`None` when A ended first).
        a: Option<String>,
        /// Run B's raw line at that index (`None` when B ended first).
        b: Option<String>,
        /// Up to ±K raw lines of run A around the divergence.
        window_a: Vec<String>,
        /// Up to ±K raw lines of run B around the divergence.
        window_b: Vec<String>,
    },
}

impl BisectReport {
    /// True when the traces matched end to end.
    pub fn is_identical(&self) -> bool {
        matches!(self, BisectReport::Identical { .. })
    }

    /// Render as one JSON document (deterministic).
    pub fn to_json(&self) -> String {
        match self {
            BisectReport::Identical { events } => format!(
                "{{\"schema\":\"btstat-bisect-v1\",\"identical\":true,\"events\":{events},\
                 \"first_divergence\":null}}"
            ),
            BisectReport::Diverged {
                index,
                a,
                b,
                window_a,
                window_b,
            } => {
                let mut out = String::with_capacity(1024);
                out.push_str(&format!(
                    "{{\"schema\":\"btstat-bisect-v1\",\"identical\":false,\"events\":{index},\
                     \"first_divergence\":{{\"index\":{index},\"a\":",
                ));
                push_event(&mut out, a);
                out.push_str(",\"b\":");
                push_event(&mut out, b);
                out.push_str(",\"window_a\":[");
                push_lines(&mut out, window_a);
                out.push_str("],\"window_b\":[");
                push_lines(&mut out, window_b);
                out.push_str("]}}");
                out
            }
        }
    }

    /// Render the human report.
    pub fn render(&self) -> String {
        match self {
            BisectReport::Identical { events } => {
                format!("traces identical ({events} events)\n")
            }
            BisectReport::Diverged {
                index,
                a,
                b,
                window_a,
                window_b,
            } => {
                let mut out = format!("first divergence at event #{index}\n");
                let describe = |tag: &str, line: &Option<String>| {
                    let Some(line) = line else {
                        return format!("  {tag}: <end of trace>\n");
                    };
                    let ev: Value = serde_json::from_str(event_json(line)).expect("an object");
                    let num = |key| ev.get(key).and_then(Value::as_u64).unwrap_or(0);
                    let text = |key| ev.get(key).and_then(Value::as_str).unwrap_or("");
                    format!(
                        "  {tag}: t={} cat={} name={} id={}\n",
                        num("t"),
                        text("cat"),
                        text("name"),
                        num("id")
                    )
                };
                out.push_str(&describe("A", a));
                out.push_str(&describe("B", b));
                out.push_str("  window A:\n");
                for line in window_a {
                    out.push_str(&format!("    {line}\n"));
                }
                out.push_str("  window B:\n");
                for line in window_b {
                    out.push_str(&format!("    {line}\n"));
                }
                out
            }
        }
    }
}

fn push_event(out: &mut String, line: &Option<String>) {
    out.push_str(line.as_deref().map_or("null", event_json));
}

fn push_lines(out: &mut String, lines: &[String]) {
    for (i, line) in lines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, line);
    }
}

/// Compare two trace JSONLs line by line and report the first
/// divergence with up to `window` lines of context on each side.
///
/// Lines are compared as canonical bytes — the tracer's export is
/// deterministic, so any byte difference is a real behavioural
/// difference, and identical runs cost no parsing at all. The two
/// lines at the divergence are embedded in the report as they stand; one
/// that is not a JSON object (truncated file, say) is surfaced as a
/// synthetic `name="<unparseable>"` event rather than an error, because
/// the divergence location is still the answer.
pub fn bisect_traces(a_text: &str, b_text: &str, window: usize) -> BisectReport {
    let a_lines: Vec<&str> = a_text.lines().filter(|l| !l.trim().is_empty()).collect();
    let b_lines: Vec<&str> = b_text.lines().filter(|l| !l.trim().is_empty()).collect();
    let common = a_lines.len().min(b_lines.len());

    let index = (0..common)
        .find(|&i| a_lines[i] != b_lines[i])
        .unwrap_or(common);
    if index == common && a_lines.len() == b_lines.len() {
        return BisectReport::Identical {
            events: a_lines.len(),
        };
    }

    let slice_window = |lines: &[&str]| -> Vec<String> {
        let lo = index.saturating_sub(window);
        let hi = (index + window + 1).min(lines.len());
        lines[lo..hi].iter().map(|l| l.to_string()).collect()
    };

    BisectReport::Diverged {
        index,
        a: a_lines.get(index).map(|l| l.to_string()),
        b: b_lines.get(index).map(|l| l.to_string()),
        window_a: slice_window(&a_lines),
        window_b: slice_window(&b_lines),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(t: u64, name: &str, id: u64) -> String {
        format!("{{\"t\":{t},\"cat\":\"piece\",\"name\":\"{name}\",\"id\":{id}}}")
    }

    fn jsonl(lines: &[String]) -> String {
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }

    #[test]
    fn identical_traces_report_identical() {
        let text = jsonl(&[line(1, "injected", 0), line(2, "first_have", 0)]);
        let report = bisect_traces(&text, &text, 3);
        assert_eq!(report, BisectReport::Identical { events: 2 });
        assert!(report.is_identical());
        assert!(report.to_json().contains("\"identical\":true"));
        assert!(report.to_json().contains("\"first_divergence\":null"));
    }

    #[test]
    fn first_differing_line_is_pinpointed_with_windows() {
        let a = jsonl(&[
            line(1, "injected", 0),
            line(2, "first_have", 0),
            line(3, "rarest_pick", 1),
            line(4, "complete", 1),
        ]);
        let b = jsonl(&[
            line(1, "injected", 0),
            line(2, "first_have", 0),
            line(3, "random_pick", 1),
            line(4, "complete", 1),
        ]);
        let report = bisect_traces(&a, &b, 1);
        let BisectReport::Diverged {
            index,
            a: ea,
            b: eb,
            window_a,
            window_b,
        } = &report
        else {
            panic!("expected divergence");
        };
        assert_eq!(*index, 2);
        assert_eq!(ea.as_deref(), Some(line(3, "rarest_pick", 1).as_str()));
        assert_eq!(eb.as_deref(), Some(line(3, "random_pick", 1).as_str()));
        // ±1 window: events 1..=3.
        assert_eq!(window_a.len(), 3);
        assert!(window_a[0].contains("first_have"));
        assert!(window_b[1].contains("random_pick"));
        let json = report.to_json();
        let parsed: Value = serde_json::from_str(&json).unwrap();
        let div = parsed.get("first_divergence").unwrap();
        assert_eq!(div.get("index").and_then(Value::as_u64), Some(2));
        // The diverging lines are embedded as the objects they are.
        assert!(json.contains(&format!("\"a\":{},\"b\":", line(3, "rarest_pick", 1))));
        assert_eq!(
            div.get("b")
                .and_then(|b| b.get("name"))
                .and_then(Value::as_str),
            Some("random_pick")
        );
        assert!(report.render().contains("event #2"));
        assert!(report
            .render()
            .contains("A: t=3 cat=piece name=rarest_pick id=1"));
    }

    #[test]
    fn prefix_truncation_diverges_at_the_shorter_end() {
        let a = jsonl(&[line(1, "injected", 0), line(2, "first_have", 0)]);
        let b = jsonl(&[line(1, "injected", 0)]);
        let report = bisect_traces(&a, &b, 2);
        let BisectReport::Diverged {
            index,
            a: ea,
            b: eb,
            ..
        } = &report
        else {
            panic!("expected divergence");
        };
        assert_eq!(*index, 1);
        assert!(ea.is_some());
        assert!(eb.is_none());
        assert!(report.to_json().contains("\"b\":null"));
    }

    #[test]
    fn a_line_that_is_not_an_object_gets_the_stand_in_and_windows_are_escaped() {
        let a = jsonl(&[line(1, "injected", 0), "{\"t\":2,\"cat\":\"pie".to_string()]);
        let b = jsonl(&[line(1, "injected", 0), "[\"tab\\there\"]".to_string()]);
        let report = bisect_traces(&a, &b, 1);
        let json = report.to_json();
        let parsed: Value = serde_json::from_str(&json).expect("report stays valid JSON");
        let div = parsed.get("first_divergence").unwrap();
        for side in ["a", "b"] {
            assert_eq!(
                div.get(side)
                    .and_then(|e| e.get("name"))
                    .and_then(Value::as_str),
                Some("<unparseable>")
            );
        }
        let window_b = div.get("window_b").and_then(Value::as_array).unwrap();
        assert_eq!(window_b[1].as_str(), Some("[\"tab\\there\"]"));
        assert!(report
            .render()
            .contains("B: t=0 cat= name=<unparseable> id=0"));
    }

    #[test]
    fn empty_traces_are_identical() {
        assert_eq!(
            bisect_traces("", "\n", 3),
            BisectReport::Identical { events: 0 }
        );
    }
}
