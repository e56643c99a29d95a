//! Snapshot serializers: JSONL (one snapshot per line) and a
//! human-readable summary.
//!
//! Both walk the snapshot's already-sorted entries, so the output
//! is deterministic whenever the snapshot is.

use crate::registry::{metric_key, Snapshot};

/// Append `s` to `out` with JSON string escaping (no surrounding
/// quotes). The one escaper behind every JSON writer in `bt-obs` and
/// the offline reports built on it.
pub fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_key(out: &mut String, name: &str, label: &str) {
    out.push('"');
    escape_json_into(out, name);
    if !label.is_empty() {
        out.push('{');
        escape_json_into(out, label);
        out.push('}');
    }
    out.push_str("\":");
}

impl Snapshot {
    /// Serialize as one JSON object (no trailing newline):
    ///
    /// ```json
    /// {"t":1000,"counters":{"core.inputs.tick":5,"net.bytes_in{peer0}":88},
    ///  "gauges":{"sim.live_peers":4},
    ///  "histograms":{"core.choke_round_us":{"count":3,"sum":42,"p50":10,
    ///    "p95":100,"p99":100,"buckets":[[10,2],[100,1]],"overflow":0}}}
    /// ```
    pub fn to_jsonl_line(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"t\":");
        out.push_str(&self.at_micros.to_string());
        out.push_str(",\"counters\":{");
        for (i, (name, label, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, name, label);
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, label, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, name, label);
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, label, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, name, label);
            out.push_str(&format!(
                "{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
                h.count, h.sum, h.p50, h.p95, h.p99
            ));
            for (j, (le, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{le},{c}]"));
            }
            out.push_str(&format!("],\"overflow\":{}}}", h.overflow));
        }
        out.push_str("}}");
        out
    }
}

/// Multi-line human-readable summary for end-of-run printouts. Labeled
/// counters are aggregated per name; histograms show count and
/// quantiles.
pub fn summary_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!("metrics @ {:.3}s\n", snap.at_micros as f64 / 1e6));
    let mut i = 0;
    while i < snap.counters.len() {
        let name = &snap.counters[i].0;
        let mut total = 0u64;
        let mut labels = 0usize;
        while i < snap.counters.len() && snap.counters[i].0 == *name {
            total += snap.counters[i].2;
            labels += 1;
            i += 1;
        }
        if labels > 1 {
            out.push_str(&format!("  {name} = {total} (over {labels} labels)\n"));
        } else {
            out.push_str(&format!("  {name} = {total}\n"));
        }
    }
    for (name, label, v) in &snap.gauges {
        out.push_str(&format!("  {} = {v}\n", metric_key(name, label)));
    }
    let mut i = 0;
    while i < snap.histograms.len() {
        let name = &snap.histograms[i].0;
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut labels = 0usize;
        let first = i;
        while i < snap.histograms.len() && snap.histograms[i].0 == *name {
            count += snap.histograms[i].2.count;
            sum += snap.histograms[i].2.sum;
            labels += 1;
            i += 1;
        }
        if labels > 1 {
            // Aggregated across labels: quantiles don't merge, so the
            // summary keeps only count and sum (like labeled counters).
            out.push_str(&format!(
                "  {name}: count={count} sum={sum} (over {labels} labels)\n"
            ));
        } else {
            let (_, label, h) = &snap.histograms[first];
            out.push_str(&format!(
                "  {}: count={} p50={} p95={} p99={}\n",
                metric_key(name, label),
                h.count,
                h.p50,
                h.p95,
                h.p99
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{buckets, Registry};
    use crate::time::TimeSource;

    fn sample() -> Snapshot {
        let reg = Registry::new(TimeSource::manual());
        reg.counter("core.inputs.tick").add(5);
        reg.counter_with("net.bytes_in", "peer0").add(88);
        reg.gauge("sim.live_peers").set(4);
        let h = reg.histogram("core.choke_round_us", buckets::LATENCY_US);
        h.observe(5);
        h.observe(5);
        h.observe(60);
        reg.time().advance_to(1000);
        reg.snapshot()
    }

    #[test]
    fn jsonl_is_deterministic_and_wellformed() {
        let line = sample().to_jsonl_line();
        assert_eq!(line, sample().to_jsonl_line());
        assert_eq!(
            line,
            "{\"t\":1000,\"counters\":{\"core.inputs.tick\":5,\"net.bytes_in{peer0}\":88},\
             \"gauges\":{\"sim.live_peers\":4},\
             \"histograms\":{\"core.choke_round_us\":{\"count\":3,\"sum\":70,\
             \"p50\":10,\"p95\":100,\"p99\":100,\"buckets\":[[10,2],[100,1]],\"overflow\":0}}}"
        );
    }

    #[test]
    fn summary_aggregates_labels() {
        let reg = Registry::new(TimeSource::manual());
        reg.counter_with("net.bytes_in", "p0").add(10);
        reg.counter_with("net.bytes_in", "p1").add(20);
        let text = summary_text(&reg.snapshot());
        assert!(text.contains("net.bytes_in = 30 (over 2 labels)"));
    }

    #[test]
    fn summary_aggregates_labeled_histograms() {
        let reg = Registry::new(TimeSource::manual());
        for (label, v) in [("p0", 5u64), ("p0", 60), ("p1", 5)] {
            reg.histogram_with("net.rtt_us", label, buckets::LATENCY_US)
                .observe(v);
        }
        reg.histogram("core.round_us", buckets::LATENCY_US)
            .observe(9);
        let text = summary_text(&reg.snapshot());
        // Labeled histograms collapse to one line, no per-label quantiles.
        assert!(
            text.contains("net.rtt_us: count=3 sum=70 (over 2 labels)"),
            "{text}"
        );
        assert!(!text.contains("net.rtt_us{p0}"), "{text}");
        // Unlabeled histograms keep their quantiles.
        assert!(text.contains("core.round_us: count=1 p50=10"), "{text}");
    }

    #[test]
    fn json_escaping() {
        let mut s = String::new();
        escape_json_into(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn jsonl_escapes_label_values_with_quotes_and_newlines() {
        let reg = Registry::new(TimeSource::manual());
        reg.counter_with("evil", "we\"ird\nlabel\ttab").add(1);
        let line = reg.snapshot().to_jsonl_line();
        // The raw control characters must not survive into the output.
        assert!(!line.contains('\n'));
        assert!(!line.contains('\t'));
        assert!(line.contains("\"evil{we\\\"ird\\nlabel\\ttab}\":1"));
    }

    #[test]
    fn empty_histogram_serializes_without_quantiles() {
        let reg = Registry::new(TimeSource::manual());
        reg.histogram("idle_us", buckets::LATENCY_US);
        let line = reg.snapshot().to_jsonl_line();
        assert!(line.contains(
            "\"idle_us\":{\"count\":0,\"sum\":0,\"p50\":0,\"p95\":0,\"p99\":0,\
             \"buckets\":[],\"overflow\":0}"
        ));
    }
}
