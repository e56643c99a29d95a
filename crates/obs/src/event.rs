//! Leveled structured event log.
//!
//! Events are typed records — a static `target` (layer) and `name`
//! plus borrowed key/value fields — emitted through the
//! [`obs_debug!`](crate::obs_debug)/[`obs_info!`](crate::obs_info)/
//! [`obs_warn!`](crate::obs_warn) macros into whatever [`EventSink`]
//! the registry carries. Records borrow everything, so a disabled
//! level allocates nothing and an enabled one allocates only inside
//! the sink.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Event severity. Ordering is `Debug < Info < Warn`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// High-volume diagnostics.
    Debug = 0,
    /// Notable lifecycle events.
    Info = 1,
    /// Something went wrong but the process continues.
    Warn = 2,
}

impl Level {
    /// Uppercase name, padded to 5 columns for text sinks.
    pub fn as_str(&self) -> &'static str {
        match self {
            Level::Debug => "DEBUG",
            Level::Info => "INFO ",
            Level::Warn => "WARN ",
        }
    }
}

/// A typed field value; borrows strings from the call site.
#[derive(Clone, Copy, Debug)]
pub enum FieldValue<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Borrowed string.
    Str(&'a str),
}

impl std::fmt::Display for FieldValue<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! from_impl {
    ($($ty:ty => $variant:ident as $cast:ty),* $(,)?) => {
        $(impl<'a> From<$ty> for FieldValue<'a> {
            fn from(v: $ty) -> FieldValue<'a> {
                FieldValue::$variant(v as $cast)
            }
        })*
    };
}

from_impl!(
    u64 => U64 as u64,
    u32 => U64 as u64,
    u16 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64,
);

impl<'a> From<bool> for FieldValue<'a> {
    fn from(v: bool) -> FieldValue<'a> {
        FieldValue::Bool(v)
    }
}

impl<'a> From<&'a str> for FieldValue<'a> {
    fn from(v: &'a str) -> FieldValue<'a> {
        FieldValue::Str(v)
    }
}

/// One field: static key, borrowed value.
pub type Field<'a> = (&'static str, FieldValue<'a>);

/// A borrowed event record as handed to sinks.
#[derive(Debug)]
pub struct Record<'a> {
    /// Registry clock reading (µs) at emit time.
    pub at_micros: u64,
    /// Severity.
    pub level: Level,
    /// Emitting layer, e.g. `"net"` or `"core"`.
    pub target: &'static str,
    /// Event name, e.g. `"dial_failed"`.
    pub name: &'static str,
    /// Key/value payload.
    pub fields: &'a [Field<'a>],
}

/// Where event records go. Implementations must be cheap to call
/// concurrently (internal locking is their business).
pub trait EventSink: Send + Sync {
    /// Consume one record.
    fn emit(&self, record: &Record<'_>);
}

impl std::fmt::Debug for dyn EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EventSink")
    }
}

/// Human-readable single-line text to stderr:
/// `12.345678s WARN  net/dial_failed addr=127.0.0.1:6881 attempts=3`.
#[derive(Debug, Default)]
pub struct StderrSink;

impl EventSink for StderrSink {
    fn emit(&self, r: &Record<'_>) {
        let mut line = format!(
            "{:>10.6}s {} {}/{}",
            r.at_micros as f64 / 1e6,
            r.level.as_str(),
            r.target,
            r.name
        );
        for (k, v) in r.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        eprintln!("{line}");
    }
}

/// One JSON object per record, appended to a file.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncate) `path` and log into it.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }

    /// Flush buffered records to disk.
    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().unwrap().flush()
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, r: &Record<'_>) {
        let mut line = format!(
            "{{\"t\":{},\"level\":\"{}\",\"target\":\"{}\",\"event\":\"{}\"",
            r.at_micros,
            r.level.as_str().trim_end(),
            r.target,
            r.name
        );
        for (k, v) in r.fields {
            line.push_str(",\"");
            line.push_str(k);
            line.push_str("\":");
            match v {
                FieldValue::Str(s) => {
                    line.push('"');
                    crate::export::escape_json_into(&mut line, s);
                    line.push('"');
                }
                other => line.push_str(&other.to_string()),
            }
        }
        line.push('}');
        let mut out = self.out.lock().unwrap();
        let _ = writeln!(out, "{line}");
    }
}

/// An owned copy of a record, for test assertions.
#[derive(Clone, Debug, PartialEq)]
pub struct OwnedRecord {
    /// Registry clock reading (µs) at emit time.
    pub at_micros: u64,
    /// Severity.
    pub level: Level,
    /// Emitting layer.
    pub target: &'static str,
    /// Event name.
    pub name: &'static str,
    /// Fields rendered to strings.
    pub fields: Vec<(String, String)>,
}

/// Keeps the last `capacity` records in memory; the test sink.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    buf: Mutex<VecDeque<OwnedRecord>>,
}

impl RingSink {
    /// Ring holding at most `capacity` records (oldest evicted first).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// Copy of the retained records, oldest first.
    pub fn records(&self) -> Vec<OwnedRecord> {
        self.buf.lock().unwrap().iter().cloned().collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap().len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for RingSink {
    fn emit(&self, r: &Record<'_>) {
        let mut buf = self.buf.lock().unwrap();
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(OwnedRecord {
            at_micros: r.at_micros,
            level: r.level,
            target: r.target,
            name: r.name,
            fields: r
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering() {
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
    }

    #[test]
    fn field_value_conversions_render() {
        let fields: Vec<FieldValue<'_>> = vec![
            3u64.into(),
            7u32.into(),
            9usize.into(),
            (-4i64).into(),
            true.into(),
            "hi".into(),
        ];
        let rendered: Vec<String> = fields.iter().map(|f| f.to_string()).collect();
        assert_eq!(rendered, vec!["3", "7", "9", "-4", "true", "hi"]);
    }

    #[test]
    fn ring_sink_wraparound_keeps_newest_in_fifo_order() {
        let ring = RingSink::new(4);
        assert!(ring.is_empty());
        for i in 0..11u64 {
            ring.emit(&Record {
                at_micros: i,
                level: Level::Debug,
                target: "t",
                name: "e",
                fields: &[("i", FieldValue::U64(i))],
            });
        }
        // Capacity exceeded almost 3× over: only the newest 4 survive,
        // oldest first.
        assert_eq!(ring.len(), 4);
        let got: Vec<u64> = ring.records().iter().map(|r| r.at_micros).collect();
        assert_eq!(got, vec![7, 8, 9, 10]);
        let fields: Vec<String> = ring
            .records()
            .iter()
            .map(|r| r.fields[0].1.clone())
            .collect();
        assert_eq!(fields, vec!["7", "8", "9", "10"]);
    }

    /// Draining the ring while another thread is still writing must
    /// always observe a consistent FIFO window: at most `capacity`
    /// records, consecutive sequence numbers, oldest first. The lock
    /// makes eviction + push atomic per record, so a reader can never
    /// see a gap or a reordering — only an older or newer window.
    #[test]
    fn ring_sink_wraparound_order_survives_mid_write_drains() {
        use std::sync::{Arc, Barrier};
        let ring = Arc::new(RingSink::new(8));
        let writer_ring = Arc::clone(&ring);
        let total = 10_000u64;
        // Two laps into the ring the writer stops until the reader has
        // drained once, so at least one drain sees a writer that is
        // alive and mid-stream whichever thread the scheduler favours.
        let gate = Arc::new(Barrier::new(2));
        let writer_gate = Arc::clone(&gate);
        let writer = std::thread::spawn(move || {
            for i in 0..total {
                if i == 16 {
                    writer_gate.wait();
                }
                writer_ring.emit(&Record {
                    at_micros: i,
                    level: Level::Debug,
                    target: "t",
                    name: "e",
                    fields: &[("i", FieldValue::U64(i))],
                });
            }
        });
        let mut released = false;
        let mut last_head = 0u64;
        loop {
            let got: Vec<u64> = ring.records().iter().map(|r| r.at_micros).collect();
            assert!(got.len() <= 8, "window larger than capacity: {got:?}");
            for pair in got.windows(2) {
                assert_eq!(
                    pair[1],
                    pair[0] + 1,
                    "gap or reorder inside a drained window: {got:?}"
                );
            }
            if let Some(&head) = got.first() {
                assert!(head >= last_head, "window moved backwards: {got:?}");
                last_head = head;
            }
            if !released {
                gate.wait();
                released = true;
            }
            if writer.is_finished() {
                break;
            }
        }
        writer.join().unwrap();
        // After the writer stops the ring holds exactly the newest 8.
        let got: Vec<u64> = ring.records().iter().map(|r| r.at_micros).collect();
        assert_eq!(got, (total - 8..total).collect::<Vec<u64>>());
    }

    #[test]
    fn ring_sink_zero_capacity_clamps_to_one() {
        let ring = RingSink::new(0);
        for i in 0..3u64 {
            ring.emit(&Record {
                at_micros: i,
                level: Level::Info,
                target: "t",
                name: "e",
                fields: &[],
            });
        }
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.records()[0].at_micros, 2);
    }

    #[test]
    fn jsonl_sink_escapes_newlines_in_string_fields() {
        let dir = std::env::temp_dir().join("bt-obs-test-jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("events-nl-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).unwrap();
        sink.emit(&Record {
            at_micros: 9,
            level: Level::Info,
            target: "t",
            name: "e",
            fields: &[("msg", FieldValue::Str("line1\nline2\t\"q\""))],
        });
        sink.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        // Exactly one physical line despite the embedded newline.
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"msg\":\"line1\\nline2\\t\\\"q\\\"\""));
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join("bt-obs-test-jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("events-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).unwrap();
        sink.emit(&Record {
            at_micros: 5,
            level: Level::Warn,
            target: "net",
            name: "dial_failed",
            fields: &[
                ("addr", FieldValue::Str("127.0.0.1:1\"x\"")),
                ("attempts", FieldValue::U64(3)),
            ],
        });
        sink.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            text.trim(),
            "{\"t\":5,\"level\":\"WARN\",\"target\":\"net\",\"event\":\"dial_failed\",\
             \"addr\":\"127.0.0.1:1\\\"x\\\"\",\"attempts\":3}"
        );
    }
}
