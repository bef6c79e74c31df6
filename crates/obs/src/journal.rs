//! Structured lifecycle-event journal: the system's own flight log.
//!
//! Metrics say *how much*, traces say *how long*; the journal says
//! *what happened* — recovery started, a checkpoint landed, the WAL
//! rotated, the server entered read-only, a breaker opened, a scrape
//! missed. Each event is a severity, a dotted code, optional key/value
//! fields, and a trace id when one applies.
//!
//! The journal is a [`Ring`] of the last 256 events, served at
//! `/debug/journal`. A durable node installs its one sink, a rotating
//! JSONL file next to the WAL (`sinks.rs` in the serving crate); sink
//! failures are the sink's problem — it counts and drops, and the
//! journal never panics or blocks an emitter on a dead disk beyond the
//! one failed write.

use std::time::{SystemTime, UNIX_EPOCH};

use crate::ring::{Entry, Ring};

/// Event severity, ordered: `Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warn,
    Error,
}

impl Severity {
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One lifecycle event. Codes are dotted static identifiers
/// (`"recovery.start"`, `"wal.rotate"`, `"breaker.open"`); field keys
/// are static too, only field *values* are dynamic strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEvent {
    /// Unix milliseconds at construction time.
    pub ts_ms: u64,
    pub severity: Severity,
    pub code: &'static str,
    /// Joins against `/debug/last_queries` and the slow-query log;
    /// 0 when the event is not tied to a request.
    pub trace_id: u64,
    pub fields: Vec<(&'static str, String)>,
}

impl JournalEvent {
    pub fn new(severity: Severity, code: &'static str) -> JournalEvent {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        JournalEvent { ts_ms, severity, code, trace_id: 0, fields: Vec::new() }
    }

    /// Attach one key/value field (builder-style).
    pub fn with(mut self, key: &'static str, value: impl std::fmt::Display) -> JournalEvent {
        self.fields.push((key, value.to_string()));
        self
    }

    pub fn trace(mut self, trace_id: u64) -> JournalEvent {
        self.trace_id = trace_id;
        self
    }
}

impl Entry for JournalEvent {
    /// Render as a single-line JSON object. Field values are escaped
    /// (they may carry paths or peer addresses); everything else is a
    /// static identifier or a number.
    fn to_json(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(
            out,
            "{{\"ts_ms\":{},\"severity\":\"{}\",\"code\":\"{}\"",
            self.ts_ms,
            self.severity.name(),
            self.code
        );
        if self.trace_id != 0 {
            let _ = write!(out, ",\"trace_id\":{}", self.trace_id);
        }
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":\"");
            escape_json_into(v, out);
            out.push('"');
        }
        out.push_str("}}");
    }
}

/// Escape `s` for inclusion inside a JSON string literal.
pub fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl Ring<JournalEvent> {
    /// Record one event.
    pub fn emit(&self, event: JournalEvent) {
        self.push(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn ring_keeps_last_n_newest_first() {
        let j = Ring::new(3);
        for i in 0..5u64 {
            j.emit(JournalEvent::new(Severity::Info, "test.tick").with("i", i));
        }
        let recent = j.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].fields[0].1, "4");
        assert_eq!(recent[2].fields[0].1, "2");
        assert_eq!(j.pushed(), 5);
    }

    #[test]
    fn json_shape_and_escaping() {
        let j = Ring::new(4);
        j.emit(
            JournalEvent::new(Severity::Warn, "wal.read_only_enter")
                .with("reason", "disk \"full\"\nretry")
                .trace(42),
        );
        let json = j.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"severity\":\"warn\""), "{json}");
        assert!(json.contains("\"code\":\"wal.read_only_enter\""), "{json}");
        assert!(json.contains("\"trace_id\":42"), "{json}");
        assert!(json.contains("disk \\\"full\\\"\\nretry"), "{json}");
    }

    #[test]
    fn sink_receives_rendered_lines() {
        let j = Ring::new(4);
        let lines = Arc::new(Mutex::new(Vec::<String>::new()));
        let lines2 = lines.clone();
        assert!(j.set_sink(move |ev: &JournalEvent| {
            let mut line = String::new();
            ev.to_json(&mut line);
            lines2.lock().unwrap().push(line);
        }));
        j.emit(JournalEvent::new(Severity::Info, "recovery.start"));
        j.emit(JournalEvent::new(Severity::Info, "recovery.done").with("records", 7));
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"code\":\"recovery.start\""), "{}", lines[0]);
        assert!(lines[1].contains("\"records\":\"7\""), "{}", lines[1]);
        assert!(!lines[1].contains('\n'), "JSONL lines must be single-line");
    }

    /// A sink installed late first sees what the ring already holds,
    /// oldest first; a ring takes one sink.
    #[test]
    fn a_late_sink_is_backfilled_and_a_second_refused() {
        let j = Ring::new(4);
        j.emit(JournalEvent::new(Severity::Info, "a"));
        j.emit(JournalEvent::new(Severity::Info, "b"));
        let codes = Arc::new(Mutex::new(Vec::new()));
        let codes2 = codes.clone();
        assert!(j.set_sink(move |ev: &JournalEvent| codes2.lock().unwrap().push(ev.code)));
        j.emit(JournalEvent::new(Severity::Info, "c"));
        assert!(!j.set_sink(|_: &JournalEvent| panic!("a second sink must not run")));
        j.emit(JournalEvent::new(Severity::Info, "d"));
        assert_eq!(*codes.lock().unwrap(), ["a", "b", "c", "d"]);
        assert_eq!(j.recent().len(), 4);
    }

    #[test]
    fn concurrent_emitters_and_readers() {
        let j = Arc::new(Ring::new(16));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let j = j.clone();
                s.spawn(move || {
                    for i in 0..200u64 {
                        j.emit(
                            JournalEvent::new(Severity::Info, "test.concurrent")
                                .trace(t * 1000 + i),
                        );
                    }
                });
            }
            let j2 = j.clone();
            s.spawn(move || {
                for _ in 0..100 {
                    for ev in j2.recent() {
                        assert_eq!(ev.code, "test.concurrent");
                    }
                }
            });
        });
        assert_eq!(j.pushed(), 800);
        assert_eq!(j.recent().len(), 16);
    }
}
