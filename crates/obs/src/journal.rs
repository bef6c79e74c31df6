//! Structured lifecycle-event journal: the system's own flight log.
//!
//! Metrics say *how much*, traces say *how long*; the journal says
//! *what happened* — recovery started, a checkpoint landed, the WAL
//! rotated, the server entered read-only, a breaker opened, a scrape
//! missed. Each event is a severity, a dotted code, optional key/value
//! fields, and a trace id when one applies.
//!
//! Storage is two-tier:
//!
//! 1. an in-memory ring of the last N events, served at
//!    `/debug/journal` — the push path takes one atomic ticket plus a
//!    per-slot lock that is only ever contended when a reader is
//!    copying that very slot (lifecycle events are rare: no global
//!    lock, no allocation beyond the event itself);
//! 2. an optional line sink: the server installs a closure appending
//!    the rendered JSONL line to a rotating file over the
//!    fault-injectable `Io` layer. Sink failures are the *sink's*
//!    problem — it counts and drops; the journal never panics and
//!    never blocks an emitter on a dead disk beyond the one failed
//!    write.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{SystemTime, UNIX_EPOCH};

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

    /// Render as a single-line JSON object. Field values are escaped
    /// (they may carry paths or peer addresses); everything else is a
    /// static identifier or a number.
    pub fn to_json(&self, out: &mut String) {
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

/// The line sink: receives each event's rendered JSONL line. The sink
/// owns its error handling (count and drop — never panic).
pub type JournalSink = dyn Fn(&JournalEvent, &str) + Send + Sync;

struct Slot {
    /// `(ticket, event)` — the ticket detects lapped slots on read.
    cell: Mutex<Option<(u64, JournalEvent)>>,
}

/// Fixed-capacity ring of recent [`JournalEvent`]s plus an optional
/// durable line sink.
pub struct Journal {
    cap: usize,
    /// Total events ever emitted; `head % cap` is the next slot.
    head: AtomicU64,
    slots: Box<[Slot]>,
    sink: RwLock<Option<Arc<JournalSink>>>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("cap", &self.cap)
            .field("emitted", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl Journal {
    pub fn new(cap: usize) -> Journal {
        let cap = cap.max(1);
        Journal {
            cap,
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot { cell: Mutex::new(None) }).collect(),
            sink: RwLock::new(None),
        }
    }

    /// Ring capacity (last N events retained in memory).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Install (or with `None`, remove) the durable line sink.
    pub fn set_sink(&self, sink: Option<Arc<JournalSink>>) {
        *self.sink.write().unwrap() = sink;
    }

    /// Record one event: render the line once, store the event in the
    /// ring, hand the line to the sink if one is installed. A poisoned
    /// slot lock (a reader panicked mid-copy) drops the ring store
    /// rather than propagating the panic — the journal must never take
    /// the server down.
    pub fn emit(&self, event: JournalEvent) {
        let mut line = String::with_capacity(96 + event.fields.len() * 32);
        event.to_json(&mut line);
        let sink = self.sink.read().ok().and_then(|s| s.clone());
        if let Some(sink) = sink {
            sink(&event, &line);
        }
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.cap as u64) as usize];
        if let Ok(mut cell) = slot.cell.lock() {
            *cell = Some((ticket, event));
        }
    }

    /// Recent events, newest first. Slots lapped between the head read
    /// and the slot read are skipped.
    pub fn recent(&self) -> Vec<JournalEvent> {
        let head = self.head.load(Ordering::Acquire);
        let oldest = head.saturating_sub(self.cap as u64);
        let mut out = Vec::with_capacity((head - oldest) as usize);
        let mut ticket = head;
        while ticket > oldest {
            ticket -= 1;
            let slot = &self.slots[(ticket % self.cap as u64) as usize];
            let Ok(cell) = slot.cell.lock() else { continue };
            if let Some((t, ev)) = cell.as_ref() {
                if *t == ticket {
                    out.push(ev.clone());
                }
            }
        }
        out
    }

    /// Render the ring as a JSON array, newest first — the body of
    /// `/debug/journal`.
    pub fn to_json(&self) -> String {
        let events = self.recent();
        let mut out = String::with_capacity(64 + events.len() * 128);
        out.push('[');
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            ev.to_json(&mut out);
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn ring_keeps_last_n_newest_first() {
        let j = Journal::new(3);
        for i in 0..5u64 {
            j.emit(JournalEvent::new(Severity::Info, "test.tick").with("i", i));
        }
        let recent = j.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].fields[0].1, "4");
        assert_eq!(recent[2].fields[0].1, "2");
        assert_eq!(j.head.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn json_shape_and_escaping() {
        let j = Journal::new(4);
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
        let j = Journal::new(4);
        let lines = Arc::new(Mutex::new(Vec::<String>::new()));
        let lines2 = lines.clone();
        j.set_sink(Some(Arc::new(move |_ev, line| {
            lines2.lock().unwrap().push(line.to_string());
        })));
        j.emit(JournalEvent::new(Severity::Info, "recovery.start"));
        j.emit(JournalEvent::new(Severity::Info, "recovery.done").with("records", 7));
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"code\":\"recovery.start\""), "{}", lines[0]);
        assert!(lines[1].contains("\"records\":\"7\""), "{}", lines[1]);
        assert!(!lines[1].contains('\n'), "JSONL lines must be single-line");
    }

    #[test]
    fn sink_removal_stops_delivery() {
        let j = Journal::new(4);
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = n.clone();
        j.set_sink(Some(Arc::new(move |_, _| {
            n2.fetch_add(1, Ordering::SeqCst);
        })));
        j.emit(JournalEvent::new(Severity::Info, "a"));
        j.set_sink(None);
        j.emit(JournalEvent::new(Severity::Info, "b"));
        assert_eq!(n.load(Ordering::SeqCst), 1);
        assert_eq!(j.recent().len(), 2, "ring keeps recording without a sink");
    }

    #[test]
    fn concurrent_emitters_and_readers() {
        let j = Arc::new(Journal::new(16));
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
        assert_eq!(j.head.load(Ordering::Relaxed), 800);
        assert_eq!(j.recent().len(), 16);
    }
}
