//! Per-query trace events and the ring buffer behind `/debug/last_queries`.
//!
//! A trace id is minted by the client, travels inside the wire frame,
//! and whoever answers the request lists the stages it went through
//! (worker queue wait, retrieval, WAL append/fsync, snapshot publish)
//! in its [`crate::RequestRecord`], which
//! [`crate::Registry::record_request`] copies into the event kept here.
//! The log is a fixed-capacity ring — old queries fall off the back —
//! guarded by a plain mutex: pushes happen once per request, not per
//! sample, so the lock is not on the metric record path.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One completed request, with per-stage durations and counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Client-minted id (or server-assigned when the client sent 0).
    pub trace_id: u64,
    /// Request kind: a [`crate::RequestKind`] name.
    pub kind: &'static str,
    /// Admission → reply, µs.
    pub total_us: u64,
    /// `(stage name, duration µs)` in pipeline order.
    pub stages: Vec<(&'static str, u64)>,
    /// `(counter name, value)` — e.g. matcher rings, candidates.
    pub detail: Vec<(&'static str, u64)>,
}

impl TraceEvent {
    pub fn new(trace_id: u64, kind: &'static str) -> Self {
        Self { trace_id, kind, total_us: 0, stages: Vec::new(), detail: Vec::new() }
    }

    /// Render as a JSON object (hand-rolled; names are static
    /// identifiers, so no escaping is needed).
    pub fn to_json(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(out, "{{\"trace_id\":{},\"kind\":\"{}\",\"total_us\":{}", self.trace_id, self.kind, self.total_us);
        out.push_str(",\"stages\":{");
        for (i, (name, us)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{us}");
        }
        out.push_str("},\"detail\":{");
        for (i, (name, v)) in self.detail.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("}}");
    }
}

/// Fixed-capacity ring of recent [`TraceEvent`]s.
#[derive(Debug)]
pub struct TraceLog {
    cap: usize,
    ring: Mutex<VecDeque<TraceEvent>>,
    next_id: AtomicU64,
}

impl TraceLog {
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            ring: Mutex::new(VecDeque::with_capacity(cap)),
            next_id: AtomicU64::new(1),
        }
    }

    /// Server-side fallback id for requests that arrived without one.
    pub(crate) fn assign_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn push(&self, event: TraceEvent) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Most recent events, newest first.
    pub fn recent(&self) -> Vec<TraceEvent> {
        let ring = self.ring.lock().unwrap();
        ring.iter().rev().cloned().collect()
    }

    /// Render the whole log as a JSON array, newest first.
    pub fn to_json(&self) -> String {
        let events = self.recent();
        let mut out = String::with_capacity(64 + events.len() * 128);
        out.push('[');
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            e.to_json(&mut out);
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let log = TraceLog::new(2);
        for i in 0..3 {
            log.push(TraceEvent::new(i, "query"));
        }
        let recent = log.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].trace_id, 2);
        assert_eq!(recent[1].trace_id, 1);
    }

    #[test]
    fn json_shape() {
        let log = TraceLog::new(4);
        let mut ev = TraceEvent::new(42, "query");
        ev.total_us = 120;
        ev.stages = vec![("queue", 20), ("retrieve", 100)];
        ev.detail = vec![("rings", 3)];
        log.push(ev);
        let json = log.to_json();
        assert!(json.contains("\"trace_id\":42"), "{json}");
        assert!(json.contains("\"retrieve\":100"), "{json}");
        assert!(json.contains("\"rings\":3"), "{json}");
        assert!(json.starts_with('[') && json.ends_with(']'));
    }
}
