//! One finished request, described once, and the one ring that keeps
//! the last 256 of them.
//!
//! Whoever answers a request — a node's read worker, its writer, the
//! cluster router — fills one [`RequestRecord`] and hands it to
//! [`Registry::record_request`], which copies it into the registry's
//! request ring: the body of `/debug/last_queries` and of the crash
//! dump. What else the answerer reports about the request (the reply's
//! stage trailer, its latency sample, a slow-query line) it reads off the
//! same record, and every JSON view of a request is
//! [`RequestRecord::to_json`] — a slow-query line is its
//! [head](RequestRecord::to_json_head) plus one array — so the views
//! cannot disagree.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::registry::Registry;

/// Requests the ring keeps: the depth of `/debug/last_queries` and of a
/// crash dump.
const RING_CAP: usize = 256;

/// What kind of request a [`RequestRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RequestKind {
    #[default]
    Query,
    QueryApprox,
    Batch,
    Explain,
    Insert,
    Delete,
    /// Scatter-gathered by a router rather than answered by a shard.
    RoutedQuery,
    RoutedQueryApprox,
    RoutedBatch,
}

impl RequestKind {
    /// The `kind` of the record's JSON.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Query => "query",
            RequestKind::QueryApprox => "query_approx",
            RequestKind::Batch => "batch",
            RequestKind::Explain => "explain",
            RequestKind::Insert => "insert",
            RequestKind::Delete => "delete",
            RequestKind::RoutedQuery => "routed_query",
            RequestKind::RoutedQueryApprox => "routed_query_approx",
            RequestKind::RoutedBatch => "routed_batch",
        }
    }
}

/// One finished request. Long-lived answerers keep one and
/// [`begin`](Self::begin) it again per request, so describing a request
/// allocates nothing once the two lists have grown.
#[derive(Debug, Clone, Default)]
pub struct RequestRecord {
    /// Client-minted id; 0 = none, [`Registry::record_request`] assigns one.
    pub trace_id: u64,
    pub kind: RequestKind,
    /// Admission → reply handed off: what the client waited, µs.
    pub total_us: u64,
    /// Admission → this request's turn, µs.
    pub queue_us: u64,
    /// Snapshot epoch the request ran against (writes: produced).
    pub epoch: u64,
    /// `(stage name, duration µs)` in pipeline order.
    pub stages: Vec<(&'static str, u64)>,
    /// `(counter name, value)` — the request's work counts, e.g. levels
    /// scanned, copies scored, shards answered.
    pub notes: Vec<(&'static str, u64)>,
}

impl RequestRecord {
    /// Start describing another request: everything reset, the lists'
    /// capacity kept.
    pub fn begin(&mut self, kind: RequestKind, trace_id: u64) -> &mut Self {
        self.stages.clear();
        self.notes.clear();
        let (stages, notes) = (std::mem::take(&mut self.stages), std::mem::take(&mut self.notes));
        *self = RequestRecord { trace_id, kind, stages, notes, ..RequestRecord::default() };
        self
    }

    pub fn stage(&mut self, name: &'static str, us: u64) -> &mut Self {
        self.stages.push((name, us));
        self
    }

    pub fn note(&mut self, name: &'static str, value: u64) -> &mut Self {
        self.notes.push((name, value));
        self
    }

    /// The record as one JSON object: `trace_id`, `kind`, `total_us`,
    /// `queue_us`, `epoch`, `stages{}`, `notes{}`. Hand-rolled; every
    /// value is numeric or a static identifier, so nothing needs escaping.
    pub fn to_json(&self, out: &mut String) {
        self.to_json_head(out);
        out.push('}');
    }

    /// [`to_json`](Self::to_json) without its closing brace: the head of
    /// a slow-query line, which appends its own array and closes it.
    pub fn to_json_head(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"trace_id\":{},\"kind\":\"{}\",\"total_us\":{},\"queue_us\":{},\"epoch\":{}",
            self.trace_id,
            self.kind.name(),
            self.total_us,
            self.queue_us,
            self.epoch,
        );
        for (key, list) in [("stages", &self.stages), ("notes", &self.notes)] {
            let _ = write!(out, ",\"{key}\":{{");
            for (i, (name, v)) in list.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{name}\":{v}");
            }
            out.push('}');
        }
    }

    /// Overwrite `self` with `src` field by field, reusing the lists'
    /// capacity (a derived `clone_from` builds a new record and drops
    /// the old one's lists).
    fn copy_from(&mut self, src: &RequestRecord) {
        let RequestRecord { trace_id, kind, total_us, queue_us, epoch, stages, notes } = src;
        (self.trace_id, self.kind, self.total_us, self.queue_us, self.epoch) =
            (*trace_id, *kind, *total_us, *queue_us, *epoch);
        self.stages.clone_from(stages);
        self.notes.clone_from(notes);
    }
}

/// The last [`RING_CAP`] records, oldest overwritten first.
#[derive(Debug, Default)]
struct Slots {
    records: Vec<RequestRecord>,
    /// The slot the next record goes to; the newest is the one before it.
    head: usize,
}

impl Slots {
    fn push(&mut self, rec: &RequestRecord) {
        if self.records.len() < RING_CAP {
            self.records.push(rec.clone());
        } else {
            self.records[self.head].copy_from(rec);
        }
        self.head = (self.head + 1) % RING_CAP;
    }

    fn newest_first(&self) -> impl Iterator<Item = &RequestRecord> {
        let (newer, older) = self.records.split_at(self.head);
        newer.iter().rev().chain(older.iter().rev())
    }
}

/// The registry's one per-request store.
#[derive(Debug)]
pub(crate) struct RequestRing {
    /// Next server-assigned id, for requests that arrived without one.
    next_id: AtomicU64,
    /// Invariant: nothing done under this lock can unwind — it copies
    /// numbers and lists of them, or renders numbers into a `String` — so
    /// a panic hook, which runs on the panicking thread, never finds it
    /// held by its own thread. The crash dump still reads through a
    /// poisoned lock, as every other reader does.
    slots: Mutex<Slots>,
}

impl RequestRing {
    pub(crate) fn new() -> RequestRing {
        RequestRing { next_id: AtomicU64::new(1), slots: Mutex::default() }
    }

    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Registry {
    /// Record one finished request in the request ring, under its own id
    /// or, when it arrived without one, a server-assigned one written
    /// back into `rec` — and return that id. Once the ring has wrapped
    /// and its slots' lists have grown, this allocates nothing.
    pub fn record_request(&self, rec: &mut RequestRecord) -> u64 {
        let ring = &self.requests;
        if rec.trace_id == 0 {
            rec.trace_id = ring.next_id.fetch_add(1, Ordering::Relaxed);
        }
        ring.lock().push(rec);
        rec.trace_id
    }

    /// The recorded requests, newest first.
    pub fn recent_requests(&self) -> Vec<RequestRecord> {
        self.requests.lock().newest_first().cloned().collect()
    }

    /// The ring as a JSON array of [`RequestRecord::to_json`] objects,
    /// newest first — the body of `/debug/last_queries` and of the crash
    /// dump.
    pub fn requests_json(&self) -> String {
        let slots = self.requests.lock();
        let mut out = String::with_capacity(2 + slots.records.len() * 256);
        out.push('[');
        for (i, rec) in slots.newest_first().enumerate() {
            if i > 0 {
                out.push(',');
            }
            rec.to_json(&mut out);
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_records_under_one_id_each() {
        let reg = Registry::new();
        assert_eq!(reg.requests_json(), "[]");
        let mut rec = RequestRecord::default();
        rec.begin(RequestKind::QueryApprox, 0).stage("queue_wait", 5).note("hits", 3);
        (rec.total_us, rec.queue_us, rec.epoch) = (40, 5, 9);
        let id = reg.record_request(&mut rec);
        assert_ne!(id, 0, "an untraced request gets a server-assigned id");
        assert_eq!(rec.trace_id, id, "and carries it from then on");
        assert_eq!(
            reg.requests_json(),
            format!(
                "[{{\"trace_id\":{id},\"kind\":\"query_approx\",\"total_us\":40,\"queue_us\":5,\
                 \"epoch\":9,\"stages\":{{\"queue_wait\":5}},\"notes\":{{\"hits\":3}}}}]"
            )
        );

        // a client-minted id is kept; `begin` leaves nothing behind
        rec.begin(RequestKind::RoutedBatch, 77);
        assert!(rec.stages.is_empty() && rec.notes.is_empty());
        assert_eq!((rec.total_us, rec.queue_us, rec.epoch), (0, 0, 0));
        assert_eq!(reg.record_request(&mut rec), 77);
        let recent = reg.recent_requests();
        assert_eq!(recent.len(), 2);
        assert_eq!((recent[0].trace_id, recent[0].kind), (77, RequestKind::RoutedBatch));
        assert_eq!((recent[1].trace_id, &recent[1].notes[..]), (id, &[("hits", 3)][..]));

        // past its capacity the ring keeps the last RING_CAP, newest first,
        // each slot overwritten whole (no list left over from its last owner)
        for t in 1000..1000 + 2 * RING_CAP as u64 {
            rec.begin(RequestKind::Query, t).note("t", t);
            rec.total_us = t;
            reg.record_request(&mut rec);
        }
        let recent = reg.recent_requests();
        assert_eq!(recent.len(), RING_CAP);
        let newest = 1000 + 2 * RING_CAP as u64 - 1;
        for (back, r) in recent.iter().enumerate() {
            let t = newest - back as u64;
            assert_eq!((r.trace_id, r.kind, r.total_us), (t, RequestKind::Query, t));
            assert_eq!((&r.stages[..], &r.notes[..]), (&[][..], &[("t", t)][..]));
        }
    }
}
