//! One finished request, described once, in the registry's request
//! ring.
//!
//! Whoever answers a request — a node's read worker, its writer, the
//! cluster router — fills one [`RequestRecord`] and hands it to
//! [`Registry::record_request`], which copies it into the request
//! [`Ring`](crate::Ring): the body of `/debug/last_queries` and of the
//! crash dump. What else the answerer reports about the request (the
//! reply's stage trailer, its latency sample) it reads off the same
//! record, and the ring's one sink, a slow-query log, writes a slow read
//! as the same [`Entry::to_json`] object — so no two views of a request
//! can disagree.

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use crate::registry::Registry;
use crate::ring::Entry;

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

    /// A read: what a slow-query log writes when it took long enough.
    pub fn is_read(self) -> bool {
        !matches!(self, RequestKind::Insert | RequestKind::Delete)
    }
}

/// One finished request. Long-lived answerers keep one and
/// [`begin`](Self::begin) it again per request, so describing a request
/// allocates nothing once the two lists have grown.
#[derive(Debug, Default)]
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
}

impl Entry for RequestRecord {
    /// The record as one JSON object: `trace_id`, `kind`, `total_us`,
    /// `queue_us`, `epoch`, `stages{}`, `notes{}`. Hand-rolled; every
    /// value is numeric or a static identifier, so nothing needs escaping.
    fn to_json(&self, out: &mut String) {
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
        out.push('}');
    }
}

impl Clone for RequestRecord {
    fn clone(&self) -> Self {
        let mut out = RequestRecord::default();
        out.clone_from(self);
        out
    }

    /// Field by field, reusing the lists' capacity (a derived
    /// `clone_from` builds a new record and drops the old one's lists):
    /// how the ring overwrites its oldest slot without allocating.
    fn clone_from(&mut self, src: &RequestRecord) {
        let RequestRecord { trace_id, kind, total_us, queue_us, epoch, stages, notes } = src;
        (self.trace_id, self.kind, self.total_us, self.queue_us, self.epoch) =
            (*trace_id, *kind, *total_us, *queue_us, *epoch);
        self.stages.clone_from(stages);
        self.notes.clone_from(notes);
    }
}

impl Registry {
    /// Record one finished request in the request ring, under its own id
    /// or, when it arrived without one, a server-assigned one written
    /// back into `rec` — and return that id. Once the ring has wrapped
    /// and its slots' lists have grown, this allocates nothing (a slow
    /// line, when the ring's sink writes one, is the sink's).
    pub fn record_request(&self, rec: &mut RequestRecord) -> u64 {
        if rec.trace_id == 0 {
            rec.trace_id = self.next_trace_id.fetch_add(1, Ordering::Relaxed);
        }
        self.requests().push(rec);
        rec.trace_id
    }

    /// The recorded requests, newest first.
    pub fn recent_requests(&self) -> Vec<RequestRecord> {
        self.requests().recent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RING_CAP;

    #[test]
    fn ring_keeps_the_newest_records_under_one_id_each() {
        let reg = Registry::new();
        assert_eq!(reg.requests().to_json(), "[]");
        let mut rec = RequestRecord::default();
        rec.begin(RequestKind::QueryApprox, 0).stage("queue_wait", 5).note("hits", 3);
        (rec.total_us, rec.queue_us, rec.epoch) = (40, 5, 9);
        let id = reg.record_request(&mut rec);
        assert_ne!(id, 0, "an untraced request gets a server-assigned id");
        assert_eq!(rec.trace_id, id, "and carries it from then on");
        assert_eq!(
            reg.requests().to_json(),
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
