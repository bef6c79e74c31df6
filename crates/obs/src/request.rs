//! One finished request, described once.
//!
//! Whoever answers a request — a node's read worker, its writer, the
//! cluster router — fills one [`RequestRecord`] and hands it to
//! [`Registry::record_request`], which feeds every ring: the trace log
//! behind `/debug/last_queries` and the flight recorder behind
//! `/debug/flight`. What else the answerer reports about the request
//! (the reply's stage trailer, its latency sample, a slow-query line)
//! it reads off the same record, so the sinks cannot disagree.
//! [`RequestKind`] is the only place a trace name and a flight `KIND_*`
//! code are paired.

use crate::flight::{self, QueryProfile};
use crate::registry::Registry;
use crate::trace::TraceEvent;

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
    /// The one table pairing a kind's trace name with its flight code.
    fn pair(self) -> (&'static str, u8) {
        match self {
            RequestKind::Query => ("query", flight::KIND_QUERY),
            RequestKind::QueryApprox => ("query_approx", flight::KIND_QUERY_APPROX),
            RequestKind::Batch => ("batch", flight::KIND_BATCH),
            RequestKind::Explain => ("explain", flight::KIND_EXPLAIN),
            RequestKind::Insert => ("insert", flight::KIND_INSERT),
            RequestKind::Delete => ("delete", flight::KIND_DELETE),
            RequestKind::RoutedQuery => ("routed_query", flight::KIND_ROUTED),
            RequestKind::RoutedQueryApprox => ("routed_query_approx", flight::KIND_ROUTED),
            RequestKind::RoutedBatch => ("routed_batch", flight::KIND_ROUTED),
        }
    }

    /// The `kind` of the trace event and of a slow-query line.
    pub fn name(self) -> &'static str {
        self.pair().0
    }
}

/// The work counts of a request — the flight profile's count fields,
/// whose meaning per kind is documented on the `flight::KIND_*` codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Work {
    pub rings: u32,
    pub levels: u32,
    pub candidates: u64,
    pub scored: u32,
    /// `flight::TERM_*`.
    pub termination: u8,
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
    /// `(counter name, value)` — e.g. levels scanned, candidates.
    pub notes: Vec<(&'static str, u64)>,
    pub work: Work,
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

impl Registry {
    /// Record one finished request in the trace log and the flight
    /// recorder under one id — the record's own, or a server-assigned
    /// one when the request arrived without — and return that id. Costs
    /// the two list copies the trace ring keeps, nothing else.
    pub fn record_request(&self, rec: &RequestRecord) -> u64 {
        let traces = self.traces();
        let trace_id = if rec.trace_id != 0 { rec.trace_id } else { traces.assign_id() };
        traces.push(TraceEvent {
            trace_id,
            kind: rec.kind.name(),
            total_us: rec.total_us,
            stages: rec.stages.clone(),
            detail: rec.notes.clone(),
        });
        self.flight().push(&QueryProfile {
            trace_id,
            kind: rec.kind.pair().1,
            total_us: rec.total_us,
            queue_us: rec.queue_us,
            rings: rec.work.rings,
            levels: rec.work.levels,
            candidates: rec.work.candidates,
            scored: rec.work.scored,
            epoch: rec.epoch,
            termination: rec.work.termination,
        });
        trace_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_record_reaches_both_rings_under_one_id() {
        let reg = Registry::new();
        let mut rec = RequestRecord::default();
        rec.begin(RequestKind::QueryApprox, 0).stage("queue_wait", 5).note("hits", 3);
        rec.total_us = 40;
        rec.queue_us = 5;
        rec.epoch = 9;
        rec.work = Work { candidates: 120, scored: 17, ..Work::default() };
        let id = reg.record_request(&rec);
        assert_ne!(id, 0, "an untraced request gets a server-assigned id");

        let ev = &reg.traces().recent()[0];
        assert_eq!((ev.trace_id, ev.kind, ev.total_us), (id, "query_approx", 40));
        assert_eq!(ev.stages, vec![("queue_wait", 5)]);
        assert_eq!(ev.detail, vec![("hits", 3)]);
        let prof = reg.flight().find(id).expect("same id in the flight ring");
        assert_eq!(flight::kind_name(prof.kind), "query_approx");
        assert_eq!((prof.total_us, prof.queue_us, prof.epoch), (40, 5, 9));
        assert_eq!((prof.candidates, prof.scored), (120, 17));

        // a client-minted id is kept; `begin` leaves nothing behind
        rec.begin(RequestKind::RoutedBatch, 77);
        assert!(rec.stages.is_empty() && rec.notes.is_empty());
        assert_eq!((rec.total_us, rec.work), (0, Work::default()));
        assert_eq!(reg.record_request(&rec), 77);
        assert_eq!(reg.traces().recent()[0].kind, "routed_batch");
        assert_eq!(reg.flight().find(77).unwrap().kind, flight::KIND_ROUTED);
    }
}
