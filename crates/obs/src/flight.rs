//! The flight recorder: a lock-free ring of the last N compact query
//! profiles, always on, keyed by trace id.
//!
//! Where the [`crate::trace::TraceLog`] keeps rich per-stage events
//! behind a mutex (one push per request, allocation per event), the
//! flight recorder is the black box for post-mortems: every request —
//! even when tracing and explain are off — stores one fixed-size
//! [`QueryProfile`] with a handful of relaxed atomic stores, so the
//! final seconds of query history survive to a panic dump without ever
//! appearing on a lock or allocator profile.
//!
//! # Concurrency
//!
//! Each push claims a monotonically increasing *ticket* from `head`
//! (one `fetch_add`), giving it a unique slot generation: slot
//! `ticket % cap`, sequence `2·ticket + 1` while writing and
//! `2·ticket + 2` once complete (a per-slot seqlock, odd = in
//! progress). Readers compute the expected sequence for each ticket,
//! read the fields, and re-check the sequence: any concurrent
//! overwrite or in-flight write changes it, so torn profiles are
//! skipped rather than misreported. A writer stalled for an entire
//! ring wraparound could in principle interleave with its successor
//! undetected; with hundreds of slots and microsecond writes this is
//! not a practical concern for a debugging aid.

use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed per-slot payload words; bump when [`QueryProfile`] grows.
const FIELDS: usize = 10;

// Request kinds, as stored in `QueryProfile::kind`.
/// An exact query. Its scan rides in the count fields: `levels` = levels
/// scanned, `candidates` = copies the level scans scored, `scored` = those
/// the cutoff did not cut short, `rings` = 0; `termination` is
/// `TERM_SCAN`, or `TERM_NONE` when no level was scanned.
pub const KIND_QUERY: u8 = 0;
pub const KIND_BATCH: u8 = 1;
pub const KIND_INSERT: u8 = 2;
pub const KIND_DELETE: u8 = 3;
/// An exact query answered with its plan: counted as [`KIND_QUERY`].
pub const KIND_EXPLAIN: u8 = 4;
/// A scatter-gathered query recorded by a router rather than a shard.
/// Router profiles reuse the count fields for cluster accounting:
/// `rings` = hedges, `levels` = shards answered, `candidates` = shards
/// asked, `scored` = failovers.
pub const KIND_ROUTED: u8 = 5;
/// A hash-tier query. Its funnel rides in the count fields:
/// `candidates` = copies the probe collected, `scored` = copies reranked.
pub const KIND_QUERY_APPROX: u8 = 6;

/// Human name for a [`QueryProfile::kind`] code.
pub fn kind_name(code: u8) -> &'static str {
    match code {
        KIND_QUERY => "query",
        KIND_BATCH => "batch",
        KIND_INSERT => "insert",
        KIND_DELETE => "delete",
        KIND_EXPLAIN => "explain",
        KIND_ROUTED => "routed",
        KIND_QUERY_APPROX => "query_approx",
        _ => "other",
    }
}

/// Termination codes, as stored in [`QueryProfile::termination`]: an
/// exact query that scanned a level reads `TERM_SCAN`, every other
/// profile `TERM_NONE`. The values are those of the EXPLAIN wire's
/// termination byte, where 1–5 named the exits of the envelope plan the
/// scan replaced.
pub const TERM_NONE: u8 = 0;
pub const TERM_SCAN: u8 = 6;

/// Human name for a [`QueryProfile::termination`] code.
fn termination_name(code: u8) -> &'static str {
    match code {
        TERM_NONE => "none",
        TERM_SCAN => "scan",
        _ => "other",
    }
}

/// One compact completed-request profile — everything a post-mortem
/// needs to spot the outlier, nothing that requires allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryProfile {
    /// Client-minted trace id; joins against `/debug/last_queries`
    /// and the slow-query log.
    pub trace_id: u64,
    /// Request kind code (`KIND_*`).
    pub kind: u8,
    /// Admission → reply, µs.
    pub total_us: u64,
    /// Time spent queued before a worker picked the request up, µs.
    pub queue_us: u64,
    /// Work counts; what each counts depends on `kind` (see the `KIND_*`
    /// codes).
    pub rings: u32,
    pub levels: u32,
    pub candidates: u64,
    pub scored: u32,
    /// Snapshot epoch the request ran against.
    pub epoch: u64,
    /// Termination code (`TERM_*`).
    pub termination: u8,
}

impl QueryProfile {
    fn store(&self, words: &[AtomicU64; FIELDS]) {
        words[0].store(self.trace_id, Ordering::Relaxed);
        words[1].store(self.kind as u64, Ordering::Relaxed);
        words[2].store(self.total_us, Ordering::Relaxed);
        words[3].store(self.queue_us, Ordering::Relaxed);
        words[4].store(self.rings as u64, Ordering::Relaxed);
        words[5].store(self.levels as u64, Ordering::Relaxed);
        words[6].store(self.candidates, Ordering::Relaxed);
        words[7].store(self.scored as u64, Ordering::Relaxed);
        words[8].store(self.epoch, Ordering::Relaxed);
        words[9].store(self.termination as u64, Ordering::Relaxed);
    }

    fn load(words: &[AtomicU64; FIELDS]) -> QueryProfile {
        QueryProfile {
            trace_id: words[0].load(Ordering::Relaxed),
            kind: words[1].load(Ordering::Relaxed) as u8,
            total_us: words[2].load(Ordering::Relaxed),
            queue_us: words[3].load(Ordering::Relaxed),
            rings: words[4].load(Ordering::Relaxed) as u32,
            levels: words[5].load(Ordering::Relaxed) as u32,
            candidates: words[6].load(Ordering::Relaxed),
            scored: words[7].load(Ordering::Relaxed) as u32,
            epoch: words[8].load(Ordering::Relaxed),
            termination: words[9].load(Ordering::Relaxed) as u8,
        }
    }

    /// Render as a JSON object (hand-rolled like
    /// [`crate::trace::TraceEvent::to_json`]; every field is numeric
    /// or a static identifier, so no escaping is needed).
    pub fn to_json(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(
            out,
            "{{\"trace_id\":{},\"kind\":\"{}\",\"total_us\":{},\"queue_us\":{},\
             \"rings\":{},\"levels\":{},\"candidates\":{},\"scored\":{},\
             \"epoch\":{},\"termination\":\"{}\"}}",
            self.trace_id,
            kind_name(self.kind),
            self.total_us,
            self.queue_us,
            self.rings,
            self.levels,
            self.candidates,
            self.scored,
            self.epoch,
            termination_name(self.termination),
        );
    }
}

struct Slot {
    /// Seqlock word: `2·ticket + 1` while the ticket's writer is
    /// copying fields in, `2·ticket + 2` once stable, 0 never written.
    seq: AtomicU64,
    words: [AtomicU64; FIELDS],
}

impl Slot {
    fn new() -> Slot {
        Slot { seq: AtomicU64::new(0), words: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

/// Lock-free fixed-capacity ring of [`QueryProfile`]s.
pub struct FlightRecorder {
    cap: usize,
    /// Total profiles ever pushed; `head % cap` is the next slot.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("cap", &self.cap)
            .field("pushed", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    pub fn new(cap: usize) -> FlightRecorder {
        let cap = cap.max(1);
        FlightRecorder {
            cap,
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::new()).collect(),
        }
    }

    /// Ring capacity (last N profiles retained).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total profiles pushed over the recorder's lifetime.
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Record one profile: one `fetch_add` plus a dozen relaxed
    /// stores. Never blocks, never allocates.
    pub fn push(&self, profile: &QueryProfile) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.cap as u64) as usize];
        slot.seq.store(2 * ticket + 1, Ordering::Release);
        profile.store(&slot.words);
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Stable profiles, newest first. Slots being overwritten at call
    /// time are skipped (a seqlock re-check catches torn reads), so
    /// under heavy concurrent load the result may be slightly shorter
    /// than `capacity()`.
    pub fn recent(&self) -> Vec<QueryProfile> {
        let head = self.head.load(Ordering::Acquire);
        let oldest = head.saturating_sub(self.cap as u64);
        let mut out = Vec::with_capacity((head - oldest) as usize);
        let mut ticket = head;
        while ticket > oldest {
            ticket -= 1;
            let slot = &self.slots[(ticket % self.cap as u64) as usize];
            let want = 2 * ticket + 2;
            if slot.seq.load(Ordering::Acquire) != want {
                continue; // still being written, or already lapped
            }
            let profile = QueryProfile::load(&slot.words);
            if slot.seq.load(Ordering::Acquire) == want {
                out.push(profile);
            }
        }
        out
    }

    /// Most recent stable profile carrying `trace_id`, if any.
    pub fn find(&self, trace_id: u64) -> Option<QueryProfile> {
        self.recent().into_iter().find(|p| p.trace_id == trace_id)
    }

    /// Render the ring as a JSON array, newest first — the body of
    /// `/debug/flight` and of the on-disk crash dump.
    pub fn to_json(&self) -> String {
        let profiles = self.recent();
        let mut out = String::with_capacity(64 + profiles.len() * 160);
        out.push('[');
        for (i, p) in profiles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            p.to_json(&mut out);
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(trace_id: u64) -> QueryProfile {
        QueryProfile {
            trace_id,
            kind: KIND_QUERY,
            total_us: 10 * trace_id,
            queue_us: trace_id,
            rings: 2,
            levels: 1,
            candidates: 40,
            scored: 3,
            epoch: 7,
            termination: TERM_SCAN,
        }
    }

    #[test]
    fn ring_keeps_last_n_newest_first() {
        let fr = FlightRecorder::new(4);
        for i in 1..=6 {
            fr.push(&profile(i));
        }
        let recent = fr.recent();
        assert_eq!(recent.len(), 4);
        assert_eq!(
            recent.iter().map(|p| p.trace_id).collect::<Vec<_>>(),
            vec![6, 5, 4, 3],
        );
        assert_eq!(recent[0], profile(6));
        assert_eq!(fr.pushed(), 6);
    }

    #[test]
    fn empty_and_partial_rings() {
        let fr = FlightRecorder::new(8);
        assert!(fr.recent().is_empty());
        assert_eq!(fr.to_json(), "[]");
        fr.push(&profile(1));
        assert_eq!(fr.recent().len(), 1);
    }

    #[test]
    fn find_prefers_newest_for_duplicate_trace_ids() {
        let fr = FlightRecorder::new(4);
        let mut a = profile(42);
        a.rings = 1;
        fr.push(&a);
        let mut b = profile(42);
        b.rings = 9;
        fr.push(&b);
        assert_eq!(fr.find(42).unwrap().rings, 9);
        assert!(fr.find(404).is_none());
    }

    #[test]
    fn json_shape() {
        let fr = FlightRecorder::new(2);
        fr.push(&profile(5));
        let json = fr.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"trace_id\":5"), "{json}");
        assert!(json.contains("\"kind\":\"query\""), "{json}");
        assert!(json.contains("\"termination\":\"scan\""), "{json}");
    }

    #[test]
    fn concurrent_pushes_and_reads_stay_consistent() {
        let fr = std::sync::Arc::new(FlightRecorder::new(32));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let fr = fr.clone();
                s.spawn(move || {
                    for i in 0..500u64 {
                        fr.push(&profile(t * 1000 + i));
                    }
                });
            }
            let fr2 = fr.clone();
            s.spawn(move || {
                for _ in 0..200 {
                    for p in fr2.recent() {
                        // every observed profile must be internally
                        // consistent (total_us = 10 * trace_id)
                        assert_eq!(p.total_us, 10 * p.trace_id, "torn read escaped");
                    }
                }
            });
        });
        assert_eq!(fr.pushed(), 2000);
        assert_eq!(fr.recent().len(), 32);
    }
}
