//! Blocking client for the GeoSIR wire protocol.
//!
//! One [`Client`] wraps one TCP connection; the protocol is strictly
//! request/reply per connection, so a `Client` is `Send` but not meant
//! to be shared — open one per thread (the load generator does exactly
//! that).
//!
//! Every connection carries deadlines: a 5 s connect timeout and 30 s
//! read and write timeouts, so a hung server surfaces as a timed-out
//! [`WireError::Io`] instead of a thread parked forever. On top of
//! that, [`Client::insert_retrying`] offers bounded
//! exponential-backoff retries that are *safe*: each insert carries a
//! client-generated idempotency key, so resending after a timeout (the
//! classic "was it applied?" ambiguity) cannot double-insert — the
//! server deduplicates by key and re-acks the original id.

use std::io::{BufWriter, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use geosir_geom::Polyline;

use crate::wire::{
    Frame, ServerStats, StageTrailer, WireError, WireMatch, WireShape, WireShardStatus,
};

/// Deadline for establishing the TCP connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Deadline for each blocking read (reply wait).
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Deadline for each blocking write.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);
/// Total sleep budget across one retrying call. Once the cumulative
/// backoff reaches this, the call fails instead of sleeping again — the
/// cap that keeps a fleet of retrying clients from camping on a
/// recovering shard forever.
const RETRY_DEADLINE: Duration = Duration::from_secs(10);
/// Backoff floor: every retry sleeps at least this long.
const RETRY_BASE: Duration = Duration::from_millis(10);
/// Backoff ceiling for the jittered schedule (a larger server `Busy`
/// hint still wins — the server knows its own drain rate).
const RETRY_CAP: Duration = Duration::from_secs(1);

/// Decorrelated-jitter retry schedule with a total sleep budget.
///
/// Plain doubling synchronizes: every client that timed out on the same
/// failing shard retries on the same beat and the recovering process
/// eats a thundering herd at t = base, 2·base, 4·base… The decorrelated
/// scheme (AWS architecture-blog variant) draws each delay uniformly
/// from `[base, prev · 3]` clamped to `cap`, so retry instants decohere
/// across clients after the very first sleep while the expected delay
/// still grows geometrically.
///
/// [`Backoff::next_delay`] also enforces two service-protecting rules:
/// a server `Busy { retry_after_ms }` hint is a *floor* (the server
/// knows its drain rate better than any client-side guess), and the
/// cumulative sleep handed out is capped by `deadline` — when the
/// budget is spent the call returns `None` and the caller must give up
/// rather than keep hammering.
#[derive(Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    /// Remaining cumulative-sleep budget.
    budget: Duration,
    /// Previous delay — the decorrelation state.
    prev: Duration,
    /// xorshift64* state for the jitter draws.
    rng: u64,
}

impl Backoff {
    /// Schedule with explicit bounds; `seed` only decorrelates jitter
    /// (any nonzero value is fine — [`key_seed`] in production).
    pub fn new(base: Duration, cap: Duration, deadline: Duration, seed: u64) -> Backoff {
        let base = base.max(Duration::from_micros(1));
        Backoff { base, cap: cap.max(base), budget: deadline, prev: base, rng: seed | 1 }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*: tiny, seedable, plenty for jitter
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The next sleep, or `None` when the budget is exhausted. `hint` is
    /// the server's retry-after (zero = none); the returned delay is
    /// `max(hint, uniform(base, prev·3).min(cap))`, clamped so the
    /// cumulative sleep never exceeds the deadline.
    pub fn next_delay(&mut self, hint: Duration) -> Option<Duration> {
        if self.budget.is_zero() {
            return None;
        }
        let hi = (self.prev * 3).min(self.cap).max(self.base);
        let span = (hi - self.base).as_nanos() as u64;
        let jittered = if span == 0 {
            self.base
        } else {
            self.base + Duration::from_nanos(self.next_u64() % (span + 1))
        };
        self.prev = jittered;
        let delay = jittered.max(hint).min(self.budget);
        self.budget -= delay;
        Some(delay)
    }
}

/// A connected client. All calls block until the server replies (or a
/// deadline fires).
pub struct Client {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    /// Resolved peer addresses, kept for reconnect-on-retry.
    addrs: Vec<SocketAddr>,
    /// Next idempotency key: odd, stepping by 2, randomly seeded per
    /// client so two clients virtually never collide.
    next_key: u64,
    /// Next trace id, seeded independently of the key sequence.
    next_trace: u64,
}

/// What a query round trip produced.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// Snapshot epoch the query ran against.
    pub epoch: u64,
    /// Hits, best score first.
    pub matches: Vec<WireMatch>,
    /// True when the server shed the request under load (`Busy`).
    pub rejected: bool,
    /// Server's retry-after hint when shed, milliseconds (0 = none).
    pub retry_after_ms: u32,
    /// Trace id this query carried — look it up in the server's
    /// `/debug/last_queries` for per-stage timings.
    pub trace: u64,
    /// Shards that contributed to the reply vs shards asked.
    /// `1/1` from a single-node server; `ok < total` marks a partial
    /// answer assembled while some shard was entirely down.
    pub shards_ok: u16,
    pub shards_total: u16,
    /// Server-side stage timings when the server reported them (the
    /// optional trailer): total enqueue→reply and the queue-wait slice.
    pub server_timings: Option<StageTrailer>,
}

/// What a batch round trip produced.
#[derive(Debug, Clone)]
pub struct BatchReply {
    /// Snapshot epoch the whole batch ran against.
    pub epoch: u64,
    /// Per-query hit lists, in request order.
    pub results: Vec<Vec<WireMatch>>,
    /// True when the server shed the whole batch under load (`Busy`).
    pub rejected: bool,
    /// Server's retry-after hint when shed, milliseconds (0 = none).
    pub retry_after_ms: u32,
}

/// What an EXPLAIN round trip produced: the matches a plain query
/// would have returned, plus the server's per-level breakdown and
/// timings.
#[derive(Debug, Clone)]
pub struct ExplainReply {
    /// Snapshot epoch the query ran against.
    pub epoch: u64,
    /// Trace id (server-assigned when the client sent 0) — joins
    /// against `/debug/last_queries` and the slow-query log.
    pub trace: u64,
    /// Admission → reply on the server, microseconds.
    pub total_us: u64,
    /// Time the request spent queued before a worker picked it up.
    pub queue_us: u64,
    /// Hits, best score first — identical to a plain query's.
    pub matches: Vec<WireMatch>,
    /// The captured per-level EXPLAIN breakdown.
    pub report: geosir_core::dynamic::QueryExplain,
    /// True when the server shed the request under load (`Busy`).
    pub rejected: bool,
    /// Server's retry-after hint when shed, milliseconds (0 = none).
    pub retry_after_ms: u32,
}

/// What an approximate-retrieval round trip produced: the reranked
/// matches (true `h_avg` scores — only recall is approximate) plus the
/// tier report.
#[derive(Debug, Clone)]
pub struct ApproxReply {
    /// Snapshot epoch the query ran against.
    pub epoch: u64,
    /// Which tier produced the answer: the signature-index cascade, or
    /// the exact matcher when the cascade came up empty.
    pub tier: geosir_core::AnswerTier,
    /// Final curve-distance ring the probe reached.
    pub radius: u16,
    /// Signature buckets inspected across all level indexes + buffer.
    pub buckets_probed: u64,
    /// Candidate copies collected for reranking.
    pub candidates: u64,
    /// Total copies in the corpus — `corpus_copies / candidates` is the
    /// candidate-set reduction the index bought.
    pub corpus_copies: u64,
    /// Candidates actually scored by the exact reranker.
    pub reranked: u64,
    /// Hits, best score first.
    pub matches: Vec<WireMatch>,
    /// Trace id this query carried.
    pub trace: u64,
    /// True when the server shed the request under load (`Busy`).
    pub rejected: bool,
    /// Server's retry-after hint when shed, milliseconds (0 = none).
    pub retry_after_ms: u32,
    /// Shards that contributed vs shards asked; see
    /// [`QueryReply::shards_ok`].
    pub shards_ok: u16,
    pub shards_total: u16,
    /// Server-side stage timings when reported (the optional trailer).
    pub server_timings: Option<StageTrailer>,
}

impl ApproxReply {
    /// Candidate-set reduction factor (corpus copies per candidate).
    pub fn reduction(&self) -> f64 {
        self.corpus_copies as f64 / self.candidates.max(1) as f64
    }
}

/// A random nonzero odd seed without a rand dependency: hash a fresh
/// `RandomState` (per-process random) plus a monotonically bumped
/// counter (per-client distinct).
fn key_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut h = std::collections::hash_map::RandomState::new().build_hasher();
    h.write_u64(COUNTER.fetch_add(1, Ordering::Relaxed));
    h.finish() | 1
}

/// Dial the first of `addrs` that answers within `deadline` each.
fn connect_stream(addrs: &[SocketAddr], deadline: Duration) -> Result<TcpStream, WireError> {
    let mut last: Option<std::io::Error> = None;
    for addr in addrs {
        match TcpStream::connect_timeout(addr, deadline) {
            Ok(s) => {
                s.set_nodelay(true).map_err(WireError::Io)?;
                s.set_read_timeout(Some(READ_TIMEOUT)).map_err(WireError::Io)?;
                s.set_write_timeout(Some(WRITE_TIMEOUT)).map_err(WireError::Io)?;
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(WireError::Io(last.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "no addresses to connect to")
    })))
}

impl Client {
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, WireError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs().map_err(WireError::Io)?.collect();
        let stream = connect_stream(&addrs, CONNECT_TIMEOUT)?;
        let reader = stream.try_clone().map_err(WireError::Io)?;
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            addrs,
            next_key: key_seed(),
            next_trace: key_seed(),
        })
    }

    /// Drop the current connection and dial again (used between retry
    /// attempts after an I/O error, when the old socket is suspect).
    fn reconnect(&mut self) -> Result<(), WireError> {
        let stream = connect_stream(&self.addrs, CONNECT_TIMEOUT)?;
        self.reader = stream.try_clone().map_err(WireError::Io)?;
        self.writer = BufWriter::new(stream);
        Ok(())
    }

    fn fresh_key(&mut self) -> u64 {
        let k = self.next_key;
        self.next_key = self.next_key.wrapping_add(2);
        k
    }

    fn fresh_trace(&mut self) -> u64 {
        let t = self.next_trace;
        self.next_trace = self.next_trace.wrapping_add(2);
        t
    }

    /// Send one frame and wait for the reply frame.
    pub fn request(&mut self, frame: &Frame) -> Result<Frame, WireError> {
        frame.write_to(&mut self.writer)?;
        self.writer.flush().map_err(WireError::Io)?;
        Frame::read_from(&mut self.reader)
    }

    /// Retrieve up to `k` nearest shapes (`k = 0` → server default).
    /// Each query carries a fresh trace id (returned in the reply) so
    /// its per-stage timings can be found in the server's trace log.
    pub fn query(&mut self, query: &Polyline, k: u32) -> Result<QueryReply, WireError> {
        let trace = self.fresh_trace();
        let reply =
            self.request(&Frame::Query { k, trace, shape: WireShape::from_polyline(query) })?;
        match reply {
            Frame::Matches { epoch, shards, trailer, matches } => Ok(QueryReply {
                epoch,
                matches,
                rejected: false,
                retry_after_ms: 0,
                trace,
                shards_ok: shards.ok,
                shards_total: shards.total,
                server_timings: trailer,
            }),
            Frame::Busy { retry_after_ms } => Ok(QueryReply {
                epoch: 0,
                matches: Vec::new(),
                rejected: true,
                retry_after_ms,
                trace,
                shards_ok: 0,
                shards_total: 0,
                server_timings: None,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Run a query with EXPLAIN/ANALYZE-style introspection: same
    /// matches a plain [`Client::query`] would return, plus the
    /// server's per-level breakdown of the scan that answered it.
    pub fn explain(&mut self, query: &Polyline, k: u32) -> Result<ExplainReply, WireError> {
        let trace = self.fresh_trace();
        let reply =
            self.request(&Frame::Explain { k, trace, shape: WireShape::from_polyline(query) })?;
        match reply {
            Frame::ExplainReport { epoch, trace, total_us, queue_us, matches, report } => {
                Ok(ExplainReply {
                    epoch,
                    trace,
                    total_us,
                    queue_us,
                    matches,
                    report,
                    rejected: false,
                    retry_after_ms: 0,
                })
            }
            Frame::Busy { retry_after_ms } => Ok(ExplainReply {
                epoch: 0,
                trace,
                total_us: 0,
                queue_us: 0,
                matches: Vec::new(),
                report: Default::default(),
                rejected: true,
                retry_after_ms,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Approximate retrieval through the signature-index tier: probe
    /// buckets in rings of increasing curve distance, rerank the
    /// candidates exactly. `max_radius` / `max_candidates` = 0 take the
    /// server defaults. The reply says which tier answered and how much
    /// the index narrowed the candidate set.
    pub fn similar_approx(
        &mut self,
        query: &Polyline,
        k: u32,
        max_radius: u16,
        max_candidates: u32,
    ) -> Result<ApproxReply, WireError> {
        let trace = self.fresh_trace();
        let reply = self.request(&Frame::QueryApprox {
            k,
            trace,
            max_radius,
            max_candidates,
            shape: WireShape::from_polyline(query),
        })?;
        match reply {
            Frame::ApproxMatches {
                epoch,
                tier,
                radius,
                buckets_probed,
                candidates,
                corpus_copies,
                reranked,
                shards,
                trailer,
                matches,
            } => Ok(ApproxReply {
                epoch,
                tier: geosir_core::AnswerTier::from_code(tier),
                radius,
                buckets_probed,
                candidates,
                corpus_copies,
                reranked,
                matches,
                trace,
                rejected: false,
                retry_after_ms: 0,
                shards_ok: shards.ok,
                shards_total: shards.total,
                server_timings: trailer,
            }),
            Frame::Busy { retry_after_ms } => Ok(ApproxReply {
                epoch: 0,
                tier: geosir_core::AnswerTier::default(),
                radius: 0,
                buckets_probed: 0,
                candidates: 0,
                corpus_copies: 0,
                reranked: 0,
                matches: Vec::new(),
                trace,
                rejected: true,
                retry_after_ms,
                shards_ok: 0,
                shards_total: 0,
                server_timings: None,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Retrieve for several queries in one round trip. A shed batch
    /// comes back with `rejected` set and the server's retry-after
    /// hint, exactly like [`Client::query`] — it is not an error.
    pub fn query_batch(
        &mut self,
        queries: &[Polyline],
        k: u32,
    ) -> Result<BatchReply, WireError> {
        let shapes = queries.iter().map(WireShape::from_polyline).collect();
        match self.request(&Frame::QueryBatch { k, shapes })? {
            Frame::BatchMatches { epoch, results } => {
                Ok(BatchReply { epoch, results, rejected: false, retry_after_ms: 0 })
            }
            Frame::Busy { retry_after_ms } => {
                Ok(BatchReply { epoch: 0, results: Vec::new(), rejected: true, retry_after_ms })
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Batch retrieval with jittered-backoff retries, mirroring
    /// [`Client::insert_retrying`]: `Busy` waits for the server's
    /// retry-after hint (at least the jittered backoff) and resends; an
    /// I/O error reconnects first. Queries are read-only, so a resend
    /// after an ambiguous failure is always safe.
    pub fn query_batch_retrying(
        &mut self,
        queries: &[Polyline],
        k: u32,
    ) -> Result<BatchReply, WireError> {
        self.retrying("batch", |c| {
            let reply = c.query_batch(queries, k)?;
            Ok(if reply.rejected { Err(reply.retry_after_ms) } else { Ok(reply) })
        })
    }

    /// Insert a shape; returns `(epoch, id)` once the new snapshot is
    /// published, or `None` when shed under load. One attempt; see
    /// [`Client::insert_retrying`] for the retrying variant.
    pub fn insert(&mut self, image: u32, shape: &Polyline) -> Result<Option<(u64, u64)>, WireError> {
        let key = self.fresh_key();
        match self.insert_keyed(image, key, shape)? {
            InsertReply::Done(epoch, id) => Ok(Some((epoch, id))),
            InsertReply::Busy(_) => Ok(None),
        }
    }

    /// Insert with jittered-backoff retries ([`Backoff`]): `Busy` waits
    /// for the server's retry-after hint (at least the jittered
    /// backoff); an I/O error (timeout, reset) reconnects and resends
    /// the *same* idempotency key, so an insert that actually landed
    /// before the error is acked, not duplicated. Fails when the 10 s
    /// sleep budget (`RETRY_DEADLINE`) is spent, or on any
    /// protocol/server error.
    pub fn insert_retrying(
        &mut self,
        image: u32,
        shape: &Polyline,
    ) -> Result<(u64, u64), WireError> {
        let key = self.fresh_key();
        self.retrying("insert", |c| {
            Ok(match c.insert_keyed(image, key, shape)? {
                InsertReply::Done(epoch, id) => Ok((epoch, id)),
                InsertReply::Busy(hint_ms) => Err(hint_ms),
            })
        })
    }

    /// The one retry loop: run `attempt` until it answers. `Ok(Err(hint))`
    /// is a `Busy` reply, waited out for the hint (at least the jittered
    /// backoff, [`Backoff`]); an I/O error (timeout, reset) sleeps the
    /// backoff and dials a fresh connection before the next attempt; any
    /// other error fails at once. Gives up when the 10 s sleep budget
    /// (`RETRY_DEADLINE`) is spent.
    fn retrying<T>(
        &mut self,
        what: &str,
        mut attempt: impl FnMut(&mut Client) -> Result<Result<T, u32>, WireError>,
    ) -> Result<T, WireError> {
        let mut backoff = Backoff::new(RETRY_BASE, RETRY_CAP, RETRY_DEADLINE, key_seed());
        let mut last_err: Option<WireError> = None;
        loop {
            // the connection died mid-round-trip: dial a fresh one first
            let outcome = match last_err {
                Some(_) => self.reconnect().and_then(|()| attempt(self)),
                None => attempt(self),
            };
            let hint_ms = match outcome {
                Ok(Ok(answer)) => return Ok(answer),
                Ok(Err(hint_ms)) => {
                    last_err = None;
                    hint_ms
                }
                Err(WireError::Io(e)) => {
                    last_err = Some(WireError::Io(e));
                    0
                }
                Err(other) => return Err(other), // protocol error: no retry
            };
            match backoff.next_delay(Duration::from_millis(hint_ms as u64)) {
                Some(d) => std::thread::sleep(d),
                None => break,
            }
        }
        Err(last_err.unwrap_or_else(|| {
            WireError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("{what} retries exhausted (server busy)"),
            ))
        }))
    }

    fn insert_keyed(
        &mut self,
        image: u32,
        key: u64,
        shape: &Polyline,
    ) -> Result<InsertReply, WireError> {
        let trace = self.fresh_trace();
        let reply = self.request(&Frame::Insert {
            image,
            key,
            trace,
            shape: WireShape::from_polyline(shape),
        })?;
        match reply {
            Frame::Inserted { epoch, id } => Ok(InsertReply::Done(epoch, id)),
            Frame::Busy { retry_after_ms } => Ok(InsertReply::Busy(retry_after_ms)),
            other => Err(unexpected(&other)),
        }
    }

    /// Delete by global shape id; `Some((epoch, existed))`, or `None`
    /// when shed under load.
    pub fn delete(&mut self, id: u64) -> Result<Option<(u64, bool)>, WireError> {
        match self.request(&Frame::Delete { id })? {
            Frame::Deleted { epoch, existed } => Ok(Some((epoch, existed))),
            Frame::Busy { .. } => Ok(None),
            other => Err(unexpected(&other)),
        }
    }

    pub fn stats(&mut self) -> Result<ServerStats, WireError> {
        match self.request(&Frame::Stats)? {
            Frame::StatsReport(stats) => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the server's full metrics-registry snapshot — every
    /// counter, gauge, and histogram the server registered, decoded
    /// into a [`geosir_obs::Snapshot`].
    pub fn metrics(&mut self) -> Result<geosir_obs::Snapshot, WireError> {
        match self.request(&Frame::MetricsDump)? {
            Frame::MetricsReport { snapshot } => {
                geosir_obs::Snapshot::decode(&snapshot).ok_or(WireError::Malformed)
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the cluster topology: shard layout, backend health, and
    /// replication lag. A single-node server answers with a one-shard
    /// report naming itself primary.
    pub fn topology(&mut self) -> Result<Vec<WireShardStatus>, WireError> {
        match self.request(&Frame::Topology)? {
            Frame::TopologyReport { shards } => Ok(shards),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the server to shut down gracefully; resolves on `Bye`.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        match self.request(&Frame::Shutdown)? {
            Frame::Bye => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

/// A pipelined connection: many requests in flight at once, each
/// tagged with a client-minted correlation id, replies
/// matched by id in whatever order the server finishes them.
///
/// The workflow is `submit_*` (returns the correlation id without
/// waiting), then [`PipelinedClient::recv_any`] /
/// [`PipelinedClient::recv`] to collect replies. Replies that arrive
/// while waiting for a specific id are buffered, never dropped. The
/// server bounds the number of outstanding requests per connection
/// (`MAX_IN_FLIGHT`, 128); beyond it, it simply stops
/// reading this connection's socket until replies drain — submission
/// then blocks in the kernel, not in the server's memory.
pub struct PipelinedClient {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    next_corr: u64,
    /// Replies read off the wire while waiting for a different id.
    ooo: std::collections::HashMap<u64, Frame>,
    in_flight: usize,
}

impl PipelinedClient {
    /// Connect, with the same deadlines as a [`Client`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<PipelinedClient, WireError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs().map_err(WireError::Io)?.collect();
        let stream = connect_stream(&addrs, CONNECT_TIMEOUT)?;
        let reader = stream.try_clone().map_err(WireError::Io)?;
        Ok(PipelinedClient {
            reader,
            writer: BufWriter::new(stream),
            next_corr: 1, // 0 means "no correlation id" on the wire
            ooo: std::collections::HashMap::new(),
            in_flight: 0,
        })
    }

    /// Submit any request frame without waiting; returns the
    /// correlation id its reply will carry. Writes are buffered — they
    /// reach the socket at the next `recv_*` or [`Self::flush`].
    pub fn submit(&mut self, frame: &Frame) -> Result<u64, WireError> {
        let corr = self.next_corr;
        self.next_corr = self.next_corr.wrapping_add(1).max(1);
        frame.write_to_corr(&mut self.writer, corr)?;
        self.in_flight += 1;
        Ok(corr)
    }

    /// Submit a k-nearest query without waiting.
    pub fn submit_query(&mut self, query: &Polyline, k: u32) -> Result<u64, WireError> {
        self.submit(&Frame::Query { k, trace: 0, shape: WireShape::from_polyline(query) })
    }

    /// Submit an approximate-tier query without waiting; the reply is a
    /// [`Frame::ApproxMatches`]. Zero knobs take the server defaults.
    pub fn submit_query_approx(
        &mut self,
        query: &Polyline,
        k: u32,
        max_radius: u16,
        max_candidates: u32,
    ) -> Result<u64, WireError> {
        self.submit(&Frame::QueryApprox {
            k,
            trace: 0,
            max_radius,
            max_candidates,
            shape: WireShape::from_polyline(query),
        })
    }

    /// Push all buffered request bytes to the socket.
    pub fn flush(&mut self) -> Result<(), WireError> {
        self.writer.flush().map_err(WireError::Io)
    }

    /// Requests submitted whose replies have not been returned yet
    /// (buffered out-of-order replies still count as outstanding).
    pub fn in_flight(&self) -> usize {
        self.in_flight + self.ooo.len()
    }

    /// Wait for the reply to one specific correlation id; replies to
    /// other ids arriving first are buffered for their own `recv`.
    pub fn recv(&mut self, corr: u64) -> Result<Frame, WireError> {
        if let Some(frame) = self.ooo.remove(&corr) {
            return Ok(frame);
        }
        self.flush()?;
        loop {
            let (frame, got) = Frame::read_from_corr(&mut self.reader)?;
            self.in_flight = self.in_flight.saturating_sub(1);
            if got == corr {
                return Ok(frame);
            }
            self.ooo.insert(got, frame);
        }
    }

    /// Wait for whichever reply arrives next (buffered ones first);
    /// returns `(correlation id, frame)`.
    pub fn recv_any(&mut self) -> Result<(u64, Frame), WireError> {
        if let Some(corr) = self.ooo.keys().next().copied() {
            let frame = self.ooo.remove(&corr).unwrap();
            return Ok((corr, frame));
        }
        self.flush()?;
        let (frame, corr) = Frame::read_from_corr(&mut self.reader)?;
        self.in_flight = self.in_flight.saturating_sub(1);
        Ok((corr, frame))
    }
}

enum InsertReply {
    Done(u64, u64),
    Busy(u32),
}

fn unexpected(frame: &Frame) -> WireError {
    // A server-reported error keeps its code (so callers can see e.g.
    // READ_ONLY); any other unexpected frame is a protocol violation.
    match frame {
        Frame::Error { code, message } => {
            WireError::Server { code: *code, message: message.clone() }
        }
        _ => WireError::Malformed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_nonzero_and_distinct() {
        // the server treats key 0 as "no key": a client must never emit it
        let mut c_keys = Vec::new();
        let seed = key_seed();
        let mut k = seed;
        for _ in 0..1000 {
            assert_ne!(k, 0);
            c_keys.push(k);
            k = k.wrapping_add(2);
        }
        c_keys.sort_unstable();
        c_keys.dedup();
        assert_eq!(c_keys.len(), 1000, "keys must not repeat within a client");
    }

    #[test]
    fn seeds_differ_across_clients() {
        // RandomState + counter: two seeds colliding is ~2^-63
        assert_ne!(key_seed(), key_seed());
    }

    #[test]
    fn backoff_delays_stay_within_bounds() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(500);
        for seed in 1..50u64 {
            let mut b = Backoff::new(base, cap, Duration::from_secs(3600), seed);
            for _ in 0..100 {
                let d = b.next_delay(Duration::ZERO).expect("budget is huge");
                assert!(d >= base, "delay {d:?} below base {base:?}");
                assert!(d <= cap, "delay {d:?} above cap {cap:?}");
            }
        }
    }

    #[test]
    fn backoff_honors_busy_hint_as_floor() {
        let mut b = Backoff::new(
            Duration::from_millis(1),
            Duration::from_millis(4),
            Duration::from_secs(3600),
            7,
        );
        // hint far above the cap: the server's word wins
        let hint = Duration::from_millis(250);
        let d = b.next_delay(hint).unwrap();
        assert!(d >= hint, "hint {hint:?} must floor the delay, got {d:?}");
    }

    #[test]
    fn backoff_total_sleep_capped_by_deadline() {
        let deadline = Duration::from_millis(100);
        for seed in 1..50u64 {
            let mut b =
                Backoff::new(Duration::from_millis(10), Duration::from_millis(40), deadline, seed);
            let mut total = Duration::ZERO;
            let mut n = 0;
            while let Some(d) = b.next_delay(Duration::ZERO) {
                total += d;
                n += 1;
                assert!(n <= 1000, "schedule must terminate");
            }
            assert!(total <= deadline, "cumulative sleep {total:?} exceeds deadline {deadline:?}");
            // the budget must actually be usable, not spent on round-off
            assert!(total >= deadline - Duration::from_millis(40) || n > 0);
        }
    }

    #[test]
    fn backoff_schedules_decorrelate_across_seeds() {
        // two clients backing off from the same instant must not sleep
        // identical schedules — that is the whole point of the jitter
        let mk = |seed| {
            let mut b = Backoff::new(
                Duration::from_millis(10),
                Duration::from_secs(1),
                Duration::from_secs(3600),
                seed,
            );
            (0..8).map(|_| b.next_delay(Duration::ZERO).unwrap()).collect::<Vec<_>>()
        };
        assert_ne!(mk(1), mk(2));
    }

    /// A listener nobody accepts from, its accept queue filled one
    /// connection at a time: the kernel drops the next SYN, so the next
    /// dial must give up at its deadline (the OS default is minutes of
    /// SYN retries). All on loopback, one thread.
    #[test]
    fn connect_timeout_fires_on_a_full_accept_queue() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let deadline = Duration::from_millis(200);
        let mut queued = Vec::new();
        let (err, took) = loop {
            assert!(queued.len() < 512, "512 connections and the accept queue is not full");
            let t0 = std::time::Instant::now();
            match connect_stream(&[addr], deadline) {
                Ok(stream) => queued.push(stream),
                Err(e) => break (e, t0.elapsed()),
            }
        };
        assert!(
            matches!(&err, WireError::Io(e) if e.kind() == std::io::ErrorKind::TimedOut),
            "a full accept queue times the dial out: {err:?}"
        );
        assert!(
            took >= deadline && took < deadline * 5,
            "connect must end at its {deadline:?} deadline, took {took:?}"
        );
        assert!(!queued.is_empty(), "the queue took connections before it filled");
    }
}
