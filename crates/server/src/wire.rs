//! The length-prefixed binary wire protocol.
//!
//! Hand-rolled codec in the style of `geosir_storage::record`: fixed
//! little-endian layouts over `bytes::{Buf, BufMut}`, no self-describing
//! metadata. Every frame travels as
//!
//! ```text
//! version   u8   PROTOCOL_VERSION
//! type      u8   frame discriminant
//! length    u32  payload byte count (≤ MAX_PAYLOAD)
//! corr      u64  correlation id
//! payload   length bytes
//! checksum  u32  FNV-1a over every preceding byte of the frame
//! ```
//!
//! There is one layout. The version byte is kept for the future; a frame
//! carrying any other value is refused with [`WireError::BadVersion`]
//! before a payload byte is read. The `corr` field is the pipelining
//! handle: a client stamps each request with a correlation id of its
//! choosing (by convention its trace id) and the server echoes it
//! verbatim on the matching response, so many requests can be in flight
//! on one connection and responses may complete out of order.
//!
//! The checksum closes the gap TCP's checksum leaves open (stack bugs,
//! proxies, in-flight truncation at process kill): a reader either gets a
//! frame whose every byte was vouched for, or a clean [`WireError`] — never
//! a silently corrupt query. Decoding never panics on adversarial input,
//! a valid checksum over a hostile payload included; the tests in
//! `tests/wire_proptest.rs` drive truncations, mutations, bad versions,
//! bad checksums, and oversized length prefixes through both the slice
//! and stream entry points, and pin the layout byte for byte.

use bytes::{Buf, BufMut};
use geosir_core::dynamic::{LevelExplain, QueryExplain};
use geosir_geom::Polyline;
use std::io::{Read, Write};

/// The protocol version this build speaks — the only one it accepts.
///
/// It is the sixth layout the protocol has had. What earlier ones added
/// is all still here — idempotency keys and `Busy` hints, trace ids and
/// `MetricsDump`, `Explain`, the correlation id and `QueryApprox`,
/// [`ShardInfo`] / `Topology` / the optional [`StageTrailer`] — but the
/// decoders for the layouts that lacked them are not: no client of
/// those was ever deployed. The next field goes into this layout as an
/// optional trailer, the way [`StageTrailer`] did, not into a seventh.
pub const PROTOCOL_VERSION: u8 = 6;

/// Ceiling on a frame's payload size. A length prefix above this is
/// rejected *before* any allocation, so a hostile 4 GiB prefix cannot OOM
/// the server.
const MAX_PAYLOAD: usize = 16 << 20;

/// Frame header bytes preceding the payload (version, type, length).
pub const HEADER_LEN: usize = 6;

/// Correlation-id bytes between header and payload.
const CORR_LEN: usize = 8;

/// Trailing checksum bytes.
const CHECKSUM_LEN: usize = 4;

/// Error codes carried by [`Frame::Error`].
pub mod error_code {
    /// The request frame could not be decoded.
    pub const MALFORMED: u16 = 1;
    /// The shape payload does not form a valid polyline.
    pub const BAD_SHAPE: u16 = 2;
    /// The server is shutting down and no longer accepts work.
    pub const SHUTTING_DOWN: u16 = 3;
    /// A response frame arrived where a request was expected.
    pub const UNEXPECTED_FRAME: u16 = 4;
    /// The server is in degraded read-only mode (persistent WAL or
    /// checkpoint I/O failure); queries still work, writes do not.
    pub const READ_ONLY: u16 = 5;
    /// No shard (primary or replica) could serve the request — every
    /// backend for the owning shard is down or the frame type is not
    /// routable.
    pub const UNAVAILABLE: u16 = 6;
}

/// Degraded-result accounting on query replies: how many shards answered
/// vs how many were asked. A single-node server always reports `1/1`;
/// a scatter-gather router reports `ok < total` when a whole shard
/// (primary and replicas) failed inside the query deadline and the
/// reply was assembled from the survivors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    pub ok: u16,
    pub total: u16,
}

impl Default for ShardInfo {
    fn default() -> Self {
        ShardInfo { ok: 1, total: 1 }
    }
}

impl ShardInfo {
    /// True when at least one shard's results are missing from the reply.
    pub fn is_partial(&self) -> bool {
        self.ok < self.total
    }
}

/// Optional per-stage server timings on `Matches` / `ApproxMatches`
/// replies: `total_us` is enqueue → reply built, `queue_us` the slice of
/// that spent waiting for a worker. Encoded as a trailer *after* the
/// match list — absent entirely (zero bytes) when the server does not
/// report timings. A scatter-gather router reads it to attribute a slow
/// cluster query to the shard that was actually slow (vs the network or
/// the router's own gather).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTrailer {
    pub total_us: u64,
    pub queue_us: u64,
}

/// One shard's status inside a [`Frame::TopologyReport`]: backend
/// addresses, their health-state codes (0 = closed/healthy, 1 = open/
/// failed, 2 = half-open/probing), and the worst replication lag across
/// the shard's replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct WireShardStatus {
    pub shard: u16,
    pub primary: String,
    pub primary_state: u8,
    /// Replica addresses with their health-state codes.
    pub replicas: Vec<(String, u8)>,
    /// Max `last_lsn(primary) - applied_lsn(replica)` across replicas.
    pub lag_records: u64,
    /// Milliseconds the most-behind replica has been behind (0 = caught up).
    pub lag_ms: u64,
}

/// Shape geometry on the wire: closed flag + f64 vertex pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct WireShape {
    pub closed: bool,
    pub points: Vec<(f64, f64)>,
}

impl WireShape {
    pub fn from_polyline(p: &Polyline) -> WireShape {
        WireShape {
            closed: p.is_closed(),
            points: p.points().iter().map(|q| (q.x, q.y)).collect(),
        }
    }

    /// Reconstruct the polyline; `None` when the vertex set is not a valid
    /// open/closed polyline (too few points, non-finite coordinates), or
    /// when the square of its extent is not finite: normalizing divides by
    /// the squared diameter, which past ≈ 1.34e154 is ∞ and would collapse
    /// the shape to a point.
    pub fn to_polyline(&self) -> Option<Polyline> {
        let (mut lo, mut hi) = ((f64::INFINITY, f64::INFINITY), (f64::NEG_INFINITY, f64::NEG_INFINITY));
        for &(x, y) in &self.points {
            if !x.is_finite() || !y.is_finite() {
                return None;
            }
            (lo, hi) = ((lo.0.min(x), lo.1.min(y)), (hi.0.max(x), hi.1.max(y)));
        }
        let (w, h) = (hi.0 - lo.0, hi.1 - lo.1);
        if !(w * w + h * h).is_finite() {
            return None;
        }
        let pts: Vec<geosir_geom::Point> =
            self.points.iter().map(|&(x, y)| geosir_geom::Point::new(x, y)).collect();
        if self.closed {
            Polyline::closed(pts).ok()
        } else {
            Polyline::open(pts).ok()
        }
    }
}

/// One retrieval hit on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireMatch {
    /// [`geosir_core::dynamic::GlobalShapeId`] value.
    pub shape: u64,
    pub image: u32,
    pub score: f64,
}

/// The server's observable state, served via [`Frame::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Snapshot epoch readers currently see.
    pub epoch: u64,
    /// Live shapes in the published snapshot.
    pub live_shapes: u64,
    /// Levels in the published snapshot.
    pub levels: u64,
    /// Requests admitted (queries + batches + writes + stats).
    pub requests: u64,
    pub queries: u64,
    pub inserts: u64,
    pub deletes: u64,
    /// Requests shed with [`Frame::Busy`] because a queue was full.
    pub busy_rejects: u64,
    /// Connections dropped over protocol errors.
    pub protocol_errors: u64,
    /// Request latency percentiles (enqueue → reply built), microseconds.
    pub latency_p50_us: u64,
    pub latency_p99_us: u64,
    /// Snapshot publications since start, and publish-latency percentiles.
    pub snapshots_published: u64,
    pub publish_p50_us: u64,
    pub publish_p99_us: u64,
    /// Microseconds since the published snapshot was installed.
    pub snapshot_age_us: u64,
    /// Read-queue depth at the instant the stats were gathered.
    pub queue_depth: u64,
    /// 1 when the server is in degraded read-only mode, else 0.
    pub read_only: u64,
    /// WAL records appended / fsyncs issued since start (0 when the
    /// server runs without durability).
    pub wal_appends: u64,
    pub wal_syncs: u64,
    /// WAL fsync latency percentiles, microseconds.
    pub fsync_p50_us: u64,
    pub fsync_p99_us: u64,
    /// Checkpoints completed / failed since start.
    pub checkpoints: u64,
    pub checkpoint_failures: u64,
    /// Wall time the last startup recovery took, microseconds.
    pub last_recovery_us: u64,
    /// Persistent-path I/O errors observed (WAL, checkpoint, accept).
    pub io_errors: u64,
}

/// Every message either peer can send. Request frames (client → server):
/// `Query`, `QueryBatch`, `Insert`, `Delete`, `Stats`, `Shutdown`.
/// Response frames (server → client): the rest.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Retrieve the k best shapes (`k = 0`: server default). `trace` is
    /// a client-chosen trace id (0 = server assigns one) that tags the
    /// query's stage timings in the server's trace log.
    Query { k: u32, trace: u64, shape: WireShape },
    /// Retrieve for every shape in one round trip.
    QueryBatch { k: u32, shapes: Vec<WireShape> },
    /// Add a shape to the live base. `key` is a client-chosen
    /// idempotency token (0 = none): resending the same key after a
    /// timeout cannot double-insert — the server replies with the
    /// originally assigned id. `trace` tags the write's stage timings
    /// (0 = server assigns one).
    Insert { image: u32, key: u64, trace: u64, shape: WireShape },
    /// Tombstone a shape by global id.
    Delete { id: u64 },
    /// Fetch [`ServerStats`].
    Stats,
    /// Fetch the full metrics-registry snapshot ([`geosir_obs::Snapshot`]
    /// bytes come back in [`Frame::MetricsReport`]).
    MetricsDump,
    /// Run `Query` with per-level introspection enabled and
    /// reply with [`Frame::ExplainReport`]. Same payload as `Query`;
    /// rides the same read queue and sees the same snapshot a plain
    /// query would.
    Explain { k: u32, trace: u64, shape: WireShape },
    /// Approximate retrieval: probe the signature index in rings of
    /// increasing curve distance, rerank candidates with the exact
    /// early-abandoning `h_avg`. `max_radius` is the soft ring
    /// preference, `max_candidates` the collection budget (0 = server
    /// default for either). Pipelinable and coalesced like `Query`.
    QueryApprox { k: u32, trace: u64, max_radius: u16, max_candidates: u32, shape: WireShape },
    /// Fetch the cluster topology: shard layout, backend health
    /// states, and replication lag. A single-node server answers with a
    /// one-shard report naming itself primary.
    Topology,
    /// Begin graceful shutdown: in-flight requests drain, then the server
    /// exits.
    Shutdown,

    /// Reply to `Query`. `shards` is the partial-result flag
    /// ([`ShardInfo`]; trivially `1/1` from a single-node server);
    /// `trailer` the optional server-side stage timings.
    Matches { epoch: u64, shards: ShardInfo, trailer: Option<StageTrailer>, matches: Vec<WireMatch> },
    /// Reply to `QueryBatch`, one result list per query, in order.
    BatchMatches { epoch: u64, results: Vec<Vec<WireMatch>> },
    /// Reply to `Insert`: the assigned global id.
    Inserted { epoch: u64, id: u64 },
    /// Reply to `Delete`.
    Deleted { epoch: u64, existed: bool },
    /// Reply to `Stats`.
    StatsReport(ServerStats),
    /// Reply to `MetricsDump`: an encoded [`geosir_obs::Snapshot`] of
    /// every metric series the server registered. Opaque bytes on the
    /// wire so the codec stays decoupled from the registry layout.
    MetricsReport { snapshot: Vec<u8> },
    /// Reply to `Explain`: the matches a plain query would have
    /// returned, plus the captured [`QueryExplain`] and the server-side
    /// timings (`queue_us` enqueue → worker pickup, `total_us` enqueue →
    /// reply built) the slow-query log records.
    ExplainReport {
        epoch: u64,
        trace: u64,
        total_us: u64,
        queue_us: u64,
        matches: Vec<WireMatch>,
        report: QueryExplain,
    },
    /// Reply to `QueryApprox`: the reranked matches plus the tier
    /// report — which tier answered (`tier`: 0 = approx, 1 = exact
    /// fallback, the `AnswerTier` codes), the final probe radius,
    /// buckets probed, candidates collected vs
    /// the corpus copy count (their ratio is the candidate-set
    /// reduction), and the rerank cost.
    ApproxMatches {
        epoch: u64,
        tier: u8,
        radius: u16,
        buckets_probed: u64,
        candidates: u64,
        corpus_copies: u64,
        reranked: u64,
        shards: ShardInfo,
        trailer: Option<StageTrailer>,
        matches: Vec<WireMatch>,
    },
    /// Reply to `Topology`: one status entry per shard.
    TopologyReport { shards: Vec<WireShardStatus> },
    /// Load shed: the bounded request queue was full. Retry after the
    /// hinted delay (0 = client's choice).
    Busy { retry_after_ms: u32 },
    /// Reply to `Shutdown`.
    Bye,
    /// The request could not be served; see [`error_code`].
    Error { code: u16, message: String },
}

/// Frame type discriminants (requests low, responses high).
mod frame_type {
    pub(super) const QUERY: u8 = 1;
    pub(super) const QUERY_BATCH: u8 = 2;
    pub(super) const INSERT: u8 = 3;
    pub(super) const DELETE: u8 = 4;
    pub(super) const STATS: u8 = 5;
    pub(super) const SHUTDOWN: u8 = 6;
    pub(super) const METRICS_DUMP: u8 = 7;
    pub(super) const EXPLAIN: u8 = 8;
    pub(super) const QUERY_APPROX: u8 = 9;
    pub(super) const TOPOLOGY: u8 = 10;
    pub(super) const MATCHES: u8 = 64;
    pub(super) const BATCH_MATCHES: u8 = 65;
    pub(super) const INSERTED: u8 = 66;
    pub(super) const DELETED: u8 = 67;
    pub(super) const STATS_REPORT: u8 = 68;
    pub(super) const BUSY: u8 = 69;
    pub(super) const BYE: u8 = 70;
    pub(super) const ERROR: u8 = 71;
    pub(super) const METRICS_REPORT: u8 = 72;
    pub(super) const EXPLAIN_REPORT: u8 = 73;
    pub(super) const APPROX_MATCHES: u8 = 74;
    pub(super) const TOPOLOGY_REPORT: u8 = 75;

    /// Is `t` an assigned discriminant?
    pub(super) fn assigned(t: u8) -> bool {
        matches!(t, QUERY..=TOPOLOGY | MATCHES..=TOPOLOGY_REPORT)
    }
}

/// A validated frame header: the fixed prefix of a frame, decoded without
/// touching payload bytes. The streaming decoder peeks this first to learn
/// how many bytes the full frame needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameHeader {
    type_byte: u8,
    payload_len: usize,
}

impl FrameHeader {
    /// Total frame size on the wire, header through checksum.
    #[inline]
    fn frame_len(&self) -> usize {
        HEADER_LEN + CORR_LEN + self.payload_len + CHECKSUM_LEN
    }
}

/// Validate and decode a frame header from the front of `buf`.
///
/// `Ok(None)` means "not enough bytes yet" (fewer than [`HEADER_LEN`]) —
/// keep reading. Errors are terminal for the connection: a version other
/// than [`PROTOCOL_VERSION`], an unassigned type, or an oversized length
/// prefix, all detected *before* buffering or allocating for the payload.
fn peek_header(buf: &[u8]) -> Result<Option<FrameHeader>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let version = buf[0];
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let type_byte = buf[1];
    if !frame_type::assigned(type_byte) {
        return Err(WireError::BadType(type_byte));
    }
    let len = u32::from_le_bytes(buf[2..6].try_into().unwrap());
    if len as usize > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    Ok(Some(FrameHeader { type_byte, payload_len: len as usize }))
}

/// Decode / transport failures. Every variant leaves the connection in a
/// "close me" state; none panics.
#[derive(Debug)]
pub enum WireError {
    Io(std::io::Error),
    /// First header byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// Unknown frame discriminant.
    BadType(u8),
    /// Length prefix exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Stored checksum does not match the received bytes.
    BadChecksum,
    /// Payload bytes do not decode as the declared frame type.
    Malformed,
    /// The server refused the request with [`Frame::Error`]; see
    /// [`error_code`] for the code.
    Server { code: u16, message: String },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::BadVersion(v) => {
                write!(f, "bad protocol version {v} (want {PROTOCOL_VERSION})")
            }
            WireError::BadType(t) => write!(f, "unknown frame type {t}"),
            WireError::Oversized(n) => {
                write!(f, "payload length {n} exceeds cap {MAX_PAYLOAD}")
            }
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
            WireError::Malformed => write!(f, "malformed frame payload"),
            WireError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// FNV-1a over the frame bytes — cheap, dependency-free, and adequate for
/// integrity (not authenticity) checking.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn put_shape(out: &mut Vec<u8>, shape: &WireShape) {
    out.put_u8(shape.closed as u8);
    out.put_u32_le(shape.points.len() as u32);
    for &(x, y) in &shape.points {
        out.put_f64_le(x);
        out.put_f64_le(y);
    }
}

fn get_shape(buf: &mut &[u8]) -> Result<WireShape, WireError> {
    if buf.len() < 5 {
        return Err(WireError::Malformed);
    }
    let closed = match buf.get_u8() {
        0 => false,
        1 => true,
        _ => return Err(WireError::Malformed),
    };
    let n = buf.get_u32_le() as usize;
    if buf.len() < n * 16 {
        return Err(WireError::Malformed);
    }
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let x = buf.get_f64_le();
        let y = buf.get_f64_le();
        points.push((x, y));
    }
    Ok(WireShape { closed, points })
}

fn put_matches(out: &mut Vec<u8>, matches: &[WireMatch]) {
    out.put_u32_le(matches.len() as u32);
    for m in matches {
        out.put_u64_le(m.shape);
        out.put_u32_le(m.image);
        out.put_f64_le(m.score);
    }
}

fn get_matches(buf: &mut &[u8]) -> Result<Vec<WireMatch>, WireError> {
    if buf.len() < 4 {
        return Err(WireError::Malformed);
    }
    let n = buf.get_u32_le() as usize;
    if buf.len() < n * 20 {
        return Err(WireError::Malformed);
    }
    let mut matches = Vec::with_capacity(n);
    for _ in 0..n {
        let shape = buf.get_u64_le();
        let image = buf.get_u32_le();
        let score = buf.get_f64_le();
        matches.push(WireMatch { shape, image, score });
    }
    Ok(matches)
}

fn get_string(buf: &mut &[u8]) -> Result<String, WireError> {
    if buf.len() < 4 {
        return Err(WireError::Malformed);
    }
    let n = buf.get_u32_le() as usize;
    if buf.len() < n {
        return Err(WireError::Malformed);
    }
    let s = std::str::from_utf8(&buf[..n]).map_err(|_| WireError::Malformed)?.to_string();
    buf.advance(n);
    Ok(s)
}

fn get_shard_info(buf: &mut &[u8]) -> Result<ShardInfo, WireError> {
    if buf.len() < 4 {
        return Err(WireError::Malformed);
    }
    Ok(ShardInfo { ok: buf.get_u16_le(), total: buf.get_u16_le() })
}

/// Optional stage-timing trailer after the match list: zero bytes when
/// absent, else a presence flag and the two timing words.
fn put_stage_trailer(out: &mut Vec<u8>, t: &Option<StageTrailer>) {
    if let Some(t) = t {
        out.put_u8(1);
        out.put_u64_le(t.total_us);
        out.put_u64_le(t.queue_us);
    }
}

fn get_stage_trailer(buf: &mut &[u8]) -> Result<Option<StageTrailer>, WireError> {
    if buf.is_empty() {
        return Ok(None);
    }
    match buf.get_u8() {
        0 => Ok(None),
        1 => {
            if buf.len() < 16 {
                return Err(WireError::Malformed);
            }
            Ok(Some(StageTrailer { total_us: buf.get_u64_le(), queue_us: buf.get_u64_le() }))
        }
        _ => Err(WireError::Malformed),
    }
}

// `ExplainReport` keeps the v6 layout, which has room for the envelope
// plan the scan replaced (DESIGN §9.5): each of its words a scan cannot
// set is written as the constant every server has sent since the scan,
// and a decoder refuses any other value in it, so an accepted report
// re-encodes to the bytes it arrived in.
fn put_explain(out: &mut Vec<u8>, e: &QueryExplain) {
    let s = &e.stats;
    out.put_u64_le(s.buffer_scored);
    out.put_u64_le(s.levels);
    out.put_slice(&[0; 24]); // rings, vertices reported / processed
    out.put_u64_le(s.scan_copies);
    out.put_slice(&[0; 8]); // triangles queried
    out.put_u64_le(s.buffer_scored); // its second copy
    out.put_slice(&[0; 16]); // max ε fraction, exhausted levels
    out.put_u8(scan_termination(s.levels));
    out.put_u32_le(e.levels.len() as u32);
    for level in &e.levels {
        out.put_u64_le(level.shapes);
        out.put_u8(TERM_SCAN);
        out.put_f64_le(level.cutoff);
        out.put_slice(&[0; 8]); // ε-cap
        out.put_f64_le(1.0); // bound factor
        out.put_slice(&[0; 16]); // vertices reported / processed
        out.put_u64_le(level.scored);
        out.put_u32_le(level.settled);
        out.put_slice(&[0; 5]); // not exhausted, no rings
    }
}

/// The EXPLAIN termination byte: `TERM_SCAN` for an exact query that
/// scanned a level, `TERM_NONE` for one that scanned none. 1–5 named the
/// exits of the envelope plan the scan replaced.
const TERM_NONE: u8 = 0;
const TERM_SCAN: u8 = 6;

/// The termination byte of an exact query that scanned `levels` levels:
/// a scan once there was one.
fn scan_termination(levels: u64) -> u8 {
    if levels > 0 {
        TERM_SCAN
    } else {
        TERM_NONE
    }
}

/// Take the retired word `want` off the front of `buf`, or refuse.
fn expect(buf: &mut &[u8], want: &[u8]) -> Result<(), WireError> {
    if !buf.starts_with(want) {
        return Err(WireError::Malformed);
    }
    buf.advance(want.len());
    Ok(())
}

fn get_explain(buf: &mut &[u8]) -> Result<QueryExplain, WireError> {
    // fixed prefix: 10 words, the termination byte, the level count
    if buf.len() < 10 * 8 + 1 + 4 {
        return Err(WireError::Malformed);
    }
    let mut e = QueryExplain::default();
    let s = &mut e.stats;
    s.buffer_scored = buf.get_u64_le();
    s.levels = buf.get_u64_le();
    expect(buf, &[0; 24])?;
    s.scan_copies = buf.get_u64_le();
    expect(buf, &[0; 8])?;
    expect(buf, &s.buffer_scored.to_le_bytes())?;
    expect(buf, &[0; 16])?;
    expect(buf, &[scan_termination(s.levels)])?;
    let levels = buf.get_u32_le() as usize;
    // 62 fixed bytes per level plus its ring count, which must be 0
    if buf.len() < levels * (62 + 4) {
        return Err(WireError::Malformed);
    }
    for _ in 0..levels {
        let shapes = buf.get_u64_le();
        expect(buf, &[TERM_SCAN])?;
        let cutoff = buf.get_f64_le();
        expect(buf, &[0; 8])?;
        expect(buf, &1f64.to_le_bytes())?;
        expect(buf, &[0; 16])?;
        let (scored, settled) = (buf.get_u64_le(), buf.get_u32_le());
        expect(buf, &[0; 5])?;
        e.levels.push(LevelExplain { shapes, cutoff, scored, settled });
    }
    Ok(e)
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Query { .. } => frame_type::QUERY,
            Frame::QueryBatch { .. } => frame_type::QUERY_BATCH,
            Frame::Insert { .. } => frame_type::INSERT,
            Frame::Busy { .. } => frame_type::BUSY,
            Frame::Delete { .. } => frame_type::DELETE,
            Frame::Stats => frame_type::STATS,
            Frame::MetricsDump => frame_type::METRICS_DUMP,
            Frame::Explain { .. } => frame_type::EXPLAIN,
            Frame::QueryApprox { .. } => frame_type::QUERY_APPROX,
            Frame::ExplainReport { .. } => frame_type::EXPLAIN_REPORT,
            Frame::ApproxMatches { .. } => frame_type::APPROX_MATCHES,
            Frame::MetricsReport { .. } => frame_type::METRICS_REPORT,
            Frame::Topology => frame_type::TOPOLOGY,
            Frame::TopologyReport { .. } => frame_type::TOPOLOGY_REPORT,
            Frame::Shutdown => frame_type::SHUTDOWN,
            Frame::Matches { .. } => frame_type::MATCHES,
            Frame::BatchMatches { .. } => frame_type::BATCH_MATCHES,
            Frame::Inserted { .. } => frame_type::INSERTED,
            Frame::Deleted { .. } => frame_type::DELETED,
            Frame::StatsReport(_) => frame_type::STATS_REPORT,
            Frame::Bye => frame_type::BYE,
            Frame::Error { .. } => frame_type::ERROR,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Query { k, trace, shape } | Frame::Explain { k, trace, shape } => {
                out.put_u32_le(*k);
                out.put_u64_le(*trace);
                put_shape(out, shape);
            }
            Frame::QueryApprox { k, trace, max_radius, max_candidates, shape } => {
                out.put_u32_le(*k);
                out.put_u64_le(*trace);
                out.put_u16_le(*max_radius);
                out.put_u32_le(*max_candidates);
                put_shape(out, shape);
            }
            Frame::QueryBatch { k, shapes } => {
                out.put_u32_le(*k);
                out.put_u32_le(shapes.len() as u32);
                for s in shapes {
                    put_shape(out, s);
                }
            }
            Frame::Insert { image, key, trace, shape } => {
                out.put_u32_le(*image);
                out.put_u64_le(*key);
                out.put_u64_le(*trace);
                put_shape(out, shape);
            }
            Frame::Delete { id } => out.put_u64_le(*id),
            Frame::Busy { retry_after_ms } => out.put_u32_le(*retry_after_ms),
            Frame::Stats | Frame::MetricsDump | Frame::Topology | Frame::Shutdown | Frame::Bye => {}
            Frame::MetricsReport { snapshot } => {
                out.put_u32_le(snapshot.len() as u32);
                out.put_slice(snapshot);
            }
            Frame::Matches { epoch, shards, trailer, matches } => {
                out.put_u64_le(*epoch);
                out.put_u16_le(shards.ok);
                out.put_u16_le(shards.total);
                put_matches(out, matches);
                put_stage_trailer(out, trailer);
            }
            Frame::ExplainReport { epoch, trace, total_us, queue_us, matches, report } => {
                out.put_u64_le(*epoch);
                out.put_u64_le(*trace);
                out.put_u64_le(*total_us);
                out.put_u64_le(*queue_us);
                put_matches(out, matches);
                put_explain(out, report);
            }
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
            } => {
                out.put_u64_le(*epoch);
                out.put_u8(*tier);
                out.put_u16_le(*radius);
                out.put_u64_le(*buckets_probed);
                out.put_u64_le(*candidates);
                out.put_u64_le(*corpus_copies);
                out.put_u64_le(*reranked);
                out.put_u16_le(shards.ok);
                out.put_u16_le(shards.total);
                put_matches(out, matches);
                put_stage_trailer(out, trailer);
            }
            Frame::TopologyReport { shards } => {
                out.put_u32_le(shards.len() as u32);
                for s in shards {
                    out.put_u16_le(s.shard);
                    out.put_u32_le(s.primary.len() as u32);
                    out.put_slice(s.primary.as_bytes());
                    out.put_u8(s.primary_state);
                    out.put_u32_le(s.replicas.len() as u32);
                    for (addr, state) in &s.replicas {
                        out.put_u32_le(addr.len() as u32);
                        out.put_slice(addr.as_bytes());
                        out.put_u8(*state);
                    }
                    out.put_u64_le(s.lag_records);
                    out.put_u64_le(s.lag_ms);
                }
            }
            Frame::BatchMatches { epoch, results } => {
                out.put_u64_le(*epoch);
                out.put_u32_le(results.len() as u32);
                for matches in results {
                    put_matches(out, matches);
                }
            }
            Frame::Inserted { epoch, id } => {
                out.put_u64_le(*epoch);
                out.put_u64_le(*id);
            }
            Frame::Deleted { epoch, existed } => {
                out.put_u64_le(*epoch);
                out.put_u8(*existed as u8);
            }
            Frame::StatsReport(s) => {
                let words = [
                    s.epoch,
                    s.live_shapes,
                    s.levels,
                    s.requests,
                    s.queries,
                    s.inserts,
                    s.deletes,
                    s.busy_rejects,
                    s.protocol_errors,
                    s.latency_p50_us,
                    s.latency_p99_us,
                    s.snapshots_published,
                    s.publish_p50_us,
                    s.publish_p99_us,
                    s.snapshot_age_us,
                    s.queue_depth,
                    s.read_only,
                    s.wal_appends,
                    s.wal_syncs,
                    s.fsync_p50_us,
                    s.fsync_p99_us,
                    s.checkpoints,
                    s.checkpoint_failures,
                    s.last_recovery_us,
                    s.io_errors,
                ];
                for v in words {
                    out.put_u64_le(v);
                }
            }
            Frame::Error { code, message } => {
                out.put_u16_le(*code);
                out.put_u32_le(message.len() as u32);
                out.put_slice(message.as_bytes());
            }
        }
    }

    fn decode_payload(type_byte: u8, mut buf: &[u8]) -> Result<Frame, WireError> {
        let buf = &mut buf;
        let frame = match type_byte {
            frame_type::QUERY => {
                if buf.len() < 12 {
                    return Err(WireError::Malformed);
                }
                let k = buf.get_u32_le();
                let trace = buf.get_u64_le();
                Frame::Query { k, trace, shape: get_shape(buf)? }
            }
            frame_type::QUERY_BATCH => {
                if buf.len() < 8 {
                    return Err(WireError::Malformed);
                }
                let k = buf.get_u32_le();
                let n = buf.get_u32_le() as usize;
                // ≥ 5 bytes per shape: cheap pre-check against hostile counts
                if buf.len() < n * 5 {
                    return Err(WireError::Malformed);
                }
                let mut shapes = Vec::with_capacity(n);
                for _ in 0..n {
                    shapes.push(get_shape(buf)?);
                }
                Frame::QueryBatch { k, shapes }
            }
            frame_type::INSERT => {
                if buf.len() < 20 {
                    return Err(WireError::Malformed);
                }
                let image = buf.get_u32_le();
                let key = buf.get_u64_le();
                let trace = buf.get_u64_le();
                Frame::Insert { image, key, trace, shape: get_shape(buf)? }
            }
            frame_type::DELETE => {
                if buf.len() < 8 {
                    return Err(WireError::Malformed);
                }
                Frame::Delete { id: buf.get_u64_le() }
            }
            frame_type::STATS => Frame::Stats,
            frame_type::METRICS_DUMP => Frame::MetricsDump,
            frame_type::EXPLAIN => {
                if buf.len() < 12 {
                    return Err(WireError::Malformed);
                }
                let k = buf.get_u32_le();
                let trace = buf.get_u64_le();
                Frame::Explain { k, trace, shape: get_shape(buf)? }
            }
            frame_type::QUERY_APPROX => {
                if buf.len() < 18 {
                    return Err(WireError::Malformed);
                }
                let k = buf.get_u32_le();
                let trace = buf.get_u64_le();
                let max_radius = buf.get_u16_le();
                let max_candidates = buf.get_u32_le();
                Frame::QueryApprox { k, trace, max_radius, max_candidates, shape: get_shape(buf)? }
            }
            frame_type::SHUTDOWN => Frame::Shutdown,
            frame_type::MATCHES => {
                if buf.len() < 8 {
                    return Err(WireError::Malformed);
                }
                let epoch = buf.get_u64_le();
                let shards = get_shard_info(buf)?;
                let matches = get_matches(buf)?;
                let trailer = get_stage_trailer(buf)?;
                Frame::Matches { epoch, shards, trailer, matches }
            }
            frame_type::EXPLAIN_REPORT => {
                if buf.len() < 32 {
                    return Err(WireError::Malformed);
                }
                let epoch = buf.get_u64_le();
                let trace = buf.get_u64_le();
                let total_us = buf.get_u64_le();
                let queue_us = buf.get_u64_le();
                let matches = get_matches(buf)?;
                let report = get_explain(buf)?;
                Frame::ExplainReport { epoch, trace, total_us, queue_us, matches, report }
            }
            frame_type::APPROX_MATCHES => {
                if buf.len() < 43 {
                    return Err(WireError::Malformed);
                }
                let epoch = buf.get_u64_le();
                let tier = buf.get_u8();
                let radius = buf.get_u16_le();
                let buckets_probed = buf.get_u64_le();
                let candidates = buf.get_u64_le();
                let corpus_copies = buf.get_u64_le();
                let reranked = buf.get_u64_le();
                let shards = get_shard_info(buf)?;
                let matches = get_matches(buf)?;
                let trailer = get_stage_trailer(buf)?;
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
                }
            }
            frame_type::TOPOLOGY => Frame::Topology,
            frame_type::TOPOLOGY_REPORT => {
                if buf.len() < 4 {
                    return Err(WireError::Malformed);
                }
                let n = buf.get_u32_le() as usize;
                // ≥ 27 bytes per status: cheap pre-check against hostile counts
                if buf.len() < n * 27 {
                    return Err(WireError::Malformed);
                }
                let mut shards = Vec::with_capacity(n);
                for _ in 0..n {
                    if buf.len() < 2 {
                        return Err(WireError::Malformed);
                    }
                    let shard = buf.get_u16_le();
                    let primary = get_string(buf)?;
                    if buf.is_empty() {
                        return Err(WireError::Malformed);
                    }
                    let primary_state = buf.get_u8();
                    if buf.len() < 4 {
                        return Err(WireError::Malformed);
                    }
                    let nr = buf.get_u32_le() as usize;
                    if buf.len() < nr * 5 {
                        return Err(WireError::Malformed);
                    }
                    let mut replicas = Vec::with_capacity(nr);
                    for _ in 0..nr {
                        let addr = get_string(buf)?;
                        if buf.is_empty() {
                            return Err(WireError::Malformed);
                        }
                        replicas.push((addr, buf.get_u8()));
                    }
                    if buf.len() < 16 {
                        return Err(WireError::Malformed);
                    }
                    let lag_records = buf.get_u64_le();
                    let lag_ms = buf.get_u64_le();
                    shards.push(WireShardStatus {
                        shard,
                        primary,
                        primary_state,
                        replicas,
                        lag_records,
                        lag_ms,
                    });
                }
                Frame::TopologyReport { shards }
            }
            frame_type::BATCH_MATCHES => {
                if buf.len() < 12 {
                    return Err(WireError::Malformed);
                }
                let epoch = buf.get_u64_le();
                let n = buf.get_u32_le() as usize;
                if buf.len() < n * 4 {
                    return Err(WireError::Malformed);
                }
                let mut results = Vec::with_capacity(n);
                for _ in 0..n {
                    results.push(get_matches(buf)?);
                }
                Frame::BatchMatches { epoch, results }
            }
            frame_type::INSERTED => {
                if buf.len() < 16 {
                    return Err(WireError::Malformed);
                }
                Frame::Inserted { epoch: buf.get_u64_le(), id: buf.get_u64_le() }
            }
            frame_type::DELETED => {
                if buf.len() < 9 {
                    return Err(WireError::Malformed);
                }
                let epoch = buf.get_u64_le();
                let existed = match buf.get_u8() {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed),
                };
                Frame::Deleted { epoch, existed }
            }
            frame_type::STATS_REPORT => {
                let mut v = [0u64; 25];
                if buf.len() < v.len() * 8 {
                    return Err(WireError::Malformed);
                }
                for slot in v.iter_mut() {
                    *slot = buf.get_u64_le();
                }
                Frame::StatsReport(ServerStats {
                    epoch: v[0],
                    live_shapes: v[1],
                    levels: v[2],
                    requests: v[3],
                    queries: v[4],
                    inserts: v[5],
                    deletes: v[6],
                    busy_rejects: v[7],
                    protocol_errors: v[8],
                    latency_p50_us: v[9],
                    latency_p99_us: v[10],
                    snapshots_published: v[11],
                    publish_p50_us: v[12],
                    publish_p99_us: v[13],
                    snapshot_age_us: v[14],
                    queue_depth: v[15],
                    read_only: v[16],
                    wal_appends: v[17],
                    wal_syncs: v[18],
                    fsync_p50_us: v[19],
                    fsync_p99_us: v[20],
                    checkpoints: v[21],
                    checkpoint_failures: v[22],
                    last_recovery_us: v[23],
                    io_errors: v[24],
                })
            }
            frame_type::BUSY => {
                if buf.len() < 4 {
                    return Err(WireError::Malformed);
                }
                Frame::Busy { retry_after_ms: buf.get_u32_le() }
            }
            frame_type::BYE => Frame::Bye,
            frame_type::METRICS_REPORT => {
                if buf.len() < 4 {
                    return Err(WireError::Malformed);
                }
                let n = buf.get_u32_le() as usize;
                if buf.len() < n {
                    return Err(WireError::Malformed);
                }
                let snapshot = buf[..n].to_vec();
                buf.advance(n);
                Frame::MetricsReport { snapshot }
            }
            frame_type::ERROR => {
                if buf.len() < 6 {
                    return Err(WireError::Malformed);
                }
                let code = buf.get_u16_le();
                let n = buf.get_u32_le() as usize;
                if buf.len() < n {
                    return Err(WireError::Malformed);
                }
                let message = std::str::from_utf8(&buf[..n])
                    .map_err(|_| WireError::Malformed)?
                    .to_string();
                buf.advance(n);
                Frame::Error { code, message }
            }
            other => return Err(WireError::BadType(other)),
        };
        if !buf.is_empty() {
            return Err(WireError::Malformed); // trailing garbage
        }
        Ok(frame)
    }

    /// Append the complete framed encoding (header, payload, checksum)
    /// with correlation id 0.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_versioned(PROTOCOL_VERSION, 0, out);
    }

    /// Append the complete framed encoding with correlation id `corr`.
    /// `version` must be [`PROTOCOL_VERSION`], the only layout there is;
    /// the parameter stays because the benchmark driver is compiled
    /// against this signature on both sides of an A/B.
    pub fn encode_versioned(&self, version: u8, corr: u64, out: &mut Vec<u8>) {
        debug_assert_eq!(version, PROTOCOL_VERSION);
        let header_at = out.len();
        out.put_u8(PROTOCOL_VERSION);
        out.put_u8(self.type_byte());
        out.put_u32_le(0); // payload length backpatched below
        out.put_u64_le(corr);
        let payload_at = out.len();
        self.encode_payload(out);
        let payload_len = (out.len() - payload_at) as u32;
        out[header_at + 2..header_at + HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        let sum = fnv1a(&out[header_at..]);
        out.put_u32_le(sum);
    }

    /// Decode one frame from the start of `buf`; returns the frame and the
    /// total bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), WireError> {
        Frame::decode_corr(buf).map(|(frame, _, used)| (frame, used))
    }

    /// [`Frame::decode`] with the frame's correlation id: the frame, its
    /// id, and the bytes consumed. The header is validated before payload
    /// bytes are needed, and an incomplete buffer reports as a clean
    /// `Io(UnexpectedEof)`.
    pub fn decode_corr(buf: &[u8]) -> Result<(Frame, u64, usize), WireError> {
        let header = match peek_header(buf)? {
            Some(h) => h,
            None => return Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into())),
        };
        let total = header.frame_len();
        if buf.len() < total {
            return Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into()));
        }
        let body_start = HEADER_LEN + CORR_LEN;
        let body_end = body_start + header.payload_len;
        let stored = u32::from_le_bytes(buf[body_end..total].try_into().unwrap());
        if fnv1a(&buf[..body_end]) != stored {
            return Err(WireError::BadChecksum);
        }
        let corr = u64::from_le_bytes(buf[HEADER_LEN..body_start].try_into().unwrap());
        let frame = Frame::decode_payload(header.type_byte, &buf[body_start..body_end])?;
        Ok((frame, corr, total))
    }

    /// Write the framed encoding to a stream (single `write_all`),
    /// correlation id 0.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), WireError> {
        self.write_to_corr(w, 0)
    }

    /// [`Frame::write_to`] with an explicit correlation id (pipelined
    /// clients stamp their minted trace id here).
    pub fn write_to_corr<W: Write>(&self, w: &mut W, corr: u64) -> Result<(), WireError> {
        let mut buf = Vec::with_capacity(64);
        self.encode_versioned(PROTOCOL_VERSION, corr, &mut buf);
        w.write_all(&buf)?;
        Ok(())
    }

    /// Read exactly one frame from a stream.
    ///
    /// Validates the header (version, type, length cap) before allocating
    /// or reading the payload, so a hostile peer cannot force an oversized
    /// allocation.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Frame, WireError> {
        Frame::read_from_corr(r).map(|(frame, _)| frame)
    }

    /// [`Frame::read_from`] returning the correlation id as well — the
    /// pipelined client's receive path. Only the reading differs from
    /// the slice decoder; checksum, correlation id and payload go
    /// through [`Frame::decode_corr`].
    pub fn read_from_corr<R: Read>(r: &mut R) -> Result<(Frame, u64), WireError> {
        let mut head = [0u8; HEADER_LEN];
        r.read_exact(&mut head)?;
        let header = peek_header(&head)?.expect("full header buffered");
        let mut buf = vec![0u8; header.frame_len()];
        buf[..HEADER_LEN].copy_from_slice(&head);
        r.read_exact(&mut buf[HEADER_LEN..])?;
        Frame::decode_corr(&buf).map(|(frame, corr, _)| (frame, corr))
    }
}
