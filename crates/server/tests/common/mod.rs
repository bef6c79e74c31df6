//! What this crate's integration tests share (none uses all of it): the
//! fixtures — scratch directories, the base template, shapes, polling,
//! a raw HTTP GET, Prometheus-text and slow-log readers — and the
//! hostile client bytes of the codec's, the node's and the router's
//! socket tests.
#![allow(dead_code)]

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use geosir_core::dynamic::{LevelExplain, QueryExplain};
use geosir_core::matcher::MatchConfig;
use geosir_geom::rangesearch::Backend;
use geosir_geom::{Point, Polyline};
use geosir_serve::wire::error_code;
use geosir_serve::{BaseTemplate, Frame, ServeConfig, PROTOCOL_VERSION};
use rand::prelude::*;
use rand::rngs::StdRng;

/// A scratch directory of this test process, emptied.
pub fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("geosir-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// The CLI's backend and β over an insert buffer of 8, so that a few
/// dozen inserts already cascade into levels.
pub fn template() -> BaseTemplate {
    BaseTemplate {
        alpha: 0.0,
        backend: Backend::RangeTree,
        config: MatchConfig { beta: 0.2, ..Default::default() },
        buffer_cap: 8,
    }
}

/// [`template`] with every rank certified, for the tests that compare
/// top-k lists to the bit: the default best-effort rule for ranks 2..k
/// is not partition-independent.
pub fn exact_template() -> BaseTemplate {
    let mut t = template();
    t.config.certify_all = true;
    t
}

/// One worker.
pub fn serve_cfg() -> ServeConfig {
    ServeConfig { workers: 1, ..Default::default() }
}

/// The `i`-th of a family of distinct triangles.
pub fn tri(i: u64) -> Polyline {
    Polyline::closed(vec![
        Point::new(0.0, 0.0),
        Point::new(3.0 + i as f64 * 0.01, 0.2),
        Point::new(1.5, 2.0 + (i % 5) as f64 * 0.1),
    ])
    .unwrap()
}

/// Jittered regular 12-gon — simple by construction (star-shaped).
pub fn polygon(rng: &mut StdRng) -> Polyline {
    let n = 12;
    let pts: Vec<Point> = (0..n)
        .map(|i| {
            let t = i as f64 / n as f64 * std::f64::consts::TAU;
            let r = rng.random_range(0.6..1.0);
            Point::new(r * t.cos(), r * t.sin())
        })
        .collect();
    Polyline::closed(pts).expect("star-shaped polygon is simple")
}

/// Re-evaluate `cond` every 5 ms until it holds or `deadline` passes.
pub fn poll_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// Raw GET against an HTTP plane: `(status, body)`. A non-200 is data,
/// not an error.
pub fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect http plane");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read http response");
    let status = out.split_whitespace().nth(1).and_then(|v| v.parse().ok()).unwrap_or(0);
    let body = out.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// The value of the Prometheus-text series that is exactly `prefix`
/// (name and label set).
pub fn series_value(text: &str, prefix: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(prefix)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

/// Every rotating-JSONL segment in `dir`, concatenated (a slow log may
/// have rotated mid-test).
pub fn slow_log_text(dir: &Path) -> String {
    let mut out = String::new();
    for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        out.push_str(&std::fs::read_to_string(e.path()).unwrap_or_default());
    }
    out
}

/// The object of `json` (a request ring's `/debug/last_queries` array)
/// whose `trace_id` is `trace`, as the ring rendered it.
pub fn ring_object(json: &str, trace: u64) -> &str {
    let start = json
        .find(&format!("{{\"trace_id\":{trace},"))
        .unwrap_or_else(|| panic!("trace {trace} not in the ring: {json}"));
    let mut depth = 0;
    for (i, c) in json[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth == 1 => return &json[start..=start + i],
            '}' => depth -= 1,
            _ => {}
        }
    }
    panic!("unterminated record of trace {trace}: {json}")
}

/// The line of a slow-query log whose `trace_id` is `trace`.
pub fn slow_line(text: &str, trace: u64) -> &str {
    let key = format!("{{\"trace_id\":{trace},");
    let mut lines = text.lines().filter(|l| l.starts_with(&key));
    let line = lines.next().unwrap_or_else(|| panic!("trace {trace} not in the log:\n{text}"));
    assert!(lines.next().is_none(), "trace {trace} logged twice:\n{text}");
    line
}

/// Header + correlation word before the payload, checksum after it.
pub const PAYLOAD_AT: usize = 14;

/// Reference FNV-1a, mirroring the codec's checksum.
pub fn fnv1a_ref(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The frame in `buf` with its payload replaced: length prefix patched,
/// correlation word kept, checksum recomputed — so the damage gets past
/// the header and checksum checks and reaches the payload decoder.
pub fn reframe(buf: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = buf[..PAYLOAD_AT].to_vec();
    out[2..6].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a_ref(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// A frame its checksum vouches for and the payload decoder must still
/// refuse: an `ExplainReport` whose one level ends where its 4-byte ring
/// count should begin. Before `get_explain` guarded that count, decoding
/// this panicked — and took the loop thread it ran on with it.
pub fn explain_report_without_ring_count() -> Vec<u8> {
    let report = QueryExplain { levels: vec![LevelExplain::default()], ..Default::default() };
    let mut buf = Vec::new();
    Frame::ExplainReport { epoch: 0, trace: 0, total_us: 0, queue_us: 0, matches: vec![], report }
        .encode(&mut buf);
    // the ring count is the payload's last word, ahead of the checksum
    reframe(&buf, &buf[PAYLOAD_AT..buf.len() - 8])
}

/// A `Stats` request that is fine but for its version byte, with a
/// current one behind it that must never be answered.
pub fn stats_with_version(version: u8) -> Vec<u8> {
    let mut wire = Vec::new();
    Frame::Stats.encode_versioned(PROTOCOL_VERSION, 7, &mut wire);
    wire[0] = version;
    Frame::Stats.encode_versioned(PROTOCOL_VERSION, 8, &mut wire);
    wire
}

/// Three hostile connections — the version byte before the current one,
/// the one after, and [`explain_report_without_ring_count`] — each of
/// which must end as [`malformed_then_eof`] says, the first two naming
/// the byte they refuse.
pub fn three_hostile_connections(addr: SocketAddr) {
    for version in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
        let said = malformed_then_eof(addr, &stats_with_version(version));
        assert!(said.contains(&format!("version {version} ")), "must name the byte: {said}");
    }
    malformed_then_eof(addr, &explain_report_without_ring_count());
}

/// Send `bytes` on a fresh connection and read it to EOF: the answer
/// must be exactly one `Error{MALFORMED}` in the current layout with
/// correlation id 0, then the close. Returns the error's message.
pub fn malformed_then_eof(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(bytes).unwrap();
    let mut reply = Vec::new();
    s.read_to_end(&mut reply).expect("the server answers, then closes");
    let (frame, corr, used) = Frame::decode_corr(&reply).expect("one whole frame");
    assert_eq!((corr, used), (0, reply.len()), "one frame and no stray byte");
    match frame {
        Frame::Error { code: error_code::MALFORMED, message } => message,
        other => panic!("want Error{{MALFORMED}}, got {other:?}"),
    }
}
