//! Hostile client bytes, shared by the codec's tests and the node's and
//! the router's socket tests (`wire_proptest.rs`, `pipeline.rs`,
//! `router_pipeline.rs`; none uses all of it).
#![allow(dead_code)]

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use geosir_core::dynamic::{LevelExplain, QueryExplain};
use geosir_serve::wire::error_code;
use geosir_serve::{Frame, PROTOCOL_VERSION};

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
