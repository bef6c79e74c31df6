//! Per-connection state for the connection engine: an arena receive
//! buffer frames are decoded straight out of (no per-frame read
//! allocation), and an outbox that survives partial writes. The same
//! type serves an accepted client socket and an outbound connection the
//! engine dialed (the router's backends) — only who sends requests and
//! who sends replies differs.
//!
//! The event loop owns every [`Conn`] and drives it strictly from
//! readiness edges: on a readable edge, [`Conn::fill`] pulls bytes until
//! `WouldBlock` and [`FrameBuf::next_frame`] peels complete frames off
//! the arena; on a writable edge (or new replies), [`Conn::flush`]
//! pushes the outbox until `WouldBlock`. Neither direction ever blocks
//! the loop.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;

use crate::wire::{Frame, WireError};

/// How much fresh space `fill` guarantees before each read.
const READ_CHUNK: usize = 16 * 1024;
/// Consumed-prefix size beyond which the arena compacts (copy-back of
/// the unconsumed tail) instead of growing.
const COMPACT_AT: usize = 64 * 1024;

/// Arena receive buffer with incremental frame extraction.
///
/// Bytes land at `filled`; decoding consumes from `start`. The region
/// `start..filled` is the unparsed tail. The consumed prefix is
/// reclaimed by compaction once it exceeds [`COMPACT_AT`] (or for free
/// whenever the buffer empties), so a long-lived connection settles
/// into a steady-state allocation no matter how many frames it sends.
#[derive(Debug, Default)]
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    filled: usize,
}

impl FrameBuf {
    /// Append bytes arriving from the network (test seam; the server
    /// path reads directly into the arena via [`Conn::fill`]).
    #[cfg(test)]
    fn push_bytes(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.buf[self.filled..self.filled + bytes.len()].copy_from_slice(bytes);
        self.filled += bytes.len();
    }

    /// Make room for at least `n` more bytes past `filled`.
    fn reserve(&mut self, n: usize) {
        if self.start == self.filled {
            // nothing unconsumed: reclaim the whole arena for free
            self.start = 0;
            self.filled = 0;
        } else if self.start >= COMPACT_AT {
            self.buf.copy_within(self.start..self.filled, 0);
            self.filled -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.filled + n {
            self.buf.resize(self.filled + n, 0);
        }
    }

    /// Extract the next complete frame, or `Ok(None)` when more bytes
    /// are needed, with its correlation id. Errors are protocol
    /// violations (bad version/type, oversized, checksum, malformed
    /// payload) — the connection must answer once and close.
    pub(crate) fn next_frame(&mut self) -> Result<Option<(Frame, u64)>, WireError> {
        match Frame::decode_corr(&self.buf[self.start..self.filled]) {
            Ok((frame, corr, used)) => {
                self.start += used;
                Ok(Some((frame, corr)))
            }
            // header fine as far as it goes, the rest still in flight
            Err(WireError::Io(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Unparsed bytes currently buffered.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.filled - self.start
    }
}

/// Why [`Conn::fill`] stopped.
pub(crate) enum FillOutcome {
    /// Socket drained for now (`WouldBlock`): wait for the next edge.
    Drained,
    /// Clean EOF from the peer.
    Eof,
    /// Socket error: drop the connection.
    Err,
}

/// One live connection owned by the event loop.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) recv: FrameBuf,
    /// Encoded frames awaiting the socket, oldest first.
    outbox: VecDeque<Vec<u8>>,
    /// Bytes of `outbox[0]` already written (partial-write resume).
    out_off: usize,
    /// Requests admitted to a queue whose replies have not yet been
    /// posted back — the pipelining window the in-flight cap bounds.
    pub(crate) in_flight: u32,
    /// Set when the connection must close once the outbox drains
    /// (protocol error answered, Bye sent, or server draining).
    pub(crate) closing: bool,
    /// Last write hit `WouldBlock`: an `EPOLLOUT` edge is pending and
    /// flushing resumes there.
    pub(crate) want_write: bool,
    /// Peer closed its write side (half-close): buffered frames are
    /// still answered, then the connection drains and closes.
    pub(crate) read_eof: bool,
    /// Outbound connection whose handshake has not finished: the first
    /// `EPOLLOUT` edge (or an error edge) settles it.
    pub(crate) connecting: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            recv: FrameBuf::default(),
            outbox: VecDeque::new(),
            out_off: 0,
            in_flight: 0,
            closing: false,
            want_write: false,
            read_eof: false,
            connecting: false,
        }
    }

    /// Pull everything the socket has into the arena (edge-triggered
    /// readiness demands reading to `WouldBlock`).
    pub(crate) fn fill(&mut self) -> FillOutcome {
        loop {
            self.recv.reserve(READ_CHUNK);
            let dst = &mut self.recv.buf[self.recv.filled..];
            match self.stream.read(dst) {
                Ok(0) => return FillOutcome::Eof,
                Ok(n) => self.recv.filled += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FillOutcome::Drained,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return FillOutcome::Err,
            }
        }
    }

    /// Queue an encoded frame and opportunistically flush: replies to
    /// fast requests usually leave in the same loop iteration they were
    /// produced in, with no extra epoll round trip.
    pub(crate) fn enqueue(&mut self, bytes: Vec<u8>, pool: &mut Vec<Vec<u8>>) -> io::Result<()> {
        self.outbox.push_back(bytes);
        self.flush(pool)
    }

    /// Write the outbox until empty or `WouldBlock`. Fully written
    /// buffers return to `pool` for reuse by reply encoders.
    pub(crate) fn flush(&mut self, pool: &mut Vec<Vec<u8>>) -> io::Result<()> {
        while let Some(front) = self.outbox.front() {
            match self.stream.write(&front[self.out_off..]) {
                Ok(n) => {
                    self.out_off += n;
                    if self.out_off >= front.len() {
                        self.out_off = 0;
                        let done = self.outbox.pop_front().unwrap();
                        recycle(done, pool);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.want_write = true;
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.want_write = false;
        Ok(())
    }

    pub(crate) fn outbox_empty(&self) -> bool {
        self.outbox.is_empty()
    }

    /// Return every queued buffer to the pool (connection teardown).
    pub(crate) fn recycle_outbox(&mut self, pool: &mut Vec<Vec<u8>>) {
        for buf in self.outbox.drain(..) {
            recycle(buf, pool);
        }
    }
}

/// Bound on pooled reply buffers: enough for a deep pipeline without
/// hoarding memory after a burst.
const POOL_CAP: usize = 256;
/// Buffers that grew past this many bytes are dropped instead of pooled
/// (a rare giant `MetricsReport` must not pin its capacity forever).
const POOL_BUF_MAX: usize = 64 * 1024;

pub(crate) fn recycle(mut buf: Vec<u8>, pool: &mut Vec<Vec<u8>>) {
    if pool.len() < POOL_CAP && buf.capacity() <= POOL_BUF_MAX {
        buf.clear();
        pool.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{WireShape, PROTOCOL_VERSION};

    fn sample_frames() -> Vec<(Frame, u64)> {
        vec![
            (Frame::Query { k: 3, trace: 11, shape: WireShape { closed: true, points: vec![(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)] } }, 11),
            (Frame::Stats, 12),
            (Frame::Delete { id: 99 }, 13),
            (Frame::Insert { image: 1, key: 5, trace: 14, shape: WireShape { closed: false, points: vec![(2.0, 3.0)] } }, 14),
        ]
    }

    /// Satellite requirement: a frame dribbled in one byte at a time
    /// must surface exactly once, exactly when its last byte lands.
    #[test]
    fn one_byte_dribble_round_trips() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for (f, corr) in &frames {
            f.encode_versioned(PROTOCOL_VERSION, *corr, &mut wire);
        }
        let mut fb = FrameBuf::default();
        let mut got = Vec::new();
        for (i, b) in wire.iter().enumerate() {
            fb.push_bytes(std::slice::from_ref(b));
            while let Some((frame, corr)) = fb.next_frame().unwrap() {
                got.push((frame, corr, i));
            }
        }
        assert_eq!(got.len(), frames.len());
        for ((want_f, want_corr), (got_f, got_corr, _)) in frames.iter().zip(&got) {
            assert_eq!(got_f, want_f);
            assert_eq!(got_corr, want_corr);
        }
        assert_eq!(fb.pending(), 0, "every byte consumed");
    }

    /// Satellite requirement: many frames arriving in a single write
    /// must all be extracted from one buffer fill.
    #[test]
    fn many_frames_in_one_write_round_trip() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for (f, corr) in &frames {
            f.encode_versioned(PROTOCOL_VERSION, *corr, &mut wire);
        }
        let mut fb = FrameBuf::default();
        fb.push_bytes(&wire);
        let mut got = Vec::new();
        while let Some(f) = fb.next_frame().unwrap() {
            got.push(f);
        }
        assert_eq!(got, frames);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn garbage_surfaces_as_wire_error() {
        let mut fb = FrameBuf::default();
        fb.push_bytes(&[0xFF, 0, 0, 0, 0, 0]);
        assert!(matches!(fb.next_frame(), Err(WireError::BadVersion(0xFF))));
    }

    /// The arena must not grow without bound on a long-lived chatty
    /// connection: consumed prefixes are reclaimed.
    #[test]
    fn arena_compacts_instead_of_growing() {
        let mut fb = FrameBuf::default();
        let mut frame_bytes = Vec::new();
        Frame::Delete { id: 7 }.encode_versioned(PROTOCOL_VERSION, 0, &mut frame_bytes);
        // push far more traffic than COMPACT_AT in total
        let rounds = (2 * COMPACT_AT) / frame_bytes.len() + 8;
        for _ in 0..rounds {
            fb.push_bytes(&frame_bytes);
            while fb.next_frame().unwrap().is_some() {}
        }
        assert!(
            fb.buf.len() <= 2 * COMPACT_AT + READ_CHUNK,
            "arena grew to {} bytes over a steady stream",
            fb.buf.len()
        );
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn recycle_caps_pool_size_and_buffer_size() {
        let mut pool = Vec::new();
        for _ in 0..POOL_CAP + 10 {
            recycle(Vec::with_capacity(16), &mut pool);
        }
        assert_eq!(pool.len(), POOL_CAP);
        let before = pool.len();
        recycle(Vec::with_capacity(POOL_BUF_MAX + 1), &mut pool);
        assert_eq!(pool.len(), before, "oversized buffers are not pooled");
    }
}
