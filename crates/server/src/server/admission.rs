//! Admission: what the event loop does with each request frame.
//!
//! **Backpressure.** Both queues are bounded. The event loop uses
//! `try_push`; when the queue is full the client gets [`Frame::Busy`]
//! immediately instead of the request queueing unboundedly — load is shed
//! at the edge, and an overloaded server stays responsive. Shed requests
//! are counted in [`crate::wire::ServerStats::busy_rejects`].
//!
//! `BoundedQueue` is both queues: a push that never blocks and one pop,
//! [`BoundedQueue::pop_batch`], for the read workers and the writer.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use geosir_obs as obs;

use super::{spawn, Shared};
use crate::wire::{error_code, Frame};

/// Why a push was refused.
enum PushError<T> {
    Full(T),
    Closed(T),
}

/// How much history the drain-rate estimate behind the `Busy` hint
/// looks at.
const DRAIN_WINDOW_US: u64 = 200_000;

/// The `Busy` retry-after hint until a drain rate has been observed.
const RETRY_FALLBACK_MS: u32 = 50;

/// Derive the `Busy{retry_after_ms}` hint from observed queue state:
/// the estimated wall time for `depth` queued items to drain at the
/// recently measured rate (`drained` items over `window_us`). Without
/// an observed rate the fallback applies. Clamped to
/// [1 ms, 10 s] so a cold or stalled window cannot produce a zero or
/// an absurd hint. As the queue drains, `depth` falls and the hint
/// shrinks with it.
fn retry_hint_ms(depth: usize, drained: u64, window_us: u64, fallback_ms: u32) -> u32 {
    if drained == 0 || window_us == 0 {
        return fallback_ms.max(1);
    }
    let est_us = (depth as u128 + 1) * window_us as u128 / drained as u128;
    (est_us / 1000).clamp(1, 10_000) as u32
}

/// Write-queue capacity; beyond it, inserts/deletes get `Busy`.
pub(super) const WRITE_QUEUE_CAP: usize = 256;

/// Bounded MPMC queue: `try_push` (never blocks) + one blocking pop,
/// [`Self::pop_batch`], that drains remaining items after close and
/// only then reports the queue finished.
/// Tracks its drain rate (for the `Busy` hint) and mirrors its depth
/// into a gauge.
pub(super) struct BoundedQueue<T> {
    inner: Mutex<QueueState<T>>,
    cv: Condvar,
    cap: usize,
    depth_gauge: Arc<obs::Gauge>,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Items popped since `window_start`. The window rolls over lazily,
    /// when the hint reads it [`DRAIN_WINDOW_US`] or more after it began.
    drained: u64,
    window_start: Instant,
    /// `(items, µs)` of the last window that drained anything, for a read
    /// landing right after a rotation.
    last_window: (u64, u64),
}

impl<T> QueueState<T> {
    /// `(items drained, elapsed µs)` over the recent window; `(0, 0)`
    /// until anything has drained (the hint then falls back).
    fn recent_rate(&mut self) -> (u64, u64) {
        let elapsed = self.window_start.elapsed().as_micros() as u64;
        if elapsed >= DRAIN_WINDOW_US {
            // the window is stale: remember it and start a fresh one
            let window = (self.drained, elapsed);
            if self.drained > 0 {
                self.last_window = window;
            }
            (self.drained, self.window_start) = (0, Instant::now());
            window
        } else if self.drained > 0 {
            (self.drained, elapsed.max(1))
        } else {
            self.last_window
        }
    }
}

impl<T> BoundedQueue<T> {
    pub(super) fn new(cap: usize, depth_gauge: Arc<obs::Gauge>) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                drained: 0,
                window_start: Instant::now(),
                last_window: (0, 0),
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
            depth_gauge,
        }
    }

    fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut st = self.inner.lock().unwrap();
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        st.items.push_back(item);
        let depth = st.items.len();
        drop(st);
        self.depth_gauge.set(depth as i64);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocking pop of at least one item, then up to `max - 1` more
    /// that are already queued — no waiting for stragglers. Appends to
    /// `out` in FIFO order and returns `true`, or returns `false` once
    /// the queue is closed and empty. A read worker pops up to
    /// `coalesce_max` and answers them against one snapshot; the writer
    /// pops up to a batch and logs it with one commit.
    pub(super) fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> bool {
        let max = max.max(1);
        let mut st = self.inner.lock().unwrap();
        loop {
            if !st.items.is_empty() {
                let take = max.min(st.items.len());
                out.extend(st.items.drain(..take));
                st.drained += take as u64;
                let depth = st.items.len();
                drop(st);
                self.depth_gauge.set(depth as i64);
                return true;
            }
            if st.closed {
                return false;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    pub(super) fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    pub(super) fn depth(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// The live retry hint for this queue right now.
    fn retry_hint(&self) -> u32 {
        let mut st = self.inner.lock().unwrap();
        let (drained, window_us) = st.recent_rate();
        retry_hint_ms(st.items.len(), drained, window_us, RETRY_FALLBACK_MS)
    }
}

/// Where a finished request's reply goes: a client connection of the
/// event loop. The worker encodes the reply with the request's
/// correlation id, posts the bytes on the engine's completion list and
/// wakes the loop, which routes them to the connection by token
/// (generation-checked — a completion for a connection that died in the
/// meantime is quietly recycled).
pub(super) struct Conn {
    #[cfg(target_os = "linux")]
    io: Arc<crate::engine::Shared>,
    token: u64,
    corr: u64,
}

impl Conn {
    pub(super) fn send(&self, frame: Frame) {
        #[cfg(target_os = "linux")]
        self.io.complete(self.token, self.corr, &frame);
    }
}

/// One admitted request: the decoded frame plus where its reply goes.
pub(super) struct Job {
    pub(super) frame: Frame,
    pub(super) reply: Conn,
    pub(super) enqueued: Instant,
}

impl Job {
    /// The client-minted trace id riding in the frame (0 = none).
    pub(super) fn trace(&self) -> u64 {
        match &self.frame {
            Frame::Query { trace, .. }
            | Frame::Explain { trace, .. }
            | Frame::QueryApprox { trace, .. }
            | Frame::Insert { trace, .. } => *trace,
            _ => 0,
        }
    }
}

/// Spawn the I/O side of the server: the epoll event loop plus a reaper
/// thread that joins the worker/writer set and then tells the loop no
/// further completions can arrive.
#[cfg(target_os = "linux")]
pub(super) fn spawn_serve_path(
    listener: TcpListener,
    core: Vec<std::thread::JoinHandle<()>>,
    shared: &Arc<Shared>,
) -> std::io::Result<Vec<std::thread::JoinHandle<()>>> {
    let io = Arc::new(crate::engine::Shared::new()?);
    let io_exit = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    let (io2, exit2) = (io.clone(), io_exit.clone());
    threads.push(
        spawn("geosir-reaper", move || {
            for t in core {
                let _ = t.join();
            }
            exit2.store(true, Ordering::SeqCst);
            io2.wake();
        })?,
    );
    // Hand the watchdog a handle to the loop's eventfd: an otherwise
    // idle loop (epoll timeout -1) is pinged each watchdog interval so a
    // fresh tick stamp proves it can still run.
    let io3 = io.clone();
    shared.health.set_waker(Box::new(move || io3.wake()));
    let mut handler = NodeHandler { shared: shared.clone(), io: io.clone(), io_exit };
    threads.push(spawn("geosir-io", move || crate::engine::run(listener, &io, &mut handler))?);
    Ok(threads)
}

/// The node is a role of the epoll connection engine; there is no
/// second serve path for other platforms.
#[cfg(not(target_os = "linux"))]
pub(super) fn spawn_serve_path(
    _listener: TcpListener,
    _core: Vec<std::thread::JoinHandle<()>>,
    _shared: &Arc<Shared>,
) -> std::io::Result<Vec<std::thread::JoinHandle<()>>> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the node runs on the epoll connection engine (Linux only)",
    ))
}

/// The node as a role of the connection engine: requests are admitted
/// to the worker queues (or refused on the spot), replies come back
/// from the workers through [`crate::engine::Shared::complete`].
#[cfg(target_os = "linux")]
struct NodeHandler {
    shared: Arc<Shared>,
    io: Arc<crate::engine::Shared>,
    /// Set by the reaper once every worker and the writer have exited:
    /// all completions are posted, the loop flushes and leaves.
    io_exit: Arc<AtomicBool>,
}

#[cfg(target_os = "linux")]
impl crate::engine::Handler for NodeHandler {
    fn on_request(
        &mut self,
        _cx: &mut crate::engine::Ctx<'_>,
        token: u64,
        frame: Frame,
        corr: u64,
    ) -> crate::engine::Admit {
        use crate::engine::Admit;
        let shared = &self.shared;
        let queue = match frame {
            Frame::Query { .. }
            | Frame::Explain { .. }
            | Frame::QueryApprox { .. }
            | Frame::QueryBatch { .. }
            | Frame::Stats
            | Frame::MetricsDump
            | Frame::Topology => &shared.read_queue,
            Frame::Insert { .. } | Frame::Delete { .. } if shared.replica => {
                let message = "a replica applies its primary's log, not writes".into();
                return Admit::Reply(Frame::Error { code: error_code::READ_ONLY, message });
            }
            Frame::Insert { .. } | Frame::Delete { .. } => &shared.write_queue,
            Frame::Shutdown => {
                shared.begin_shutdown();
                return Admit::Close(Frame::Bye);
            }
            _ => {
                return Admit::Reply(Frame::Error {
                    code: error_code::UNEXPECTED_FRAME,
                    message: "response frame sent as request".into(),
                })
            }
        };
        let reply = Conn { io: self.io.clone(), token, corr };
        match submit(queue, shared, Job { frame, reply, enqueued: Instant::now() }) {
            Ok(()) => Admit::Pending,
            Err(immediate) => Admit::Reply(immediate),
        }
    }

    fn shutting_down(&self) -> bool {
        self.shared.is_shutdown()
    }

    fn exit_ready(&self) -> bool {
        self.io_exit.load(Ordering::SeqCst)
    }

    fn on_wakeup(&mut self, events: usize) {
        self.shared.metrics.poll_wakeups.inc();
        self.shared.metrics.poll_events.record(events as u64);
        self.shared.health.stamp_loop_tick();
    }

    fn on_conns_changed(&mut self, delta: i64) {
        self.shared.metrics.conns_open.add(delta);
    }

    fn on_io_error(&mut self) {
        self.shared.metrics.io_errors.inc();
    }

    fn on_protocol_error(&mut self) {
        self.shared.metrics.protocol_errors.inc();
    }
}

/// Submit to a queue, translating refusal into the shed/shutdown reply.
/// The `Err` frame is cold (shed/shutdown only), so its size is fine.
#[allow(clippy::result_large_err)]
fn submit(queue: &BoundedQueue<Job>, shared: &Shared, job: Job) -> Result<(), Frame> {
    match queue.try_push(job) {
        Ok(()) => Ok(()),
        Err(PushError::Full(_)) => {
            shared.metrics.busy_rejects.inc();
            // hint derived from live queue depth + observed drain rate,
            // so a draining queue hands out ever-shorter waits
            Err(Frame::Busy { retry_after_ms: queue.retry_hint() })
        }
        Err(PushError::Closed(_)) => Err(Frame::Error {
            code: error_code::SHUTTING_DOWN,
            message: "server is shutting down".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn bounded_queue_sheds_when_full_and_drains_after_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2, Default::default());
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        match q.try_push(3) {
            Err(PushError::Full(v)) => assert_eq!(v, 3),
            _ => panic!("push into a full queue must refuse"),
        }
        q.close();
        match q.try_push(4) {
            Err(PushError::Closed(_)) => {}
            _ => panic!("push into a closed queue must refuse"),
        }
        // admitted items still drain after close, in order, one per pop
        let mut out = Vec::new();
        assert!(q.pop_batch(1, &mut out));
        assert_eq!(out, [1]);
        assert!(q.pop_batch(1, &mut out));
        assert_eq!(out, [1, 2]);
        assert!(!q.pop_batch(1, &mut out), "closed and empty: the pop reports the end");
        assert_eq!(out, [1, 2]);
    }

    #[test]
    fn bounded_queue_cap_zero_clamps_to_one() {
        let q: BoundedQueue<u32> = BoundedQueue::new(0, Default::default());
        assert!(q.try_push(1).is_ok());
        assert!(matches!(q.try_push(2), Err(PushError::Full(_))));
    }

    /// Satellite requirement: the `Busy` hint must be proportional to the
    /// backlog at a fixed drain rate, so it shrinks as the queue drains.
    #[test]
    fn retry_hint_shrinks_as_the_queue_drains() {
        // observed rate: 50 items per 100 ms → 2 ms per item
        let hints: Vec<u32> =
            [100usize, 50, 20, 5, 0].iter().map(|&d| retry_hint_ms(d, 50, 100_000, 50)).collect();
        for pair in hints.windows(2) {
            assert!(pair[0] > pair[1], "hint must shrink with depth: {hints:?}");
        }
        assert!(hints[0] >= 200, "100 queued at 2 ms each is ≥ 200 ms, got {}", hints[0]);
        assert!(hints[4] <= 2, "an empty queue drains immediately, got {}", hints[4]);
    }

    #[test]
    fn retry_hint_falls_back_without_an_observed_rate() {
        assert_eq!(retry_hint_ms(10, 0, 0, 50), 50);
        assert_eq!(retry_hint_ms(10, 0, 100_000, 50), 50);
        // fallback 0 still yields a usable nonzero hint
        assert_eq!(retry_hint_ms(10, 0, 0, 0), 1);
    }

    #[test]
    fn retry_hint_is_clamped_against_stalls() {
        // 1 item drained over 10 s with a deep backlog: clamped to 10 s
        assert_eq!(retry_hint_ms(10_000, 1, 10_000_000, 50), 10_000);
    }

    #[test]
    fn drain_tracker_reports_pops() {
        let q: BoundedQueue<u32> = BoundedQueue::new(8, Default::default());
        for i in 0..6 {
            assert!(q.try_push(i).is_ok());
        }
        let mut out = Vec::new();
        for _ in 0..6 {
            assert!(q.pop_batch(1, &mut out));
        }
        assert_eq!(out, [0, 1, 2, 3, 4, 5]);
        let (drained, window_us) = q.inner.lock().unwrap().recent_rate();
        assert_eq!(drained, 6);
        assert!(window_us > 0);
    }

    #[test]
    fn pop_blocks_until_push() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4, Default::default()));
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            let mut out = Vec::new();
            let popped = q2.pop_batch(1, &mut out);
            (popped, out)
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "an empty queue's pop waits");
        assert!(q.try_push(42).is_ok());
        assert_eq!(t.join().unwrap(), (true, vec![42]));
    }

    /// The writer's bound: a pop of 64 over a deeper backlog takes
    /// exactly the first 64, in order, and leaves the rest queued.
    #[test]
    fn pop_batch_takes_at_most_max_in_fifo_order() {
        let q: BoundedQueue<u32> = BoundedQueue::new(128, Default::default());
        for i in 0..100 {
            assert!(q.try_push(i).is_ok());
        }
        let mut out = Vec::new();
        assert!(q.pop_batch(64, &mut out));
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert_eq!(q.depth(), 36);
        out.clear();
        assert!(q.pop_batch(64, &mut out));
        assert_eq!(out, (64..100).collect::<Vec<_>>(), "the rest, without waiting for more");
    }
}
