//! The connection engine: one thread, one epoll instance, every socket.
//!
//! [`run`] is the readiness loop both roles of this crate serve from.
//! It owns the listener, every accepted client connection and every
//! outbound connection it was asked to dial, and it knows nothing about
//! what a frame *means* — that is the [`Handler`]'s job:
//!
//! - the **node** ([`crate::server`]) admits each request to a worker
//!   queue and answers through [`Shared::complete`] from another thread;
//! - the **router** ([`crate::cluster`]) turns each request into
//!   sub-requests on its backend connections ([`Ctx::connect`],
//!   [`Ctx::send`]), matches their replies by correlation id
//!   ([`Handler::on_peer_frame`]), runs its hedge / deadline / backoff
//!   clocks off [`Handler::next_deadline`], and answers through
//!   [`Ctx::reply`] from inside the loop.
//!
//! What the engine guarantees either way: edge-triggered non-blocking
//! I/O (see [`crate::conn`], [`crate::poll`]); a generation-checked slab
//! per socket kind, so a completion or event addressed to a connection
//! that died — and whose slot was reused — is dropped, never
//! misdelivered; a per-connection in-flight window
//! ([`MAX_IN_FLIGHT`]) beyond which the connection's receive
//! buffer is simply not drained; a protocol violation (a version byte
//! other than [`PROTOCOL_VERSION`] included) answered with exactly one
//! `Error{MALFORMED}`, then the connection closed; exactly one
//! completion consumed per admitted request; recycled encode buffers.
//!
//! There is no second serve path: off Linux this module is not built
//! and both roles refuse to start with `Unsupported`.
//!
//! The handler is a type parameter: each role gets its own
//! monomorphised loop, and the hooks a role leaves at their defaults
//! compile to nothing.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use geosir_obs::expo::is_transient_accept_error;

use crate::conn::{self, Conn, FillOutcome};
use crate::poll::{self, Poller, Waker};
use crate::wire::{error_code, Frame, PROTOCOL_VERSION};

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKER_TOKEN: u64 = u64::MAX - 1;
/// Tokens with this bit name an outbound connection, the rest a client.
const PEER_BIT: u64 = 1 << 63;
const GEN_MASK: u32 = 0x7FFF_FFFF;
/// How long the exit path keeps flushing unsent replies.
const EXIT_GRACE: Duration = Duration::from_millis(250);

/// The half of the engine other threads may touch: the poller, the
/// eventfd that wakes it, replies finished elsewhere, and the encode
/// buffers the loop hands back.
pub(crate) struct Shared {
    poller: Poller,
    waker: Waker,
    /// Finished replies awaiting delivery: (client token, bytes).
    completions: Mutex<Vec<(u64, Vec<u8>)>>,
    /// Recycled reply buffers (bounded; see [`conn::recycle`]).
    pool: Mutex<Vec<Vec<u8>>>,
}

impl Shared {
    pub(crate) fn new() -> io::Result<Shared> {
        Ok(Shared {
            poller: Poller::new()?,
            waker: Waker::new()?,
            completions: Mutex::new(Vec::new()),
            pool: Mutex::new(Vec::new()),
        })
    }

    /// Make the loop run one iteration (a flag it polls has changed).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    /// Answer an admitted request from outside the loop: encode `frame`
    /// into a pooled buffer, post it for the client connection `token`,
    /// wake the loop.
    pub(crate) fn complete(&self, token: u64, corr: u64, frame: &Frame) {
        let mut buf = self.pool.lock().unwrap().pop().unwrap_or_default();
        frame.encode_versioned(PROTOCOL_VERSION, corr, &mut buf);
        self.completions.lock().unwrap().push((token, buf));
        self.waker.wake();
    }
}

/// What became of a request frame handed to [`Handler::on_request`].
#[allow(clippy::large_enum_variant)] // the refusals are cold
pub(crate) enum Admit {
    /// Taken: exactly one completion for this connection will follow
    /// ([`Shared::complete`] or [`Ctx::reply`]).
    Pending,
    /// Answered on the spot (refusal, cheap local answer).
    Reply(Frame),
    /// Answered on the spot, then the connection closes.
    Close(Frame),
}

/// Most admitted-but-unanswered requests one client connection may keep
/// outstanding, on a node and on the router alike; past it the loop
/// stops draining that connection's receive buffer, which bounds
/// per-connection memory under a firehose client.
pub const MAX_IN_FLIGHT: u32 = 128;

/// A role served by the engine. The first three methods are the whole
/// contract of a node; outbound connections and timers are opt-in.
pub(crate) trait Handler {
    /// A complete request frame arrived on client connection `token`.
    fn on_request(&mut self, cx: &mut Ctx<'_>, token: u64, frame: Frame, corr: u64) -> Admit;
    /// Stop accepting; close connections as they drain.
    fn shutting_down(&self) -> bool;
    /// No further completion can arrive: flush briefly and leave.
    fn exit_ready(&self) -> bool;

    // -- telemetry ---------------------------------------------------
    fn on_wakeup(&mut self, _events: usize) {}
    fn on_conns_changed(&mut self, _delta: i64) {}
    fn on_io_error(&mut self) {}
    fn on_protocol_error(&mut self) {}

    // -- outbound connections and timers -----------------------------
    /// Runs once per loop iteration after socket events: fire due
    /// timers, take work posted from other threads.
    fn on_tick(&mut self, _cx: &mut Ctx<'_>) {}
    /// The nearest instant `on_tick` must run at even if no socket
    /// stirs; bounds the `epoll_wait` timeout.
    fn next_deadline(&mut self) -> Option<Instant> {
        None
    }
    /// The connect started by [`Ctx::connect`] completed.
    fn on_peer_up(&mut self, _cx: &mut Ctx<'_>, _peer: u64) {}
    /// A frame arrived on an outbound connection.
    fn on_peer_frame(&mut self, _cx: &mut Ctx<'_>, _peer: u64, _frame: Frame, _corr: u64) {}
    /// The outbound connection is gone (connect refused, I/O error,
    /// EOF, malformed frame) and already closed.
    fn on_peer_down(&mut self, _cx: &mut Ctx<'_>, _peer: u64) {}
}

/// Generation-checked slab: tokens are `tag | generation << 32 | slot`,
/// so whatever still holds the token of an entry that was removed — an
/// epoll event, a completion, a timer — finds nobody, even after the
/// slot is reused. The engine keeps its connections in two of these;
/// the router keeps its in-flight table in one.
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    tag: u64,
}

impl<T> Slab<T> {
    pub(crate) fn new(tag: u64) -> Slab<T> {
        Slab { slots: Vec::new(), gens: Vec::new(), free: Vec::new(), tag }
    }

    fn token(&self, idx: usize) -> u64 {
        self.tag | ((self.gens[idx] as u64) << 32) | idx as u64
    }

    /// Slot of the live entry `token` names, if it still exists.
    fn index(&self, token: u64) -> Option<usize> {
        let idx = (token & 0xFFFF_FFFF) as usize;
        let generation = (token >> 32) as u32 & GEN_MASK;
        (idx < self.slots.len() && self.gens[idx] == generation && self.slots[idx].is_some())
            .then_some(idx)
    }

    pub(crate) fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        self.index(token).and_then(|idx| self.slots[idx].as_mut())
    }

    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Store `value`; returns the token that names it from now on.
    pub(crate) fn insert(&mut self, value: T) -> u64 {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.gens.push(0);
            self.slots.len() - 1
        });
        self.slots[idx] = Some(value);
        self.token(idx)
    }

    pub(crate) fn remove(&mut self, token: u64) -> Option<T> {
        let idx = self.index(token)?;
        self.gens[idx] = (self.gens[idx] + 1) & GEN_MASK;
        self.free.push(idx);
        self.slots[idx].take()
    }
}

impl Slab<Conn> {
    /// Store a connection and register its socket under its token.
    fn register(&mut self, poller: &Poller, conn: Conn) -> io::Result<u64> {
        let fd = conn.stream.as_raw_fd();
        let token = self.insert(conn);
        if let Err(e) = poller.add(fd, token) {
            self.remove(token);
            return Err(e);
        }
        Ok(token)
    }

    /// Deregister and drop a connection, recycling its unsent buffers.
    fn close(&mut self, poller: &Poller, token: u64, pool: &mut Vec<Vec<u8>>) -> bool {
        let Some(mut c) = self.remove(token) else { return false };
        let _ = poller.delete(c.stream.as_raw_fd());
        c.recycle_outbox(pool);
        true
    }
}

/// What a [`Handler`] may do to the engine from inside a hook.
pub(crate) struct Ctx<'a> {
    io: &'a Shared,
    peers: Slab<Conn>,
    /// Loop-local recycle staging (handed to `Shared::pool` each round).
    pool: Vec<Vec<u8>>,
    /// Replies produced inside the loop, delivered like completions.
    done: Vec<(u64, Vec<u8>)>,
}

impl Ctx<'_> {
    /// Dial `addr` without blocking; the returned token names the
    /// connection in every later call and hook. The outcome arrives as
    /// [`Handler::on_peer_up`] or [`Handler::on_peer_down`].
    pub(crate) fn connect(&mut self, addr: SocketAddr) -> io::Result<u64> {
        let stream = poll::connect_nonblocking(&addr)?;
        let _ = stream.set_nodelay(true);
        let mut conn = Conn::new(stream);
        conn.connecting = true;
        self.peers.register(&self.io.poller, conn)
    }

    /// Write `frame` (correlation id `corr`) to an established
    /// outbound connection. An error means the
    /// connection is unusable; the caller closes it.
    pub(crate) fn send(&mut self, peer: u64, frame: &Frame, corr: u64) -> io::Result<()> {
        let Some(c) = self.peers.get_mut(peer) else {
            return Err(io::ErrorKind::NotConnected.into());
        };
        let mut buf = self.pool.pop().unwrap_or_default();
        frame.encode_versioned(PROTOCOL_VERSION, corr, &mut buf);
        c.enqueue(buf, &mut self.pool)
    }

    /// Drop an outbound connection (no hook fires).
    pub(crate) fn close(&mut self, peer: u64) {
        self.peers.close(&self.io.poller, peer, &mut self.pool);
    }

    /// Answer an admitted request from inside the loop. A token whose
    /// connection is gone is fine: the reply is recycled at delivery.
    pub(crate) fn reply(&mut self, token: u64, corr: u64, frame: &Frame) {
        let mut buf = self.pool.pop().unwrap_or_default();
        frame.encode_versioned(PROTOCOL_VERSION, corr, &mut buf);
        self.done.push((token, buf));
    }
}

/// Serve `listener` until the handler says to leave. See the module doc.
pub(crate) fn run<H: Handler>(listener: TcpListener, io: &Shared, handler: &mut H) {
    if listener.set_nonblocking(true).is_err()
        || io.poller.add_read_level(listener.as_raw_fd(), LISTENER_TOKEN).is_err()
        || io.poller.add_read_level(io.waker.fd(), WAKER_TOKEN).is_err()
    {
        handler.on_io_error();
        return;
    }

    let mut clients: Slab<Conn> = Slab::new(0);
    let mut cx = Ctx { io, peers: Slab::new(PEER_BIT), pool: Vec::new(), done: Vec::new() };
    let mut events = vec![poll::EpollEvent::default(); 1024];
    let mut comps: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut touched: Vec<usize> = Vec::new(); // conns to pump this round
    let mut dead: Vec<usize> = Vec::new();
    let mut exit_deadline: Option<Instant> = None;

    loop {
        let timeout = if !cx.done.is_empty() {
            0 // a hook answered during the pump: deliver without parking
        } else {
            let base = if exit_deadline.is_some() { 10 } else { -1 };
            match handler.next_deadline() {
                Some(at) => {
                    let us = at.saturating_duration_since(Instant::now()).as_micros();
                    let ms = us.div_ceil(1000).min(i32::MAX as u128) as i32;
                    if base < 0 { ms } else { ms.min(base) }
                }
                None => base,
            }
        };
        let n = match io.poller.wait(&mut events, timeout) {
            Ok(n) => n,
            Err(_) => {
                handler.on_io_error();
                break;
            }
        };
        handler.on_wakeup(n);

        touched.clear();
        dead.clear();
        let mut accept_wake = false;
        for ev in &events[..n] {
            let (token, flags) = (ev.data, ev.events);
            if token == LISTENER_TOKEN {
                accept_wake = true;
                continue;
            }
            if token == WAKER_TOKEN {
                io.waker.drain();
                continue;
            }
            if token & PEER_BIT != 0 {
                peer_event(&mut cx, handler, token, flags);
                continue;
            }
            let Some(idx) = clients.index(token) else {
                continue; // stale event for a recycled slot
            };
            let c = clients.slots[idx].as_mut().expect("index() checked the slot");
            if flags & (poll::EPOLLERR | poll::EPOLLHUP) != 0 {
                dead.push(idx);
                continue;
            }
            if flags & poll::EPOLLOUT != 0 && c.want_write && c.flush(&mut cx.pool).is_err() {
                dead.push(idx);
                continue;
            }
            if flags & (poll::EPOLLIN | poll::EPOLLRDHUP) != 0 {
                match c.fill() {
                    FillOutcome::Drained => touched.push(idx),
                    FillOutcome::Eof => {
                        // half-close: parse and answer what's buffered,
                        // deliver outstanding replies, then close
                        c.read_eof = true;
                        touched.push(idx);
                    }
                    FillOutcome::Err => dead.push(idx),
                }
            }
        }

        handler.on_tick(&mut cx);

        // Deliver completions: those posted by other threads (swap
        // keeps the poster-facing lock window tiny) and those the
        // handler produced inside the loop.
        {
            let mut guard = io.completions.lock().unwrap();
            std::mem::swap(&mut comps, &mut *guard);
        }
        comps.append(&mut cx.done);
        for (token, buf) in comps.drain(..) {
            let Some(idx) = clients.index(token).filter(|i| !dead.contains(i)) else {
                conn::recycle(buf, &mut cx.pool);
                continue;
            };
            let c = clients.slots[idx].as_mut().expect("index() checked the slot");
            c.in_flight = c.in_flight.saturating_sub(1);
            if c.enqueue(buf, &mut cx.pool).is_err() {
                dead.push(idx);
            } else {
                // the freed in-flight slot may unblock buffered frames
                touched.push(idx);
            }
        }

        // Accept sweep (level-triggered: whatever backlog remains fires
        // the next wait).
        if accept_wake {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if handler.shutting_down() {
                            continue; // a late client
                        }
                        let _ = stream.set_nodelay(true);
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let Ok(token) = clients.register(&io.poller, Conn::new(stream)) else {
                            continue;
                        };
                        let idx = clients.index(token).expect("just registered");
                        handler.on_conns_changed(1);
                        // read anything that raced ahead of registration
                        let c = clients.slots[idx].as_mut().expect("just inserted");
                        match c.fill() {
                            FillOutcome::Drained => touched.push(idx),
                            FillOutcome::Eof => {
                                c.read_eof = true;
                                touched.push(idx);
                            }
                            FillOutcome::Err => dead.push(idx),
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => {
                        if handler.shutting_down() {
                            break;
                        }
                        if !is_transient_accept_error(e.kind()) {
                            handler.on_io_error();
                            break; // back off; level-trigger retries us
                        }
                    }
                }
            }
        }

        // Pump: extract and dispatch buffered frames per touched conn.
        touched.sort_unstable();
        touched.dedup();
        for &idx in touched.iter() {
            if dead.contains(&idx) {
                continue;
            }
            let token = clients.token(idx);
            let Some(c) = clients.slots[idx].as_mut() else { continue };
            if !pump_conn(c, token, handler, &mut cx) {
                dead.push(idx);
            }
        }

        // Close sweep. Cheap path: only conns we touched this round;
        // full sweep once shutdown or exit is in progress (idle conns
        // must notice).
        let shutting = handler.shutting_down();
        let exiting = exit_deadline.is_some();
        let sweep_all = shutting || exiting;
        let candidates: Vec<usize> = if sweep_all {
            (0..clients.slots.len()).collect()
        } else {
            touched.clone()
        };
        for idx in candidates {
            if dead.contains(&idx) {
                continue;
            }
            let Some(c) = clients.slots[idx].as_mut() else { continue };
            let drained = c.in_flight == 0 && c.outbox_empty();
            let done = (c.closing && c.outbox_empty())
                || (c.read_eof && drained)
                || (shutting && drained)
                || (exiting && c.outbox_empty());
            if done {
                dead.push(idx);
            }
        }
        for &idx in dead.iter() {
            if clients.close(&io.poller, clients.token(idx), &mut cx.pool) {
                handler.on_conns_changed(-1);
            }
        }

        // Hand recycled buffers back to the pool other threads draw on.
        if !cx.pool.is_empty() {
            let mut sp = io.pool.lock().unwrap();
            sp.append(&mut cx.pool);
            sp.truncate(256);
        }

        // Exit: every completion that will ever exist is posted. Deliver
        // and flush what remains, briefly — one posted since this round's
        // delivery included.
        if handler.exit_ready() {
            let deadline = *exit_deadline.get_or_insert_with(|| Instant::now() + EXIT_GRACE);
            let posted = !io.completions.lock().unwrap().is_empty();
            let unflushed = posted || clients.slots.iter().flatten().any(|c| !c.outbox_empty());
            if !unflushed || Instant::now() >= deadline {
                break;
            }
        }
    }
}

/// Readiness on an outbound connection: settle a pending connect,
/// resume a partial write, hand every complete frame to the handler.
/// Whatever kills the connection closes it first and reports it once.
fn peer_event<H: Handler>(cx: &mut Ctx<'_>, handler: &mut H, token: u64, flags: u32) {
    let Some(c) = cx.peers.get_mut(token) else {
        return; // stale event: closed earlier this round
    };
    // A refused connect reports ERR|HUP; on an established socket HUP
    // alone still leaves buffered replies worth reading first.
    let mut alive = flags & poll::EPOLLERR == 0 && !(c.connecting && flags & poll::EPOLLHUP != 0);
    let mut came_up = false;
    if alive && flags & poll::EPOLLOUT != 0 {
        if c.connecting {
            alive = matches!(c.stream.take_error(), Ok(None));
            c.connecting = !alive;
            came_up = alive;
        }
        alive = alive && c.flush(&mut cx.pool).is_ok();
    }
    if came_up {
        handler.on_peer_up(cx, token);
    }
    if alive && flags & (poll::EPOLLIN | poll::EPOLLRDHUP | poll::EPOLLHUP) != 0 {
        alive = pump_peer(cx, handler, token);
    }
    if !alive && cx.peers.close(&cx.io.poller, token, &mut cx.pool) {
        handler.on_peer_down(cx, token);
    }
}

/// Read an outbound connection to `WouldBlock` and dispatch its frames;
/// `false` when it must be torn down (EOF, I/O error, malformed frame).
fn pump_peer<H: Handler>(cx: &mut Ctx<'_>, handler: &mut H, token: u64) -> bool {
    let Some(c) = cx.peers.get_mut(token) else { return true };
    let outcome = c.fill();
    loop {
        // re-resolved every frame: a hook may have closed the connection
        let Some(c) = cx.peers.get_mut(token) else { return true };
        match c.recv.next_frame() {
            Ok(Some((frame, corr))) => handler.on_peer_frame(cx, token, frame, corr),
            Ok(None) => break,
            Err(_) => return false,
        }
    }
    matches!(outcome, FillOutcome::Drained)
}

/// Extract every complete frame the connection's pipelining window
/// allows and dispatch it; returns `false` when the connection must
/// close (write failure). Inline answers (refusals, Bye, cheap local
/// replies) leave directly from the loop; admitted requests bump
/// `in_flight` and are answered by completions.
fn pump_conn<H: Handler>(c: &mut Conn, token: u64, handler: &mut H, cx: &mut Ctx<'_>) -> bool {
    loop {
        if c.closing {
            return true;
        }
        if c.in_flight >= MAX_IN_FLIGHT {
            return true; // resumes when a completion frees the window
        }
        let (frame, corr) = match c.recv.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => return true,
            Err(e) => {
                // protocol violation: answer once, then hang up
                handler.on_protocol_error();
                c.closing = true;
                let refusal = Frame::Error { code: error_code::MALFORMED, message: e.to_string() };
                return inline_reply(c, &refusal, 0, cx);
            }
        };
        match handler.on_request(cx, token, frame, corr) {
            Admit::Pending => c.in_flight += 1,
            Admit::Reply(frame) => {
                if !inline_reply(c, &frame, corr, cx) {
                    return false;
                }
            }
            Admit::Close(frame) => {
                c.closing = true;
                return inline_reply(c, &frame, corr, cx);
            }
        }
    }
}

/// Encode a loop-side reply and queue it on the connection.
fn inline_reply(c: &mut Conn, frame: &Frame, corr: u64, cx: &mut Ctx<'_>) -> bool {
    let mut buf = cx.pool.pop().unwrap_or_default();
    frame.encode_versioned(PROTOCOL_VERSION, corr, &mut buf);
    c.enqueue(buf, &mut cx.pool).is_ok()
}
