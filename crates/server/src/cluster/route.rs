//! The router is a role of the connection engine (`engine.rs`, the
//! same readiness loop a node serves from): **one thread** owns
//! every client socket and **one persistent pipelined connection per
//! backend, shared by all clients**. A routed request is an entry in an
//! in-flight table — client connection token, correlation id,
//! per-shard state — and everything below is a state
//! transition on it, driven by socket readiness and by timers (the
//! `epoll_wait` timeout is the nearest pending hedge, deadline or
//! backoff instant). Nothing blocks and nothing spawns: a client that
//! pipelines 16 requests has 16 scatters in progress, replies complete
//! out of order, and a router whose table is full answers `Busy` like a
//! node whose queue is.
//!
//! - **Inserts** hash their payload onto the ring and go to the owning
//!   shard's *primary* (replicas are read-only by construction: a
//!   replica refuses writes at admission). The router retries
//!   through `Busy` load-shed with decorrelated-jitter backoff
//!   ([`crate::client::Backoff`]) and once more after a lost
//!   connection (it mints an idempotency key when the client sent
//!   none), but never fails a write over to a replica — a forked
//!   replica is worse than a refused insert.
//! - **Ids** returned to clients are shard-tagged: the top
//!   `SHARD_ID_BITS` (16) bits carry the shard index, the rest the shard's
//!   local id ([`tag_id`]/[`untag_id`]). **Deletes** decode the tag and
//!   go straight to the owning primary; match results are retagged the
//!   same way so every id a client ever sees is routable back.
//! - **Queries** (exact, approx, batch) scatter to every shard — each
//!   sub-request to the first candidate whose breaker admits it,
//!   primary first — and merge when the last shard settles. A shard
//!   whose first backend stays silent past the hedge window gets a
//!   **hedged retry** against the next untried candidate (and, if every
//!   other candidate is dead, one last re-submit to the first); a shard
//!   whose every backend fails is *dropped from the result* rather than
//!   failing the query — the [`ShardInfo`] (`shards_ok/shards_total`)
//!   on the reply tells the client the answer is partial.
//!
//! Three rules keep a deep window honest. **Clocks start at the
//! write**: a backend holds at most a bounded window of written
//! sub-requests, the rest wait router-side, and the hedge window, the
//! deadline and the latency histogram all count from the moment a
//! sub-request left — queueing never reads as a slow shard. **A late
//! reply is dropped, a dead connection is one event**: an abandoned
//! correlation id just stops being waited for (framing is intact; only
//! an I/O error, EOF or a malformed frame kills a backend connection),
//! and when a connection does die every sub-request on it moves on
//! together under a single breaker strike. **Ordering is by
//! acknowledgement**, as on a single node: a request may overtake an
//! earlier un-acked one, but once `Inserted`/`Deleted` came back the
//! write is visible to every later read on that shard's primary.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use super::placement::{merge_sorted, placement_key, tag_id, untag_id};
use super::plane::{federate, record_routed, reply_trailer, topology, ShardSpan};
use super::{obs, Outcomes, RouterState};
use crate::client::Backoff;
use crate::engine::{self, Admit, Ctx, Slab};
use crate::wire::{error_code, Frame, ServerStats, ShardInfo, WireMatch};

fn unavailable(msg: &str) -> Frame {
    Frame::Error { code: error_code::UNAVAILABLE, message: msg.into() }
}

/// Most sub-requests written to one backend and not yet answered;
/// the rest wait router-side, clocks not yet started. Twice the
/// node's `coalesce_max`, so a shard worker finishing one coalesced
/// batch always finds the next one already queued, while a full
/// window of ≈ 0.6 ms queries still drains well inside
/// `hedge_after` — queueing inside a shard must never read as a
/// slow shard. Measured on `cluster_mixed` (DESIGN §12.3): nothing
/// between 16 and 128 is distinguishable from it.
const BACKEND_WINDOW: usize = 32;
/// Most routed requests in the table; beyond it clients get `Busy`.
const MAX_ROUTED: usize = 1024;
/// Decorrelated-jitter base and cap of the wait before a sub-request
/// a backend answered `Busy` is sent again; the cap doubles as the
/// hint on the router's own `Busy`.
const BUSY_BASE: Duration = Duration::from_millis(2);
const BUSY_CAP: Duration = Duration::from_millis(50);
/// How long a backend connection may take to come up.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(200);

/// Where a finished request's answer goes.
enum ReplyTo {
    /// A client connection of the engine.
    Client { token: u64, corr: u64 },
    /// Another thread waiting on the raw per-shard outcomes.
    Chan(mpsc::Sender<Outcomes>),
}

enum SubState {
    /// In a backend's queue: connection not up yet, or window full.
    Queued,
    /// Written; the reply will carry `corr`.
    Sent { corr: u64 },
    /// Backend said `Busy`; a retry timer is pending.
    Backoff,
    Done,
}

/// One shard's part of a routed request.
struct Sub {
    shard: u16,
    state: SubState,
    /// Bumps whenever the sub leaves an attempt; queue entries and
    /// attempt timers carry the value they were made under.
    epoch: u32,
    /// Backends of this shard already attempted (bit = index within
    /// the shard).
    tried: u32,
    /// The current attempt's backend.
    backend: usize,
    /// First backend a request was actually written to: the target
    /// of the last-resort re-submit.
    first: Option<usize>,
    /// The first written attempt was lost or slow; every attempt
    /// since is a hedge.
    hedging: bool,
    resubmitted: bool,
    /// Attempts that failed (writes: the retry budget).
    failed: u8,
    /// When the first sub-request left for a backend. Latency, the
    /// hedge window and the deadline all count from here, never
    /// from admission: time spent queued router-side is the
    /// router's, not the shard's.
    written_at: Option<Instant>,
    hedge_until: Option<Instant>,
    deadline: Instant,
    backoff: Option<Backoff>,
    span: ShardSpan,
    reply: Option<Frame>,
}

/// One routed request: an entry of the in-flight table.
struct Routed {
    reply: ReplyTo,
    /// What every sub-request carries (reads: the request itself
    /// with its trace id; writes: key minted / id untagged).
    frame: Frame,
    /// Primary only, retried, never failed over.
    write: bool,
    trace_id: u64,
    started: Instant,
    subs: Vec<Sub>,
    /// Subs not yet `Done`.
    open: usize,
}

/// The router's single connection to one backend, shared by every
/// client.
struct Backend {
    /// Engine token of the connection, while one exists.
    peer: Option<u64>,
    up: bool,
    /// Distinguishes this connect attempt's timeout timer.
    conn_epoch: u32,
    next_corr: u64,
    /// Written and unanswered: correlation id → (request, sub). An
    /// abandoned attempt is removed, so its late reply finds
    /// nothing here and is dropped.
    sent: HashMap<u64, (u64, u16)>,
    /// Waiting for the connection or for window room.
    queue: VecDeque<(u64, u16, u32)>,
    /// A timeout already struck the breaker this tick: a stall that
    /// expires a whole window at once is one event.
    struck: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TimerKind {
    /// `id` = backend: connect did not finish in [`CONNECT_TIMEOUT`].
    Connect,
    /// `id` = request: the first attempt outlived `hedge_after`.
    Hedge,
    /// `id` = request: the sub outlived `shard_deadline`.
    Deadline,
    /// `id` = request: a `Busy` backoff elapsed.
    Retry,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Timer {
    at: Instant,
    kind: TimerKind,
    id: u64,
    sub: u16,
    epoch: u32,
}

pub(super) struct RouterLoop {
    st: Arc<RouterState>,
    backends: Vec<Backend>,
    /// The in-flight table. Request tokens are generation-checked,
    /// so timers and queue entries of a finished request resolve
    /// to nothing.
    table: Slab<Routed>,
    /// Min-heap of pending clocks; stale entries are skipped lazily.
    timers: BinaryHeap<Reverse<Timer>>,
    /// Backends with queued work to look at.
    dirty: Vec<usize>,
    /// Requests whose last sub just finished.
    finished: Vec<u64>,
    /// Recycled merge output and k-way cursors.
    merge_buf: Vec<WireMatch>,
    cursors: Vec<usize>,
}

/// Whether a backend-queue entry still stands for a waiting sub: the
/// request may have finished, or the sub moved on, while it waited.
fn still_queued(table: &mut Slab<Routed>, &(req, si, epoch): &(u64, u16, u32)) -> bool {
    table.get_mut(req).is_some_and(|e| {
        let s = &e.subs[si as usize];
        s.epoch == epoch && matches!(s.state, SubState::Queued)
    })
}

/// Serve until stopped, then release everyone who might be waiting
/// on this thread.
pub(super) fn run(listener: TcpListener, st: Arc<RouterState>) {
    let mut handler = RouterLoop::new(st.clone());
    engine::run(listener, &st.io, &mut handler);
    // senders still queued or held by table entries drop here, so a
    // thread blocked in `gather` wakes with an all-dropped outcome
    *st.jobs.lock().unwrap() = None;
}

impl RouterLoop {
    fn new(st: Arc<RouterState>) -> RouterLoop {
        let backends = st
            .backend_addrs
            .iter()
            .map(|_| Backend {
                peer: None,
                up: false,
                conn_epoch: 0,
                next_corr: 1, // 0 means "no correlation id" on the wire
                sent: HashMap::new(),
                queue: VecDeque::new(),
                struck: false,
            })
            .collect();
        RouterLoop {
            st,
            backends,
            table: Slab::new(0),
            timers: BinaryHeap::new(),
            dirty: Vec::new(),
            finished: Vec::new(),
            merge_buf: Vec::new(),
            cursors: Vec::new(),
        }
    }

    fn sub(&mut self, req: u64, si: u16) -> Option<&mut Sub> {
        self.table.get_mut(req).map(|e| &mut e.subs[si as usize])
    }

    /// Admit a request into the table and set every sub on its way:
    /// one sub per shard, or the one shard a write belongs to.
    fn start(
        &mut self,
        cx: &mut Ctx<'_>,
        reply: ReplyTo,
        frame: Frame,
        trace_id: u64,
        write_to: Option<u16>,
    ) {
        let now = Instant::now();
        let shards = match write_to {
            Some(s) => s..s + 1,
            None => 0..self.st.shards.len() as u16,
        };
        let new_sub = |shard| Sub {
            shard,
            state: SubState::Queued,
            epoch: 0,
            tried: 0,
            backend: 0,
            first: None,
            hedging: false,
            resubmitted: false,
            failed: 0,
            written_at: None,
            hedge_until: None,
            deadline: now,
            backoff: None,
            span: ShardSpan { addr: None, gather_us: 0, hedged: false, failovers: 0, server: None },
            reply: None,
        };
        let subs: Vec<Sub> = shards.map(new_sub).collect();
        let n = subs.len();
        let write = write_to.is_some();
        let req = self.table.insert(Routed {
            reply,
            frame,
            write,
            trace_id,
            started: now,
            subs,
            open: n,
        });
        self.st.in_flight.set(self.table.len() as i64);
        for si in 0..n as u16 {
            self.first_attempt(req, si);
        }
        self.settle(cx);
    }

    /// Put the sub in `backend`'s queue under its current epoch.
    fn enqueue(&mut self, req: u64, si: u16, backend: usize) {
        let entry = self.table.get_mut(req).expect("caller holds a live sub");
        let sub = &mut entry.subs[si as usize];
        sub.tried |= 1 << (backend - self.st.base[sub.shard as usize]);
        sub.backend = backend;
        sub.state = SubState::Queued;
        self.backends[backend].queue.push_back((req, si, sub.epoch));
        self.dirty.push(backend);
    }

    /// First untried backend of `shard` whose breaker admits a
    /// request, primary first.
    fn pick(&self, shard: u16, tried: u32) -> Option<usize> {
        let range = self.st.backends_of(shard as usize);
        let base = range.start;
        range.into_iter().find(|&b| tried & (1 << (b - base)) == 0 && self.st.breakers[b].allow())
    }

    fn first_attempt(&mut self, req: u64, si: u16) {
        let entry = self.table.get_mut(req).expect("just admitted");
        let shard = entry.subs[si as usize].shard;
        let primary = self.st.base[shard as usize];
        let backend = if entry.write {
            primary // a forked replica is worse than a refused write
        } else {
            self.st.per_shard[shard as usize].queries.inc();
            // every breaker refusing is no reason to drop the shard
            // silently forever: probe the primary
            self.pick(shard, 0).unwrap_or(primary)
        };
        self.enqueue(req, si, backend);
    }

    /// The sub's current attempt is over without an accepted reply
    /// (its correlation id, if any, is already forgotten). Move on:
    /// retry a write on its primary, fail a read over or hedge it
    /// to the next candidate, re-submit to the first backend as a
    /// last resort, or give the shard up.
    fn attempt_failed(&mut self, req: u64, si: u16, written: bool) {
        let now = Instant::now();
        let Some(entry) = self.table.get_mut(req) else { return };
        let write = entry.write;
        let retry_write = matches!(entry.frame, Frame::Insert { .. });
        let sub = &mut entry.subs[si as usize];
        if matches!(sub.state, SubState::Done) {
            return;
        }
        sub.epoch = sub.epoch.wrapping_add(1);
        sub.failed += 1;
        sub.backoff = None;
        let in_time = sub.written_at.is_none() || now < sub.deadline;
        if write {
            // writes retry the primary once (the router-minted key
            // makes a re-sent Insert idempotent), never a replica
            let backend = sub.backend;
            if retry_write && sub.failed < 2 && in_time {
                self.enqueue(req, si, backend);
            } else {
                self.sub_done(req, si, now);
            }
            return;
        }
        let m = &self.st.per_shard[sub.shard as usize];
        if sub.hedging || !written {
            // a hedge target failed, or the request never left:
            // plain failover
            m.failovers.inc();
            sub.span.failovers += 1;
        } else {
            sub.hedging = true;
        }
        let (shard, tried, hedging) = (sub.shard, sub.tried, sub.hedging);
        let next = self.pick(shard, tried).or_else(|| {
            // Every other candidate is dead, but the first backend
            // may have been merely slow and its reply abandoned:
            // one fresh submit with whatever deadline remains.
            // Scatter only carries idempotent reads.
            let sub = self.sub(req, si)?;
            let again = sub.first.filter(|_| hedging && !sub.resubmitted && in_time);
            sub.resubmitted |= again.is_some();
            again
        });
        match next {
            Some(backend) => {
                if hedging {
                    self.st.per_shard[shard as usize].hedges.inc();
                    self.sub(req, si).expect("checked above").span.hedged = true;
                }
                self.enqueue(req, si, backend);
            }
            None => self.sub_done(req, si, now),
        }
    }

    /// The sub is settled — `reply` holds the accepted answer, or
    /// nothing when the shard is dropped from the result.
    fn sub_done(&mut self, req: u64, si: u16, now: Instant) {
        let Some(entry) = self.table.get_mut(req) else { return };
        let (write, started) = (entry.write, entry.started);
        let sub = &mut entry.subs[si as usize];
        sub.state = SubState::Done;
        if !write {
            let m = &self.st.per_shard[sub.shard as usize];
            // write → accepted reply (or give-up), this shard's own
            // stopwatch: see DESIGN §12.5 on why not gather order
            if let Some(t) = sub.written_at {
                m.latency_us.record(now.duration_since(t).as_micros() as u64);
            }
            sub.span.gather_us = now.duration_since(started).as_micros() as u64;
            if sub.reply.is_none() {
                sub.span.addr = None;
                m.dropped.inc();
            }
        }
        entry.open -= 1;
        if entry.open == 0 {
            self.finished.push(req);
        }
    }

    /// Forget the sub's written attempt, if it has one: the window
    /// slot frees now, and the reply — should it still come — is
    /// dropped on arrival. The silence is the backend's strike.
    fn abandon(&mut self, req: u64, si: u16) {
        let Some(sub) = self.sub(req, si) else { return };
        let SubState::Sent { corr } = sub.state else { return };
        let b = sub.backend;
        let be = &mut self.backends[b];
        be.sent.remove(&corr);
        self.dirty.push(b);
        if !be.struck {
            be.struck = true;
            self.st.breakers[b].record(false, &self.st.cfg);
        }
    }

    /// Run queued work to quiescence: write what the windows allow,
    /// answer what finished. Failures inside only ever append to the
    /// two work lists, so this is the one loop that drains them.
    fn settle(&mut self, cx: &mut Ctx<'_>) {
        loop {
            if let Some(b) = self.dirty.pop() {
                self.pump(cx, b);
            } else if let Some(req) = self.finished.pop() {
                self.finish(cx, req);
            } else {
                break;
            }
        }
    }

    /// Move backend `b` forward: dial it if work waits and no
    /// connection exists, write queued sub-requests while the
    /// window has room.
    fn pump(&mut self, cx: &mut Ctx<'_>, b: usize) {
        let RouterLoop { st, backends, table, timers, .. } = self;
        let be = &mut backends[b];
        let Some(peer) = be.peer else {
            be.queue.retain(|item| still_queued(table, item));
            if be.queue.is_empty() {
                return;
            }
            match cx.connect(st.backend_addrs[b]) {
                Ok(peer) => {
                    be.peer = Some(peer);
                    be.conn_epoch = be.conn_epoch.wrapping_add(1);
                    timers.push(Reverse(Timer {
                        at: Instant::now() + CONNECT_TIMEOUT,
                        kind: TimerKind::Connect,
                        id: b as u64,
                        sub: 0,
                        epoch: be.conn_epoch,
                    }));
                }
                Err(_) => self.backend_down(cx, b),
            }
            return;
        };
        if !be.up {
            return;
        }
        while be.sent.len() < BACKEND_WINDOW {
            let Some(item) = be.queue.pop_front() else { break };
            if !still_queued(table, &item) {
                continue; // the request moved on while this waited
            }
            let (req, si, epoch) = item;
            let entry = table.get_mut(req).expect("still_queued() found it");
            let corr = be.next_corr;
            be.next_corr = be.next_corr.wrapping_add(1).max(1);
            // read before the write: once the bytes are out the
            // backend may run, and answer, before this thread does
            let now = Instant::now();
            if cx.send(peer, &entry.frame, corr).is_err() {
                be.queue.push_front(item);
                self.backend_down(cx, b);
                return;
            }
            be.sent.insert(corr, (req, si));
            let sub = &mut entry.subs[si as usize];
            sub.state = SubState::Sent { corr };
            if sub.written_at.is_some() {
                continue; // a later attempt runs on the first one's clocks
            }
            sub.written_at = Some(now);
            sub.first = Some(b);
            sub.deadline = now + st.cfg.shard_deadline;
            let timer = |at, kind| Reverse(Timer { at, kind, id: req, sub: si, epoch });
            timers.push(timer(sub.deadline, TimerKind::Deadline));
            // hedge only when there is somewhere to hedge to;
            // otherwise the first backend keeps the whole deadline
            let range = st.backends_of(sub.shard as usize);
            let base = range.start;
            let fallback = !entry.write
                && range.into_iter().any(|o| {
                    sub.tried & (1 << (o - base)) == 0 && st.breakers[o].would_allow()
                });
            if fallback {
                let at = now + st.cfg.hedge_after;
                sub.hedge_until = Some(at);
                timers.push(timer(at, TimerKind::Hedge));
            }
        }
    }

    /// Backend `b`'s connection is gone or never came up: one event,
    /// one breaker strike, and every sub-request written to it or
    /// queued for it moves on together.
    fn backend_down(&mut self, cx: &mut Ctx<'_>, b: usize) {
        let be = &mut self.backends[b];
        if let Some(peer) = be.peer.take() {
            cx.close(peer);
        }
        be.up = false;
        self.st.breakers[b].record(false, &self.st.cfg);
        let sent: Vec<(u64, u16)> = be.sent.drain().map(|(_, v)| v).collect();
        let queue: Vec<(u64, u16, u32)> = be.queue.drain(..).collect();
        for (req, si) in sent {
            self.attempt_failed(req, si, true);
        }
        for item in queue {
            if still_queued(&mut self.table, &item) {
                self.attempt_failed(item.0, item.1, false);
            }
        }
    }

    fn backend_of(&self, peer: u64) -> Option<usize> {
        self.backends.iter().position(|be| be.peer == Some(peer))
    }

    /// `Busy` is load-shed, not death: wait out the jittered
    /// backoff (the server's hint is its floor) and re-send to the
    /// same backend, as long as the wait fits the attempt's window.
    fn on_busy(&mut self, req: u64, si: u16, retry_after_ms: u32) {
        let now = Instant::now();
        let seed = self.st.mint();
        let Some(sub) = self.sub(req, si) else { return };
        let limit = sub.hedge_until.filter(|_| !sub.hedging).unwrap_or(sub.deadline);
        let backoff = sub.backoff.get_or_insert_with(|| {
            Backoff::new(BUSY_BASE, BUSY_CAP, limit.saturating_duration_since(now), seed)
        });
        let (shard, epoch) = (sub.shard, sub.epoch);
        match backoff.next_delay(Duration::from_millis(retry_after_ms as u64)) {
            Some(d) if now + d < limit => {
                sub.state = SubState::Backoff;
                let t = Timer { at: now + d, kind: TimerKind::Retry, id: req, sub: si, epoch };
                self.timers.push(Reverse(t));
            }
            // out of time on this backend — no strike
            _ => self.attempt_failed(req, si, true),
        }
        self.st.per_shard[shard as usize].busy_retries.inc();
    }

    /// Whether `t` still means anything: its request is in the
    /// table and the sub (or connect attempt) has not moved on.
    fn timer_live(&mut self, t: &Timer) -> bool {
        if t.kind == TimerKind::Connect {
            let be = &self.backends[t.id as usize];
            return be.peer.is_some() && !be.up && be.conn_epoch == t.epoch;
        }
        let Some(sub) = self.sub(t.id, t.sub) else { return false };
        match (t.kind, &sub.state) {
            (_, SubState::Done) => false,
            (TimerKind::Deadline, _) => true,
            (TimerKind::Hedge, _) => sub.epoch == t.epoch,
            (TimerKind::Retry, SubState::Backoff) => sub.epoch == t.epoch,
            (TimerKind::Retry | TimerKind::Connect, _) => false,
        }
    }

    fn fire(&mut self, cx: &mut Ctx<'_>, t: Timer, now: Instant) {
        if !self.timer_live(&t) {
            return;
        }
        match t.kind {
            TimerKind::Connect => self.backend_down(cx, t.id as usize),
            TimerKind::Hedge => {
                self.abandon(t.id, t.sub);
                self.attempt_failed(t.id, t.sub, true);
            }
            TimerKind::Deadline => {
                self.abandon(t.id, t.sub);
                self.sub_done(t.id, t.sub, now);
            }
            TimerKind::Retry => {
                let backend = self.sub(t.id, t.sub).expect("timer_live found it").backend;
                self.enqueue(t.id, t.sub, backend);
            }
        }
    }

    /// Every sub is settled: take the entry out of the table and
    /// answer whoever asked.
    fn finish(&mut self, cx: &mut Ctx<'_>, req: u64) {
        let Some(mut entry) = self.table.remove(req) else { return };
        self.st.in_flight.set(self.table.len() as i64);
        match entry.reply {
            ReplyTo::Chan(ref tx) => {
                let _ = tx.send(entry.subs.drain(..).map(|s| (s.span.addr, s.reply)).collect());
            }
            ReplyTo::Client { token, corr } => {
                let reply = self.merged_reply(&entry);
                cx.reply(token, corr, &reply);
                if let Frame::Matches { matches, .. } | Frame::ApproxMatches { matches, .. } = reply
                {
                    self.merge_buf = matches;
                }
            }
        }
    }

    /// Fold the per-shard replies of a finished request into the one
    /// reply its client gets.
    fn merged_reply(&mut self, entry: &Routed) -> Frame {
        let st = &*self.st;
        let subs = &entry.subs;
        let kind = match &entry.frame {
            Frame::Query { .. } => obs::RequestKind::RoutedQuery,
            Frame::QueryApprox { .. } => obs::RequestKind::RoutedQueryApprox,
            Frame::QueryBatch { .. } => obs::RequestKind::RoutedBatch,
            _ => return forwarded_reply(st, entry),
        };
        let epochs = subs.iter().filter_map(|s| match &s.reply {
            Some(
                Frame::Matches { epoch, .. }
                | Frame::ApproxMatches { epoch, .. }
                | Frame::BatchMatches { epoch, .. },
            ) => Some(*epoch),
            _ => None,
        });
        let ok = epochs.clone().count() as u16;
        let epoch = epochs.max().unwrap_or(0);
        let spans = subs.iter().map(|s| &s.span);
        record_routed(st, entry.trace_id, kind, entry.started, spans, ok, epoch);
        if ok == 0 {
            return unavailable("no shard answered the query");
        }
        let shards = ShardInfo { ok, total: st.shards.len() as u16 };
        if shards.is_partial() {
            st.partial_replies.inc();
        }
        let lists = subs.iter().filter_map(|s| match &s.reply {
            Some(Frame::Matches { matches, .. } | Frame::ApproxMatches { matches, .. }) => {
                Some((s.shard, matches.as_slice()))
            }
            _ => None,
        });
        let mut matches = std::mem::take(&mut self.merge_buf);
        match &entry.frame {
            Frame::Query { k, .. } => {
                merge_sorted(*k as usize, lists, &mut self.cursors, &mut matches);
                Frame::Matches { epoch, shards, trailer: None, matches }
            }
            Frame::QueryApprox { k, .. } => {
                merge_sorted(*k as usize, lists, &mut self.cursors, &mut matches);
                // the funnel of the whole cluster: work sums, the
                // deepest tier and widest radius any shard needed
                let (mut tier, mut radius) = (0u8, 0u16);
                let (mut probed, mut cands, mut copies, mut rr) = (0u64, 0u64, 0u64, 0u64);
                for s in subs {
                    if let Some(Frame::ApproxMatches {
                        tier: t,
                        radius: r,
                        buckets_probed,
                        candidates,
                        corpus_copies,
                        reranked,
                        ..
                    }) = &s.reply
                    {
                        tier = tier.max(*t);
                        radius = radius.max(*r);
                        probed += buckets_probed;
                        cands += candidates;
                        copies += corpus_copies;
                        rr += reranked;
                    }
                }
                Frame::ApproxMatches {
                    epoch,
                    tier,
                    radius,
                    buckets_probed: probed,
                    candidates: cands,
                    corpus_copies: copies,
                    reranked: rr,
                    shards,
                    trailer: None,
                    matches,
                }
            }
            Frame::QueryBatch { k, shapes } => {
                self.merge_buf = matches; // each batch result owns its list
                let results = (0..shapes.len())
                    .map(|qi| {
                        let lists = subs.iter().filter_map(|s| match &s.reply {
                            Some(Frame::BatchMatches { results, .. }) => {
                                results.get(qi).map(|l| (s.shard, l.as_slice()))
                            }
                            _ => None,
                        });
                        let mut out = Vec::new();
                        merge_sorted(*k as usize, lists, &mut self.cursors, &mut out);
                        out
                    })
                    .collect();
                Frame::BatchMatches { epoch, results }
            }
            _ => unreachable!("kind matched a read above"),
        }
    }
}

/// The reply to a finished write (the primary's own answer, its id
/// retagged) or admin scatter (the shards' answers folded together).
fn forwarded_reply(st: &RouterState, entry: &Routed) -> Frame {
    let subs = &entry.subs;
    match &entry.frame {
        Frame::Insert { .. } => match &subs[0].reply {
            Some(Frame::Inserted { epoch, id }) => {
                Frame::Inserted { epoch: *epoch, id: tag_id(subs[0].shard, *id) }
            }
            Some(other) => other.clone(),
            None => unavailable("owning shard primary is unreachable"),
        },
        Frame::Delete { .. } => match &subs[0].reply {
            Some(reply) => reply.clone(),
            None => unavailable("owning shard primary is unreachable"),
        },
        Frame::Stats => {
            let mut agg = ServerStats::default();
            let mut any = false;
            for sub in subs {
                let Some(Frame::StatsReport(s)) = &sub.reply else { continue };
                any = true;
                agg.epoch = agg.epoch.max(s.epoch);
                agg.live_shapes += s.live_shapes;
                agg.levels = agg.levels.max(s.levels);
                agg.requests += s.requests;
                agg.queries += s.queries;
                agg.inserts += s.inserts;
                agg.deletes += s.deletes;
                agg.busy_rejects += s.busy_rejects;
                agg.protocol_errors += s.protocol_errors;
                agg.latency_p50_us = agg.latency_p50_us.max(s.latency_p50_us);
                agg.latency_p99_us = agg.latency_p99_us.max(s.latency_p99_us);
                agg.snapshots_published += s.snapshots_published;
                agg.publish_p50_us = agg.publish_p50_us.max(s.publish_p50_us);
                agg.publish_p99_us = agg.publish_p99_us.max(s.publish_p99_us);
                agg.snapshot_age_us = agg.snapshot_age_us.max(s.snapshot_age_us);
                agg.queue_depth += s.queue_depth;
                agg.read_only = agg.read_only.max(s.read_only);
                agg.wal_appends += s.wal_appends;
                agg.wal_syncs += s.wal_syncs;
                agg.fsync_p50_us = agg.fsync_p50_us.max(s.fsync_p50_us);
                agg.fsync_p99_us = agg.fsync_p99_us.max(s.fsync_p99_us);
                agg.checkpoints += s.checkpoints;
                agg.checkpoint_failures += s.checkpoint_failures;
                agg.last_recovery_us = agg.last_recovery_us.max(s.last_recovery_us);
                agg.io_errors += s.io_errors;
            }
            if any {
                Frame::StatsReport(agg)
            } else {
                unavailable("no shard answered stats")
            }
        }
        Frame::MetricsDump => {
            let mut bytes = Vec::with_capacity(4096);
            federate(st, entry.started, subs.iter().map(|s| s.reply.as_ref()))
                .encode(&mut bytes);
            Frame::MetricsReport { snapshot: bytes }
        }
        _ => unreachable!("only routable frames enter the table"),
    }
}

impl engine::Handler for RouterLoop {
    fn on_request(
        &mut self,
        cx: &mut Ctx<'_>,
        token: u64,
        mut frame: Frame,
        corr: u64,
    ) -> Admit {
        let st = &*self.st;
        let mut trace_id = 0;
        let write_to = match &mut frame {
            // Routed reads get a cluster-wide trace id before the
            // scatter, so the same key shows up in every shard's
            // request ring, the router's own, and the router's slow
            // log. Client ids pass through
            // untouched; zero means "none", and the router mints
            // from its key mint so ids never collide across restarts.
            Frame::Query { trace, .. } | Frame::QueryApprox { trace, .. } => {
                if *trace == 0 {
                    *trace = st.mint();
                }
                trace_id = *trace;
                None
            }
            // batch requests carry no trace field on the wire; the
            // router still records a timeline under a minted id
            Frame::QueryBatch { .. } => {
                trace_id = st.mint();
                None
            }
            Frame::Stats | Frame::MetricsDump => None,
            Frame::Insert { image, key, shape, .. } => {
                // placement: hash the payload so client retries
                // (same key, same shape) land on the same shard
                let shard = st.ring.route(placement_key(*image, *key, shape));
                // mint an idempotency key when the client sent
                // none, so the router's own retry can never
                // double-insert
                if *key == 0 {
                    *key = st.mint();
                }
                Some(shard)
            }
            Frame::Delete { id } => {
                let (shard, local) = untag_id(*id);
                if shard as usize >= st.shards.len() {
                    return Admit::Reply(Frame::Error {
                        code: error_code::MALFORMED,
                        message: format!("id {id:#x} tags unknown shard {shard}"),
                    });
                }
                *id = local;
                Some(shard)
            }
            Frame::Topology => {
                return Admit::Reply(Frame::TopologyReport { shards: topology(st) })
            }
            Frame::Explain { .. } => {
                return Admit::Reply(Frame::Error {
                    code: error_code::UNAVAILABLE,
                    message: "EXPLAIN is not routable; run it against a shard directly".into(),
                })
            }
            Frame::Shutdown => {
                st.stop.store(true, Ordering::SeqCst);
                return Admit::Close(Frame::Bye);
            }
            _ => {
                return Admit::Reply(Frame::Error {
                    code: error_code::UNEXPECTED_FRAME,
                    message: "response frame sent as a request".into(),
                })
            }
        };
        if self.table.len() >= MAX_ROUTED {
            // shed at the edge like a node with a full queue
            return Admit::Reply(Frame::Busy { retry_after_ms: BUSY_CAP.as_millis() as u32 });
        }
        match frame {
            Frame::Insert { .. } => st.inserts.inc(),
            Frame::Delete { .. } => st.deletes.inc(),
            _ => {}
        }
        self.start(cx, ReplyTo::Client { token, corr }, frame, trace_id, write_to);
        Admit::Pending
    }

    fn shutting_down(&self) -> bool {
        self.st.stop.load(Ordering::SeqCst)
    }

    fn exit_ready(&self) -> bool {
        self.shutting_down()
    }

    fn on_protocol_error(&mut self) {
        self.st.protocol_errors.inc();
    }

    fn on_tick(&mut self, cx: &mut Ctx<'_>) {
        let jobs = match self.st.jobs.lock().unwrap().as_mut() {
            Some(q) if !q.is_empty() => std::mem::take(q),
            _ => Vec::new(),
        };
        for job in jobs {
            self.start(cx, ReplyTo::Chan(job.reply), job.frame, 0, None);
        }
        let now = Instant::now();
        let mut fired = false;
        while self.timers.peek().is_some_and(|t| t.0.at <= now) {
            let Reverse(t) = self.timers.pop().expect("peeked");
            self.fire(cx, t, now);
            fired = true;
        }
        if fired {
            for be in &mut self.backends {
                be.struck = false;
            }
            self.settle(cx);
        }
    }

    fn next_deadline(&mut self) -> Option<Instant> {
        while let Some(Reverse(t)) = self.timers.peek().copied() {
            if self.timer_live(&t) {
                return Some(t.at);
            }
            self.timers.pop();
        }
        None
    }

    fn on_peer_up(&mut self, cx: &mut Ctx<'_>, peer: u64) {
        let Some(b) = self.backend_of(peer) else { return };
        self.backends[b].up = true;
        self.dirty.push(b);
        self.settle(cx);
    }

    fn on_peer_frame(&mut self, cx: &mut Ctx<'_>, peer: u64, frame: Frame, corr: u64) {
        let Some(b) = self.backend_of(peer) else { return };
        // a reply nobody waits for any more (its hedge fired, its
        // deadline passed): framing is intact, so drop the frame
        // and keep the connection
        let Some((req, si)) = self.backends[b].sent.remove(&corr) else { return };
        self.dirty.push(b); // a window slot freed
        self.st.breakers[b].record(true, &self.st.cfg);
        let addr = self.st.backend_addrs[b];
        if let Frame::Busy { retry_after_ms } = frame {
            self.on_busy(req, si, retry_after_ms);
        } else if let Some(sub) = self.sub(req, si) {
            sub.span.addr = Some(addr);
            sub.span.server = reply_trailer(&frame);
            sub.reply = Some(frame);
            self.sub_done(req, si, Instant::now());
        }
        self.settle(cx);
    }

    fn on_peer_down(&mut self, cx: &mut Ctx<'_>, peer: u64) {
        let Some(b) = self.backend_of(peer) else { return };
        self.backends[b].peer = None; // the engine already closed it
        self.backend_down(cx, b);
        self.settle(cx);
    }
}
