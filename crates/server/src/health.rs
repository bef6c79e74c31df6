//! Health-plane building blocks: watchdog configuration, the probe
//! state the server's loops stamp, and the readiness verdict served at
//! `/healthz` and `/readyz` (DESIGN.md §14).
//!
//! The moving parts:
//!
//! - **Probes** are passive stamps written by the hot loops: the WAL
//!   writer marks when its current batch began (and clears the mark
//!   when it finishes), the event loop stamps every wakeup — every
//!   node has one, so the `event_loop` component is always probed, and
//!   a loop that never starts ages from boot like one that stopped.
//!   Stamping is one relaxed atomic store — nothing on the hot path
//!   waits on the health plane.
//! - **The watchdog thread** (`server/watchdog.rs`) wakes every
//!   [`HealthConfig::interval`], pings the event loop's waker (an idle
//!   loop must still prove liveness), reads the probes, samples queue
//!   saturation, runs the SLO burn-rate engine over a registry
//!   snapshot, journals component transitions, drives the
//!   `geosir_health_status{component=…}` and `geosir_ready` gauges,
//!   and publishes a [`Verdict`].
//! - **`/healthz`** is liveness: 200 while the watchdog itself is
//!   ticking. **`/readyz`** is readiness: the last verdict, 200 only
//!   when recovered, not read-only, and every component clean. Both
//!   are routes the node registers on `geosir_obs::expo`'s HTTP server.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use geosir_obs as obs;

/// Component status codes, ordered by badness.
pub const STATUS_OK: u8 = 0;
pub const STATUS_DEGRADED: u8 = 1;
pub const STATUS_UNHEALTHY: u8 = 2;

/// Event-loop wakeup staleness (measured via the watchdog's own waker
/// ping) past this flips `event_loop` unhealthy. The effective deadline
/// is at least 2 × [`HealthConfig::interval`], so the ping itself has
/// time to land.
const LOOP_LAG: Duration = Duration::from_secs(1);
/// A read/write queue pinned at capacity for longer than this flips the
/// `queues` component degraded.
pub(crate) const QUEUE_SAT: Duration = Duration::from_secs(2);
/// An objective alerts when it burns past this on **every** window of
/// [`HealthConfig::slo_windows`].
pub(crate) const SLO_MAX_BURN: f64 = 10.0;
/// Availability objective: the busy-shed fraction of admitted + shed
/// traffic must stay under `1 - AVAILABILITY_TARGET`.
const AVAILABILITY_TARGET: f64 = 0.999;
/// Latency objective: this fraction of requests must finish under
/// [`LATENCY_SLO_US`].
const LATENCY_TARGET: f64 = 0.95;
/// The latency objective's threshold: 100 ms.
const LATENCY_SLO_US: u64 = 100_000;
/// Approx-funnel objective: this fraction of approx queries must emit
/// at most [`APPROX_CANDIDATE_CEILING`] candidates (the calibrated
/// reduction frontier — drift past it means the signature funnel has
/// stopped funneling).
const APPROX_TARGET: f64 = 0.9;
const APPROX_CANDIDATE_CEILING: u64 = 100_000;

/// Whether the watchdog runs, and its cadence. The WAL stall and the
/// SLO windows are multiples of [`HealthConfig::interval`] (at the
/// default 250 ms: 2 s, and 10 s / 60 s), the loop-lag and watchdog
/// deadlines multiples with a floor, so a test that shrinks the cadence
/// shrinks them all.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Run the watchdog and serve live verdicts. When false,
    /// `/healthz` and `/readyz` both answer 200 unconditionally.
    pub enabled: bool,
    /// Watchdog evaluation cadence.
    pub interval: Duration,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig { enabled: true, interval: Duration::from_millis(250) }
    }
}

/// The SLO objectives evaluated against this server's registry.
pub(crate) fn objectives() -> Vec<obs::Objective> {
    vec![
        // Shed traffic is unavailability: bad = Busy rejects,
        // total ≈ admitted requests (rejects are not admitted, so
        // the bad fraction slightly overestimates — conservative).
        obs::Objective {
            name: "availability".into(),
            target: AVAILABILITY_TARGET,
            kind: obs::ObjectiveKind::Availability {
                total: "geosir_requests_total".into(),
                errors: "geosir_busy_rejects_total".into(),
            },
        },
        obs::Objective {
            name: "latency".into(),
            target: LATENCY_TARGET,
            kind: obs::ObjectiveKind::LatencyUnder {
                histogram: "geosir_request_latency_us".into(),
                threshold_us: LATENCY_SLO_US,
            },
        },
        // The approx funnel's reduction floor, expressed as its
        // dual: candidates-per-query must stay under the ceiling.
        obs::Objective {
            name: "approx_funnel".into(),
            target: APPROX_TARGET,
            kind: obs::ObjectiveKind::LatencyUnder {
                histogram: "geosir_approx_candidates_per_query".into(),
                threshold_us: APPROX_CANDIDATE_CEILING,
            },
        },
    ]
}

impl HealthConfig {
    /// A WAL-writer batch in flight longer than this (8 × interval)
    /// flips the `wal_writer` component unhealthy.
    pub fn wal_stall(&self) -> Duration {
        self.interval * 8
    }

    /// Sliding burn-rate windows, short → long: 40 and 240 × interval.
    pub fn slo_windows(&self) -> Vec<Duration> {
        vec![self.interval * 40, self.interval * 240]
    }

    /// Loop-lag deadline with the 2×interval floor applied.
    pub fn effective_loop_lag(&self) -> Duration {
        LOOP_LAG.max(self.interval * 2)
    }

    /// How stale the watchdog's own tick may be before `/healthz`
    /// reports the watchdog itself as wedged.
    pub fn watchdog_deadline(&self) -> Duration {
        (self.interval * 5).max(Duration::from_secs(2))
    }
}

/// Probe state shared between the hot loops, the watchdog, and the
/// HTTP handlers. All times are milliseconds since `start`.
pub struct HealthState {
    start: Instant,
    /// When the WAL writer began its in-flight batch; 0 = idle.
    wal_busy_since_ms: AtomicU64,
    /// The event loop's last wakeup; 0 (creation counts as one) until
    /// stamped, so a loop that never starts reads as stalled.
    loop_tick_ms: AtomicU64,
    /// The watchdog's last completed evaluation; 0 until its first,
    /// likewise.
    watchdog_tick_ms: AtomicU64,
    /// Wakes the epoll loop so an idle loop still stamps its tick.
    waker: Mutex<Option<Box<dyn Fn() + Send>>>,
    verdict: Mutex<Verdict>,
}

impl std::fmt::Debug for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthState")
            .field("wal_busy_since_ms", &self.wal_busy_since_ms.load(Ordering::Relaxed))
            .field("loop_tick_ms", &self.loop_tick_ms.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for HealthState {
    fn default() -> HealthState {
        HealthState::new()
    }
}

impl HealthState {
    pub fn new() -> HealthState {
        HealthState {
            start: Instant::now(),
            wal_busy_since_ms: AtomicU64::new(0),
            loop_tick_ms: AtomicU64::new(0),
            watchdog_tick_ms: AtomicU64::new(0),
            waker: Mutex::new(None),
            verdict: Mutex::new(Verdict::default()),
        }
    }

    /// Milliseconds since this state was created (never 0, so 0 can
    /// mean "idle" in the busy marker).
    pub fn now_ms(&self) -> u64 {
        (self.start.elapsed().as_millis() as u64).max(1)
    }

    /// WAL writer: a batch just started.
    pub fn wal_begin(&self) {
        self.wal_busy_since_ms.store(self.now_ms(), Ordering::Relaxed);
    }

    /// WAL writer: the batch completed (replies sent).
    pub fn wal_end(&self) {
        self.wal_busy_since_ms.store(0, Ordering::Relaxed);
    }

    /// How long the writer's current batch has been in flight; `None`
    /// when idle.
    pub fn wal_busy_for(&self) -> Option<Duration> {
        match self.wal_busy_since_ms.load(Ordering::Relaxed) {
            0 => None,
            t => Some(Duration::from_millis(self.now_ms().saturating_sub(t))),
        }
    }

    /// Event loop: stamp a wakeup.
    pub fn stamp_loop_tick(&self) {
        self.loop_tick_ms.store(self.now_ms(), Ordering::Relaxed);
    }

    /// Age of the event loop's last wakeup (of this state's creation,
    /// before the first).
    pub fn loop_tick_age(&self) -> Duration {
        let t = self.loop_tick_ms.load(Ordering::Relaxed);
        Duration::from_millis(self.now_ms().saturating_sub(t))
    }

    pub fn stamp_watchdog_tick(&self) {
        self.watchdog_tick_ms.store(self.now_ms(), Ordering::Relaxed);
    }

    /// Age of the watchdog's last tick (of this state's creation,
    /// before the first).
    pub fn watchdog_age(&self) -> Duration {
        let t = self.watchdog_tick_ms.load(Ordering::Relaxed);
        Duration::from_millis(self.now_ms().saturating_sub(t))
    }

    /// Install the event-loop waker the watchdog pings each tick.
    pub fn set_waker(&self, waker: Box<dyn Fn() + Send>) {
        *self.waker.lock().unwrap() = Some(waker);
    }

    pub fn ping_waker(&self) {
        if let Ok(guard) = self.waker.lock() {
            if let Some(w) = guard.as_ref() {
                w();
            }
        }
    }

    pub fn verdict(&self) -> Verdict {
        self.verdict.lock().unwrap().clone()
    }

    pub fn set_verdict(&self, v: Verdict) {
        *self.verdict.lock().unwrap() = v;
    }
}

/// One watchdog component's latest reading.
#[derive(Debug, Clone)]
pub struct ComponentHealth {
    pub component: &'static str,
    pub status: u8,
    pub detail: String,
}

/// The readiness truth the watchdog last published.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub ready: bool,
    /// Worst component status (0/1/2).
    pub status: u8,
    pub read_only: bool,
    pub components: Vec<ComponentHealth>,
    /// Objectives currently alerting on every burn window.
    pub slo_alerting: Vec<String>,
}

impl Default for Verdict {
    /// Before the watchdog's first tick nothing is known — not ready.
    fn default() -> Verdict {
        Verdict {
            ready: false,
            status: STATUS_UNHEALTHY,
            read_only: false,
            components: vec![ComponentHealth {
                component: "watchdog",
                status: STATUS_UNHEALTHY,
                detail: "no evaluation yet".into(),
            }],
            slo_alerting: Vec::new(),
        }
    }
}

pub fn status_name(status: u8) -> &'static str {
    match status {
        STATUS_OK => "ok",
        STATUS_DEGRADED => "degraded",
        _ => "unhealthy",
    }
}

impl Verdict {
    /// The `/readyz` body: readiness plus per-component attribution.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(192 + self.components.len() * 96);
        let _ = write!(
            out,
            "{{\"ready\":{},\"status\":\"{}\",\"read_only\":{},\"components\":[",
            self.ready,
            status_name(self.status),
            self.read_only
        );
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"component\":\"{}\",\"status\":\"{}\",\"detail\":\"",
                c.component,
                status_name(c.status)
            );
            obs::journal::escape_json_into(&c.detail, &mut out);
            out.push_str("\"}");
        }
        out.push_str("],\"slo_alerting\":[");
        for (i, name) in self.slo_alerting.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            obs::journal::escape_json_into(name, &mut out);
            out.push('"');
        }
        out.push_str("]}");
        out
    }
}

/// Journals component transitions: each status change emits exactly one
/// event naming the component, so `/debug/journal` reads as a history
/// of stalls and recoveries rather than a heartbeat spam.
#[derive(Debug, Default)]
pub struct TransitionTracker {
    last: Vec<(&'static str, u8)>,
}

impl TransitionTracker {
    pub fn new() -> TransitionTracker {
        TransitionTracker::default()
    }

    /// Record `component`'s new reading; returns the previous status
    /// when it changed (callers journal on `Some`).
    pub fn observe(&mut self, component: &'static str, status: u8) -> Option<u8> {
        match self.last.iter_mut().find(|(c, _)| *c == component) {
            Some((_, s)) if *s == status => None,
            Some((_, s)) => {
                let prev = *s;
                *s = status;
                Some(prev)
            }
            None => {
                self.last.push((component, status));
                // first observation only journals when it is not clean
                (status != STATUS_OK).then_some(STATUS_OK)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_stamps_round_trip() {
        let h = HealthState::new();
        assert!(h.wal_busy_for().is_none());
        h.wal_begin();
        assert!(h.wal_busy_for().is_some());
        h.wal_end();
        assert!(h.wal_busy_for().is_none());

        // an unstamped loop ages from creation, so one that never
        // starts goes stale like one that stopped
        std::thread::sleep(Duration::from_millis(5));
        let unstamped = h.loop_tick_age();
        assert!(unstamped >= Duration::from_millis(4), "{unstamped:?}");
        h.stamp_loop_tick();
        assert!(h.loop_tick_age() < unstamped);
    }

    #[test]
    fn default_verdict_is_not_ready() {
        let v = Verdict::default();
        assert!(!v.ready);
        let json = v.to_json();
        assert!(json.contains("\"ready\":false"), "{json}");
        assert!(json.contains("\"component\":\"watchdog\""), "{json}");
    }

    #[test]
    fn verdict_json_escapes_details() {
        let v = Verdict {
            ready: false,
            status: STATUS_UNHEALTHY,
            read_only: false,
            components: vec![ComponentHealth {
                component: "wal_writer",
                status: STATUS_UNHEALTHY,
                detail: "stalled \"3000ms\"".into(),
            }],
            slo_alerting: vec!["latency".into()],
        };
        let json = v.to_json();
        assert!(json.contains("stalled \\\"3000ms\\\""), "{json}");
        assert!(json.contains("\"slo_alerting\":[\"latency\"]"), "{json}");
        assert!(json.contains("\"status\":\"unhealthy\""), "{json}");
    }

    #[test]
    fn transition_tracker_fires_only_on_change() {
        let mut t = TransitionTracker::new();
        assert_eq!(t.observe("wal_writer", STATUS_OK), None, "clean first reading is silent");
        assert_eq!(t.observe("wal_writer", STATUS_OK), None);
        assert_eq!(t.observe("wal_writer", STATUS_UNHEALTHY), Some(STATUS_OK));
        assert_eq!(t.observe("wal_writer", STATUS_UNHEALTHY), None);
        assert_eq!(t.observe("wal_writer", STATUS_OK), Some(STATUS_UNHEALTHY));
        // a first reading that is already bad must journal
        assert_eq!(t.observe("queues", STATUS_DEGRADED), Some(STATUS_OK));
    }

    #[test]
    fn default_config_sanity() {
        let hc = HealthConfig::default();
        assert!(hc.enabled);
        assert_eq!(hc.effective_loop_lag(), LOOP_LAG, "the default cadence keeps the constant");
        let slow = HealthConfig { interval: Duration::from_secs(1), ..HealthConfig::default() };
        assert_eq!(slow.effective_loop_lag(), Duration::from_secs(2), "never under 2 × interval");
        assert!(QUEUE_SAT >= hc.interval * 2 && hc.wal_stall() >= hc.interval * 2);
        // the derived deadlines are the fixed ones they replaced
        assert_eq!(hc.wal_stall(), Duration::from_secs(2));
        assert_eq!(hc.slo_windows(), [Duration::from_secs(10), Duration::from_secs(60)]);
        let targets: Vec<f64> = objectives().iter().map(|o| o.target).collect();
        assert_eq!(targets, [AVAILABILITY_TARGET, LATENCY_TARGET, APPROX_TARGET]);
        assert!(targets.iter().all(|t| *t > 0.0 && *t < 1.0));
        assert!(hc.watchdog_deadline() >= Duration::from_secs(2));
    }
}
