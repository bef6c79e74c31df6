//! The node's health plane: the watchdog thread that reads the probes
//! the hot loops stamp and publishes the verdict, and the HTTP routes
//! the node adds to the stock plane — `/healthz`, `/readyz`, and a
//! `/metrics` that refreshes the passive gauges first.

use std::sync::Arc;
use std::time::{Duration, Instant};

use geosir_obs as obs;

use super::{Shared, WRITE_QUEUE_CAP};
use crate::health::{self, ComponentHealth, TransitionTracker, Verdict};

/// What the node adds to the stock HTTP plane of `geosir-obs`:
/// `/healthz` and `/readyz` answered from the watchdog's state, and a
/// `/metrics` that brings the passive gauges up to date first. Scrapes
/// are served on the plane's own thread — they are rare, cheap, and
/// must not compete with workers for queue slots.
pub(super) fn http_routes(shared: &Arc<Shared>) -> obs::expo::Routes {
    let (metrics, healthz, readyz) = (shared.clone(), shared.clone(), shared.clone());
    obs::expo::Routes::new(shared.metrics.registry.clone())
        .route("/metrics", move || {
            metrics.refresh_gauges();
            obs::expo::metrics_reply(&metrics.metrics.registry.snapshot())
        })
        .route("/healthz", move || healthz_reply(&healthz))
        .route("/readyz", move || readyz_reply(&readyz))
}

/// `/healthz`: liveness. 200 while the watchdog thread is ticking (or
/// the health plane is disabled); 503 once its own heartbeat goes
/// stale — a server whose watchdog died cannot vouch for anything.
fn healthz_reply(shared: &Shared) -> obs::expo::Reply {
    let hc = &shared.cfg.health;
    if !hc.enabled {
        return (200, obs::expo::JSON, "{\"status\":\"ok\",\"health\":\"disabled\"}".to_string());
    }
    let age = shared.health.watchdog_age();
    let stale = age > hc.watchdog_deadline();
    let body = format!(
        "{{\"status\":\"{}\",\"uptime_ms\":{},\"watchdog_age_ms\":{}}}",
        if stale { "watchdog_stalled" } else { "ok" },
        shared.health.now_ms(),
        age.as_millis(),
    );
    (if stale { 503 } else { 200 }, obs::expo::JSON, body)
}

/// `/readyz`: the watchdog's last verdict, with a staleness guard — a
/// wedged watchdog fails readiness rather than serving a frozen "ok".
fn readyz_reply(shared: &Shared) -> obs::expo::Reply {
    let hc = &shared.cfg.health;
    if !hc.enabled {
        return (200, obs::expo::JSON, "{\"ready\":true,\"health\":\"disabled\"}".to_string());
    }
    let mut verdict = shared.health.verdict();
    if shared.health.watchdog_age() > hc.watchdog_deadline() {
        verdict.ready = false;
        verdict.status = health::STATUS_UNHEALTHY;
        verdict.components.push(ComponentHealth {
            component: "watchdog",
            status: health::STATUS_UNHEALTHY,
            detail: "watchdog heartbeat stale".into(),
        });
    }
    // read-only is re-checked live: it can flip between watchdog ticks
    // and must never be reported stale in the healthy direction.
    if shared.is_read_only() {
        verdict.ready = false;
        verdict.read_only = true;
    }
    (if verdict.ready { 200 } else { 503 }, obs::expo::JSON, verdict.to_json())
}

/// The watchdog: every `health.interval`, ping the event loop's waker
/// (so an idle epoll loop still proves liveness), read the probes,
/// sample queue saturation, run the SLO burn-rate engine, journal
/// component transitions, drive the health gauges, and publish the
/// verdict `/readyz` serves.
pub(super) fn watchdog_loop(shared: &Arc<Shared>) {
    let hc = shared.cfg.health.clone();
    let mut engine = obs::SloEngine::new(health::objectives(), hc.slo_windows());
    let mut transitions = TransitionTracker::new();
    let mut read_sat_since: Option<Instant> = None;
    let mut write_sat_since: Option<Instant> = None;
    let mut was_read_only = false;
    let m = &shared.metrics;
    let journal = m.registry.journal();
    loop {
        shared.health.ping_waker();
        let now = Instant::now();
        let mut components = Vec::with_capacity(4);

        // WAL writer heartbeat: the busy marker is set when a batch starts
        // and cleared when its replies go out; the writer blocking idle on
        // an empty queue is healthy by construction (marker = 0).
        let (wal_status, wal_detail) = match shared.health.wal_busy_for() {
            Some(busy) if busy > hc.wal_stall() => {
                (health::STATUS_UNHEALTHY, format!("batch in flight for {}ms", busy.as_millis()))
            }
            Some(busy) => {
                (health::STATUS_OK, format!("batch in flight for {}ms", busy.as_millis()))
            }
            None => (health::STATUS_OK, "idle".to_string()),
        };
        components.push(ComponentHealth {
            component: "wal_writer",
            status: wal_status,
            detail: wal_detail,
        });

        // Event-loop lag: the waker ping above forces a wakeup even on an
        // idle server, so a stale stamp means the loop truly cannot run.
        let loop_age = shared.health.loop_tick_age();
        let loop_status = if loop_age > hc.effective_loop_lag() {
            health::STATUS_UNHEALTHY
        } else {
            health::STATUS_OK
        };
        let loop_detail = format!("last wakeup {}ms ago", loop_age.as_millis());
        components.push(ComponentHealth {
            component: "event_loop",
            status: loop_status,
            detail: loop_detail,
        });

        // Queue saturation: pinned at capacity continuously past the
        // deadline. A full queue that drains between ticks resets.
        let sat = |depth: usize, cap: usize, since: &mut Option<Instant>| -> Option<Duration> {
            if depth >= cap {
                let s = since.get_or_insert(now);
                Some(now.duration_since(*s))
            } else {
                *since = None;
                None
            }
        };
        let read_cap = shared.cfg.queue_cap.max(1);
        let read_sat = sat(shared.read_queue.depth(), read_cap, &mut read_sat_since);
        let write_sat = sat(shared.write_queue.depth(), WRITE_QUEUE_CAP, &mut write_sat_since);
        let worst_sat = read_sat.into_iter().chain(write_sat).max();
        let (queue_status, queue_detail) = match worst_sat {
            Some(d) if d > health::QUEUE_SAT => {
                (health::STATUS_DEGRADED, format!("saturated for {}ms", d.as_millis()))
            }
            Some(d) => (health::STATUS_OK, format!("at capacity for {}ms", d.as_millis())),
            None => (health::STATUS_OK, "draining".to_string()),
        };
        components.push(ComponentHealth {
            component: "queues",
            status: queue_status,
            detail: queue_detail,
        });

        // SLO burn rates over the registry's own counters/histograms.
        let reports = engine.observe(now, &m.registry.snapshot());
        for r in &reports {
            let window = format!("{}s", r.window.as_secs());
            m.registry
                .gauge_with_policy(
                    "geosir_slo_burn_milli",
                    &[("objective", r.objective.as_str()), ("window", window.as_str())],
                    obs::GaugePolicy::Max,
                )
                .set((r.burn * 1000.0).min(i64::MAX as f64) as i64);
        }
        let alerting = obs::alerting(&reports, health::SLO_MAX_BURN);
        let (slo_status, slo_detail) = if alerting.is_empty() {
            (health::STATUS_OK, "within budget".to_string())
        } else {
            (health::STATUS_DEGRADED, format!("burning: {}", alerting.join(", ")))
        };
        components.push(ComponentHealth {
            component: "slo",
            status: slo_status,
            detail: slo_detail,
        });

        // Journal transitions (one event per flip, naming the component).
        for c in &components {
            if let Some(prev) = transitions.observe(c.component, c.status) {
                let (sev, code) = if c.status == health::STATUS_OK {
                    (obs::Severity::Info, "watchdog.ok")
                } else {
                    (obs::Severity::Warn, "watchdog.stall")
                };
                journal.emit(
                    obs::JournalEvent::new(sev, code)
                        .with("component", c.component)
                        .with("status", health::status_name(c.status))
                        .with("was", health::status_name(prev))
                        .with("detail", &c.detail),
                );
            }
        }

        // Read-only transitions are journaled here (entry sites flip an
        // atomic; the watchdog owns the edge detection for both
        // directions).
        let read_only = shared.is_read_only();
        if read_only != was_read_only {
            let (sev, code) = if read_only {
                (obs::Severity::Error, "wal.read_only_enter")
            } else {
                (obs::Severity::Info, "wal.read_only_exit")
            };
            journal.emit(obs::JournalEvent::new(sev, code));
            was_read_only = read_only;
        }

        m.health_wal.set(wal_status as i64);
        m.health_loop.set(loop_status as i64);
        m.health_queues.set(queue_status as i64);
        m.health_slo.set(slo_status as i64);
        let status = components.iter().map(|c| c.status).max().unwrap_or(health::STATUS_OK);
        let ready = !read_only && status == health::STATUS_OK;
        m.ready.set(ready as i64);
        shared.health.set_verdict(Verdict {
            ready,
            status,
            read_only,
            components,
            slo_alerting: alerting,
        });
        shared.health.stamp_watchdog_tick();
        if shared.is_shutdown() {
            break;
        }
        std::thread::sleep(hc.interval);
        if shared.is_shutdown() {
            break;
        }
    }
}
