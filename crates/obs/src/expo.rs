//! Text exposition: Prometheus-format rendering and the workspace's one
//! HTTP server.
//!
//! There is no HTTP library in the tree, so this speaks just enough
//! HTTP/1.1 for `curl` and a Prometheus scraper: read the request head,
//! match the path exactly against a route table, write one
//! `Connection: close` response. [`Routes`] is that table — the stock
//! `/metrics`, `/debug/last_queries` and `/debug/journal` of a
//! registry, plus whatever the embedding program
//! registers (the retrieval node adds its health probes, the cluster
//! router its federated view) — and [`MetricsServer`] is the accept
//! loop and the thread it runs on.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::registry::{bucket_upper_bound, Registry, SnapValue, Snapshot};

/// Render a snapshot in Prometheus text exposition format.
///
/// Histograms emit cumulative `_bucket{le=...}` series over their
/// non-empty buckets plus `+Inf`, `_sum`, and `_count`.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(256 + snap.entries.len() * 96);
    let mut last_name: Option<&str> = None;
    for e in &snap.entries {
        if last_name != Some(e.name.as_str()) {
            let kind = match &e.value {
                SnapValue::Counter(_) => "counter",
                SnapValue::Gauge(..) => "gauge",
                SnapValue::Histogram(_) => "histogram",
            };
            out.push_str("# TYPE ");
            out.push_str(&e.name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            last_name = Some(e.name.as_str());
        }
        match &e.value {
            SnapValue::Counter(v) => {
                push_series(&mut out, &e.name, &e.labels, None);
                out.push_str(&format!(" {v}\n"));
            }
            SnapValue::Gauge(v, _) => {
                push_series(&mut out, &e.name, &e.labels, None);
                out.push_str(&format!(" {v}\n"));
            }
            SnapValue::Histogram(h) => {
                let mut cum = 0u64;
                for &(idx, n) in &h.buckets {
                    cum += n;
                    let le = bucket_upper_bound(idx as usize);
                    push_series(
                        &mut out,
                        &format!("{}_bucket", e.name),
                        &e.labels,
                        Some(&le.to_string()),
                    );
                    out.push_str(&format!(" {cum}\n"));
                }
                push_series(&mut out, &format!("{}_bucket", e.name), &e.labels, Some("+Inf"));
                out.push_str(&format!(" {cum}\n"));
                push_series(&mut out, &format!("{}_sum", e.name), &e.labels, None);
                out.push_str(&format!(" {}\n", h.sum));
                push_series(&mut out, &format!("{}_count", e.name), &e.labels, None);
                out.push_str(&format!(" {cum}\n"));
            }
        }
    }
    out
}

fn push_series(out: &mut String, name: &str, labels: &[(String, String)], le: Option<&str>) {
    out.push_str(name);
    if !labels.is_empty() || le.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        if let Some(le) = le {
            if !first {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(le);
            out.push('"');
        }
        out.push('}');
    }
}

/// What a route answers: status, content type, body.
pub type Reply = (u16, &'static str, String);

/// The content type of every route here but `/metrics`.
pub const JSON: &str = "application/json";

/// A 200 carrying `snap` in Prometheus text exposition format.
pub fn metrics_reply(snap: &Snapshot) -> Reply {
    (200, "text/plain; version=0.0.4", render_prometheus(snap))
}

type Handler = Box<dyn Fn() -> Reply + Send>;

/// The exact-path route table of a [`MetricsServer`].
pub struct Routes {
    table: Vec<(&'static str, Handler)>,
}

impl Routes {
    /// The stock plane of `registry`: `/metrics`, `/debug/last_queries`,
    /// `/debug/journal`.
    pub fn new(registry: Arc<Registry>) -> Routes {
        let (metrics, requests, journal) = (registry.clone(), registry.clone(), registry);
        Routes { table: Vec::new() }
            .route("/metrics", move || metrics_reply(&metrics.snapshot()))
            .route("/debug/last_queries", move || (200, JSON, requests.requests_json()))
            .route("/debug/journal", move || (200, JSON, journal.journal().to_json()))
    }

    /// Answer `GET path` with `handler`, replacing whatever answered
    /// that path before (a stock route included).
    pub fn route(
        mut self,
        path: &'static str,
        handler: impl Fn() -> Reply + Send + 'static,
    ) -> Routes {
        let handler: Handler = Box::new(handler);
        match self.table.iter_mut().find(|(p, _)| *p == path) {
            Some(slot) => slot.1 = handler,
            None => self.table.push((path, handler)),
        }
        self
    }

    /// The answer to `GET path`: its route's, or a 404 listing the table.
    fn dispatch(&self, path: &str) -> Reply {
        match self.table.iter().find(|(p, _)| *p == path) {
            Some((_, handler)) => handler(),
            None => {
                let paths: Vec<&str> = self.table.iter().map(|(p, _)| *p).collect();
                (404, "text/plain", format!("not found; try {}", paths.join(", ")))
            }
        }
    }
}

/// Read one HTTP request head from `stream` and return its query-less
/// path, or `None` when the request was already answered (bad method,
/// oversized head) or the peer hung up.
fn read_request_path(stream: &mut TcpStream) -> io::Result<Option<String>> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 256];
    // Read until end of the request head; we ignore any body.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > 8192 {
            respond(stream, 400, "text/plain", "request head too large")?;
            return Ok(None);
        }
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Ok(None);
        }
        head.extend_from_slice(&byte[..n]);
    }
    let line = head.split(|&b| b == b'\r').next().unwrap_or(&[]);
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        respond(stream, 405, "text/plain", "only GET is supported")?;
        return Ok(None);
    }
    Ok(Some(path.split('?').next().unwrap_or("").to_string()))
}

/// Write one `Connection: close` HTTP/1.1 response and flush.
fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Accept errors that mean "try again now", not "the socket is sick": a
/// connection that died between SYN and accept, a poll tick, or an
/// interrupted syscall. Everything else (EMFILE, ENOBUFS, …) persists,
/// and a loop that retried it at once would spin: back off instead.
pub fn is_transient_accept_error(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
            | io::ErrorKind::Interrupted
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
    )
}

/// The HTTP plane: one listener, one thread, requests served inline one
/// at a time (scrapes are rare and cheap).
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve `routes`
    /// until [`MetricsServer::shutdown`] or drop.
    pub fn bind(addr: &str, routes: Routes) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new().name("geosir-metrics".into()).spawn(move || loop {
            let accepted = listener.accept();
            if stop2.load(Ordering::Acquire) {
                break;
            }
            match accepted {
                Ok((mut stream, _)) => {
                    // one request, one response, close
                    if let Ok(Some(path)) = read_request_path(&mut stream) {
                        let (status, content_type, body) = routes.dispatch(&path);
                        let _ = respond(&mut stream, status, content_type, &body);
                    }
                }
                Err(e) if is_transient_accept_error(e.kind()) => {}
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        })?;
        Ok(MetricsServer { addr, stop, thread: Some(thread) })
    }

    /// Address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the thread.
    pub fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else { return };
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RequestKind, RequestRecord};

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn prometheus_rendering_shapes() {
        let reg = Registry::new();
        reg.counter("geosir_requests_total", &[("type", "query")]).add(5);
        reg.gauge("geosir_queue_depth", &[("queue", "read")]).set(3);
        let h = reg.histogram("geosir_latency_us", &[]);
        h.record(100);
        h.record(400);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE geosir_requests_total counter"), "{text}");
        assert!(text.contains("geosir_requests_total{type=\"query\"} 5"), "{text}");
        assert!(text.contains("geosir_queue_depth{queue=\"read\"} 3"), "{text}");
        assert!(text.contains("geosir_latency_us_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("geosir_latency_us_sum 500"), "{text}");
        assert!(text.contains("geosir_latency_us_count 2"), "{text}");
    }

    #[test]
    fn http_endpoint_serves_metrics_and_traces() {
        let reg = Arc::new(Registry::new());
        reg.counter("geosir_test_total", &[]).add(9);
        let mut rec = RequestRecord::default();
        rec.begin(RequestKind::Query, 77).stage("retrieve", 8);
        rec.total_us = 10;
        reg.record_request(&mut rec);

        let routes = Routes::new(reg.clone())
            .route("/down", || (503, "application/json", "{\"ready\":false}".into()))
            .route("/metrics", move || {
                // an override may do work first, as the node's gauge refresh does
                reg.gauge("geosir_test_fresh", &[]).set(1);
                metrics_reply(&reg.snapshot())
            });
        let mut server = MetricsServer::bind("127.0.0.1:0", routes).unwrap();
        let addr = server.addr();

        let metrics = http_get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
        assert!(metrics.contains("geosir_test_total 9"), "{metrics}");
        assert!(metrics.contains("geosir_test_fresh 1"), "the override answered: {metrics}");

        let down = http_get(addr, "/down");
        assert!(down.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{down}");
        assert!(down.ends_with("{\"ready\":false}"), "{down}");

        let traces = http_get(addr, "/debug/last_queries");
        assert!(traces.starts_with("HTTP/1.1 200"), "{traces}");
        assert!(traces.contains("\"trace_id\":77"), "{traces}");

        let missing = http_get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404 Not Found\r\n"), "{missing}");
        assert!(
            missing.ends_with(
                "not found; try /metrics, /debug/last_queries, /debug/journal, /down"
            ),
            "the 404 lists every route once, overridden ones in place: {missing}"
        );

        server.shutdown();
    }

    #[test]
    fn accept_error_classifier_separates_transient_from_fatal() {
        use std::io::ErrorKind;
        // "try again" conditions: a dead connection in the backlog, a
        // poll tick, an interrupted syscall
        for k in [
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
            ErrorKind::Interrupted,
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
        ] {
            assert!(is_transient_accept_error(k), "{k:?} must be transient");
        }
        // resource exhaustion and misconfiguration are real trouble:
        // the loop must back off and count them, not spin
        for k in [
            ErrorKind::OutOfMemory,
            ErrorKind::PermissionDenied,
            ErrorKind::InvalidInput,
            ErrorKind::NotConnected,
            ErrorKind::Other,
        ] {
            assert!(!is_transient_accept_error(k), "{k:?} must not be transient");
        }
    }
}
