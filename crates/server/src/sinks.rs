//! What a node and a router write to disk about themselves: rotating
//! JSONL logs, each the one sink of a registry ring (the slow-query logs
//! of the request ring, the lifecycle journal's file), and the dump of
//! the request ring when the process dies. Both roles use the same
//! mechanisms; each passes its own file names and threshold.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use geosir_obs as obs;
use geosir_storage::faults::{FileFactory, IoFactory};
use geosir_storage::slowlog::RotatingJsonl;

/// Rotation of every JSONL log this crate writes — the node's and the
/// router's slow-query logs, the lifecycle journal: a segment rolls over
/// at this size, and this many rolled segments are kept.
const LOG_SEGMENT_BYTES: u64 = 1 << 20;
const LOG_SEGMENTS_KEPT: usize = 4;

/// A size-rotated JSONL file that never stalls or fails its writer: a
/// line that cannot be appended is counted in `errors` and dropped —
/// telemetry must not stop a request or an emitter on a dead disk. The
/// lifecycle journal's file and each slow-query log is one. Appends are
/// rare (only slow requests and lifecycle events reach one), so the
/// log's one mutex is enough.
pub(crate) struct JsonlLog {
    writer: Mutex<RotatingJsonl>,
    errors: Arc<obs::Counter>,
}

impl JsonlLog {
    /// Open `<prefix>.*.jsonl` under `dir`, creating files through `io`.
    pub(crate) fn open(
        dir: &Path,
        prefix: &str,
        io: Box<dyn IoFactory>,
        errors: Arc<obs::Counter>,
    ) -> std::io::Result<JsonlLog> {
        let writer = RotatingJsonl::open(dir, prefix, LOG_SEGMENT_BYTES, LOG_SEGMENTS_KEPT, io)?;
        Ok(JsonlLog { writer: Mutex::new(writer), errors })
    }

    /// Append one line; `false`, and counted, when it was dropped.
    pub(crate) fn append(&self, line: &str) -> bool {
        let written = self.writer.lock().is_ok_and(|mut w| w.append_line(line).is_ok());
        if !written {
            self.errors.inc();
        }
        written
    }
}

/// Make `log` the one sink of `ring`: every entry `keep` admits,
/// those the ring already holds first, becomes the line its
/// [`obs::Entry::to_json`] renders — byte for byte the object the
/// ring's `/debug/*` route shows. `written` counts the lines appended.
/// The journal's file and both roles' slow-query logs are attached here.
pub(crate) fn attach<T: obs::Entry + 'static>(
    ring: &obs::Ring<T>,
    log: JsonlLog,
    keep: impl Fn(&T) -> bool + Send + Sync + 'static,
    written: Option<Arc<obs::Counter>>,
) -> std::io::Result<()> {
    let sink = move |entry: &T| {
        if !keep(entry) {
            return;
        }
        let mut line = String::with_capacity(512);
        entry.to_json(&mut line);
        if log.append(&line) {
            if let Some(written) = &written {
                written.inc();
            }
        }
    };
    if ring.set_sink(sink) {
        Ok(())
    } else {
        Err(std::io::Error::new(std::io::ErrorKind::AlreadyExists, "the ring has a sink already"))
    }
}

/// Arm a slow-query log, `<prefix>.*.jsonl` under `dir`, as the sink of
/// `registry`'s request ring: a read whose total met `threshold_us`
/// becomes one line, its record. A request counts as slow once its line
/// is written; a dropped line counts as an error instead. Nothing is
/// armed without a directory; the counters exist either way.
pub(crate) fn arm_slow_log(
    registry: &obs::Registry,
    dir: Option<&Path>,
    prefix: &str,
    threshold_us: u64,
    logged: Arc<obs::Counter>,
    errors: Arc<obs::Counter>,
) -> std::io::Result<()> {
    let Some(dir) = dir else { return Ok(()) };
    let log = JsonlLog::open(dir, prefix, Box::new(FileFactory), errors)?;
    let slow = move |rec: &obs::RequestRecord| rec.kind.is_read() && rec.total_us >= threshold_us;
    attach(registry.requests(), log, slow, Some(logged))
}

/// Write `registry`'s request ring to `path` when the process dies
/// abnormally. Two death paths converge on the same dump: an armed
/// crash point aborts without unwinding (its hooks run just before the
/// abort), and a real panic reaches the same hooks through a chained
/// process panic hook, installed once per process, after which the
/// previous hook (backtrace printing) runs as usual. The hook holds only
/// a `Weak`: a stopped server's or router's registry can be freed, and a
/// process that starts many of them does not keep them alive.
pub(crate) fn arm_crash_dump(path: PathBuf, registry: &Arc<obs::Registry>) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let reg = Arc::downgrade(registry);
    geosir_storage::faults::on_crash(move || {
        if let Some(reg) = reg.upgrade() {
            let _ = std::fs::write(&path, reg.requests().to_json());
        }
    });
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            geosir_storage::faults::run_crash_hooks();
            prev(info);
        }));
    });
}
