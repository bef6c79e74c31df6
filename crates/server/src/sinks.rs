//! What a node and a router write to disk about themselves: rotating
//! JSONL logs (the slow-query logs, the lifecycle journal) and the dump
//! of the request ring when the process dies. Both roles use the same
//! mechanisms; each passes its own file names, threshold and detail.

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
/// lifecycle journal's file and each slow-query log is one.
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

/// A slow-query log: a request whose total meets the threshold becomes
/// one JSON line — its record's head, then the site's own detail array
/// (`per_level` on a node, `shards` on the router). A request counts as
/// slow once its line is written; a dropped line counts as an error
/// instead. Appends are rare (only slow requests reach the writer), so
/// the log's one mutex is enough.
pub(crate) struct SlowLog {
    threshold_us: u64,
    log: JsonlLog,
    logged: Arc<obs::Counter>,
}

impl SlowLog {
    /// Open `<prefix>.*.jsonl` under `dir`; `None` when no directory is
    /// configured (the log is off). The counters are taken either way, so
    /// their series exist whether or not the log is armed.
    pub(crate) fn open(
        dir: Option<&Path>,
        prefix: &str,
        threshold_us: u64,
        logged: Arc<obs::Counter>,
        errors: Arc<obs::Counter>,
    ) -> std::io::Result<Option<SlowLog>> {
        let Some(dir) = dir else { return Ok(None) };
        let log = JsonlLog::open(dir, prefix, Box::new(FileFactory), errors)?;
        Ok(Some(SlowLog { threshold_us, log, logged }))
    }

    /// Append `rec` if it met the threshold: `rec`'s JSON head, then
    /// `"<key>":[`, the items `items` writes, and `]}`.
    pub(crate) fn append(
        &self,
        rec: &obs::RequestRecord,
        key: &str,
        items: impl FnOnce(&mut String),
    ) {
        if rec.total_us < self.threshold_us {
            return;
        }
        let mut line = String::with_capacity(512);
        rec.to_json_head(&mut line);
        line.push_str(",\"");
        line.push_str(key);
        line.push_str("\":[");
        items(&mut line);
        line.push_str("]}");
        if self.log.append(&line) {
            self.logged.inc();
        }
    }
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
            let _ = std::fs::write(&path, reg.requests_json());
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
