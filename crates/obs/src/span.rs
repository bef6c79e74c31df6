//! Scoped stage timers: `span!("stage")` returns a guard that records
//! its lifetime into the `geosir_stage_duration_us{stage=...}` histogram
//! of the current registry when dropped.
//!
//! The guard resolves its histogram handle through the thread-local
//! cache ([`crate::with_metrics`] machinery is for whole metric sets;
//! spans use a direct lookup since stage names are per-callsite
//! literals), so after the first use per thread the enter/exit path is
//! two `Instant` reads and one atomic add.

use std::sync::Arc;
use std::time::Instant;

use crate::registry::Histogram;

/// Histogram fed by every [`SpanGuard`]; labeled by stage.
const STAGE_HISTOGRAM: &str = "geosir_stage_duration_us";

/// RAII timer; records elapsed µs into the stage histogram on drop.
#[derive(Debug)]
pub struct SpanGuard {
    hist: Arc<Histogram>,
    start: Instant,
}

impl SpanGuard {
    /// Start timing `stage` against the current registry.
    pub fn enter(stage: &'static str) -> SpanGuard {
        let hist =
            crate::with_current(|reg| reg.histogram(STAGE_HISTOGRAM, &[("stage", stage)]));
        SpanGuard { hist, start: Instant::now() }
    }

    /// Elapsed time so far, µs.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

/// Time the enclosing scope as `stage`.
///
/// ```
/// let _span = geosir_obs::span!("checkpoint");
/// // ... work ...
/// // duration recorded when `_span` drops
/// ```
#[macro_export]
macro_rules! span {
    ($stage:literal) => {
        $crate::span::SpanGuard::enter($stage)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_stage_histogram() {
        let reg = std::sync::Arc::new(crate::Registry::new());
        crate::set_thread_registry(Some(reg.clone()));
        {
            let _g = SpanGuard::enter("test_stage");
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        crate::set_thread_registry(None);
        let h = reg.histogram(STAGE_HISTOGRAM, &[("stage", "test_stage")]);
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 100, "sum = {}", h.sum());
    }
}
