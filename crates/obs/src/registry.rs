//! The metrics registry: named, labeled series backed by atomics.
//!
//! Three metric kinds cover the pipeline's needs:
//!
//! * [`Counter`] — monotonically increasing `u64` (events, totals).
//! * [`Gauge`] — instantaneous `i64` (queue depth, replay stats).
//! * [`Histogram`] — log-linear bucketed distribution of `u64` samples
//!   (latencies in µs, per-query candidate counts).
//!
//! The *record* path is lock-free: callers hold `Arc` handles and every
//! observation is a relaxed atomic add. The *lookup* path
//! ([`Registry::counter`] etc.) takes a read lock and allocates only on
//! first registration, so hot code resolves its handles once and keeps
//! them.
//!
//! [`Registry::snapshot`] captures every series into a [`Snapshot`]
//! that merges ([`Snapshot::merge`]) and round-trips through a compact
//! binary form ([`Snapshot::encode`] / [`Snapshot::decode`]) so the
//! wire layer can ship it inside a stats reply.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use crate::journal::JournalEvent;
use crate::request::RequestRecord;
use crate::ring::{Ring, RING_CAP};

/// Number of histogram buckets: values 0..15 exactly, then four
/// sub-buckets per power of two up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 256;

/// Bucket index for a sample. Values below 16 get exact buckets; larger
/// values land in one of four linear sub-buckets per octave, bounding
/// the relative quantile error at 25% (vs 100% for plain power-of-two
/// buckets, which collapsed every sub-millisecond latency into one or
/// two buckets).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (msb - 2)) & 3) as usize;
        16 + (msb - 4) * 4 + sub
    }
}

/// Inclusive upper bound of a bucket; quantiles report this value.
#[inline]
pub fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < 16 {
        idx as u64
    } else {
        let block = (idx - 16) / 4 + 4;
        let sub = ((idx - 16) % 4) as u64;
        let step = 1u64 << (block - 2);
        // `- 1` before the final add so the top bucket lands exactly on
        // u64::MAX instead of overflowing.
        (1u64 << block) - 1 + (sub + 1) * step
    }
}

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous value; `set` overwrites, `add` adjusts.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Log-linear histogram of `u64` samples.
///
/// Exact below 16, then four sub-buckets per power of two: a reported
/// quantile is the upper bound of its bucket, at most 25% above the
/// true value. All updates are relaxed atomic adds.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; HISTOGRAM_BUCKETS]>,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a duration in whole microseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros() as u64);
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0 < q <= 1.0`), or 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        quantile_from_buckets(&counts, q)
    }

    fn snapshot_buckets(&self) -> Vec<(u16, u64)> {
        let mut out = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n != 0 {
                out.push((i as u16, n));
            }
        }
        out
    }
}

/// Shared quantile math for live histograms and snapshots: `counts` is
/// indexed by bucket, dense or already expanded.
pub(crate) fn quantile_from_buckets(counts: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &n) in counts.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return bucket_upper_bound(i);
        }
    }
    bucket_upper_bound(counts.len().saturating_sub(1))
}

/// Quantile over the union of several live histograms — e.g. per-type
/// request-latency series folded back into one distribution for a
/// single "overall p99" without a second recording path.
pub fn merged_quantile(parts: &[&Histogram], q: f64) -> u64 {
    let mut counts = [0u64; HISTOGRAM_BUCKETS];
    for h in parts {
        for (i, b) in h.buckets.iter().enumerate() {
            counts[i] += b.load(Ordering::Relaxed);
        }
    }
    quantile_from_buckets(&counts, q)
}

/// How a gauge combines when snapshots from several registries merge
/// ([`Snapshot::merge`]). Counters and histograms always sum — they
/// count events, and events across shards add. A gauge is an
/// *instantaneous* reading, and "the cluster's value" depends on what
/// it reads: queue depths and live-shape counts add, but an age or a
/// lag summed across shards reports a number no shard ever saw. The
/// policy is declared once, at registration, and travels inside the
/// snapshot so a merging peer that never registered the series still
/// folds it correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GaugePolicy {
    /// Additive readings (queue depth, live shapes): shard values sum.
    #[default]
    Sum,
    /// Worst-of readings (snapshot age, replication lag): the maximum
    /// across shards is the honest cluster value.
    Max,
    /// Best-of readings: the minimum across shards wins.
    Min,
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>, GaugePolicy),
    Histogram(Arc<Histogram>),
}

type LabelSet = Box<[(String, String)]>;

/// A set of named, labeled metric series plus the request ring and the
/// journal. Each server owns one; so does the shell.
pub struct Registry {
    series: RwLock<HashMap<String, Vec<(LabelSet, Metric)>>>,
    /// The last finished requests (see [`crate::request`]).
    requests: Ring<RequestRecord>,
    /// Next server-assigned trace id, for requests that arrived without
    /// one.
    pub(crate) next_trace_id: AtomicU64,
    journal: Ring<JournalEvent>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

fn labels_eq(stored: &[(String, String)], wanted: &[(&str, &str)]) -> bool {
    stored.len() == wanted.len()
        && stored.iter().zip(wanted).all(|((sk, sv), (wk, wv))| sk == wk && sv == wv)
}

impl Registry {
    pub fn new() -> Self {
        Self {
            series: RwLock::new(HashMap::new()),
            requests: Ring::new(RING_CAP),
            next_trace_id: AtomicU64::new(1),
            journal: Ring::new(RING_CAP),
        }
    }

    /// The request ring: `/debug/last_queries` and the crash dump.
    pub fn requests(&self) -> &Ring<RequestRecord> {
        &self.requests
    }

    /// Structured lifecycle-event journal backing `/debug/journal`.
    pub fn journal(&self) -> &Ring<JournalEvent> {
        &self.journal
    }

    fn lookup<T, F, N>(&self, name: &str, labels: &[(&str, &str)], found: F, make: N) -> Arc<T>
    where
        F: Fn(&Metric) -> Option<Arc<T>>,
        N: Fn() -> (Arc<T>, Metric),
    {
        if let Some(family) = self.series.read().unwrap().get(name) {
            for (stored, metric) in family {
                if labels_eq(stored, labels) {
                    if let Some(handle) = found(metric) {
                        return handle;
                    }
                    panic!("metric `{name}` re-registered with a different kind");
                }
            }
        }
        let mut map = self.series.write().unwrap();
        let family = map.entry(name.to_string()).or_default();
        // Double-check under the write lock: a racing registrant may
        // have inserted the series between our read and write.
        for (stored, metric) in family.iter() {
            if labels_eq(stored, labels) {
                if let Some(handle) = found(metric) {
                    return handle;
                }
                panic!("metric `{name}` re-registered with a different kind");
            }
        }
        let set: LabelSet =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let (handle, metric) = make();
        family.push((set, metric));
        handle
    }

    /// Find or register a counter. Lookup never allocates once the
    /// series exists; cache the handle on hot paths.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.lookup(
            name,
            labels,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::new());
                (c.clone(), Metric::Counter(c.clone()))
            },
        )
    }

    /// Find or register a gauge with the default [`GaugePolicy::Sum`]
    /// merge policy.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.gauge_with_policy(name, labels, GaugePolicy::Sum)
    }

    /// Find or register a gauge, declaring how it merges across
    /// registries. The policy set at first registration wins; later
    /// lookups return the existing handle unchanged.
    pub fn gauge_with_policy(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        policy: GaugePolicy,
    ) -> Arc<Gauge> {
        self.lookup(
            name,
            labels,
            |m| match m {
                Metric::Gauge(g, _) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Arc::new(Gauge::new());
                (g.clone(), Metric::Gauge(g.clone(), policy))
            },
        )
    }

    /// Find or register a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.lookup(
            name,
            labels,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Arc::new(Histogram::new());
                (h.clone(), Metric::Histogram(h.clone()))
            },
        )
    }

    /// Capture every series. Sorted by (name, labels) so snapshots are
    /// deterministic and diffable.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.series.read().unwrap();
        let mut entries = Vec::new();
        for (name, family) in map.iter() {
            for (labels, metric) in family {
                let value = match metric {
                    Metric::Counter(c) => SnapValue::Counter(c.get()),
                    Metric::Gauge(g, p) => SnapValue::Gauge(g.get(), *p),
                    Metric::Histogram(h) => SnapValue::Histogram(SnapHistogram {
                        sum: h.sum(),
                        buckets: h.snapshot_buckets(),
                    }),
                };
                entries.push(SnapEntry {
                    name: name.clone(),
                    labels: labels.to_vec(),
                    value,
                });
            }
        }
        drop(map);
        entries.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { entries }
    }
}

/// Sparse histogram capture: only non-empty buckets.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapHistogram {
    pub sum: u64,
    /// `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(u16, u64)>,
}

impl SnapHistogram {
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|(_, n)| n).sum()
    }

    pub fn quantile(&self, q: f64) -> u64 {
        let mut dense = vec![0u64; HISTOGRAM_BUCKETS];
        for &(i, n) in &self.buckets {
            if (i as usize) < HISTOGRAM_BUCKETS {
                dense[i as usize] = n;
            }
        }
        quantile_from_buckets(&dense, q)
    }

    /// Mean of recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    fn merge(&mut self, other: &SnapHistogram) {
        // Saturate rather than overflow: merging shards that each
        // recorded near-u64::MAX samples must stay a valid histogram.
        self.sum = self.sum.saturating_add(other.sum);
        for &(i, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&i, |&(bi, _)| bi) {
                Ok(pos) => self.buckets[pos].1 = self.buckets[pos].1.saturating_add(n),
                Err(pos) => self.buckets.insert(pos, (i, n)),
            }
        }
    }
}

/// One captured series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapValue {
    Counter(u64),
    Gauge(i64, GaugePolicy),
    Histogram(SnapHistogram),
}

/// Name + labels + captured value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapEntry {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: SnapValue,
}

/// A point-in-time capture of a [`Registry`]: mergeable, orderable,
/// and encodable for the wire.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    pub entries: Vec<SnapEntry>,
}

impl Snapshot {
    /// Find a series by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SnapValue> {
        self.entries
            .iter()
            .find(|e| {
                e.name == name
                    && e.labels.len() == labels.len()
                    && e.labels
                        .iter()
                        .zip(labels)
                        .all(|((sk, sv), (wk, wv))| sk == wk && sv == wv)
            })
            .map(|e| &e.value)
    }

    /// Counter value for a series, or 0 when absent.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(SnapValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value for a series, or 0 when absent.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> i64 {
        match self.get(name, labels) {
            Some(SnapValue::Gauge(v, _)) => *v,
            _ => 0,
        }
    }

    /// Histogram for a series, when present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SnapHistogram> {
        match self.get(name, labels) {
            Some(SnapValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Fold `other` into `self`: counters and histograms add; gauges
    /// resolve per their declared [`GaugePolicy`] (the side already in
    /// `self` decides, so a fold over N shards applies one policy
    /// consistently).
    pub fn merge(&mut self, other: &Snapshot) {
        for entry in &other.entries {
            let existing = self.entries.iter_mut().find(|e| {
                e.name == entry.name && e.labels == entry.labels
            });
            match existing {
                Some(e) => match (&mut e.value, &entry.value) {
                    (SnapValue::Counter(a), SnapValue::Counter(b)) => *a += b,
                    (SnapValue::Gauge(a, policy), SnapValue::Gauge(b, _)) => match policy {
                        GaugePolicy::Sum => *a += b,
                        GaugePolicy::Max => *a = (*a).max(*b),
                        GaugePolicy::Min => *a = (*a).min(*b),
                    },
                    (SnapValue::Histogram(a), SnapValue::Histogram(b)) => a.merge(b),
                    _ => {}
                },
                None => self.entries.push(entry.clone()),
            }
        }
        self.entries.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    }

    /// A copy with `(key, value)` appended to every entry's label set —
    /// the federation layer turns a shard's snapshot into `shard="N"`
    /// series with this before folding it into the cluster view.
    pub fn relabeled(&self, key: &str, value: &str) -> Snapshot {
        let mut out = self.clone();
        for e in &mut out.entries {
            e.labels.push((key.to_string(), value.to_string()));
        }
        out.entries.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        out
    }

    /// Compact binary form for the wire (little-endian, length-prefixed
    /// strings, sparse histogram buckets).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            put_str(out, &e.name);
            out.push(e.labels.len() as u8);
            for (k, v) in &e.labels {
                put_str(out, k);
                put_str(out, v);
            }
            match &e.value {
                SnapValue::Counter(v) => {
                    out.push(0);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                SnapValue::Gauge(v, policy) => {
                    // Kind 1 is the historical sum-gauge byte; Max and
                    // Min get fresh kinds so old decoders reject rather
                    // than misfold them.
                    out.push(match policy {
                        GaugePolicy::Sum => 1,
                        GaugePolicy::Max => 3,
                        GaugePolicy::Min => 4,
                    });
                    out.extend_from_slice(&v.to_le_bytes());
                }
                SnapValue::Histogram(h) => {
                    out.push(2);
                    out.extend_from_slice(&h.sum.to_le_bytes());
                    out.extend_from_slice(&(h.buckets.len() as u16).to_le_bytes());
                    for &(i, n) in &h.buckets {
                        out.extend_from_slice(&i.to_le_bytes());
                        out.extend_from_slice(&n.to_le_bytes());
                    }
                }
            }
        }
    }

    /// Decode [`Snapshot::encode`] output; `None` on any malformation.
    pub fn decode(mut buf: &[u8]) -> Option<Snapshot> {
        let n = get_u32(&mut buf)? as usize;
        // Each entry needs at least a name length + kind byte.
        if n > buf.len() {
            return None;
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let name = get_str(&mut buf)?;
            let n_labels = get_u8(&mut buf)? as usize;
            let mut labels = Vec::with_capacity(n_labels);
            for _ in 0..n_labels {
                let k = get_str(&mut buf)?;
                let v = get_str(&mut buf)?;
                labels.push((k, v));
            }
            let value = match get_u8(&mut buf)? {
                0 => SnapValue::Counter(get_u64(&mut buf)?),
                1 => SnapValue::Gauge(get_u64(&mut buf)? as i64, GaugePolicy::Sum),
                3 => SnapValue::Gauge(get_u64(&mut buf)? as i64, GaugePolicy::Max),
                4 => SnapValue::Gauge(get_u64(&mut buf)? as i64, GaugePolicy::Min),
                2 => {
                    let sum = get_u64(&mut buf)?;
                    let n_buckets = get_u16(&mut buf)? as usize;
                    if n_buckets > HISTOGRAM_BUCKETS {
                        return None;
                    }
                    let mut buckets = Vec::with_capacity(n_buckets);
                    for _ in 0..n_buckets {
                        let i = get_u16(&mut buf)?;
                        let c = get_u64(&mut buf)?;
                        buckets.push((i, c));
                    }
                    SnapValue::Histogram(SnapHistogram { sum, buckets })
                }
                _ => return None,
            };
            entries.push(SnapEntry { name, labels, value });
        }
        if buf.is_empty() {
            Some(Snapshot { entries })
        } else {
            None
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.extend_from_slice(&(bytes.len().min(u16::MAX as usize) as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..bytes.len().min(u16::MAX as usize)]);
}

fn get_u8(buf: &mut &[u8]) -> Option<u8> {
    let (&b, rest) = buf.split_first()?;
    *buf = rest;
    Some(b)
}

fn get_u16(buf: &mut &[u8]) -> Option<u16> {
    if buf.len() < 2 {
        return None;
    }
    let v = u16::from_le_bytes(buf[..2].try_into().unwrap());
    *buf = &buf[2..];
    Some(v)
}

fn get_u32(buf: &mut &[u8]) -> Option<u32> {
    if buf.len() < 4 {
        return None;
    }
    let v = u32::from_le_bytes(buf[..4].try_into().unwrap());
    *buf = &buf[4..];
    Some(v)
}

fn get_u64(buf: &mut &[u8]) -> Option<u64> {
    if buf.len() < 8 {
        return None;
    }
    let v = u64::from_le_bytes(buf[..8].try_into().unwrap());
    *buf = &buf[8..];
    Some(v)
}

fn get_str(buf: &mut &[u8]) -> Option<String> {
    let len = get_u16(buf)? as usize;
    if buf.len() < len {
        return None;
    }
    let s = std::str::from_utf8(&buf[..len]).ok()?.to_string();
    *buf = &buf[len..];
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_is_monotone_and_consistent() {
        let mut prev_ub = 0;
        for idx in 0..HISTOGRAM_BUCKETS {
            let ub = bucket_upper_bound(idx);
            if idx > 0 {
                assert!(ub > prev_ub, "bucket {idx} upper bound not increasing");
            }
            prev_ub = ub;
            assert_eq!(bucket_index(ub), idx, "upper bound of {idx} maps back");
        }
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        for v in [0u64, 1, 15, 16, 17, 100, 300, 500, 999, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            assert!(v <= bucket_upper_bound(idx));
            if idx > 0 {
                assert!(v > bucket_upper_bound(idx - 1));
            }
        }
    }

    #[test]
    fn sub_millisecond_latencies_get_distinct_buckets() {
        // The old power-of-two scheme put 300µs and 500µs in the same
        // (256, 512] bucket; the log-linear scheme must not.
        assert_ne!(bucket_index(300), bucket_index(500));
        assert_ne!(bucket_index(600), bucket_index(900));
    }

    #[test]
    fn histogram_quantile_upper_bound_within_25_percent() {
        let h = Histogram::new();
        for v in [100u64, 200, 300, 400, 500, 600, 700, 800, 900, 1000] {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((500..=625).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((1000..=1250).contains(&p99), "p99 = {p99}");
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 5500);
    }

    #[test]
    fn registry_roundtrip_and_merge() {
        let reg = Registry::new();
        reg.counter("requests", &[("type", "query")]).add(3);
        reg.counter("requests", &[("type", "insert")]).add(2);
        reg.gauge("depth", &[]).set(7);
        reg.histogram("lat", &[]).record(250);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("requests", &[("type", "query")]), 3);
        assert_eq!(snap.gauge("depth", &[]), 7);

        let mut buf = Vec::new();
        snap.encode(&mut buf);
        let back = Snapshot::decode(&buf).expect("decode");
        assert_eq!(back, snap);

        let mut merged = snap.clone();
        merged.merge(&back);
        assert_eq!(merged.counter("requests", &[("type", "query")]), 6);
        assert_eq!(merged.gauge("depth", &[]), 14);
        assert_eq!(merged.histogram("lat", &[]).unwrap().count(), 2);
    }

    #[test]
    fn gauge_merge_policies_resolve_per_declaration() {
        let mk = |age: i64, depth: i64, floor: i64| {
            let reg = Registry::new();
            reg.gauge_with_policy("geosir_snapshot_age_ms", &[], GaugePolicy::Max).set(age);
            reg.gauge("depth", &[]).set(depth);
            reg.gauge_with_policy("floor", &[], GaugePolicy::Min).set(floor);
            reg.snapshot()
        };
        let mut merged = mk(120, 3, 8);
        merged.merge(&mk(45, 4, 2));
        merged.merge(&mk(80, 1, 5));
        // an age summed across shards (245 ms) is a staleness no shard
        // ever exhibited; the max is the honest cluster answer
        assert_eq!(merged.gauge("geosir_snapshot_age_ms", &[]), 120);
        assert_eq!(merged.gauge("depth", &[]), 8, "additive gauges still sum");
        assert_eq!(merged.gauge("floor", &[]), 2);
    }

    #[test]
    fn gauge_policy_survives_the_wire() {
        let reg = Registry::new();
        reg.gauge_with_policy("age", &[], GaugePolicy::Max).set(9);
        reg.gauge_with_policy("floor", &[], GaugePolicy::Min).set(9);
        reg.gauge("depth", &[]).set(9);
        let snap = reg.snapshot();
        let mut buf = Vec::new();
        snap.encode(&mut buf);
        let back = Snapshot::decode(&buf).expect("decode");
        assert_eq!(back, snap, "policy must round-trip, not reset to default");
        // a decoded snapshot merges by the shipped policy
        let mut merged = back.clone();
        merged.merge(&back);
        assert_eq!(merged.gauge("age", &[]), 9);
        assert_eq!(merged.gauge("floor", &[]), 9);
        assert_eq!(merged.gauge("depth", &[]), 18);
    }

    #[test]
    fn relabeled_tags_every_series() {
        let reg = Registry::new();
        reg.counter("requests", &[("type", "query")]).add(3);
        reg.gauge_with_policy("age", &[], GaugePolicy::Max).set(5);
        let tagged = reg.snapshot().relabeled("shard", "2");
        assert_eq!(tagged.counter("requests", &[("type", "query"), ("shard", "2")]), 3);
        assert_eq!(tagged.gauge("age", &[("shard", "2")]), 5);
        // the untagged series are gone; merging tagged snapshots from
        // different shards keeps them distinct
        assert_eq!(tagged.counter("requests", &[("type", "query")]), 0);
        let mut both = tagged.clone();
        both.merge(&reg.snapshot().relabeled("shard", "3"));
        assert_eq!(both.counter("requests", &[("type", "query"), ("shard", "2")]), 3);
        assert_eq!(both.counter("requests", &[("type", "query"), ("shard", "3")]), 3);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Snapshot::decode(&[1, 2, 3]).is_none());
        let reg = Registry::new();
        reg.counter("a", &[]).inc();
        let mut buf = Vec::new();
        reg.snapshot().encode(&mut buf);
        buf.push(0); // trailing byte
        assert!(Snapshot::decode(&buf).is_none());
        assert!(Snapshot::decode(&buf[..buf.len() - 2]).is_none());
    }

    #[test]
    fn merge_empty_and_nonempty_histograms() {
        // empty ⊕ nonempty must equal nonempty, in both fold orders
        let empty_reg = Registry::new();
        empty_reg.histogram("lat", &[]); // registered, zero samples
        let full_reg = Registry::new();
        let h = full_reg.histogram("lat", &[]);
        h.record(100);
        h.record(900);

        let empty = empty_reg.snapshot();
        let full = full_reg.snapshot();

        let mut a = empty.clone();
        a.merge(&full);
        let ha = a.histogram("lat", &[]).unwrap();
        assert_eq!(ha.count(), 2);
        assert_eq!(ha.sum, 1000);

        let mut b = full.clone();
        b.merge(&empty);
        let hb = b.histogram("lat", &[]).unwrap();
        assert_eq!(hb, ha, "merge must commute for empty⊕nonempty");
        // quantiles of the merged snapshot match the nonempty source
        assert_eq!(ha.quantile(0.5), full.histogram("lat", &[]).unwrap().quantile(0.5));

        // empty ⊕ empty stays empty and quantiles report 0
        let mut c = empty.clone();
        c.merge(&empty);
        let hc = c.histogram("lat", &[]).unwrap();
        assert_eq!(hc.count(), 0);
        assert_eq!(hc.quantile(0.5), 0);
        assert_eq!(hc.mean(), 0.0);
    }

    #[test]
    fn merge_saturated_top_bucket() {
        // u64::MAX lands in the final bucket; merging two such
        // histograms must add counts there, keep sums wrapping-free
        // out of scope (sum saturation is the caller's concern — we
        // use one huge value per side so the sum stays in range), and
        // keep quantiles pinned at the top bucket's bound.
        let top = bucket_upper_bound(HISTOGRAM_BUCKETS - 1);
        assert_eq!(top, u64::MAX);

        let make = || {
            let reg = Registry::new();
            reg.histogram("big", &[]).record(u64::MAX / 4);
            reg.snapshot()
        };
        let a = make();
        let mut merged = a.clone();
        merged.merge(&a);
        let h = merged.histogram("big", &[]).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.buckets.len(), 1, "both samples share the one top-region bucket");
        assert_eq!(h.buckets[0].1, 2);
        // the reported quantile is the bucket's upper bound — for the
        // saturated region that is a coarse over-estimate, but it must
        // still be a valid bucket bound ≥ the true sample
        let q = h.quantile(1.0);
        assert!(q >= u64::MAX / 4);
        assert_eq!(q, bucket_upper_bound(h.buckets[0].0 as usize));

        // and an actually-saturated sample reports exactly u64::MAX
        let reg = Registry::new();
        reg.histogram("sat", &[]).record(u64::MAX);
        let mut s = reg.snapshot();
        s.merge(&reg.snapshot());
        let hs = s.histogram("sat", &[]).unwrap();
        assert_eq!(hs.count(), 2);
        assert_eq!(hs.quantile(0.5), u64::MAX);
        assert_eq!(hs.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantiles_at_p0_and_p100() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[]);
        for v in [3u64, 50, 7000] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let sh = snap.histogram("lat", &[]).unwrap();
        // p0: rank clamps to 1, so the answer is the first occupied
        // bucket's bound — the minimum sample's bucket, not 0
        assert_eq!(sh.quantile(0.0), 3);
        // p100: the last occupied bucket's bound, ≥ the max sample and
        // within the 25% relative error budget
        let p100 = sh.quantile(1.0);
        assert!((7000..=8750).contains(&p100), "p100 = {p100}");
        // merging with itself must not move either endpoint
        let mut doubled = snap.clone();
        doubled.merge(&snap);
        let dh = doubled.histogram("lat", &[]).unwrap();
        assert_eq!(dh.quantile(0.0), 3);
        assert_eq!(dh.quantile(1.0), p100);
    }

    #[test]
    fn same_handle_for_same_series() {
        let reg = Registry::new();
        let a = reg.counter("x", &[("l", "1")]);
        let b = reg.counter("x", &[("l", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
        // Different labels are a different series.
        let c = reg.counter("x", &[("l", "2")]);
        assert_eq!(c.get(), 0);
    }
}
