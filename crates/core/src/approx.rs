//! The approximate retrieval tier (§3 served for real).
//!
//! [`SigBuckets`] is the dynamic signature index: every normalized copy
//! hashed to its characteristic-curve quadruple ([`Signature`]), grouped
//! into buckets. One instance rides inside each Bentley-Saxe level (built
//! with the level, merged on cascade, rebuilt through WAL/checkpoint
//! recovery for free), and the insert buffer carries per-copy signatures
//! computed at insert time — writer-pays, like the copies themselves.
//!
//! Serving is a **multi-probe candidate cascade**: buckets are probed in
//! rings of increasing [`Signature::curve_distance`] until enough
//! candidates are collected, then the candidates are reranked with the
//! exact early-abandoning `h_avg`. The ring probe is *incremental* — a
//! [`ProbeCursor`] per index remembers what radius ≤ r already produced,
//! so expanding from radius r to r+1 costs only the new shell (the old
//! `GeometricHash::retrieve` re-collected 0..=r from scratch each step).
//! Two probe strategies, switched per query by cost: enumerate the
//! neighboring signatures with hash lookups while the shell is small, or
//! sort the bucket table by distance once and walk it (`Enumerate` →
//! `Scan` transition; a query signature with an empty quarter starts in
//! `Scan`, since a 0 matches every stored value and enumeration cannot
//! cover it).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use geosir_geom::Point;

use crate::dynamic::{CandRef, DynMatch, GlobalShapeId, RetrieveStats};
use crate::hashing::{signature_of_with, CurveFamily, Signature};
use crate::ids::CopyId;
use crate::shapebase::ShapeBase;
use crate::similarity::PreparedShape;

/// Hash curves per lune quarter — the default family for every dynamic
/// base. The paper works with k = 50, but the quarter characteristic is
/// jitter-sensitive at fine granularity: on the synthetic family corpus
/// the hashing-quality calibration shows recall@1 at probe radius 2
/// falling from 0.55 (k = 10) to 0.25 (k = 50) as curves multiply, while
/// the recall-vs-reduction frontier peaks near k = 20 (recall@10 ≥ 0.95
/// at ≥ 10× candidate reduction — see `approx_recall` in geosir-bench).
/// Coarser curves trade bucket selectivity for tolerance to boundary
/// crossings, and the exact rerank absorbs the extra candidates.
pub const DEFAULT_HASH_CURVES: usize = 20;

/// A map keyed by something that hashes as one `u64` — a shape id, a
/// packed [`Signature`] — through a multiply-xorshift instead of SipHash.
/// The keys are ids the base assigns, and signatures — four curve
/// indices, each at most the hash family's k, whatever geometry a client
/// inserts; and no iteration order of these maps is observable.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The hasher of [`IdMap`].
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        // the product's high half reaches the low bits a table indexes by
        let x = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Which tier produced an approximate query's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnswerTier {
    /// The signature cascade found candidates and reranked them exactly.
    #[default]
    Approx,
    /// The cascade came up empty (degenerate query, or an empty corpus
    /// slice) and the exact matcher answered instead.
    Exact,
}

impl AnswerTier {
    pub fn code(self) -> u8 {
        match self {
            AnswerTier::Approx => 0,
            AnswerTier::Exact => 1,
        }
    }

    pub fn from_code(code: u8) -> AnswerTier {
        if code == 1 {
            AnswerTier::Exact
        } else {
            AnswerTier::Approx
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            AnswerTier::Approx => "approx",
            AnswerTier::Exact => "exact",
        }
    }
}

/// Knobs for one approximate query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxOptions {
    /// Results wanted (0 = the base's configured k).
    pub k: usize,
    /// Preferred probe radius: rings expand to here even once candidates
    /// exist. Soft — expansion continues past it while the candidate set
    /// is still empty (an approximate fallback must return *something*).
    pub max_radius: u16,
    /// Hard cap on collected candidates; ring expansion stops as soon as
    /// this many copies are gathered.
    pub max_candidates: usize,
}

impl Default for ApproxOptions {
    fn default() -> Self {
        ApproxOptions { k: 0, max_radius: 3, max_candidates: 2048 }
    }
}

/// What one approximate query did — the EXPLAIN payload for the tier.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ApproxStats {
    /// Which tier answered.
    pub tier: AnswerTier,
    /// Final probe radius reached.
    pub radius: u16,
    /// Signature buckets examined (hash probes or table-scan entries).
    pub buckets_probed: u64,
    /// Candidate copies collected by the cascade (of live shapes: a
    /// tombstoned shape's copy is never collected).
    pub candidates: u64,
    /// Live copies in the snapshot — the denominator of the reduction.
    pub corpus_copies: u64,
    /// Candidates actually scored in the rerank.
    pub reranked: u64,
    /// Rerank scorings cut short by the early-abandon cutoff.
    pub abandoned: u64,
    /// Rerank candidates the query's lower-bound raster rejected before
    /// any distance was computed. In-process only, as is the field below.
    pub bound_rejects: u64,
    /// The exact tier's scan, when it answered instead
    /// ([`AnswerTier::Exact`]: the cascade collected nothing).
    pub fallback: Option<RetrieveStats>,
}

impl ApproxStats {
    /// Candidate-set reduction vs an exhaustive scan (∞ when the cascade
    /// collected nothing).
    pub fn reduction(&self) -> f64 {
        self.corpus_copies as f64 / (self.candidates as f64).max(1.0)
    }
}

/// Incremental ring-probe state for one signature index within one query.
#[derive(Debug, Clone, Copy, Default)]
pub enum ProbeCursor {
    /// Strategy not picked yet (before ring 0).
    #[default]
    Fresh,
    /// Enumerating neighbor signatures shell by shell with hash lookups.
    Enumerate,
    /// Walking a distance-sorted bucket list; `pos` is the first entry
    /// not yet emitted (entries before it had distance < the next ring).
    Scan { pos: usize },
}

/// Per-quarter probe value lists — `(curve value, distance contribution)`
/// in ascending contribution order. Scratch for the enumeration strategy.
pub(crate) type QuarterVals = [Vec<(u16, u16)>; 4];

/// Probe state + scan list for one signature index, reused across queries.
#[derive(Debug, Default)]
pub(crate) struct IndexProbe {
    pub cursor: ProbeCursor,
    /// `(distance, bucket)` in ascending order.
    pub scan: Vec<(u16, u32)>,
    /// Counting-sort scratch of [`SigBuckets::build_scan`]: the pairs in
    /// bucket order, and per distance the next free slot of `scan`.
    unsorted: Vec<(u16, u32)>,
    slots: Vec<u32>,
}

/// Reusable scratch for the probe + rerank path. Holding one per worker
/// makes the steady-state approximate query allocation-free.
#[derive(Debug, Default)]
pub struct ApproxScratch {
    /// Quarter buckets for query signature computation.
    pub(crate) quarters: [Vec<Point>; 4],
    /// Enumeration value lists.
    pub(crate) vals: QuarterVals,
    /// One probe state per level.
    pub(crate) probes: Vec<IndexProbe>,
    /// Per-(level, ring) copy output, drained into `cands`.
    pub(crate) ring: Vec<CopyId>,
    /// The insert buffer's copies as `(ring, buffer slot, copy index)`,
    /// in buffer order: each is measured against the query once, not once
    /// a ring. Then counted by ring (`ring_at`) into `ringed` — the same
    /// triples in ring order, each ring one run in buffer order.
    pub(crate) buffered: Vec<(u16, u32, u32)>,
    pub(crate) ring_at: Vec<u32>,
    pub(crate) ringed: Vec<(u16, u32, u32)>,
    /// All candidates collected this query.
    pub(crate) cands: Vec<CandRef>,
    /// Prepared candidate (reverse direction), rebuilt per survivor.
    pub(crate) back: Option<PreparedShape>,
    /// The query's per-shape board: one row per scored live shape with
    /// its best score so far (the answer is its k best, copied out).
    pub(crate) rows: Vec<DynMatch>,
    /// shape → index of its row.
    pub(crate) best: IdMap<GlobalShapeId, u32>,
    /// Score scratch for the running kth-best cutoff.
    pub(crate) ktmp: Vec<f64>,
}

impl ApproxScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset per-query state for a snapshot with `nlevels` levels,
    /// keeping every allocation warm.
    pub(crate) fn begin(&mut self, nlevels: usize) {
        if self.probes.len() < nlevels {
            self.probes.resize_with(nlevels, IndexProbe::default);
        }
        for p in &mut self.probes[..nlevels] {
            p.cursor = ProbeCursor::Fresh;
            p.scan.clear();
        }
        self.ring.clear();
        self.buffered.clear();
        self.cands.clear();
        self.rows.clear();
        self.best.clear();
        self.ktmp.clear();
    }
}

/// The signature index: `Signature → copies` buckets over one immutable
/// copy set (a Bentley-Saxe level, or a whole [`ShapeBase`]), as one
/// CSR table. Buckets are numbered in order of first occurrence so probe
/// cursors can hold stable `u32` bucket ids with no lifetimes.
#[derive(Debug, Clone, Default)]
pub struct SigBuckets {
    /// Signature of bucket i.
    sigs: Vec<Signature>,
    /// Bucket i holds `members[starts[i]..starts[i + 1]]`, ascending.
    starts: Vec<u32>,
    members: Vec<CopyId>,
    /// Signature → bucket index, for the enumeration strategy.
    index: IdMap<Signature, u32>,
}

impl SigBuckets {
    /// Hash every copy of `base`.
    pub fn build(family: &CurveFamily, base: &ShapeBase) -> SigBuckets {
        let mut quarters: [Vec<Point>; 4] = Default::default();
        let sigs: Vec<Signature> = base
            .copies()
            .map(|(_, copy)| signature_of_with(family, copy.normalized.points(), &mut quarters))
            .collect();
        Self::from_sigs(sigs.len(), sigs.iter().enumerate().map(|(i, s)| (CopyId(i as u32), *s)))
    }

    /// Group `n` copies, each given as (its id, its signature), into
    /// buckets: a counting pass, then a counting sort — six allocations
    /// whatever the number of copies (a carry allocates per level, not
    /// per bucket). A bucket's members keep the order `sigs` gives them.
    pub(crate) fn from_sigs(n: usize, sigs: impl Iterator<Item = (CopyId, Signature)> + Clone) -> SigBuckets {
        // room for every signature distinct, so the map never regrows;
        // then shrunk to the buckets it holds
        let mut index = IdMap::with_capacity_and_hasher(n, Default::default());
        let mut bucket_of = Vec::with_capacity(n);
        bucket_of.extend(sigs.clone().map(|(_, s)| {
            let next = index.len() as u32;
            *index.entry(s).or_insert(next)
        }));
        index.shrink_to_fit();
        let mut bucket_sigs = vec![Signature::default(); index.len()];
        for (s, &b) in &index {
            bucket_sigs[b as usize] = *s;
        }
        // each bucket's start, then filled front to back with the start
        // as its cursor, which leaves it at the bucket's end — the next
        // one's start, shifted back into place
        let mut starts = vec![0u32; index.len() + 1];
        for &b in &bucket_of {
            starts[b as usize] += 1;
        }
        let mut start = 0;
        for s in starts.iter_mut() {
            (start, *s) = (start + *s, start);
        }
        let mut members = vec![CopyId(0); bucket_of.len()];
        for ((id, _), &b) in sigs.zip(&bucket_of) {
            members[starts[b as usize] as usize] = id;
            starts[b as usize] += 1;
        }
        starts.copy_within(..index.len(), 1);
        starts[0] = 0;
        SigBuckets { sigs: bucket_sigs, starts, members, index }
    }

    /// The copies of bucket `b`.
    fn bucket(&self, b: u32) -> &[CopyId] {
        &self.members[self.starts[b as usize] as usize..self.starts[b as usize + 1] as usize]
    }

    /// Bytes held on the heap (the index's table counted at a control
    /// byte per entry).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sigs.capacity() * size_of::<Signature>()
            + (self.starts.capacity() + self.members.capacity()) * 4
            + self.index.capacity() * (size_of::<(Signature, u32)>() + 1)
    }

    pub fn num_buckets(&self) -> usize {
        self.sigs.len()
    }

    /// Copies across all buckets.
    pub fn total_copies(&self) -> usize {
        self.members.len()
    }

    /// Average copies per occupied bucket (the paper tunes k so this
    /// stays small).
    pub fn avg_bucket_size(&self) -> f64 {
        if self.sigs.is_empty() {
            return 0.0;
        }
        self.total_copies() as f64 / self.sigs.len() as f64
    }

    pub fn get(&self, sig: &Signature) -> Option<&[CopyId]> {
        self.index.get(sig).map(|&i| self.bucket(i))
    }

    /// Iterate (signature, copies) — the §4.1 storage layouts sort
    /// records by these signatures.
    pub fn iter(&self) -> impl Iterator<Item = (&Signature, &[CopyId])> {
        self.sigs.iter().zip((0..).map(|b| self.bucket(b)))
    }

    /// Emit the copies of every bucket at curve distance **exactly** `r`
    /// from `qsig` into `out`, advancing `probe`. Rings must be requested
    /// in increasing order from a `Fresh` cursor; `probed` accumulates
    /// buckets examined (hash probes, or table entries on a scan build).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn collect_ring(
        &self,
        family_k: u16,
        qsig: &Signature,
        r: u16,
        probe: &mut IndexProbe,
        vals: &mut QuarterVals,
        out: &mut Vec<CopyId>,
        probed: &mut u64,
    ) {
        if matches!(probe.cursor, ProbeCursor::Fresh) {
            // A query-side 0 matches every stored value in that quarter:
            // enumeration cannot cover the wildcard, so scan from the
            // start. Stored-side 0s are fine — the enumeration probes
            // value 0 in every quarter.
            probe.cursor = if qsig.0.contains(&0) {
                self.build_scan(probe, qsig, r, probed);
                ProbeCursor::Scan { pos: 0 }
            } else {
                ProbeCursor::Enumerate
            };
        }
        if matches!(probe.cursor, ProbeCursor::Enumerate) {
            // Neighbor-box cost heuristic (same as the offline index
            // used): once the box outgrows the table, sort the remaining
            // buckets by distance once and walk them ring by ring.
            let box_probes = (2u64 * r as u64 + 2).pow(4);
            if box_probes > self.sigs.len() as u64 {
                self.build_scan(probe, qsig, r, probed);
                probe.cursor = ProbeCursor::Scan { pos: 0 };
            } else {
                self.enumerate_shell(family_k, qsig, r, vals, out, probed);
                return;
            }
        }
        if let ProbeCursor::Scan { pos } = &mut probe.cursor {
            while *pos < probe.scan.len() && probe.scan[*pos].0 == r {
                out.extend_from_slice(self.bucket(probe.scan[*pos].1));
                *pos += 1;
            }
        }
    }

    /// Build the distance-sorted scan list of every bucket at distance
    /// ≥ `min_dist` from `qsig` (rings below were already emitted by the
    /// enumeration strategy). One pass over the table, then a counting
    /// sort by distance — a curve distance is below the family's k, and
    /// placing the pairs in bucket order within each distance is exactly
    /// the ascending `(distance, bucket)` order.
    fn build_scan(&self, probe: &mut IndexProbe, qsig: &Signature, min_dist: u16, probed: &mut u64) {
        let IndexProbe { scan, unsorted, slots, .. } = probe;
        unsorted.clear();
        slots.clear();
        for (i, s) in self.sigs.iter().enumerate() {
            let d = qsig.curve_distance(s);
            if d >= min_dist {
                unsorted.push((d, i as u32));
                if slots.len() <= d as usize {
                    slots.resize(d as usize + 1, 0);
                }
                slots[d as usize] += 1;
            }
        }
        *probed += self.sigs.len() as u64;
        // counts → first slot of each distance
        let mut next = 0;
        for slot in slots.iter_mut() {
            let count = *slot;
            *slot = next;
            next += count;
        }
        scan.clear();
        scan.resize(unsorted.len(), (0, 0));
        for &(d, i) in unsorted.iter() {
            scan[slots[d as usize] as usize] = (d, i);
            slots[d as usize] += 1;
        }
    }

    /// Enumeration strategy: probe exactly the signatures at curve
    /// distance `r` (the *shell* — interior rings were emitted earlier).
    /// Per quarter the candidate values are the wildcard 0 plus
    /// `[c−r, c+r] ∩ [1, k]`, each carrying its distance contribution;
    /// a tuple is probed iff the maximum contribution is exactly `r`.
    fn enumerate_shell(
        &self,
        family_k: u16,
        qsig: &Signature,
        r: u16,
        vals: &mut QuarterVals,
        out: &mut Vec<CopyId>,
        probed: &mut u64,
    ) {
        for (q, list) in vals.iter_mut().enumerate() {
            list.clear();
            let c = qsig.0[q] as i32;
            list.push((0u16, 0u16));
            list.push((c as u16, 0));
            for d in 1..=(r as i32) {
                if c - d >= 1 {
                    list.push(((c - d) as u16, d as u16));
                }
                if c + d <= family_k as i32 {
                    list.push(((c + d) as u16, d as u16));
                }
            }
        }
        // Shell nonempty ⇔ some quarter can contribute exactly r (lists
        // are in ascending contribution order, so check the tails).
        if r > 0 && !vals.iter().any(|l| l.last().is_some_and(|&(_, o)| o == r)) {
            return;
        }
        let vals = &*vals;
        // Entries of q₄ with contribution exactly r — the only legal tail
        // when the first three quarters are all strictly inside the ring.
        let exact3_from = vals[3].iter().position(|&(_, o)| o == r).unwrap_or(vals[3].len());
        for &(a, oa) in &vals[0] {
            for &(b, ob) in &vals[1] {
                let m2 = oa.max(ob);
                for &(c, oc) in &vals[2] {
                    let m3 = m2.max(oc);
                    let tail =
                        if m3 == r { &vals[3][..] } else { &vals[3][exact3_from..] };
                    for &(d, od) in tail {
                        debug_assert_eq!(m3.max(od), r);
                        *probed += 1;
                        if let Some(&bi) = self.index.get(&Signature([a, b, c, d])) {
                            out.extend_from_slice(self.bucket(bi));
                        }
                    }
                }
            }
        }
    }

    /// All copies within curve distance `radius` — the ring machinery
    /// driven 0..=radius from a fresh cursor. Oracle/test convenience and
    /// the engine under `GeometricHash::retrieve`.
    pub fn collect_within(
        &self,
        family_k: u16,
        sig: &Signature,
        radius: u16,
        out: &mut Vec<CopyId>,
    ) {
        let mut probe = IndexProbe::default();
        let mut vals = QuarterVals::default();
        let mut probed = 0u64;
        for r in 0..=radius {
            self.collect_ring(family_k, sig, r, &mut probe, &mut vals, out, &mut probed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ImageId;
    use crate::shapebase::ShapeBaseBuilder;
    use geosir_geom::rangesearch::Backend;
    use geosir_geom::Polyline;
    use rand::prelude::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn world(n: u32, seed: u64) -> ShapeBase {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = ShapeBaseBuilder::new();
        for i in 0..n {
            let v = rng.random_range(5..12);
            let pts: Vec<Point> = (0..v)
                .map(|j| {
                    let t = 2.0 * std::f64::consts::PI * j as f64 / v as f64;
                    let r = rng.random_range(0.4..1.0);
                    p(r * t.cos(), r * t.sin())
                })
                .collect();
            b.add_shape(ImageId(i), Polyline::closed(pts).unwrap());
        }
        b.build(0.05, Backend::RangeTree)
    }

    fn scan_oracle(sb: &SigBuckets, sig: &Signature, radius: u16) -> Vec<CopyId> {
        let mut want: Vec<CopyId> = Vec::new();
        for (s, copies) in sb.iter() {
            if sig.curve_distance(s) <= radius {
                want.extend_from_slice(copies);
            }
        }
        want.sort();
        want
    }

    #[test]
    fn rings_partition_the_ball() {
        // Accumulating rings 0..=r must equal the ≤ r scan oracle, and
        // each ring must be disjoint from the previous ones.
        let base = world(250, 5);
        let family = CurveFamily::new(50);
        let sb = SigBuckets::build(&family, &base);
        let k = family.k() as u16;
        let mut quarters: [Vec<Point>; 4] = Default::default();
        for (_, copy) in base.copies().take(16) {
            let sig = signature_of_with(&family, copy.normalized.points(), &mut quarters);
            let mut probe = IndexProbe::default();
            let mut vals = QuarterVals::default();
            let mut probed = 0u64;
            let mut acc: Vec<CopyId> = Vec::new();
            for r in 0..=4u16 {
                let before = acc.len();
                sb.collect_ring(k, &sig, r, &mut probe, &mut vals, &mut acc, &mut probed);
                // ring disjointness: nothing re-emitted
                let mut seen = acc.clone();
                seen.sort();
                let dup = seen.windows(2).any(|w| w[0] == w[1]);
                assert!(!dup, "ring {r} re-emitted a copy (sig {sig:?})");
                let _ = before;
                let mut got = acc.clone();
                got.sort();
                assert_eq!(got, scan_oracle(&sb, &sig, r), "radius {r}, sig {sig:?}");
            }
        }
    }

    #[test]
    fn small_table_forces_scan_strategy_early() {
        // A tiny table makes the box heuristic switch to Scan almost
        // immediately; rings must still partition correctly.
        let base = world(6, 7);
        let family = CurveFamily::new(50);
        let sb = SigBuckets::build(&family, &base);
        let k = family.k() as u16;
        let mut quarters: [Vec<Point>; 4] = Default::default();
        let (_, copy) = base.copies().next().unwrap();
        let sig = signature_of_with(&family, copy.normalized.points(), &mut quarters);
        let mut probe = IndexProbe::default();
        let mut vals = QuarterVals::default();
        let mut probed = 0u64;
        let mut acc: Vec<CopyId> = Vec::new();
        for r in 0..=6u16 {
            sb.collect_ring(k, &sig, r, &mut probe, &mut vals, &mut acc, &mut probed);
        }
        assert!(matches!(probe.cursor, ProbeCursor::Scan { .. }));
        let mut got = acc;
        got.sort();
        assert_eq!(got, scan_oracle(&sb, &sig, 6));
    }

    #[test]
    fn wildcard_query_signature_scans() {
        // A query with an empty quarter must start (and stay) in Scan.
        let base = world(100, 11);
        let family = CurveFamily::new(50);
        let sb = SigBuckets::build(&family, &base);
        let k = family.k() as u16;
        let sig = Signature([0, 12, 3, 7]);
        let mut probe = IndexProbe::default();
        let mut vals = QuarterVals::default();
        let mut probed = 0u64;
        let mut acc: Vec<CopyId> = Vec::new();
        for r in 0..=3u16 {
            sb.collect_ring(k, &sig, r, &mut probe, &mut vals, &mut acc, &mut probed);
            assert!(matches!(probe.cursor, ProbeCursor::Scan { .. }));
        }
        let mut got = acc;
        got.sort();
        assert_eq!(got, scan_oracle(&sb, &sig, 3));
    }

    #[test]
    fn collect_within_matches_oracle() {
        let base = world(150, 3);
        let family = CurveFamily::new(50);
        let sb = SigBuckets::build(&family, &base);
        let k = family.k() as u16;
        let mut quarters: [Vec<Point>; 4] = Default::default();
        for (_, copy) in base.copies().take(10) {
            let sig = signature_of_with(&family, copy.normalized.points(), &mut quarters);
            for radius in [0u16, 1, 2, 5] {
                let mut got = Vec::new();
                sb.collect_within(k, &sig, radius, &mut got);
                got.sort();
                assert_eq!(got, scan_oracle(&sb, &sig, radius), "radius {radius}");
            }
        }
    }

    #[test]
    fn bucket_accessors() {
        let base = world(50, 2);
        let family = CurveFamily::new(50);
        let sb = SigBuckets::build(&family, &base);
        assert_eq!(sb.total_copies(), base.num_copies());
        assert!(sb.num_buckets() >= 1);
        assert!(sb.avg_bucket_size() >= 1.0);
        for (sig, copies) in sb.iter().take(5) {
            assert_eq!(sb.get(sig), Some(copies));
        }
        assert_eq!(sb.get(&Signature([u16::MAX, 1, 1, 1])), None);
    }
}
