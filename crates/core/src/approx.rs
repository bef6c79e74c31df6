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
//! exact early-abandoning `h_avg`. Each index makes **one probe plan per
//! query**, at ring 0, from the preferred radius R and its own size
//! ([`SigBuckets::collect_ring`]):
//!
//! - `Scan` when the query has an empty quarter (a 0 matches every stored
//!   value there, which enumeration cannot cover) or when the box of
//!   signatures within R, (2R + 2)⁴, outnumbers the table's buckets: one
//!   distance pass over the table (`QuerySig::distances`), the
//!   buckets within R counted into ring order, and the rest of the table
//!   listed only if the cascade goes past R;
//! - `Enumerate` otherwise: each ring's shell of neighbouring signatures
//!   looked up in the hash index, until a shell past R outgrows the table
//!   (then the rest is scanned).
//!
//! A [`ProbeCursor`] per index remembers what the rings below r produced,
//! so expanding from r to r + 1 costs only the new ring.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use geosir_geom::Point;

use crate::dynamic::{CandRef, DynMatch, GlobalShapeId, RetrieveStats};
use crate::hashing::{signature_of_with, CurveFamily, QuerySig, Signature};
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
    /// Signature buckets examined, summed over the levels: a level whose
    /// probe plan scans counts its table once (however many rings), one
    /// that enumerates counts its hash lookups (and its table once more
    /// if the cascade went past `max_radius` far enough to scan the rest).
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

/// Where one signature index is in a query's rings: its plan, made at
/// ring 0 ([`SigBuckets::collect_ring`]), and how far it has listed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum ProbeCursor {
    /// No ring asked for yet.
    #[default]
    Fresh,
    /// Each ring's shell of neighbouring signatures looked up in the
    /// hash index.
    Enumerate,
    /// The table measured once; its buckets of rings `..= listed` are in
    /// [`IndexProbe`]'s ring order.
    Scan { listed: u16 },
}

/// Per-quarter probe value lists — `(curve value, distance contribution)`
/// in ascending contribution order. Scratch for the enumeration strategy.
pub(crate) type QuarterVals = [Vec<(u16, u16)>; 4];

/// Probe state and scan lists for one signature index, reused across
/// queries.
#[derive(Debug, Default)]
pub(crate) struct IndexProbe {
    pub cursor: ProbeCursor,
    /// Scan: each bucket's curve distance from the query, by bucket.
    dists: Vec<u8>,
    /// Scan: the listed buckets in ring order, each ring in bucket order —
    /// ring r is `scan[ring_at[r]..ring_at[r + 1]]`.
    scan: Vec<u32>,
    ring_at: Vec<u32>,
    /// Counting-sort scratch: per ring, the next free slot of `scan`.
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
    /// Per-(level, ring) bucket output, drained into `cands`.
    pub(crate) ring: Vec<u32>,
    /// The insert buffer's copies as `(buffer slot, copy index)` and
    /// their curve distances from the query, in buffer order: each is
    /// measured once, not once a ring. Then counted by ring into `ringed`
    /// — the same copies in ring order, each ring one run in buffer order,
    /// ring r ending at index `ring_at[r]`.
    pub(crate) buffered: Vec<(u32, u32)>,
    pub(crate) dists: Vec<u8>,
    pub(crate) ring_at: Vec<u32>,
    pub(crate) ringed: Vec<(u32, u32)>,
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
        }
        self.ring.clear();
        self.buffered.clear();
        self.dists.clear();
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
    /// Signature of bucket i, packed ([`Signature::packed`]): the table
    /// the scan plan reads whole.
    sigs: Vec<[u8; 4]>,
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
        let mut bucket_sigs = vec![[0u8; 4]; index.len()];
        for (s, &b) in &index {
            bucket_sigs[b as usize] = s.packed();
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

    /// Where bucket `b`'s copies lie in [`Self::members`].
    pub(crate) fn span(&self, b: u32) -> Range<usize> {
        self.starts[b as usize] as usize..self.starts[b as usize + 1] as usize
    }

    /// The copies of bucket `b`.
    fn bucket(&self, b: u32) -> &[CopyId] {
        &self.members[self.span(b)]
    }

    /// Every bucket's copies, bucket after bucket.
    pub(crate) fn members(&self) -> &[CopyId] {
        &self.members
    }

    /// Append the copies of `buckets` to `out`, bucket by bucket.
    pub(crate) fn copies_of(&self, buckets: &[u32], out: &mut Vec<CopyId>) {
        for &b in buckets {
            out.extend_from_slice(self.bucket(b));
        }
    }

    /// Bytes held on the heap (the index's table counted at a control
    /// byte per entry).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sigs.capacity() * size_of::<[u8; 4]>()
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
    pub fn iter(&self) -> impl Iterator<Item = (Signature, &[CopyId])> {
        self.sigs.iter().map(|s| Signature(s.map(u16::from))).zip((0..).map(|b| self.bucket(b)))
    }

    /// Push every bucket at curve distance **exactly** `r` from `query`
    /// onto `out`, advancing `probe`. Rings must be asked for in
    /// increasing order from a `Fresh` cursor; `probed` accumulates
    /// buckets examined (hash lookups, or table entries measured).
    ///
    /// The plan is made at ring 0, once: with R = max(`r`, `max_radius`),
    /// the cascade's preferred radius, a query with an empty quarter, or
    /// one whose box of signatures within R outnumbers the table, scans
    /// ([`Self::measure`], [`Self::list`] rings 0..=R); any other
    /// enumerates shells ([`Self::enumerate_shell`]). Past R, where the
    /// cascade goes only while it has no candidate, a scan lists the rest
    /// of the table once, and an enumeration turns to a scan of the rest
    /// at the first shell whose box outnumbers the table. A ring's buckets
    /// are the same under either plan; only their order differs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn collect_ring(
        &self,
        family_k: u16,
        query: &QuerySig,
        r: u16,
        max_radius: u16,
        probe: &mut IndexProbe,
        vals: &mut QuarterVals,
        out: &mut Vec<u32>,
        probed: &mut u64,
    ) {
        // a curve distance fits one byte (`CurveFamily::new`)
        const FARTHEST: u16 = u8::MAX as u16;
        // the neighbour box of radius r: the wildcard and 2r + 1 values a
        // quarter
        let outgrows = |r: u16| (2 * r.min(FARTHEST) as u64 + 2).pow(4) > self.sigs.len() as u64;
        if probe.cursor == ProbeCursor::Fresh {
            // A query-side 0 matches every stored value in that quarter,
            // which enumeration cannot cover. Stored-side 0s are fine: it
            // probes value 0 in every quarter.
            let plan = r.max(max_radius).min(FARTHEST);
            probe.cursor = if query.sig.0.contains(&0) || outgrows(plan) {
                self.measure(probe, query, probed);
                self.list(probe, 0, plan)
            } else {
                ProbeCursor::Enumerate
            };
        }
        if probe.cursor == ProbeCursor::Enumerate {
            if !outgrows(r) {
                return self.enumerate_shell(family_k, &query.sig, r, vals, out, probed);
            }
            self.measure(probe, query, probed);
            probe.ring_at.resize(r.min(FARTHEST) as usize + 1, 0);
            probe.cursor = self.list(probe, r.min(FARTHEST), FARTHEST);
        }
        if let ProbeCursor::Scan { listed } = probe.cursor {
            if r > listed && listed < FARTHEST {
                probe.cursor = self.list(probe, listed + 1, FARTHEST);
            }
            if let Some(&[from, to]) = probe.ring_at.get(r as usize..r as usize + 2) {
                out.extend_from_slice(&probe.scan[from as usize..to as usize]);
            }
        }
    }

    /// The scan's one pass over the table: every bucket's curve distance
    /// from `query`, by bucket. Starts the ring order empty.
    fn measure(&self, probe: &mut IndexProbe, query: &QuerySig, probed: &mut u64) {
        probe.dists.clear();
        query.distances(self.sigs.iter().copied(), &mut probe.dists);
        *probed += self.sigs.len() as u64;
        probe.scan.clear();
        probe.ring_at.clear();
        probe.ring_at.push(0);
    }

    /// Append the buckets of rings `lo..=hi` to the ring order, which holds
    /// rings below `lo` (some maybe empty): a counting sort of the measured
    /// distances, so each ring keeps bucket order.
    fn list(&self, probe: &mut IndexProbe, lo: u16, hi: u16) -> ProbeCursor {
        let IndexProbe { dists, scan, ring_at, slots, .. } = probe;
        let (lo, hi) = (lo as usize, hi as usize);
        debug_assert_eq!((ring_at.len(), ring_at[lo] as usize), (lo + 1, scan.len()));
        ring_at.resize(hi + 2, 0);
        for &d in dists.iter() {
            if (lo..=hi).contains(&(d as usize)) {
                ring_at[d as usize + 1] += 1;
            }
        }
        for r in lo + 1..ring_at.len() {
            ring_at[r] += ring_at[r - 1];
        }
        slots.clear();
        slots.extend_from_slice(&ring_at[lo..=hi]);
        scan.resize(ring_at[hi + 1] as usize, 0);
        for (b, &d) in dists.iter().enumerate() {
            if let Some(slot) = (d as usize).checked_sub(lo).and_then(|at| slots.get_mut(at)) {
                scan[*slot as usize] = b as u32;
                *slot += 1;
            }
        }
        ProbeCursor::Scan { listed: hi as u16 }
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
        out: &mut Vec<u32>,
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
                        out.extend(self.index.get(&Signature([a, b, c, d])));
                    }
                }
            }
        }
    }

    /// The copies of rings 0..=`radius`, ring after ring, each in the
    /// order a cascade preferring `max_radius` emits it — the ring
    /// machinery driven from a fresh cursor. Oracle/test convenience.
    pub fn collect_within(
        &self,
        family_k: u16,
        sig: &Signature,
        radius: u16,
        max_radius: u16,
        out: &mut Vec<CopyId>,
    ) {
        let mut probe = IndexProbe::default();
        let (mut vals, mut ring) = (QuarterVals::default(), Vec::new());
        let (query, mut probed) = (QuerySig::new(*sig), 0u64);
        for r in 0..=radius {
            ring.clear();
            self.collect_ring(family_k, &query, r, max_radius, &mut probe, &mut vals, &mut ring, &mut probed);
            self.copies_of(&ring, out);
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
            if sig.curve_distance(&s) <= radius {
                want.extend_from_slice(copies);
            }
        }
        want.sort();
        want
    }

    /// Rings 0..=`last` of `sig` through one cursor planned for
    /// `max_radius`, each checked against the oracle's ring — the same
    /// copies, none emitted twice — and the cursor after ring 0.
    fn assert_rings_partition(
        sb: &SigBuckets,
        family_k: u16,
        sig: &Signature,
        max_radius: u16,
        last: u16,
    ) -> ProbeCursor {
        let (mut probe, mut vals, mut ring) = (IndexProbe::default(), QuarterVals::default(), Vec::new());
        let (mut probed, mut planned) = (0u64, ProbeCursor::Fresh);
        let mut seen = vec![false; sb.total_copies()];
        let query = QuerySig::new(*sig);
        for r in 0..=last {
            ring.clear();
            sb.collect_ring(family_k, &query, r, max_radius, &mut probe, &mut vals, &mut ring, &mut probed);
            if r == 0 {
                planned = probe.cursor;
            }
            let mut got = Vec::new();
            sb.copies_of(&ring, &mut got);
            for c in &got {
                assert!(!std::mem::replace(&mut seen[c.index()], true), "ring {r} re-emitted {c:?} (sig {sig:?}, R {max_radius})");
            }
            got.sort();
            let mut want = scan_oracle(sb, sig, r);
            let inner = if r == 0 { Vec::new() } else { scan_oracle(sb, sig, r - 1) };
            want.retain(|c| inner.binary_search(c).is_err());
            assert_eq!(got, want, "ring {r}, sig {sig:?}, R {max_radius}");
        }
        planned
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
            for max_radius in [0, 2, 4] {
                assert_rings_partition(&sb, k, &sig, max_radius, 4);
            }
        }
    }

    #[test]
    fn one_plan_per_table_size_partitions_every_ring() {
        // Tables of random signatures: tiny, smaller than the box at R
        // for R ≥ 1 (but not R = 0), and larger than the box at R = 3.
        // Every ring up to the family's k, past R too — where a scan
        // lists the rest of its table and an enumeration turns to one —
        // must be the oracle's, queries with an empty quarter included.
        let k = 50u16;
        let mut rng = StdRng::seed_from_u64(46);
        let sig = |rng: &mut StdRng| Signature([(); 4].map(|_| if rng.random_bool(0.1) { 0 } else { rng.random_range(1..=k) }));
        let box_at = |r: u64| (2 * r + 2).pow(4) as usize;
        for n in [6, 200, 6_000] {
            let sigs: Vec<Signature> = (0..n).map(|_| sig(&mut rng)).collect();
            let sb = SigBuckets::from_sigs(n, sigs.iter().enumerate().map(|(i, s)| (CopyId(i as u32), *s)));
            let mut queries: Vec<Signature> = sigs.iter().take(4).copied().collect();
            queries.extend((0..4).map(|_| sig(&mut rng)));
            queries.push(Signature([0, 12, 3, 7]));
            queries.push(Signature([25, 25, 0, 0]));
            for q in &queries {
                for max_radius in [0u16, 1, 3] {
                    let planned = assert_rings_partition(&sb, k, q, max_radius, k);
                    let scans = q.0.contains(&0) || box_at(max_radius as u64) > sb.num_buckets();
                    let want = if scans { ProbeCursor::Scan { listed: max_radius } } else { ProbeCursor::Enumerate };
                    assert_eq!(planned, want, "{n} signatures, {} buckets, R {max_radius}, query {q:?}", sb.num_buckets());
                }
            }
        }
    }

    #[test]
    fn small_table_forces_scan_strategy_early() {
        // A table smaller than the box at R is scanned from ring 0,
        // rings 0..=R listed at once, and the rest only when a ring
        // past R is asked for.
        let base = world(6, 7);
        let family = CurveFamily::new(50);
        let sb = SigBuckets::build(&family, &base);
        assert!(sb.num_buckets() < 8usize.pow(4));
        let k = family.k() as u16;
        let mut quarters: [Vec<Point>; 4] = Default::default();
        let (_, copy) = base.copies().next().unwrap();
        let sig = signature_of_with(&family, copy.normalized.points(), &mut quarters);
        let (mut probe, mut vals, mut ring) = (IndexProbe::default(), QuarterVals::default(), Vec::new());
        let (query, mut probed) = (QuerySig::new(sig), 0u64);
        let mut acc: Vec<CopyId> = Vec::new();
        for r in 0..=6u16 {
            ring.clear();
            sb.collect_ring(k, &query, r, 3, &mut probe, &mut vals, &mut ring, &mut probed);
            sb.copies_of(&ring, &mut acc);
            let listed = if r <= 3 { 3 } else { u8::MAX as u16 };
            assert_eq!(probe.cursor, ProbeCursor::Scan { listed }, "ring {r}");
            // one pass over the table, whatever the rings
            assert_eq!(probed, sb.num_buckets() as u64, "ring {r}");
        }
        let mut got = acc;
        got.sort();
        assert_eq!(got, scan_oracle(&sb, &sig, 6));
    }

    #[test]
    fn wildcard_query_signature_scans() {
        // A query with an empty quarter scans from ring 0 even where the
        // box at R is smaller than the table, which a query without one
        // enumerates.
        let base = world(100, 11);
        let family = CurveFamily::new(50);
        let sb = SigBuckets::build(&family, &base);
        assert!(sb.num_buckets() > 16, "the box at R = 0 must be smaller than the table");
        let k = family.k() as u16;
        for (sig, plan) in [
            (Signature([0, 12, 3, 7]), ProbeCursor::Scan { listed: 0 }),
            (Signature([5, 12, 3, 7]), ProbeCursor::Enumerate),
        ] {
            assert_eq!(assert_rings_partition(&sb, k, &sig, 0, 3), plan, "{sig:?}");
        }
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
                sb.collect_within(k, &sig, radius, radius, &mut got);
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
            assert_eq!(sb.get(&sig), Some(copies));
        }
        assert_eq!(sb.get(&Signature([u16::MAX, 1, 1, 1])), None);
    }
}
