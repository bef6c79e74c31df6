//! Where data lives in a cluster and how answers come back together: the
//! consistent-hash ring an insert's payload is placed by, the shard tag
//! every routed id carries, and the k-way merge of per-shard top-k lists.

use crate::wire::{WireMatch, WireShape};

/// Bits of a routed id that carry the shard index.
pub(super) const SHARD_ID_BITS: u32 = 16;
/// Bits left for the shard-local id.
const LOCAL_ID_BITS: u32 = 64 - SHARD_ID_BITS;
const LOCAL_ID_MASK: u64 = (1u64 << LOCAL_ID_BITS) - 1;

/// Virtual nodes per shard on the consistent-hash ring.
const VNODES_PER_SHARD: usize = 64;

/// Tag a shard-local id with its shard index for the outside world.
#[inline]
pub fn tag_id(shard: u16, local: u64) -> u64 {
    ((shard as u64) << LOCAL_ID_BITS) | (local & LOCAL_ID_MASK)
}

/// Split a routed id back into `(shard, local)`.
#[inline]
pub fn untag_id(id: u64) -> (u16, u64) {
    ((id >> LOCAL_ID_BITS) as u16, id & LOCAL_ID_MASK)
}

/// splitmix64 finalizer: FNV alone avalanches poorly on short inputs
/// (the vnode labels are 10 bytes), which skews the ring badly.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a byte stream fed in pieces (the hash of the
/// concatenation, whatever the piece boundaries).
struct Fnv1a64(u64);

impl Fnv1a64 {
    fn new() -> Fnv1a64 {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

pub(super) fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut h = Fnv1a64::new();
    for chunk in chunks {
        h.write(chunk);
    }
    h.0
}

/// Ring key of an insert: a hash of its payload, so a client retry
/// (same key, same shape) lands on the same shard. The byte stream —
/// image, closed flag, coordinate bits, then the idempotency key if the
/// client sent one — decides where existing data directories keep
/// their shapes: it must never change (pinned by a unit test).
pub(super) fn placement_key(image: u32, key: u64, shape: &WireShape) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(&image.to_le_bytes());
    h.write(&[shape.closed as u8]);
    for (x, y) in &shape.points {
        h.write(&x.to_bits().to_le_bytes());
        h.write(&y.to_bits().to_le_bytes());
    }
    if key != 0 {
        h.write(&key.to_le_bytes());
    }
    h.0
}

/// Consistent-hash ring: [`VNODES_PER_SHARD`] points per shard, lookup
/// by binary search for the first point at or clockwise of the key.
pub struct Ring {
    points: Vec<(u64, u16)>,
}

impl Ring {
    pub fn new(shards: u16) -> Ring {
        let mut points = Vec::with_capacity(shards as usize * VNODES_PER_SHARD);
        for s in 0..shards {
            for v in 0..VNODES_PER_SHARD as u64 {
                let h = mix64(fnv1a64(&[&s.to_le_bytes(), &v.to_le_bytes()]));
                points.push((h, s));
            }
        }
        points.sort_unstable();
        Ring { points }
    }

    /// Shard owning `key`.
    pub fn route(&self, key: u64) -> u16 {
        let key = mix64(key);
        let i = self.points.partition_point(|&(h, _)| h < key);
        self.points[i % self.points.len()].1
    }
}

/// The single-node result order: ascending score, ties broken by image
/// id then shape id.
fn match_order(a: &WireMatch, b: &WireMatch) -> std::cmp::Ordering {
    a.score
        .partial_cmp(&b.score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.image.cmp(&b.image))
        .then(a.shape.cmp(&b.shape))
}

/// K-way merge of per-shard top-k lists into `out` (cleared first),
/// retagging ids with their shard. Shard lists arrive in
/// [`match_order`] already — the single-node retrieval contract — so the
/// merge only ever compares list heads; `cursors` is its scratch. A
/// list that breaks the contract demotes the call to sorting the
/// union: wrong input order must never become wrong output order.
pub(super) fn merge_sorted<'a, I>(k: usize, lists: I, cursors: &mut Vec<usize>, out: &mut Vec<WireMatch>)
where
    I: Iterator<Item = (u16, &'a [WireMatch])> + Clone,
{
    let tagged = |shard: u16, m: &WireMatch| WireMatch {
        shape: tag_id(shard, m.shape),
        image: m.image,
        score: m.score,
    };
    out.clear();
    // within one list the shard tag is constant, so local order is
    // routed order
    let sorted = lists
        .clone()
        .all(|(_, l)| l.windows(2).all(|w| match_order(&w[0], &w[1]).is_le()));
    if !sorted {
        for (shard, l) in lists {
            out.extend(l.iter().map(|m| tagged(shard, m)));
        }
        out.sort_by(match_order);
        out.truncate(k);
        return;
    }
    cursors.clear();
    cursors.resize(lists.clone().count(), 0);
    while out.len() < k {
        let mut best: Option<(usize, WireMatch)> = None;
        for (i, (shard, l)) in lists.clone().enumerate() {
            if let Some(m) = l.get(cursors[i]) {
                let m = tagged(shard, m);
                if best.as_ref().is_none_or(|(_, b)| match_order(&m, b).is_lt()) {
                    best = Some((i, m));
                }
            }
        }
        let Some((i, m)) = best else { break };
        cursors[i] += 1;
        out.push(m);
    }
}

/// Merge per-shard top-k result lists into the cluster-wide top-k,
/// retagging ids with their shard. Ordering matches the single-node
/// retrieval contract: ascending score, ties broken by image id then
/// routed shape id — so on distinct scores a router merge is
/// bit-identical to a single node holding the union base.
pub fn merge_topk(k: usize, per_shard: &[(u16, Vec<WireMatch>)]) -> Vec<WireMatch> {
    let mut out = Vec::new();
    merge_sorted(k, per_shard.iter().map(|(s, l)| (*s, l.as_slice())), &mut Vec::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_covers_all_shards() {
        let ring = Ring::new(4);
        let ring2 = Ring::new(4);
        let mut seen = [false; 4];
        for i in 0..10_000u64 {
            let k = fnv1a64(&[&i.to_le_bytes()]);
            let s = ring.route(k);
            assert_eq!(s, ring2.route(k), "placement must be deterministic");
            seen[s as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every shard owns part of the keyspace");
    }

    #[test]
    fn ring_balance_is_reasonable() {
        let ring = Ring::new(4);
        let mut counts = [0u32; 4];
        for i in 0..40_000u64 {
            counts[ring.route(fnv1a64(&[&i.to_le_bytes()])) as usize] += 1;
        }
        for &c in &counts {
            // 64 vnodes/shard keeps imbalance well under 2x
            assert!(c > 4_000 && c < 20_000, "badly skewed ring: {counts:?}");
        }
    }

    /// Placement decides which shard directory holds a shape: the
    /// streamed hash must keep producing what the byte-buffer version
    /// did, or existing data directories stop matching their ring.
    #[test]
    fn placement_of_known_payloads_is_pinned() {
        let shape = |closed, points: &[(f64, f64)]| WireShape { closed, points: points.to_vec() };
        let cases = [
            (7, 0, shape(true, &[(0.0, 0.0), (3.0, 0.2), (1.5, 2.0)]), 0x78da_944a_a22b_de2d, [0, 2, 6]),
            (31, 0xDEAD_BEEF, shape(false, &[(-1.25, 4.5), (2.0, -0.5)]), 0x36b2_2601_d1e3_b782, [0, 0, 0]),
            (
                0,
                1,
                shape(true, &[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
                0xc081_57c1_2d0f_a8bd,
                [1, 2, 2],
            ),
        ];
        for (image, key, shape, hash, owners) in cases {
            let got = placement_key(image, key, &shape);
            assert_eq!(got, hash, "payload hash of image {image} drifted");
            for (shards, owner) in [2u16, 4, 7].into_iter().zip(owners) {
                assert_eq!(Ring::new(shards).route(got), owner, "image {image} on {shards} shards");
            }
        }
    }

    #[test]
    fn merge_falls_back_to_sorting_when_a_shard_breaks_the_order() {
        let m = |shape, score| WireMatch { shape, image: 0, score };
        let unsorted = vec![m(1, 0.9), m(2, 0.1)];
        let sorted = vec![m(3, 0.5)];
        let merged = merge_topk(2, &[(0, unsorted), (1, sorted)]);
        let scores: Vec<f64> = merged.iter().map(|m| m.score).collect();
        assert_eq!(scores, [0.1, 0.5]);
    }

    #[test]
    fn id_tagging_round_trips() {
        for shard in [0u16, 1, 3, 255] {
            for local in [0u64, 1, 42, LOCAL_ID_MASK] {
                let (s, l) = untag_id(tag_id(shard, local));
                assert_eq!((s, l), (shard, local));
            }
        }
    }

    #[test]
    fn merge_orders_by_score_then_image_then_routed_id() {
        let a = vec![
            WireMatch { shape: 0, image: 5, score: 0.5 },
            WireMatch { shape: 1, image: 1, score: 1.0 },
        ];
        let b = vec![
            WireMatch { shape: 0, image: 2, score: 0.25 },
            WireMatch { shape: 1, image: 1, score: 1.0 },
        ];
        let merged = merge_topk(3, &[(0, a), (1, b)]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].score, 0.25);
        assert_eq!(merged[0].shape, tag_id(1, 0));
        assert_eq!(merged[1].score, 0.5);
        // tie at 1.0: same image, shard 0's routed id is smaller
        assert_eq!(merged[2].shape, tag_id(0, 1));
        let none = merge_topk(0, &[(0, vec![WireMatch { shape: 0, image: 0, score: 0.0 }])]);
        assert!(none.is_empty(), "k = 0 passes the server default through: empty here");
    }
}
