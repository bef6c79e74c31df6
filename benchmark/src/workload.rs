//! The four fixed workloads and the seeded inputs they run on: corpus,
//! query sketches, arrival schedule and the lazily generated op stream.
//!
//! Everything here is a pure function of `(workload, seed)`; the program
//! under test receives only the generated frames. The stored corpus and
//! the sketches depend on the workload alone (see [`CORPUS_SEED`]).

use std::collections::VecDeque;

use geosir_core::ids::ImageId;
use geosir_geom::Polyline;
use geosir_imaging::synth::{generate, perturb, place_free, Corpus, CorpusConfig};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Results wanted per query, on every workload.
pub const K: u32 = 10;
/// Sketches in the query set; the quality sample asks all of them.
pub const SKETCHES: usize = 100;
/// Step of the query cycle through the sketch set; coprime with
/// [`SKETCHES`], so a full cycle visits every sketch once and a shorter
/// one still spans the set's ramp from barely to fully distorted.
pub const SKETCH_STRIDE: u32 = 37;
/// Queries of one sketch cycle of a read-only workload: every sketch
/// once, then the first twelve of the walk again, which fills seven
/// coalesced batches of [`SAT_IN_FLIGHT`].
pub const SKETCH_CYCLE: u32 = 112;
/// Closed-loop depth of the saturated phase (the server's default
/// `coalesce_max`).
pub const SAT_IN_FLIGHT: usize = 16;
/// A `Delete` names a shape inserted at least this many ops earlier, so
/// its ack has arrived unless the backlog is deeper than any healthy run
/// sees; the sender waits for the ack in that case.
pub const DELETE_LAG_OPS: u64 = 64;

/// How the program under test is started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deploy {
    /// `geosir serve`, in memory.
    Memory,
    /// `geosir serve --data-dir D --fsync always`.
    Durable,
    /// `geosir cluster --shards 2 --replicas 1 --data-dir D`.
    Cluster,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    Exact,
    Approx,
}

/// One workload: names are fixed, later issues cite them.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub deploy: Deploy,
    pub query: QueryKind,
    /// `CorpusConfig::small(images, seed)`.
    pub images: usize,
    /// Per-cent of ops that are `Insert` and, equally, `Delete`.
    pub write_pct: u32,
    /// Open-loop offered rate: 0.4 × the seed commit's `sat_ops_s`, two
    /// significant digits, calibrated once (README, "calibration rule")
    /// and never re-derived at run time.
    pub paced_rate_ops_s: f64,
    /// Ops of one saturated round, the unit the run's statistic is taken
    /// over. Read-only workloads: whole sketch cycles ([`SKETCH_CYCLE`]),
    /// so every round asks all the sketches in the same order (an exact
    /// query costs 3–100 ms depending on the sketch). Under churn: one
    /// checkpoint period (1024 writes) of the stream, so every round
    /// holds one buffer flush and one checkpoint. Always a multiple of
    /// [`SAT_IN_FLIGHT`]: the server answers a coalesced batch at once,
    /// so completions arrive 16 at a time, and a round of 20 would hold
    /// one batch or two by turns and read 2 × faster every other time.
    /// A round lasts 0.25 s to 1.8 s: longer than anything the server
    /// does by the clock, so its periodic work is inside every round.
    pub round_ops: usize,
    /// Saturated rounds of a run of [`FULL_RUN_SECONDS`]; other lengths
    /// scale it. Sized at the seed commit's speed to take ≈ 18 s — except
    /// on `cluster_mixed` (≈ 11 s): there the whole run must insert fewer
    /// shapes per shard than the 512-shape insert buffer holds, or the
    /// flush lands in some seeds' runs and not in others' and moves
    /// `rss_mb` by 30 %.
    pub rounds: usize,
    /// Set-ups of an untraced run, always as many; `setup_s` is their
    /// median. A set-up in memory takes 0.1 s and fifteen of them make a
    /// steadier median than five; a durable one takes 0.4 s to 1 s.
    pub setups: usize,
}

/// `run_seconds` of `BENCHMARK.json`: the run length [`Workload::rounds`]
/// is sized for.
pub const FULL_RUN_SECONDS: f64 = 20.0;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "exact_sketch",
        deploy: Deploy::Memory,
        query: QueryKind::Exact,
        images: 200,
        write_pct: 0,
        paced_rate_ops_s: 22.0,
        round_ops: 112,
        rounds: 10,
        setups: 15,
    },
    Workload {
        name: "approx_sketch",
        deploy: Deploy::Memory,
        query: QueryKind::Approx,
        images: 200,
        write_pct: 0,
        paced_rate_ops_s: 1200.0,
        round_ops: 1792,
        rounds: 32,
        setups: 15,
    },
    Workload {
        name: "churn_durable",
        deploy: Deploy::Durable,
        query: QueryKind::Approx,
        images: 700,
        write_pct: 45,
        paced_rate_ops_s: 2300.0,
        round_ops: 1200,
        rounds: 80,
        setups: 5,
    },
    Workload {
        name: "cluster_mixed",
        deploy: Deploy::Cluster,
        query: QueryKind::Approx,
        images: 700,
        write_pct: 10,
        paced_rate_ops_s: 250.0,
        round_ops: 192,
        rounds: 32,
        setups: 5,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Corpus, preload set and sketches of one workload.
pub struct World {
    pub corpus: Corpus,
    pub sketches: Vec<Polyline>,
}

/// Seed of the stored corpus and of the query sketches. A run's `--seed`
/// drives the traffic (arrival times, the op mix, every shape the stream
/// inserts and every delete's target) but not the base it lands on nor
/// the sketches it asks about: measured on the seed commit, the cost of
/// an exact query swings by ±25 % between corpora of one size and by
/// ±19 % between two jitters of the same sketches, which would bury any
/// code change under the choice of seed.
pub const CORPUS_SEED: u64 = 1;

impl World {
    pub fn new(w: &Workload) -> World {
        let corpus = generate(&CorpusConfig::small(w.images, CORPUS_SEED));
        let sketches = corpus.queries(SKETCHES, 0.02, CORPUS_SEED);
        World { corpus, sketches }
    }

    /// Shapes loaded before measuring, in slot order (slot `i` is
    /// `preload()[i]`).
    pub fn preload(&self) -> impl ExactSizeIterator<Item = (ImageId, &Polyline)> {
        self.corpus
            .shapes
            .iter()
            .map(|(image, _, shape)| (*image, shape))
    }
}

/// One request of the stream. A *slot* numbers every shape the run ever
/// inserts: preload shapes first, stream inserts after, in stream order.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Query {
        sketch: u32,
    },
    Insert {
        slot: u32,
        image: u32,
        shape: Polyline,
    },
    Delete {
        slot: u32,
    },
}

impl Op {
    /// Canonical bytes, for the stream fingerprint.
    pub fn fingerprint_into(&self, out: &mut Vec<u8>) {
        match self {
            Op::Query { sketch } => {
                out.push(0);
                out.extend_from_slice(&sketch.to_le_bytes());
            }
            Op::Insert { slot, image, shape } => {
                out.push(1);
                out.extend_from_slice(&slot.to_le_bytes());
                out.extend_from_slice(&image.to_le_bytes());
                for p in shape.points() {
                    out.extend_from_slice(&p.x.to_bits().to_le_bytes());
                    out.extend_from_slice(&p.y.to_bits().to_le_bytes());
                }
            }
            Op::Delete { slot } => {
                out.push(2);
                out.extend_from_slice(&slot.to_le_bytes());
            }
        }
    }
}

/// The endless op stream of a workload. Stationary by construction:
/// writes alternate between insert and delete, so the live set stays at
/// the preload's size (a coin per write would let it wander by hundreds
/// of shapes, another amount of data for every seed), and a delete only
/// ever names a slot inserted at least [`DELETE_LAG_OPS`] ops earlier
/// and not yet deleted.
pub struct OpStream<'w> {
    world: &'w World,
    write_pct: u32,
    rng: StdRng,
    seq: u64,
    next_write_inserts: bool,
    next_sketch: u32,
    /// Queries before the sketch cycle repeats.
    cycle: u32,
    /// Slots a delete may name.
    deletable: Vec<u32>,
    /// Stream inserts still inside the lag window: `(seq inserted, slot)`.
    recent: VecDeque<(u64, u32)>,
    /// Geometry of every stream insert, indexed by `slot − preload`.
    inserted: Vec<Polyline>,
    /// Liveness per slot, preload included.
    live: Vec<bool>,
}

impl<'w> OpStream<'w> {
    pub fn new(world: &'w World, w: &Workload, seed: u64) -> OpStream<'w> {
        let preload = world.corpus.shapes.len();
        OpStream {
            world,
            write_pct: w.write_pct,
            // distinct from the corpus and sketch streams of the same seed
            rng: StdRng::seed_from_u64(seed ^ 0x6f70_5f73_7472_6561),
            seq: 0,
            next_write_inserts: true,
            next_sketch: 0,
            cycle: if w.write_pct == 0 {
                SKETCH_CYCLE
            } else {
                SKETCHES as u32
            },
            deletable: (0..preload as u32).collect(),
            recent: VecDeque::new(),
            inserted: Vec::new(),
            live: vec![true; preload],
        }
    }

    pub fn next_op(&mut self) -> Op {
        while self
            .recent
            .front()
            .is_some_and(|&(at, _)| at + DELETE_LAG_OPS <= self.seq)
        {
            let (_, slot) = self.recent.pop_front().expect("front checked");
            self.deletable.push(slot);
        }
        let write = self.rng.random_range(0..100u32) < 2 * self.write_pct;
        let insert = write && (self.next_write_inserts || self.deletable.is_empty());
        self.next_write_inserts ^= write;
        let op = if insert {
            let slot = self.live.len() as u32;
            let protos = &self.world.corpus.prototypes;
            let family = self.rng.random_range(0..protos.len());
            // same graded family jitter as `synth::generate`
            let jitter = self.rng.random_range(0.1..=1.0) * 0.02;
            let member = perturb(&protos[family], &mut self.rng, jitter);
            let shape = place_free(&member, &mut self.rng);
            self.live.push(true);
            self.inserted.push(shape.clone());
            self.recent.push_back((self.seq, slot));
            Op::Insert {
                slot,
                image: slot,
                shape,
            }
        } else if write {
            let pick = self.rng.random_range(0..self.deletable.len());
            let slot = self.deletable.swap_remove(pick);
            self.live[slot as usize] = false;
            Op::Delete { slot }
        } else {
            let n = self.world.sketches.len() as u32;
            let sketch = self.next_sketch * SKETCH_STRIDE % n;
            self.next_sketch = (self.next_sketch + 1) % self.cycle;
            Op::Query { sketch }
        };
        self.seq += 1;
        op
    }

    /// Restart the sketch cycle, so that every phase queries the same
    /// sketches in the same order however many ops came before it.
    pub fn rewind_sketches(&mut self) {
        self.next_sketch = 0;
    }

    /// Slots ever assigned (preload + stream inserts so far).
    pub fn slots(&self) -> usize {
        self.live.len()
    }

    pub fn shape(&self, slot: u32) -> &Polyline {
        let preload = self.world.corpus.shapes.len();
        match (slot as usize).checked_sub(preload) {
            None => &self.world.corpus.shapes[slot as usize].2,
            Some(i) => &self.inserted[i],
        }
    }

    /// Every slot inserted and not deleted by the ops generated so far.
    pub fn live_slots(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.live.len() as u32).filter(|&s| self.live[s as usize])
    }
}

/// FNV-1a of the canonical bytes of the first `n` ops: goes in the
/// result header so two runs can be shown to have had the same inputs.
pub fn stream_fingerprint(world: &World, w: &Workload, seed: u64, n: usize) -> u64 {
    let mut stream = OpStream::new(world, w, seed);
    let mut bytes = Vec::new();
    for _ in 0..n {
        stream.next_op().fingerprint_into(&mut bytes);
    }
    crate::stats::fnv1a64(&bytes)
}

/// Intended send offsets (seconds from phase start) of an open-loop
/// phase: `n` seeded exponential inter-arrivals at `rate` per second.
pub fn arrivals(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6172_7269_7661_6c73);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let u: f64 = rng.random();
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(w: &Workload, seed: u64, n: usize) -> Vec<u8> {
        let world = World::new(w);
        let mut stream = OpStream::new(&world, w, seed);
        let mut out = Vec::new();
        for _ in 0..n {
            stream.next_op().fingerprint_into(&mut out);
        }
        out
    }

    fn tiny(write_pct: u32) -> Workload {
        Workload {
            images: 12,
            write_pct,
            ..*workload("churn_durable").unwrap()
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let w = tiny(45);
        let a = bytes_of(&w, 7, 2000);
        assert_eq!(a, bytes_of(&w, 7, 2000));
        assert_ne!(a, bytes_of(&w, 8, 2000));
        let world = World::new(&w);
        assert_eq!(
            stream_fingerprint(&world, &w, 7, 2000),
            crate::stats::fnv1a64(&a)
        );
    }

    #[test]
    fn delete_names_only_a_live_slot_inserted_a_lag_earlier() {
        let w = tiny(45);
        let world = World::new(&w);
        let preload = world.corpus.shapes.len() as u32;
        let mut stream = OpStream::new(&world, &w, 3);
        let mut inserted_at = std::collections::HashMap::new();
        let mut deleted = std::collections::HashSet::new();
        let (mut inserts, mut deletes, mut queries) = (0u32, 0u32, 0u32);
        for seq in 0..20_000u64 {
            match stream.next_op() {
                Op::Insert { slot, .. } => {
                    assert_eq!(slot, preload + inserts, "slots are handed out in order");
                    inserted_at.insert(slot, seq);
                    inserts += 1;
                }
                Op::Delete { slot } => {
                    assert!(deleted.insert(slot), "slot {slot} deleted twice");
                    if slot >= preload {
                        let at = inserted_at[&slot];
                        assert!(at + DELETE_LAG_OPS <= seq, "slot {slot}: {at} vs {seq}");
                    }
                    deletes += 1;
                }
                Op::Query { .. } => queries += 1,
            }
        }
        // 45 / 45 / 10: the share of writes within sampling noise, and
        // inserts and deletes by turns, so the live set keeps its size
        assert!((1700..2300).contains(&queries), "{queries}");
        assert!(inserts == deletes || inserts == deletes + 1);
        let live = stream.live_slots().count() as u32;
        assert_eq!(live, preload + inserts - deletes);
        assert!(stream.live_slots().all(|s| !deleted.contains(&s)));
    }

    #[test]
    fn read_only_stream_cycles_through_every_sketch() {
        let w = tiny(0);
        let world = World::new(&w);
        let mut stream = OpStream::new(&world, &w, 1);
        let cycle: Vec<Op> = (0..SKETCHES).map(|_| stream.next_op()).collect();
        let mut seen: Vec<u32> = cycle
            .iter()
            .map(|op| match op {
                Op::Query { sketch } => *sketch,
                other => panic!("read-only stream produced {other:?}"),
            })
            .collect();
        assert_eq!(seen[..3], [0, 37, 74]);
        seen.sort_unstable();
        assert_eq!(seen, (0..SKETCHES as u32).collect::<Vec<_>>());
        // the first twelve again fill the seventh batch, then the cycle
        // repeats; a rewind restarts it
        for again in &cycle[..SKETCH_CYCLE as usize - SKETCHES] {
            assert_eq!(&stream.next_op(), again);
        }
        assert_eq!(stream.next_op(), cycle[0]);
        assert_eq!(stream.next_op(), cycle[1]);
        stream.rewind_sketches();
        assert_eq!(stream.next_op(), cycle[0]);
    }

    #[test]
    fn a_round_of_a_read_only_workload_is_whole_sketch_cycles() {
        for name in ["exact_sketch", "approx_sketch"] {
            let w = Workload {
                images: 12,
                ..*workload(name).unwrap()
            };
            assert_eq!(w.round_ops % SKETCH_CYCLE as usize, 0, "{name}");
            assert_eq!(w.round_ops % SAT_IN_FLIGHT, 0, "{name}: whole batches");
            let world = World::new(&w);
            let mut stream = OpStream::new(&world, &w, 1);
            let round: Vec<Op> = (0..w.round_ops).map(|_| stream.next_op()).collect();
            let mut asked: Vec<u32> = round
                .iter()
                .map(|op| match op {
                    Op::Query { sketch } => *sketch,
                    other => panic!("read-only stream produced {other:?}"),
                })
                .collect();
            asked.sort_unstable();
            asked.dedup();
            assert_eq!(asked.len(), SKETCHES, "{name}: a round asks every sketch");
            let again: Vec<Op> = (0..w.round_ops).map(|_| stream.next_op()).collect();
            assert_eq!(round, again, "{name}: every round asks the same questions");
        }
    }

    #[test]
    fn arrivals_are_seeded_increasing_and_near_the_rate() {
        let a = arrivals(5, 500.0, 20_000);
        assert_eq!(a, arrivals(5, 500.0, 20_000));
        assert_ne!(a, arrivals(6, 500.0, 20_000));
        assert!(a.windows(2).all(|p| p[0] < p[1]));
        let rate = a.len() as f64 / a.last().unwrap();
        assert!((rate - 500.0).abs() < 15.0, "{rate}");
    }
}
