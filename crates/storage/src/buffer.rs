//! LRU buffer pool over the simulated disk.
//!
//! Figure 8 varies this pool's capacity from 1 KB to 100 KB (1 to 100
//! blocks) and measures how each disk layout's I/O count decays; the
//! "stabilizes faster" observation for the median method is about how
//! quickly the curve flattens as capacity grows.

use std::collections::HashMap;

use crate::disk::{DiskSim, BLOCK_SIZE};

/// Buffer pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    /// Misses = blocks fetched from disk.
    pub misses: u64,
}

/// A fixed-capacity LRU cache of disk blocks.
///
/// The LRU list is intrusive over frame indices (`prev`/`next` arrays), so
/// every operation is O(1) beyond the `HashMap` lookup.
pub struct BufferPool {
    capacity: usize,
    /// frame -> (block id, data)
    frames: Vec<(usize, [u8; BLOCK_SIZE])>,
    /// block id -> frame
    map: HashMap<usize, usize>,
    prev: Vec<usize>,
    next: Vec<usize>,
    /// Most-recently-used frame, or NONE when empty.
    head: usize,
    /// Least-recently-used frame.
    tail: usize,
    stats: PoolStats,
}

const NONE: usize = usize::MAX;

impl BufferPool {
    /// `capacity` in blocks (the paper's "100k buffer" = 100 blocks).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            frames: Vec::with_capacity(capacity),
            map: HashMap::with_capacity(capacity),
            prev: Vec::with_capacity(capacity),
            next: Vec::with_capacity(capacity),
            head: NONE,
            tail: NONE,
            stats: PoolStats::default(),
        }
    }

    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Drop all cached blocks (keeps statistics).
    pub fn clear(&mut self) {
        self.frames.clear();
        self.map.clear();
        self.prev.clear();
        self.next.clear();
        self.head = NONE;
        self.tail = NONE;
    }

    /// Read a block through the cache.
    pub fn read(&mut self, disk: &DiskSim, block: usize) -> [u8; BLOCK_SIZE] {
        if let Some(&frame) = self.map.get(&block) {
            self.stats.hits += 1;
            self.touch(frame);
            return self.frames[frame].1;
        }
        self.stats.misses += 1;
        let data = disk.read(block);
        self.insert(block, data);
        data
    }

    /// Is the block currently cached? (No side effects.)
    pub fn contains(&self, block: usize) -> bool {
        self.map.contains_key(&block)
    }

    fn insert(&mut self, block: usize, data: [u8; BLOCK_SIZE]) {
        let frame = if self.frames.len() < self.capacity {
            self.frames.push((block, data));
            self.prev.push(NONE);
            self.next.push(NONE);
            let f = self.frames.len() - 1;
            self.attach_front(f);
            f
        } else {
            // evict the LRU frame
            let victim = self.tail;
            let old_block = self.frames[victim].0;
            self.map.remove(&old_block);
            self.frames[victim] = (block, data);
            self.touch(victim);
            victim
        };
        self.map.insert(block, frame);
    }

    /// Move `frame` to the MRU position.
    fn touch(&mut self, frame: usize) {
        if self.head == frame {
            return;
        }
        self.detach(frame);
        self.attach_front(frame);
    }

    fn detach(&mut self, frame: usize) {
        let (p, n) = (self.prev[frame], self.next[frame]);
        if p != NONE {
            self.next[p] = n;
        } else {
            self.head = n;
        }
        if n != NONE {
            self.prev[n] = p;
        } else {
            self.tail = p;
        }
        self.prev[frame] = NONE;
        self.next[frame] = NONE;
    }

    fn attach_front(&mut self, frame: usize) {
        self.prev[frame] = NONE;
        self.next[frame] = self.head;
        if self.head != NONE {
            self.prev[self.head] = frame;
        }
        self.head = frame;
        if self.tail == NONE {
            self.tail = frame;
        }
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("cached", &self.frames.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn disk_with_markers(n: usize) -> DiskSim {
        let mut d = DiskSim::new(n);
        for i in 0..n {
            d.write(i, &[(i % 251) as u8; 8]);
        }
        d.reset_stats();
        d
    }

    #[test]
    fn hit_after_first_read() {
        let disk = disk_with_markers(4);
        let mut pool = BufferPool::new(2);
        pool.read(&disk, 1);
        pool.read(&disk, 1);
        assert_eq!(pool.stats(), PoolStats { hits: 1, misses: 1 });
        assert_eq!(disk.stats().reads, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let disk = disk_with_markers(4);
        let mut pool = BufferPool::new(2);
        pool.read(&disk, 0);
        pool.read(&disk, 1);
        pool.read(&disk, 0); // 0 is now MRU
        pool.read(&disk, 2); // evicts 1
        assert!(pool.contains(0));
        assert!(!pool.contains(1));
        assert!(pool.contains(2));
    }

    #[test]
    fn data_integrity_through_cache() {
        let disk = disk_with_markers(10);
        let mut pool = BufferPool::new(3);
        for i in 0..10 {
            let b = pool.read(&disk, i);
            assert_eq!(b[0], (i % 251) as u8);
        }
        // re-read through cache: same data
        for i in 7..10 {
            let b = pool.read(&disk, i);
            assert_eq!(b[0], (i % 251) as u8);
        }
    }

    #[test]
    fn capacity_one_always_misses_on_alternation() {
        let disk = disk_with_markers(2);
        let mut pool = BufferPool::new(1);
        for _ in 0..5 {
            pool.read(&disk, 0);
            pool.read(&disk, 1);
        }
        assert_eq!(pool.stats().misses, 10);
    }

    #[test]
    fn sequential_scan_with_large_buffer_misses_once_per_block() {
        let disk = disk_with_markers(50);
        let mut pool = BufferPool::new(100);
        for _ in 0..3 {
            for i in 0..50 {
                pool.read(&disk, i);
            }
        }
        assert_eq!(pool.stats().misses, 50);
        assert_eq!(pool.stats().hits, 100);
    }

    #[test]
    fn matches_reference_model_on_random_workload() {
        // reference: naive Vec-based LRU
        let disk = disk_with_markers(32);
        let mut pool = BufferPool::new(8);
        let mut reference: Vec<usize> = Vec::new(); // MRU at front
        let mut rng = StdRng::seed_from_u64(99);
        let mut expected = PoolStats::default();
        for _ in 0..5000 {
            let b = rng.random_range(0..32);
            if let Some(pos) = reference.iter().position(|&x| x == b) {
                reference.remove(pos);
                expected.hits += 1;
            } else {
                if reference.len() == 8 {
                    reference.pop();
                }
                expected.misses += 1;
            }
            reference.insert(0, b);
            pool.read(&disk, b);
        }
        assert_eq!(pool.stats(), expected);
    }

    #[test]
    fn clear_keeps_stats_drops_content() {
        let disk = disk_with_markers(4);
        let mut pool = BufferPool::new(4);
        pool.read(&disk, 0);
        pool.clear();
        assert!(!pool.contains(0));
        assert_eq!(pool.stats().misses, 1);
        pool.read(&disk, 0);
        assert_eq!(pool.stats().misses, 2);
    }
}
