//! Property and concurrency tests for the storage layer: the buffer pool
//! must be transparent (reads through any pool size return identical data)
//! and safe to share across threads, it must evict exactly the least
//! recently used page, and the index layout must round-trip arbitrary
//! datasets.

use ir_storage::{BufferPool, IndexBuilder, MemPageStore, PageId, PageStore, TopKIndex, PAGE_SIZE};
use ir_types::{Dataset, DatasetBuilder, DimId, TupleId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    let dims = 8u32;
    let tuple = proptest::collection::btree_map(0..dims, 0.001f64..1.0, 0..=dims as usize);
    proptest::collection::vec(tuple, 1..80).prop_map(move |tuples| {
        let mut builder = DatasetBuilder::new(dims);
        for t in tuples {
            builder.push_pairs(t).unwrap();
        }
        builder.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32).with_seed(0xB00C_0001))]

    /// Every tuple and every inverted list survives the round trip through
    /// the paged layout, regardless of the buffer-pool capacity.
    #[test]
    fn index_round_trips_arbitrary_datasets(dataset in dataset_strategy(), pool in 1usize..64) {
        let index = IndexBuilder::new().pool_capacity(pool).build(&dataset).unwrap();
        prop_assert_eq!(index.cardinality(), dataset.cardinality());
        for (id, tuple) in dataset.iter() {
            prop_assert_eq!(&index.fetch_tuple(id).unwrap(), tuple);
        }
        // Each inverted list is sorted by decreasing value and contains
        // exactly the tuples with a non-zero coordinate.
        for dim in 0..dataset.dimensionality() {
            let dim = DimId(dim);
            let mut cursor = index.list_cursor(dim).unwrap();
            let mut prev = f64::INFINITY;
            let mut count = 0usize;
            while let Some((id, value)) = cursor.next_entry().unwrap() {
                prop_assert!(value <= prev);
                prev = value;
                prop_assert!((dataset.coordinate(id, dim) - value).abs() < 1e-12);
                count += 1;
            }
            let expected = dataset
                .iter()
                .filter(|(_, t)| t.get(dim) > 0.0)
                .count();
            prop_assert_eq!(count, expected);
        }
    }

    /// Logical read counts do not depend on the pool capacity, physical
    /// reads never exceed logical reads, and a second identical scan through
    /// a large-enough pool performs no further physical reads.
    #[test]
    fn io_accounting_is_consistent(dataset in dataset_strategy()) {
        prop_assume!(dataset.cardinality() > 0);
        let tiny = IndexBuilder::new().pool_capacity(1).build(&dataset).unwrap();
        let large = IndexBuilder::new().pool_capacity(4096).build(&dataset).unwrap();
        for index in [&tiny, &large] {
            index.cold_start();
            for (id, _) in dataset.iter() {
                index.fetch_tuple(id).unwrap();
            }
        }
        let a = tiny.io_snapshot();
        let b = large.io_snapshot();
        prop_assert_eq!(a.logical_reads, b.logical_reads);
        prop_assert!(a.physical_reads >= b.physical_reads);
        prop_assert!(a.physical_reads <= a.logical_reads);

        // Second pass over the warm large pool: zero physical reads.
        large.reset_io_stats();
        for (id, _) in dataset.iter() {
            large.fetch_tuple(id).unwrap();
        }
        prop_assert_eq!(large.io_snapshot().physical_reads, 0);
    }
}

/// One step of a pool trace.
#[derive(Clone, Debug)]
enum PoolOp {
    Read(u32),
    Write(u32),
    ClearCache,
}

/// The naive LRU the pool must agree with: every cached page carries the
/// tick of its last use, and a miss on a full pool evicts the page with
/// the smallest tick by scanning them all.
struct MinTickLru {
    last_used: HashMap<u32, u64>,
    tick: u64,
    capacity: usize,
}

impl MinTickLru {
    /// Returns whether the read hit.
    fn read(&mut self, page: u32) -> bool {
        self.tick += 1;
        if let Some(used) = self.last_used.get_mut(&page) {
            *used = self.tick;
            return true;
        }
        if self.last_used.len() >= self.capacity {
            let victim = *self
                .last_used
                .iter()
                .min_by_key(|(_, &used)| used)
                .unwrap()
                .0;
            self.last_used.remove(&victim);
        }
        self.last_used.insert(page, self.tick);
        false
    }

    fn write(&mut self, page: u32) {
        self.tick += 1;
        if let Some(used) = self.last_used.get_mut(&page) {
            *used = self.tick;
        }
    }
}

/// Traces of reads (8 in 12), writes (3 in 12) and cache clears.
fn pool_trace(pages: u32) -> impl Strategy<Value = Vec<PoolOp>> {
    let op = (0u32..12, 0..pages).prop_map(|(kind, page)| match kind {
        0..=7 => PoolOp::Read(page),
        8..=10 => PoolOp::Write(page),
        _ => PoolOp::ClearCache,
    });
    proptest::collection::vec(op, 0..300)
}

/// The pool capacities under test.
fn capacity() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [1, 2, 7, 64][i])
}

/// Runs `trace` against a fresh pool of `capacity` pages and the min-tick
/// reference, asserting they agree on every hit/miss and on the number of
/// cached pages after every step, and that reads return the latest write.
fn check_against_min_tick(capacity: usize, pages: u32, trace: &[PoolOp]) {
    let store = Arc::new(MemPageStore::new());
    store.allocate(pages).unwrap();
    let pool = BufferPool::with_capacity(store, capacity);
    let mut reference = MinTickLru {
        last_used: HashMap::new(),
        tick: 0,
        capacity,
    };
    let mut content = vec![0u8; pages as usize];
    for (step, op) in trace.iter().enumerate() {
        match *op {
            PoolOp::Read(page) => {
                let misses = pool.io_snapshot().physical_reads;
                let data = pool.read(PageId(page)).unwrap();
                let hit = pool.io_snapshot().physical_reads == misses;
                assert_eq!(
                    hit,
                    reference.read(page),
                    "step {step}: read of page {page}"
                );
                assert_eq!(
                    data[0], content[page as usize],
                    "step {step}: stale page {page}"
                );
            }
            PoolOp::Write(page) => {
                content[page as usize] = content[page as usize].wrapping_add(1);
                let mut data = vec![0u8; PAGE_SIZE];
                data[0] = content[page as usize];
                pool.write(PageId(page), &data).unwrap();
                reference.write(page);
            }
            PoolOp::ClearCache => {
                pool.clear_cache();
                reference.last_used.clear();
            }
        }
        assert_eq!(
            pool.cached_pages(),
            reference.last_used.len(),
            "step {step}: cached page count"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48).with_seed(0xB00C_0002))]

    /// The O(1) pool evicts exactly the page a min-tick scan would, at
    /// capacities from a single frame to more than the trace touches.
    #[test]
    fn lru_matches_a_min_tick_scan(
        capacity in capacity(),
        trace in pool_trace(24),
    ) {
        check_against_min_tick(capacity, 24, &trace);
    }

    /// The same law with a page universe twice the largest capacity, so
    /// the 64-page pool also fills and evicts.
    #[test]
    fn lru_matches_a_min_tick_scan_when_full(
        capacity in capacity(),
        trace in pool_trace(128),
    ) {
        check_against_min_tick(capacity, 128, &trace);
    }
}

#[test]
fn buffer_pool_is_thread_safe() {
    // Many threads hammer the same small pool; every read must return the
    // page content that was written, and the counters must add up.
    let store = Arc::new(MemPageStore::new());
    store.allocate(16).unwrap();
    let pool = Arc::new(BufferPool::with_capacity(
        Arc::clone(&store) as Arc<dyn ir_storage::PageStore>,
        4,
    ));
    for page in 0..16u32 {
        let mut data = vec![0u8; PAGE_SIZE];
        data[0] = page as u8;
        pool.write(PageId(page), &data).unwrap();
    }
    let mut handles = Vec::new();
    for t in 0..4 {
        let pool = Arc::clone(&pool);
        handles.push(std::thread::spawn(move || {
            for i in 0..500u32 {
                let page = (i * 7 + t) % 16;
                let data = pool.read(PageId(page)).unwrap();
                assert_eq!(data[0], page as u8);
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    let snap = pool.io_snapshot();
    assert_eq!(snap.logical_reads, 4 * 500);
    assert!(snap.physical_reads <= snap.logical_reads);
}

#[test]
fn index_is_shareable_across_threads() {
    // The index (and its pool) can serve concurrent readers — e.g. several
    // queries computing regions in parallel.
    let mut builder = DatasetBuilder::new(4);
    for i in 0..500u32 {
        builder
            .push_pairs([(i % 4, ((i % 89) + 1) as f64 / 100.0)])
            .unwrap();
    }
    let dataset = builder.build();
    let index = Arc::new(TopKIndex::build_in_memory(&dataset).unwrap());
    let mut handles = Vec::new();
    for t in 0..4u32 {
        let index = Arc::clone(&index);
        handles.push(std::thread::spawn(move || {
            for i in 0..200u32 {
                let id = TupleId((i * 13 + t * 31) % 500);
                let tuple = index.fetch_tuple(id).unwrap();
                assert!(tuple.nnz() <= 1);
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
}
