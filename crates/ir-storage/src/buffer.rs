//! LRU buffer pool with I/O accounting and transient-fault retries.
//!
//! Every page access performed by the inverted-list cursors and the tuple
//! store goes through a [`BufferPool`]. The pool keeps the most recently
//! used pages in memory (exact LRU, O(1) per access) and counts logical
//! reads (requests), physical reads (misses that hit the page store) and
//! writes. These counters are the raw material for the I/O metrics of the
//! experiment harness.
//!
//! The pool is also the retry boundary of the stack: a [`RetryPolicy`]
//! re-issues store reads and writes that fail with a *transient* error
//! ([`IrError::is_transient`] — interrupted syscalls, timeouts), with a
//! bounded attempt count and a deterministic exponential backoff. A fault
//! that heals within the budget is invisible to every layer above except
//! the `read_retries`/`write_retries` counters; one that persists surfaces
//! as a typed [`IrError::RetryExhausted`]. Non-transient errors (corruption,
//! out-of-bounds, permanent device failure) are never retried.

use crate::page::{PageBuf, PageId, PAGE_SIZE};
use crate::pagestore::PageStore;
use crate::stats::{IoStatsSnapshot, ShardedIoStats};
use ir_types::{IrError, IrResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Default number of pages the pool keeps cached (4 MiB with 4 KiB pages).
pub const DEFAULT_POOL_CAPACITY: usize = 1024;

/// Bounded-retry policy for transient storage faults.
///
/// Attempt `i` (zero-based, after the first failure) sleeps
/// `backoff_base * 2^i` before re-issuing the operation, so the schedule is
/// deterministic: with the defaults (3 attempts, 100 µs base) a page read
/// is tried at t=0, t=100 µs and t=300 µs, then gives up with
/// [`IrError::RetryExhausted`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first re-attempt; doubles on each further one.
    pub backoff_base: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_micros(100),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: every transient fault surfaces
    /// immediately (as itself, not as `RetryExhausted`).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: Duration::ZERO,
        }
    }

    /// Backoff before re-attempt number `retry` (zero-based).
    fn backoff(&self, retry: u32) -> Duration {
        self.backoff_base * 2u32.saturating_pow(retry).min(1 << 16)
    }
}

/// End-of-list marker of the intrusive recency list.
const NIL: u32 = u32::MAX;

/// One cached page, linked into the recency list by slot index.
struct Slot {
    page: PageId,
    data: Arc<PageBuf>,
    /// Neighbour towards the most recently used end.
    newer: u32,
    /// Neighbour towards the least recently used end.
    older: u32,
}

/// The cache proper: a slot arena, an intrusive most-recent-first list over
/// it and a `PageId → slot` map. Every operation is O(1); a hit allocates
/// nothing. The list order is the order of last use, so the tail is exactly
/// the page with the oldest last use — the classic LRU victim.
struct Lru {
    slots: Vec<Slot>,
    map: HashMap<PageId, u32>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot (the next victim).
    tail: u32,
    capacity: usize,
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Lru {
            slots: Vec::new(),
            map: HashMap::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn unlink(&mut self, slot: u32) {
        let (newer, older) = {
            let s = &self.slots[slot as usize];
            (s.newer, s.older)
        };
        match newer {
            NIL => self.head = older,
            n => self.slots[n as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.slots[o as usize].newer = newer,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[slot as usize];
            s.newer = NIL;
            s.older = old_head;
        }
        match old_head {
            NIL => self.tail = slot,
            h => self.slots[h as usize].newer = slot,
        }
        self.head = slot;
    }

    /// Marks `slot` as the most recently used.
    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// The cached copy of `page`, marked most recently used.
    fn get(&mut self, page: PageId) -> Option<Arc<PageBuf>> {
        let slot = *self.map.get(&page)?;
        self.touch(slot);
        Some(Arc::clone(&self.slots[slot as usize].data))
    }

    /// Caches `data` as `page`, most recently used, evicting the least
    /// recently used page when the pool is full.
    fn insert(&mut self, page: PageId, data: Arc<PageBuf>) {
        if let Some(&slot) = self.map.get(&page) {
            // A concurrent miss on the same page got here first.
            self.slots[slot as usize].data = data;
            self.touch(slot);
            return;
        }
        let slot = if self.len() >= self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let s = &mut self.slots[victim as usize];
            self.map.remove(&s.page);
            s.page = page;
            s.data = data;
            victim
        } else {
            self.slots.push(Slot {
                page,
                data,
                newer: NIL,
                older: NIL,
            });
            (self.slots.len() - 1) as u32
        };
        self.map.insert(page, slot);
        self.push_front(slot);
    }

    /// Refreshes the cached copy of `page`, if any, and marks it most
    /// recently used; an uncached page stays uncached.
    fn refresh(&mut self, page: PageId, data: &[u8]) {
        if let Some(&slot) = self.map.get(&page) {
            self.slots[slot as usize].data = Arc::new(data.to_vec().into_boxed_slice());
            self.touch(slot);
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.map.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// An LRU page cache in front of a [`PageStore`].
pub struct BufferPool {
    store: Arc<dyn PageStore>,
    lru: Mutex<Lru>,
    /// Per-worker (sharded) counters: each thread records into its own
    /// shard, so parallel drivers can attribute I/O per worker (exact while
    /// each worker owns its shard; see `ShardedIoStats`) and the shard
    /// snapshots always merge losslessly into the pool total.
    stats: ShardedIoStats,
    retry: RetryPolicy,
}

impl BufferPool {
    /// Creates a pool with the default capacity.
    pub fn new(store: Arc<dyn PageStore>) -> Self {
        Self::with_capacity(store, DEFAULT_POOL_CAPACITY)
    }

    /// Creates a pool that caches at most `capacity` pages (minimum 1),
    /// with the default [`RetryPolicy`].
    pub fn with_capacity(store: Arc<dyn PageStore>, capacity: usize) -> Self {
        Self::with_capacity_and_policy(store, capacity, RetryPolicy::default())
    }

    /// Creates a pool with an explicit transient-fault [`RetryPolicy`].
    pub fn with_capacity_and_policy(
        store: Arc<dyn PageStore>,
        capacity: usize,
        retry: RetryPolicy,
    ) -> Self {
        BufferPool {
            store,
            lru: Mutex::new(Lru::new(capacity.max(1))),
            stats: ShardedIoStats::new(),
            retry,
        }
    }

    /// The underlying page store.
    pub fn store(&self) -> &Arc<dyn PageStore> {
        &self.store
    }

    /// The pool's transient-fault retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Runs `op` under the retry policy: transient failures are re-issued
    /// (recording one retry counter tick via `on_retry` per re-attempt)
    /// until they heal or the attempt budget is spent.
    fn with_retries<T>(
        &self,
        op: impl Fn() -> IrResult<T>,
        on_retry: impl Fn(&ShardedIoStats),
    ) -> IrResult<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(value) => return Ok(value),
                Err(err) if err.is_transient() => {
                    attempt += 1;
                    if attempt >= self.retry.max_attempts.max(1) {
                        return if self.retry.max_attempts <= 1 {
                            // A no-retry policy surfaces the fault as-is.
                            Err(err)
                        } else {
                            Err(IrError::RetryExhausted {
                                attempts: attempt,
                                source: Box::new(err),
                            })
                        };
                    }
                    let backoff = self.retry.backoff(attempt - 1);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    on_retry(&self.stats);
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Number of pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.lru.lock().len()
    }

    /// Reads a page through the cache. Records one logical read, plus one
    /// physical read if the page was not cached.
    pub fn read(&self, page: PageId) -> IrResult<Arc<PageBuf>> {
        self.stats.record_logical_read();
        if let Some(data) = self.lru.lock().get(page) {
            return Ok(data);
        }
        // Miss: fetch outside the lock (retrying transient faults), then
        // insert.
        self.stats.record_physical_read();
        let data = Arc::new(self.with_retries(
            || self.store.read_page(page),
            |stats| stats.record_read_retry(),
        )?);
        self.lru.lock().insert(page, Arc::clone(&data));
        Ok(data)
    }

    /// Writes a page through the cache (write-through: the store is updated
    /// immediately and the cached copy, if any, is refreshed).
    pub fn write(&self, page: PageId, data: &[u8]) -> IrResult<()> {
        if data.len() != PAGE_SIZE {
            return Err(IrError::Storage(format!(
                "buffer pool write expects {PAGE_SIZE} bytes, got {}",
                data.len()
            )));
        }
        self.with_retries(
            || self.store.write_page(page, data),
            |stats| stats.record_write_retry(),
        )?;
        self.stats.record_write();
        self.lru.lock().refresh(page, data);
        Ok(())
    }

    /// Allocates fresh pages in the underlying store.
    pub fn allocate(&self, count: u32) -> IrResult<PageId> {
        self.store.allocate(count)
    }

    /// Drops every cached page (the counters are preserved).
    pub fn clear_cache(&self) {
        self.lru.lock().clear();
    }

    /// Snapshot of the I/O counters (merged over every worker shard).
    pub fn io_snapshot(&self) -> IoStatsSnapshot {
        self.stats.snapshot()
    }

    /// Snapshot of the calling thread's own I/O shard. Diffing this around
    /// a unit of work attributes its I/O to the current worker even while
    /// other workers hammer the same pool (see
    /// [`crate::stats::set_thread_stats_shard`]).
    pub fn thread_io_snapshot(&self) -> IoStatsSnapshot {
        self.stats.thread_snapshot()
    }

    /// Per-worker-shard snapshots; their counter-wise sum always equals
    /// [`BufferPool::io_snapshot`] (the merge is lossless).
    pub fn worker_io_snapshots(&self) -> Vec<IoStatsSnapshot> {
        self.stats.worker_snapshots()
    }

    /// Snapshot of the underlying page store's device-level counters
    /// (syscalls issued, page-fault-equivalent reads; see
    /// [`PageStore::io_snapshot`]). The store sees exactly this pool's miss
    /// sequence, so its `logical_reads` always equals the pool's
    /// `physical_reads` regardless of the backend.
    pub fn store_io_snapshot(&self) -> IoStatsSnapshot {
        self.store.io_snapshot()
    }

    /// Resets the I/O counters — the pool's and the underlying store's
    /// device-level ones (the cache content is preserved).
    pub fn reset_io_stats(&self) {
        self.stats.reset();
        self.store.reset_io_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjectingPageStore, FaultPlan};
    use crate::pagestore::MemPageStore;

    fn pool_with_pages(capacity: usize, pages: u32) -> BufferPool {
        let store = Arc::new(MemPageStore::new());
        store.allocate(pages).unwrap();
        BufferPool::with_capacity(store, capacity)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let pool = pool_with_pages(4, 2);
        pool.read(PageId(0)).unwrap();
        pool.read(PageId(0)).unwrap();
        pool.read(PageId(1)).unwrap();
        let snap = pool.io_snapshot();
        assert_eq!(snap.logical_reads, 3);
        assert_eq!(snap.physical_reads, 2, "second read of page 0 is a hit");
    }

    #[test]
    fn lru_eviction_prefers_least_recently_used() {
        let pool = pool_with_pages(2, 3);
        pool.read(PageId(0)).unwrap();
        pool.read(PageId(1)).unwrap();
        // Touch page 0 so page 1 becomes the LRU victim.
        pool.read(PageId(0)).unwrap();
        pool.read(PageId(2)).unwrap(); // evicts page 1
        assert_eq!(pool.cached_pages(), 2);
        let before = pool.io_snapshot().physical_reads;
        pool.read(PageId(0)).unwrap(); // still cached
        assert_eq!(pool.io_snapshot().physical_reads, before);
        pool.read(PageId(1)).unwrap(); // was evicted -> physical read
        assert_eq!(pool.io_snapshot().physical_reads, before + 1);
    }

    #[test]
    fn write_through_updates_cache_and_store() {
        let pool = pool_with_pages(2, 1);
        pool.read(PageId(0)).unwrap();
        let mut page = vec![0u8; PAGE_SIZE];
        page[5] = 77;
        pool.write(PageId(0), &page).unwrap();
        let cached = pool.read(PageId(0)).unwrap();
        assert_eq!(cached[5], 77);
        // Store sees it too.
        assert_eq!(pool.store().read_page(PageId(0)).unwrap()[5], 77);
        assert_eq!(pool.io_snapshot().pages_written, 1);
    }

    #[test]
    fn clear_cache_forces_physical_rereads() {
        let pool = pool_with_pages(4, 1);
        pool.read(PageId(0)).unwrap();
        pool.clear_cache();
        pool.read(PageId(0)).unwrap();
        assert_eq!(pool.io_snapshot().physical_reads, 2);
    }

    #[test]
    fn store_counters_mirror_pool_misses_and_reset_together() {
        let pool = pool_with_pages(2, 3);
        pool.read(PageId(0)).unwrap();
        pool.read(PageId(0)).unwrap(); // hit: never reaches the store
        pool.read(PageId(1)).unwrap();
        assert_eq!(
            pool.store_io_snapshot().logical_reads,
            pool.io_snapshot().physical_reads,
            "the store sees exactly the pool's misses"
        );
        pool.reset_io_stats();
        assert_eq!(pool.store_io_snapshot(), IoStatsSnapshot::default());
        assert_eq!(pool.io_snapshot(), IoStatsSnapshot::default());
    }

    #[test]
    fn invalid_write_size_is_rejected() {
        let pool = pool_with_pages(1, 1);
        assert!(pool.write(PageId(0), &[0u8; 10]).is_err());
    }

    #[test]
    fn out_of_bounds_read_propagates_error() {
        let pool = pool_with_pages(1, 1);
        assert!(pool.read(PageId(99)).is_err());
    }

    fn faulty_pool(
        plan: FaultPlan,
        retry: RetryPolicy,
    ) -> (BufferPool, Arc<FaultInjectingPageStore>) {
        let inner = Arc::new(MemPageStore::new());
        inner.allocate(4).unwrap();
        let faulty = FaultInjectingPageStore::new(inner, plan);
        faulty.arm();
        let pool = BufferPool::with_capacity_and_policy(Arc::clone(&faulty) as _, 2, retry);
        (pool, faulty)
    }

    #[test]
    fn transient_read_faults_heal_invisibly() {
        let plan = FaultPlan {
            transient_read_ops: vec![0, 2],
            ..FaultPlan::default()
        };
        let (pool, faulty) = faulty_pool(
            plan,
            RetryPolicy {
                max_attempts: 3,
                backoff_base: Duration::ZERO,
            },
        );
        // Op 0 fails once, op 1 (the retry) succeeds.
        pool.read(PageId(0)).unwrap();
        // Op 2 fails once, op 3 succeeds.
        pool.read(PageId(1)).unwrap();
        let snap = pool.io_snapshot();
        assert_eq!(snap.physical_reads, 2, "retries are not extra misses");
        assert_eq!(snap.read_retries, 2, "each healed fault counted once");
        assert_eq!(faulty.injected_faults().0, 2);
    }

    #[test]
    fn transient_write_faults_heal_invisibly() {
        let plan = FaultPlan {
            transient_write_ops: vec![0],
            ..FaultPlan::default()
        };
        let (pool, _) = faulty_pool(
            plan,
            RetryPolicy {
                max_attempts: 2,
                backoff_base: Duration::ZERO,
            },
        );
        pool.write(PageId(0), &vec![7u8; PAGE_SIZE]).unwrap();
        let snap = pool.io_snapshot();
        assert_eq!(snap.pages_written, 1);
        assert_eq!(snap.write_retries, 1);
        assert_eq!(pool.store().read_page(PageId(0)).unwrap()[0], 7);
    }

    #[test]
    fn consecutive_transient_faults_exhaust_the_budget() {
        // Ops 0, 1 and 2 all fail: a 3-attempt policy sees transient errors
        // on every attempt and gives up with a typed RetryExhausted.
        let plan = FaultPlan {
            transient_read_ops: vec![0, 1, 2],
            ..FaultPlan::default()
        };
        let (pool, _) = faulty_pool(
            plan,
            RetryPolicy {
                max_attempts: 3,
                backoff_base: Duration::ZERO,
            },
        );
        let err = pool.read(PageId(0)).unwrap_err();
        match err {
            IrError::RetryExhausted { attempts, source } => {
                assert_eq!(attempts, 3);
                assert!(source.is_transient());
            }
            other => panic!("expected RetryExhausted, got: {other}"),
        }
        assert_eq!(pool.io_snapshot().read_retries, 2, "two re-attempts made");
        // The fault window has passed: the pool serves the next read fine.
        pool.read(PageId(0)).unwrap();
    }

    #[test]
    fn permanent_faults_are_not_retried() {
        let (pool, faulty) =
            faulty_pool(FaultPlan::device_outage(0, Some(1)), RetryPolicy::default());
        let err = pool.read(PageId(0)).unwrap_err();
        assert!(
            matches!(err, IrError::Storage(_)),
            "permanent fault must surface as-is, got: {err}"
        );
        assert_eq!(pool.io_snapshot().read_retries, 0);
        assert_eq!(faulty.injected_faults().0, 1, "exactly one op was issued");
    }

    #[test]
    fn no_retry_policy_surfaces_transient_faults_directly() {
        let plan = FaultPlan {
            transient_read_ops: vec![0],
            ..FaultPlan::default()
        };
        let (pool, _) = faulty_pool(plan, RetryPolicy::none());
        let err = pool.read(PageId(0)).unwrap_err();
        assert!(err.is_transient(), "no wrapping under RetryPolicy::none()");
        assert_eq!(pool.io_snapshot().read_retries, 0);
    }

    #[test]
    fn default_policy_has_bounded_deterministic_backoff() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.max_attempts, 3);
        assert_eq!(policy.backoff(0), Duration::from_micros(100));
        assert_eq!(policy.backoff(1), Duration::from_micros(200));
        assert_eq!(policy.backoff(2), Duration::from_micros(400));
    }
}
