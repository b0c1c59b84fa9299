//! Storage probes, run after the traced loop so that they do not disturb
//! its pool state. Each probe repeats its measurement and reports the
//! median; fast operations are timed as a whole loop divided by its count,
//! because one clock read costs about as much as a pool hit.

use crate::stats::median;
use immutable_regions::engine::IrEngine;
use immutable_regions::storage::PageId;
use immutable_regions::types::{DimId, TupleId};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of every probe.
const ROUNDS: usize = 5;
/// Pages read by the pool probe: well inside the pool, so the second read
/// of each is a hit.
const POOL_PAGES: usize = 512;
/// Entries walked per round by the sorted-access probe.
const SORTED_ENTRIES: u64 = 200_000;

/// Probe results, in microseconds per operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageProbe {
    /// One `TopKIndex::fetch_tuple`.
    pub fetch_tuple_us: f64,
    /// One `BufferPool::read` of a cached page.
    pub pool_hit_us: f64,
    /// One `BufferPool::read` of a page not in the pool.
    pub pool_miss_us: f64,
    /// One sorted access through `list_cursor`.
    pub sorted_entry_us: f64,
}

/// Runs the probes over the tuples the workload's TA runs touched and the
/// inverted lists of its query dimensions.
pub fn storage(
    engine: &IrEngine,
    tuples: &[TupleId],
    dims: &[DimId],
) -> Result<StorageProbe, String> {
    let index = engine.index();
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what} probe: {e}");

    let mut fetch = Vec::with_capacity(ROUNDS);
    if !tuples.is_empty() {
        for _ in 0..ROUNDS {
            let t = Instant::now();
            for &id in tuples {
                black_box(index.fetch_tuple(id).map_err(|e| err("fetch_tuple", &e))?);
            }
            fetch.push(t.elapsed().as_secs_f64() * 1e6 / tuples.len() as f64);
        }
    }

    let mut pages = BTreeSet::new();
    for &dim in dims {
        if let Some(list) = index.list_directory(dim) {
            for p in 0..list.num_pages() {
                if pages.len() < POOL_PAGES {
                    pages.insert(list.first_page.0 + p);
                }
            }
        }
    }
    let pool = index.pool();
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    if !pages.is_empty() {
        for _ in 0..ROUNDS {
            pool.clear_cache();
            for pass in [&mut misses, &mut hits] {
                let t = Instant::now();
                for &page in &pages {
                    black_box(pool.read(PageId(page)).map_err(|e| err("pool", &e))?);
                }
                pass.push(t.elapsed().as_secs_f64() * 1e6 / pages.len() as f64);
            }
        }
    }

    let mut sorted = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let mut entries = 0u64;
        let t = Instant::now();
        'walk: for &dim in dims {
            let mut cursor = index.list_cursor(dim).map_err(|e| err("cursor", &e))?;
            while let Some(entry) = cursor.next_entry().map_err(|e| err("cursor", &e))? {
                black_box(entry);
                entries += 1;
                if entries >= SORTED_ENTRIES {
                    break 'walk;
                }
            }
        }
        if entries > 0 {
            sorted.push(t.elapsed().as_secs_f64() * 1e6 / entries as f64);
        }
    }

    Ok(StorageProbe {
        fetch_tuple_us: median(&fetch),
        pool_hit_us: median(&hits),
        pool_miss_us: median(&misses),
        sorted_entry_us: median(&sorted),
    })
}
