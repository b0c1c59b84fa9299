//! The storage-level oracle law of the dynamic update model: after **any**
//! sequence of [`TupleUpdate`] batches, a maintained [`TopKIndex`] is
//! logically identical to an index freshly built from the mutated dataset —
//! same list contents in the same stored order, same tuple vectors, same
//! cardinality. Plus the physical properties maintenance promises: free
//! page runs are recycled, relocations are counted, maintenance I/O lands
//! in its own counters, a snapshot saved mid-churn reopens as the mutated
//! state, and a random access running concurrently with maintenance never
//! reads a torn record.

use ir_datagen::{UpdateConfig, UpdateStream};
use ir_storage::{IndexBuilder, StorageBackend, TopKIndex, PAGE_SIZE};
use ir_types::{
    Dataset, DatasetBuilder, DimId, IrError, SeededLcg, SparseVector, TupleId, TupleUpdate,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// Entries of one inverted list in stored order, read through a cursor.
fn list_entries(index: &TopKIndex, dim: u32) -> Vec<(TupleId, f64)> {
    let mut cursor = index.list_cursor(DimId(dim)).unwrap();
    std::iter::from_fn(|| cursor.next_entry().unwrap()).collect()
}

/// Asserts the maintained index and a fresh build of `dataset` agree on
/// every list and every tuple.
fn assert_matches_fresh_build(maintained: &TopKIndex, dataset: &Dataset) {
    let fresh = TopKIndex::build_in_memory(dataset).unwrap();
    assert_eq!(maintained.cardinality(), fresh.cardinality());
    assert_eq!(maintained.dimensionality(), fresh.dimensionality());
    for dim in 0..dataset.dimensionality() {
        assert_eq!(
            list_entries(maintained, dim),
            list_entries(&fresh, dim),
            "list {dim} diverged from a fresh build"
        );
    }
    for id in 0..dataset.cardinality() as u32 {
        assert_eq!(
            maintained.fetch_tuple(TupleId(id)).unwrap(),
            fresh.fetch_tuple(TupleId(id)).unwrap(),
            "tuple {id} diverged from a fresh build"
        );
    }
}

fn vector(pairs: &[(u32, f64)]) -> SparseVector {
    SparseVector::from_pairs(pairs.iter().copied()).unwrap()
}

#[test]
fn insert_delete_and_rescore_match_a_fresh_build() {
    let mut dataset = Dataset::running_example();
    let index = TopKIndex::build_in_memory(&dataset).unwrap();
    let updates = vec![
        TupleUpdate::Insert {
            vector: vector(&[(0, 0.95), (1, 0.15)]),
        },
        TupleUpdate::Delete { tuple: TupleId(1) },
        TupleUpdate::UpdateScore {
            tuple: TupleId(0),
            dim: DimId(1),
            value: 0.9,
        },
        // Inserted above at id 4, mutated inside the same batch.
        TupleUpdate::UpdateScore {
            tuple: TupleId(4),
            dim: DimId(0),
            value: 0.0,
        },
    ];
    let applied = index.apply_updates(&updates).unwrap();
    assert_eq!(applied.len(), 4);
    assert_eq!(applied[0].tuple, TupleId(4));
    assert!(applied[0].old_vector.is_empty());
    assert_eq!(applied[1].new_vector, SparseVector::new());
    assert_eq!(applied[3].old_vector, applied[0].new_vector);
    for update in &updates {
        dataset.apply_update(update).unwrap();
    }
    assert_matches_fresh_build(&index, &dataset);

    let stats = index.maintenance_stats();
    assert_eq!(stats.updates_applied, 4);
    assert_eq!(stats.batches, 1);
    assert!(stats.lists_rewritten >= 2, "both dimensions changed");
    assert!(
        stats.pages_written > 0,
        "maintenance I/O must be attributed"
    );
}

#[test]
fn an_invalid_update_rejects_the_whole_batch() {
    let dataset = Dataset::running_example();
    let index = TopKIndex::build_in_memory(&dataset).unwrap();
    let batch = vec![
        TupleUpdate::Delete { tuple: TupleId(0) },
        TupleUpdate::UpdateScore {
            tuple: TupleId(99),
            dim: DimId(0),
            value: 0.5,
        },
    ];
    assert!(index.apply_updates(&batch).is_err());
    // Nothing was applied: the index still matches the unmutated dataset.
    assert_matches_fresh_build(&index, &dataset);
    assert_eq!(index.maintenance_stats().updates_applied, 0);
}

#[test]
fn randomized_churn_matches_a_fresh_build_after_every_batch() {
    // A seeded mixed-operation stream over a dataset large enough that
    // lists span several pages and the tuple region relocates.
    let mut builder = DatasetBuilder::new(6);
    let mut rng = SeededLcg::mixed(0xD11A);
    for _ in 0..500 {
        let mut pairs: Vec<(u32, f64)> = Vec::new();
        for d in 0..6u32 {
            if rng.next_below(3) > 0 {
                pairs.push((d, (rng.next_below(999) + 1) as f64 / 1000.0));
            }
        }
        builder.push_pairs(pairs).unwrap();
    }
    let mut dataset = builder.build();
    let index = TopKIndex::build_in_memory(&dataset).unwrap();

    for _batch in 0..12 {
        let mut updates = Vec::new();
        for _ in 0..40 {
            let card = dataset.cardinality() as u64;
            match rng.next_below(4) {
                0 => {
                    let mut pairs: Vec<(u32, f64)> = Vec::new();
                    for d in 0..6u32 {
                        if rng.next_below(2) == 0 {
                            pairs.push((d, (rng.next_below(999) + 1) as f64 / 1000.0));
                        }
                    }
                    updates.push(TupleUpdate::Insert {
                        vector: vector(&pairs),
                    });
                }
                1 => updates.push(TupleUpdate::Delete {
                    tuple: TupleId(rng.next_below(card) as u32),
                }),
                _ => updates.push(TupleUpdate::UpdateScore {
                    tuple: TupleId(rng.next_below(card) as u32),
                    dim: DimId(rng.next_below(6) as u32),
                    value: rng.next_below(1000) as f64 / 1000.0, // 0.0 removes
                }),
            }
            // Keep the oracle dataset in lockstep so ids stay valid while
            // the batch is being composed.
            dataset.apply_update(updates.last().unwrap()).unwrap();
        }
        index.apply_updates(&updates).unwrap();
        assert_matches_fresh_build(&index, &dataset);
    }

    let stats = index.maintenance_stats();
    assert_eq!(stats.updates_applied, 12 * 40);
    assert_eq!(stats.batches, 12);
    assert!(
        stats.tuple_relocations >= 1,
        "480 updates with ~120 inserts must outgrow the tuple region at least once"
    );
}

#[test]
fn maintenance_io_is_separate_from_query_io() {
    let dataset = Dataset::running_example();
    let index = TopKIndex::build_in_memory(&dataset).unwrap();
    index.cold_start();
    index
        .apply_updates(&[TupleUpdate::UpdateScore {
            tuple: TupleId(2),
            dim: DimId(0),
            value: 0.99,
        }])
        .unwrap();
    let maint = index.maintenance_stats();
    let pool_after_maintenance = index.io_snapshot();
    assert!(maint.pages_written > 0);
    assert!(maint.logical_reads > 0);
    // Query traffic grows the pool counters but not the maintenance ones.
    index.fetch_tuple(TupleId(0)).unwrap();
    assert_eq!(index.maintenance_stats(), maint);
    assert!(index.io_snapshot().logical_reads > pool_after_maintenance.logical_reads);
}

#[test]
fn emptied_lists_free_their_pages_for_reuse() {
    // One tuple per dimension; deleting the only tuple of dimension 0 must
    // drop its list entirely (a fresh build of the mutated dataset has no
    // list there) and recycle its page for the next list that needs one.
    let mut builder = DatasetBuilder::new(3);
    builder.push_pairs([(0, 0.7)]).unwrap();
    builder.push_pairs([(1, 0.6)]).unwrap();
    builder.push_pairs([(2, 0.5)]).unwrap();
    let mut dataset = builder.build();
    let index = TopKIndex::build_in_memory(&dataset).unwrap();
    let freed = index.list_directory(DimId(0)).unwrap();

    let batch = vec![TupleUpdate::Delete { tuple: TupleId(0) }];
    index.apply_updates(&batch).unwrap();
    dataset.apply_update(&batch[0]).unwrap();
    assert!(index.list_directory(DimId(0)).is_none());
    assert_matches_fresh_build(&index, &dataset);

    // An insert that revives dimension 0 reuses the freed page run instead
    // of allocating fresh pages past the end of the store.
    let revive = vec![TupleUpdate::Insert {
        vector: vector(&[(0, 0.4)]),
    }];
    index.apply_updates(&revive).unwrap();
    dataset.apply_update(&revive[0]).unwrap();
    assert_eq!(
        index.list_directory(DimId(0)).unwrap().first_page,
        freed.first_page,
        "freed run must be recycled deterministically"
    );
    assert_matches_fresh_build(&index, &dataset);
}

#[test]
fn snapshot_saved_mid_churn_reopens_as_the_mutated_state() {
    let mut dataset = Dataset::running_example();
    let index = TopKIndex::build_in_memory(&dataset).unwrap();
    let updates = vec![
        TupleUpdate::Delete { tuple: TupleId(3) },
        TupleUpdate::Insert {
            vector: vector(&[(0, 0.66), (1, 0.44)]),
        },
        TupleUpdate::UpdateScore {
            tuple: TupleId(0),
            dim: DimId(0),
            value: 0.11,
        },
    ];
    index.apply_updates(&updates).unwrap();
    for update in &updates {
        dataset.apply_update(update).unwrap();
    }

    let dir = tempfile::tempdir().unwrap();
    index.save_snapshot(dir.path()).unwrap();
    let reopened = IndexBuilder::new()
        .backend(StorageBackend::Memory)
        .open_snapshot(dir.path())
        .unwrap();
    assert_matches_fresh_build(&reopened, &dataset);

    // And the reopened index keeps accepting updates.
    let more = vec![TupleUpdate::UpdateScore {
        tuple: TupleId(4),
        dim: DimId(1),
        value: 0.77,
    }];
    reopened.apply_updates(&more).unwrap();
    dataset.apply_update(&more[0]).unwrap();
    assert_matches_fresh_build(&reopened, &dataset);
}

#[test]
fn file_backend_applies_updates_in_place() {
    let dir = tempfile::tempdir().unwrap();
    let mut dataset = Dataset::running_example();
    let index = IndexBuilder::new()
        .backend(StorageBackend::Disk(dir.path().to_path_buf()))
        .build(&dataset)
        .unwrap();
    let updates = vec![
        TupleUpdate::Insert {
            vector: vector(&[(0, 0.33)]),
        },
        TupleUpdate::UpdateScore {
            tuple: TupleId(1),
            dim: DimId(1),
            value: 0.0,
        },
    ];
    index.apply_updates(&updates).unwrap();
    for update in &updates {
        dataset.apply_update(update).unwrap();
    }
    assert_matches_fresh_build(&index, &dataset);
}

#[test]
fn fetches_concurrent_with_maintenance_never_read_a_torn_record() {
    // Records of ~24 coordinates (~290 bytes): about one in fourteen
    // straddles a page boundary.
    let dims = 48u32;
    let mut builder = DatasetBuilder::new(dims);
    let mut rng = SeededLcg::mixed(0x70_12E);
    for _ in 0..400 {
        let mut pairs: Vec<(u32, f64)> = Vec::new();
        for d in 0..dims {
            if rng.next_below(2) == 0 {
                pairs.push((d, (rng.next_below(999) + 1) as f64 / 1000.0));
            }
        }
        builder.push_pairs(pairs).unwrap();
    }
    let dataset = builder.build();
    let config = UpdateConfig {
        num_updates: 960,
        churn: 0.2,
        zipf_exponent: 1.1,
        remove_fraction: 0.05,
    };
    let stream = UpdateStream::generate(&dataset, &config, 0x5EED).unwrap();
    // A steep Zipf head rewrites the hottest tuples several times inside
    // one batch, so a state between two updates of a batch is observable
    // if the batch is not atomic for readers.
    let batches: Vec<&[TupleUpdate]> = stream.batches(16).collect();

    // Every batch-boundary state of the dataset: a fetch may see any one
    // of them, never a state inside a batch or a mix of two.
    let mut states = vec![dataset.clone()];
    for batch in &batches {
        let next = states.last().unwrap().with_updates(batch).unwrap();
        states.push(next);
    }

    // The tuples the stream touches, with their record byte ranges in the
    // built layout (records are laid out back to back in id order).
    let touched: BTreeSet<TupleId> = stream
        .iter()
        .filter_map(|u| match u {
            TupleUpdate::Delete { tuple } | TupleUpdate::UpdateScore { tuple, .. } => Some(*tuple),
            TupleUpdate::Insert { .. } => None,
        })
        .collect();
    let mut offsets = vec![0usize];
    for (_, tuple) in dataset.iter() {
        offsets.push(offsets.last().unwrap() + tuple.nnz() * 12);
    }
    let spans_pages =
        |id: TupleId| offsets[id.index()] / PAGE_SIZE != (offsets[id.index() + 1] - 1) / PAGE_SIZE;
    // The reader must cover a record that straddles a page boundary and
    // is rewritten in place (same length) while it still sits there.
    let mut replay = dataset.clone();
    let mut straddling_in_place = 0;
    for update in stream.iter() {
        if let TupleUpdate::UpdateScore { tuple, dim, value } = update {
            let built = tuple.index() < dataset.cardinality();
            if built
                && spans_pages(*tuple)
                && replay.tuple(*tuple).unwrap().nnz() == dataset.tuple(*tuple).unwrap().nnz()
                && *value > 0.0
                && replay.coordinate(*tuple, *dim) > 0.0
            {
                straddling_in_place += 1;
            }
        }
        replay.apply_update(update).unwrap();
    }
    assert!(
        straddling_in_place > 0,
        "the stream must rewrite a page-straddling record in place"
    );

    // A small pool, so the reader also misses and evicts while the writer
    // refreshes cached pages.
    let index = IndexBuilder::new()
        .pool_capacity(8)
        .build(&dataset)
        .unwrap();
    let writer_done = AtomicBool::new(false);
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            start.wait();
            loop {
                // Acquire pairs with the writer's Release store: the pass
                // that sees `true` starts after the last batch returned.
                let last_pass = writer_done.load(Ordering::Acquire);
                for &id in &touched {
                    match index.fetch_tuple(id) {
                        Ok(vector) => assert!(
                            states.iter().any(|s| s.tuple(id).ok() == Some(&vector)),
                            "tuple {id:?} read back {vector:?}, which no batch boundary holds"
                        ),
                        // An inserted tuple the writer has not reached yet.
                        Err(IrError::UnknownTuple { .. }) => {
                            assert!(id.index() >= dataset.cardinality())
                        }
                        Err(e) => panic!("fetch of {id:?} failed: {e}"),
                    }
                }
                if last_pass {
                    return;
                }
            }
        });
        start.wait();
        for batch in &batches {
            index.apply_updates(batch).unwrap();
        }
        writer_done.store(true, Ordering::Release);
        reader.join().unwrap();
    });
    // Nothing went missing: the final state is the fully mutated dataset.
    assert_matches_fresh_build(&index, states.last().unwrap());
}
