//! Cluster oracle suite: the merged output of a sharded run must be
//! byte-identical to the single-engine result — at every shard count,
//! partition mode, serving backend, seeded reorder/drop schedule and
//! mid-batch churn plan — with conserved message counters and zero panics.
//!
//! Oracles, per partition mode:
//!
//! * `ByQuery` — every node runs the plain sequential solve, so the report
//!   equals [`IrEngine::query`]'s: regions *and* deterministic stats.
//! * `ByDim` — dimensions are solved from a frozen TA snapshot, the same
//!   primitive `compute_parallel` uses; regions equal the sequential
//!   oracle's and stats equal `compute_parallel(1)`'s (proved
//!   thread-count-invariant by the `parallel_agreement` suite).
//!
//! Seeded like the other property suites so failures reproduce exactly.

use immutable_regions::engine::IrEngine;
use immutable_regions::prelude::*;
use ir_cluster::{
    ChurnPlan, ClusterError, ClusterOutcome, ClusterRunStats, NetworkConfig, PartitionMode,
    ShardTraffic, ShardedEngine,
};
use ir_storage::BackendKind;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A small random dataset with mixed sparsity, same idiom as the
/// `immutable-regions` agreement suites.
fn random_dataset(rng: &mut ChaCha8Rng, n: usize, dims: u32) -> Dataset {
    let mut builder = DatasetBuilder::new(dims);
    for _ in 0..n {
        let style: f64 = rng.gen();
        let pairs: Vec<(u32, f64)> = if style < 0.4 {
            vec![(rng.gen_range(0..dims), rng.gen_range(0.05..1.0))]
        } else if style < 0.7 {
            let a = rng.gen_range(0..dims);
            let mut b = rng.gen_range(0..dims);
            while b == a {
                b = rng.gen_range(0..dims);
            }
            vec![(a, rng.gen_range(0.05..1.0)), (b, rng.gen_range(0.05..1.0))]
        } else {
            (0..dims).map(|d| (d, rng.gen_range(0.01..1.0))).collect()
        };
        builder.push_pairs(pairs).unwrap();
    }
    builder.build()
}

fn random_batch(rng: &mut ChaCha8Rng, dims: u32, queries: usize) -> Vec<QueryVector> {
    (0..queries)
        .map(|_| {
            let qlen = rng.gen_range(2..=dims.min(4)) as usize;
            let k = rng.gen_range(1..6);
            let mut chosen = Vec::new();
            while chosen.len() < qlen {
                let d = rng.gen_range(0..dims);
                if !chosen.contains(&d) {
                    chosen.push(d);
                }
            }
            QueryVector::new(chosen.into_iter().map(|d| (d, rng.gen_range(0.2..=1.0))), k).unwrap()
        })
        .collect()
}

/// The backends a shard node can serve a snapshot through in this build.
fn serving_backends() -> Vec<BackendKind> {
    let mut kinds = vec![BackendKind::Mem, BackendKind::File];
    if cfg!(feature = "mmap") {
        kinds.push(BackendKind::Mmap);
    }
    kinds
}

/// Sequential oracle (for regions) and `compute_parallel(1)` oracle (for
/// `ByDim` merged stats), from one in-memory engine.
fn oracles(
    dataset: &Dataset,
    queries: &[QueryVector],
    config: RegionConfig,
) -> (Vec<RegionReport>, Vec<RegionReport>) {
    let engine = IrEngine::builder()
        .dataset_ref(dataset)
        .config(config)
        .build()
        .unwrap();
    let sequential: Vec<RegionReport> = queries.iter().map(|q| engine.query(q).unwrap()).collect();
    let parallel: Vec<RegionReport> = queries
        .iter()
        .map(|q| engine.computation(q).unwrap().compute_parallel(1).unwrap())
        .collect();
    (sequential, parallel)
}

/// Asserts one cluster outcome against the oracles and verifies every
/// conservation law. `context` names the configuration under test.
fn assert_matches_oracle(
    outcome: &ClusterOutcome,
    sequential: &[RegionReport],
    parallel: &[RegionReport],
    partition: PartitionMode,
    context: &str,
) {
    assert_eq!(outcome.reports.len(), sequential.len(), "{context}");
    for (qi, actual) in outcome.reports.iter().enumerate() {
        let regions_oracle = &sequential[qi];
        assert_eq!(
            actual.dims, regions_oracle.dims,
            "{context} query={qi}: merged regions must be byte-identical to the oracle"
        );
        // Deterministic stats: ByQuery reports are the sequential solve's;
        // ByDim merged stats reproduce compute_parallel(1)'s.
        let stats_oracle = match partition {
            PartitionMode::ByQuery => &sequential[qi].stats,
            PartitionMode::ByDim => &parallel[qi].stats,
        };
        assert_eq!(
            actual.stats.evaluated_per_dim, stats_oracle.evaluated_per_dim,
            "{context} query={qi}: per-dimension evaluation counts diverge"
        );
        assert_eq!(
            actual.stats.evaluated_candidates, stats_oracle.evaluated_candidates,
            "{context} query={qi}"
        );
        assert_eq!(
            actual.stats.initial_candidates, stats_oracle.initial_candidates,
            "{context} query={qi}: TA candidate lists diverge"
        );
        assert_eq!(
            actual.stats.phase3_tuples, stats_oracle.phase3_tuples,
            "{context} query={qi}"
        );
        assert_eq!(
            actual.stats.kinetic_sweeps, stats_oracle.kinetic_sweeps,
            "{context} query={qi}"
        );
        assert_eq!(
            actual.stats.io.logical_reads, stats_oracle.io.logical_reads,
            "{context} query={qi}: logical solve reads diverge"
        );
        assert_eq!(
            actual.stats.topk_io.logical_reads, stats_oracle.topk_io.logical_reads,
            "{context} query={qi}: logical top-k reads diverge"
        );
    }
    let stats = &outcome.stats;
    assert!(
        stats.messages.conserved(0),
        "{context}: unconserved messages {:?}",
        stats.messages
    );
    assert!(
        stats.conservation_violation().is_none(),
        "{context}: {}",
        stats.conservation_violation().unwrap()
    );
}

/// Core requirement: shard counts {1, 2, 4, 8} × both partition modes ×
/// every serving backend, over a reordering network, all merge to the
/// oracle's bytes.
#[test]
fn sharded_engines_agree_with_single_engine_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC1_05_7E);
    for partition in [PartitionMode::ByDim, PartitionMode::ByQuery] {
        let dims = rng.gen_range(4..7);
        let n = rng.gen_range(50..110);
        let dataset = random_dataset(&mut rng, n, dims);
        let queries = random_batch(&mut rng, dims, 4);
        let config = RegionConfig::default();
        let (sequential, parallel) = oracles(&dataset, &queries, config);

        for shards in [1u32, 2, 4, 8] {
            for backend in serving_backends() {
                let context = format!("partition={partition} shards={shards} backend={backend}");
                let mut cluster = ShardedEngine::builder()
                    .dataset(dataset.clone())
                    .shards(shards)
                    .partition(partition)
                    .backend_kind(backend)
                    .config(config)
                    .network(NetworkConfig::reordering(0xBEEF ^ shards as u64, 5))
                    .build()
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                let outcome = cluster
                    .run(&queries)
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                assert_matches_oracle(&outcome, &sequential, &parallel, partition, &context);
                assert_eq!(
                    outcome.stats.per_shard.len(),
                    shards as usize,
                    "{context}: every shard reports traffic"
                );
                let answered: u64 = outcome.stats.units;
                let expected_units: u64 = match partition {
                    PartitionMode::ByQuery => queries.len() as u64,
                    PartitionMode::ByDim => queries.iter().map(|q| q.qlen() as u64).sum(),
                };
                assert_eq!(answered, expected_units, "{context}");
            }
        }
    }
}

/// Delivery order must be invisible: sweeping reorder windows and drop
/// rates (which force retry rounds) never changes a byte of the output.
#[test]
fn reorder_and_drop_schedules_do_not_change_output() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0D15_EA5E);
    let dims = 5;
    let dataset = random_dataset(&mut rng, 80, dims);
    let queries = random_batch(&mut rng, dims, 3);
    let config = RegionConfig::default();
    let (sequential, parallel) = oracles(&dataset, &queries, config);

    let mut saw_drops = false;
    let mut saw_retries = false;
    for partition in [PartitionMode::ByDim, PartitionMode::ByQuery] {
        for (seed, window, drop_percent) in [
            (1u64, 0u64, 0u8),
            (2, 3, 0),
            (3, 9, 0),
            (4, 5, 25),
            (5, 9, 60),
        ] {
            let context =
                format!("partition={partition} seed={seed} window={window} drop={drop_percent}%");
            let mut cluster = ShardedEngine::builder()
                .dataset(dataset.clone())
                .shards(4)
                .partition(partition)
                .config(config)
                .network(NetworkConfig::lossy(seed, window, drop_percent))
                .build()
                .unwrap();
            let outcome = cluster
                .run(&queries)
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            assert_matches_oracle(&outcome, &sequential, &parallel, partition, &context);
            saw_drops |= outcome.stats.messages.dropped > 0;
            saw_retries |= outcome.stats.retry_rounds > 0;
        }
    }
    assert!(saw_drops, "a 60% lottery must actually drop messages");
    assert!(saw_retries, "dropped requests must force retry rounds");
}

/// Equal seeds replay equal runs: reports, message counters, per-shard
/// traffic — everything.
#[test]
fn equal_seeds_replay_byte_identical_runs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_5EED);
    let dataset = random_dataset(&mut rng, 70, 4);
    let queries = random_batch(&mut rng, 4, 3);
    let run = |dataset: &Dataset| {
        let mut cluster = ShardedEngine::builder()
            .dataset(dataset.clone())
            .shards(4)
            .partition(PartitionMode::ByDim)
            .network(NetworkConfig::lossy(42, 6, 30))
            .build()
            .unwrap();
        cluster.run(&queries).unwrap()
    };
    let a = run(&dataset);
    let b = run(&dataset);
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.dims, rb.dims);
        assert_eq!(ra.stats.evaluated_per_dim, rb.stats.evaluated_per_dim);
    }
    assert_eq!(a.stats.messages, b.stats.messages);
    assert_eq!(a.stats.retry_rounds, b.stats.retry_rounds);
    assert_eq!(a.stats.resent_requests, b.stats.resent_requests);
    assert_eq!(a.stats.per_shard, b.stats.per_shard);
}

/// Mid-batch churn: a shard dies while the batch is in flight, its units
/// are redistributed (to survivors, or to a snapshot-respawned
/// replacement), and the merged output still equals the oracle's bytes.
#[test]
fn churn_mid_batch_redistributes_and_matches_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDEAD_0001);
    let dims = 5;
    let dataset = random_dataset(&mut rng, 90, dims);
    let queries = random_batch(&mut rng, dims, 4);
    let config = RegionConfig::default();
    let (sequential, parallel) = oracles(&dataset, &queries, config);

    let mut saw_redistribution = false;
    for partition in [PartitionMode::ByDim, PartitionMode::ByQuery] {
        for respawn in [false, true] {
            // Fire early (after the map broadcasts deliver, before most
            // solves) so the dead shard still has unanswered units.
            for after in [4u64, 6, 9] {
                let plan = if respawn {
                    ChurnPlan::kill_and_respawn(1, after)
                } else {
                    ChurnPlan::kill(1, after)
                };
                let context = format!("partition={partition} respawn={respawn} after={after}");
                let mut cluster = ShardedEngine::builder()
                    .dataset(dataset.clone())
                    .shards(4)
                    .partition(partition)
                    .config(config)
                    .network(NetworkConfig::reordering(7, 4))
                    .churn(plan)
                    .build()
                    .unwrap();
                let outcome = cluster
                    .run(&queries)
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                assert_matches_oracle(&outcome, &sequential, &parallel, partition, &context);
                let churn = outcome
                    .stats
                    .churn
                    .unwrap_or_else(|| panic!("{context}: the churn plan must fire"));
                assert_eq!(churn.killed_shard, 1, "{context}");
                assert_eq!(churn.respawned, respawn, "{context}");
                saw_redistribution |= churn.redistributed_units > 0;
                // The killed slot retires one traffic entry; a respawned
                // replacement adds a live one for the same slot.
                let slot_entries = outcome
                    .stats
                    .per_shard
                    .iter()
                    .filter(|t| t.shard == 1)
                    .count();
                assert_eq!(slot_entries, if respawn { 2 } else { 1 }, "{context}");
                assert_eq!(
                    cluster.live_shards(),
                    if respawn { 4 } else { 3 },
                    "{context}"
                );
            }
        }
    }
    assert!(
        saw_redistribution,
        "at least one churn schedule must catch unanswered units"
    );
}

/// Churn composed with a lossy, reordering network — the hardest schedule
/// this suite runs — still merges to the oracle's bytes.
#[test]
fn churn_under_drops_and_reordering_matches_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDEAD_0002);
    let dims = 4;
    let dataset = random_dataset(&mut rng, 60, dims);
    let queries = random_batch(&mut rng, dims, 3);
    let config = RegionConfig::default();
    let (sequential, parallel) = oracles(&dataset, &queries, config);

    for seed in [11u64, 12, 13] {
        let context = format!("seed={seed}");
        let mut cluster = ShardedEngine::builder()
            .dataset(dataset.clone())
            .shards(4)
            .partition(PartitionMode::ByDim)
            .config(config)
            .network(NetworkConfig::lossy(seed, 6, 35))
            .churn(ChurnPlan::kill_and_respawn(2, 5))
            .build()
            .unwrap();
        let outcome = cluster
            .run(&queries)
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        assert_matches_oracle(
            &outcome,
            &sequential,
            &parallel,
            PartitionMode::ByDim,
            &context,
        );
        assert!(outcome.stats.churn.is_some(), "{context}");
    }
}

/// Misconfigured clusters fail at build time with typed errors, never
/// panics.
#[test]
fn builder_rejects_invalid_configurations() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBAD_C0F6);
    let dataset = random_dataset(&mut rng, 30, 3);

    let err = ShardedEngine::builder()
        .shards(0)
        .build()
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, ClusterError::Config(_)), "{err}");

    let err = ShardedEngine::builder().build().map(|_| ()).unwrap_err();
    assert!(matches!(err, ClusterError::Config(_)), "no source: {err}");

    let err = ShardedEngine::builder()
        .dataset(dataset.clone())
        .shards(2)
        .churn(ChurnPlan::kill(5, 10))
        .build()
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, ClusterError::Config(_)), "bad kill: {err}");

    let err = ShardedEngine::builder()
        .dataset(dataset)
        .shards(1)
        .churn(ChurnPlan::kill(0, 10))
        .build()
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, ClusterError::Config(_)),
        "no survivors: {err}"
    );
}

/// A cluster can serve a caller-staged snapshot directory directly, and
/// the topology stamp reflects the build.
#[test]
fn external_snapshot_and_topology_stamp() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7090_1061);
    let dataset = random_dataset(&mut rng, 50, 4);
    let queries = random_batch(&mut rng, 4, 2);
    let engine = IrEngine::builder().dataset_ref(&dataset).build().unwrap();
    let dir = tempfile::tempdir().unwrap();
    let snap = dir.path().join("snap");
    engine.save_snapshot(&snap).unwrap();
    let oracle: Vec<RegionReport> = queries.iter().map(|q| engine.query(q).unwrap()).collect();

    let mut cluster = ShardedEngine::builder()
        .snapshot(&snap)
        .shards(2)
        .partition(PartitionMode::ByQuery)
        .network(NetworkConfig::reordering(3, 2))
        .build()
        .unwrap();
    let topology = cluster.topology();
    assert_eq!(topology.shards, 2);
    assert_eq!(topology.partition, PartitionMode::ByQuery);
    assert_eq!(topology.seed, 3);
    assert!(cluster.snapshot_peek().tuple_count > 0);

    let outcome = cluster.run(&queries).unwrap();
    for (actual, expected) in outcome.reports.iter().zip(&oracle) {
        assert_eq!(actual.dims, expected.dims);
    }
    // Every shard reports its traffic, and some shard did the solving.
    let per_shard = &outcome.stats.per_shard;
    assert_eq!(per_shard.len(), 2);
    assert!(per_shard.iter().any(|traffic| traffic.solves > 0));
    for traffic in per_shard {
        assert_eq!(traffic.partials_sent, traffic.solves);
    }
}

#[test]
fn conservation_flags_a_shard_whose_partials_differ_from_its_solves() {
    // The two per-shard counts come from different places (the node's
    // solve counter and the send site), so the law can actually fail.
    let traffic = ShardTraffic {
        shard: 1,
        alive: true,
        solves: 5,
        partials_sent: 4,
        ..ShardTraffic::default()
    };
    let stats = ClusterRunStats {
        per_shard: vec![traffic],
        ..ClusterRunStats::default()
    };
    let violation = stats.conservation_violation().unwrap();
    assert!(
        violation.contains("shard-1 solved 5 units but sent 4 partials"),
        "{violation}"
    );
    let balanced = ClusterRunStats {
        per_shard: vec![ShardTraffic {
            partials_sent: 5,
            ..traffic
        }],
        ..ClusterRunStats::default()
    };
    assert_eq!(balanced.conservation_violation(), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12).with_seed(0xC105_7E57))]

    /// Permutation invariance, property-tested: any delivery order (seeded
    /// reorder window), any shard count in {1, 2, 4, 8}, any drop rate up
    /// to 40% — the merge equals the single-engine oracle.
    #[test]
    fn merge_is_permutation_invariant(
        seed in 0u64..u64::MAX,
        shard_pow in 0u32..4,
        window in 0u64..10,
        drop_percent in 0u8..40,
        by_query in 0u8..2,
    ) {
        let shards = 1u32 << shard_pow;
        let mut rng = ChaCha8Rng::seed_from_u64(0x9E37_79B9 ^ seed);
        let dims = 4;
        let dataset = random_dataset(&mut rng, 40, dims);
        let queries = random_batch(&mut rng, dims, 2);
        let config = RegionConfig::default();
        let partition = if by_query == 1 { PartitionMode::ByQuery } else { PartitionMode::ByDim };
        let (sequential, parallel) = oracles(&dataset, &queries, config);

        let mut cluster = ShardedEngine::builder()
            .dataset(dataset)
            .shards(shards)
            .partition(partition)
            .config(config)
            .network(NetworkConfig::lossy(seed, window, drop_percent))
            .build()
            .unwrap();
        let outcome = cluster.run(&queries).unwrap();
        let context = format!("seed={seed} shards={shards} window={window} drop={drop_percent}");
        assert_matches_oracle(&outcome, &sequential, &parallel, partition, &context);
    }
}
