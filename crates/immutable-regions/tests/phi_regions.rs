//! `φ > 0`: the one-off region sequences must match the exhaustive oracle
//! and the iterative re-evaluation baseline, for every algorithm.

use immutable_regions::prelude::*;
use ir_core::config::PerturbationMode;
use ir_core::iterative::compute_iterative;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn random_dataset(rng: &mut ChaCha8Rng, n: usize, dims: u32) -> Dataset {
    let mut builder = DatasetBuilder::new(dims);
    for _ in 0..n {
        let nnz = rng.gen_range(1..=dims);
        let mut chosen: Vec<u32> = (0..dims).collect();
        for i in (1..chosen.len()).rev() {
            chosen.swap(i, rng.gen_range(0..=i));
        }
        chosen.truncate(nnz as usize);
        let pairs: Vec<(u32, f64)> = chosen
            .into_iter()
            .map(|d| (d, rng.gen_range(0.02..1.0)))
            .collect();
        builder.push_pairs(pairs).unwrap();
    }
    builder.build()
}

#[test]
fn phi_regions_match_the_oracle_for_every_algorithm() {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    for trial in 0..8 {
        let dims = rng.gen_range(3..6);
        let cardinality = rng.gen_range(25..70);
        let dataset = random_dataset(&mut rng, cardinality, dims);
        let index = Arc::new(TopKIndex::build_in_memory(&dataset).unwrap());
        let k = rng.gen_range(2..5);
        let qlen = 2usize;
        let mut chosen = Vec::new();
        while chosen.len() < qlen {
            let d = rng.gen_range(0..dims);
            if !chosen.contains(&d) {
                chosen.push(d);
            }
        }
        let query =
            QueryVector::new(chosen.iter().map(|&d| (d, rng.gen_range(0.3..=1.0))), k).unwrap();
        let phi = rng.gen_range(1..4usize);
        let oracle = ExhaustiveOracle::new(&dataset, query.clone());

        for algorithm in Algorithm::ALL {
            let mut computation = RegionComputation::new(
                index.clone(),
                &query,
                RegionConfig::with_phi(algorithm, phi),
            )
            .unwrap();
            let report = computation.compute().unwrap();
            for dim_regions in &report.dims {
                let expected =
                    oracle.regions(dim_regions.dim, phi, PerturbationMode::WithReorderings);
                // The immutable region must match exactly.
                assert!(
                    dim_regions.immutable.approx_eq(&expected.immutable, 1e-9),
                    "trial {trial} {} φ={phi} dim {}: {:?} vs oracle {:?}",
                    algorithm.name(),
                    dim_regions.dim,
                    dim_regions.immutable,
                    expected.immutable
                );
                // Every region we report must agree with the oracle's region
                // at its midpoint (same boundaries and same ordered result).
                for region in &dim_regions.regions {
                    if region.delta_hi - region.delta_lo < 1e-9 {
                        continue;
                    }
                    let mid = 0.5 * (region.delta_lo + region.delta_hi);
                    let expected_result = oracle.topk_at(dim_regions.dim, mid);
                    assert_eq!(
                        region.result,
                        expected_result,
                        "trial {trial} {} φ={phi} dim {} region around {mid}",
                        algorithm.name(),
                        dim_regions.dim
                    );
                }
            }
        }
    }
}

#[test]
fn one_off_and_iterative_processing_agree() {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    for _ in 0..4 {
        let dims = 4;
        let dataset = random_dataset(&mut rng, 40, dims);
        let index = Arc::new(TopKIndex::build_in_memory(&dataset).unwrap());
        let query = QueryVector::new([(0, 0.7), (2, 0.5)], 3).unwrap();
        let phi = 2;

        let mut one_off = RegionComputation::new(
            index.clone(),
            &query,
            RegionConfig::with_phi(Algorithm::Cpt, phi),
        )
        .unwrap();
        let one_off_report = one_off.compute().unwrap();
        let iterative = compute_iterative(&index, &query, Algorithm::Cpt, phi).unwrap();

        for (a, b) in one_off_report.dims.iter().zip(&iterative.dims) {
            assert_eq!(a.dim, b.dim);
            // Compare the region boundaries (the iterative walk nudges by
            // 1e-9 per step, so allow a slightly looser tolerance).
            assert_eq!(a.regions.len(), b.regions.len(), "dim {:?}", a.dim);
            for (ra, rb) in a.regions.iter().zip(&b.regions) {
                assert!(
                    (ra.delta_lo - rb.delta_lo).abs() < 1e-6,
                    "dim {:?}: {} vs {}",
                    a.dim,
                    ra.delta_lo,
                    rb.delta_lo
                );
                assert!((ra.delta_hi - rb.delta_hi).abs() < 1e-6);
                assert_eq!(ra.result, rb.result);
            }
        }
    }
}

#[test]
fn phi_zero_and_flat_solver_agree() {
    // A φ = 1 computation restricted to its central region must equal the
    // φ = 0 computation (they use different solvers internally).
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let dataset = random_dataset(&mut rng, 80, 5);
    let index = Arc::new(TopKIndex::build_in_memory(&dataset).unwrap());
    let query = QueryVector::new([(0, 0.6), (1, 0.8), (3, 0.4)], 4).unwrap();
    for algorithm in Algorithm::ALL {
        let mut flat =
            RegionComputation::new(index.clone(), &query, RegionConfig::flat(algorithm)).unwrap();
        let flat_report = flat.compute().unwrap();
        let mut phi =
            RegionComputation::new(index.clone(), &query, RegionConfig::with_phi(algorithm, 1))
                .unwrap();
        let phi_report = phi.compute().unwrap();
        for (a, b) in flat_report.dims.iter().zip(&phi_report.dims) {
            assert!(
                a.immutable.approx_eq(&b.immutable, 1e-9),
                "{}: φ=0 {:?} vs φ=1 central {:?}",
                algorithm.name(),
                a.immutable,
                b.immutable
            );
        }
    }
}
