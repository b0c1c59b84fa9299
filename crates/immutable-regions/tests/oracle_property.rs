//! Property-based tests: on arbitrary datasets and queries, the computed
//! immutable regions must actually be immutable (the result is unchanged at
//! sampled deviations inside the region) and maximal (the result changes
//! just outside a non-degenerate boundary).

use immutable_regions::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy for a small dataset: a list of sparse tuples over `dims`
/// dimensions, each with at least one non-zero coordinate.
fn dataset_strategy(dims: u32, max_tuples: usize) -> impl Strategy<Value = Dataset> {
    let tuple = proptest::collection::btree_map(0..dims, 0.01f64..1.0, 1..=dims as usize);
    proptest::collection::vec(tuple, 5..max_tuples).prop_map(move |tuples| {
        let mut builder = DatasetBuilder::new(dims);
        for t in tuples {
            builder.push_pairs(t).unwrap();
        }
        builder.build()
    })
}

fn query_strategy(dims: u32) -> impl Strategy<Value = QueryVector> {
    (
        proptest::collection::btree_map(0..dims, 0.2f64..=1.0, 2..=3),
        1usize..4,
    )
        .prop_map(|(weights, k)| QueryVector::new(weights, k).unwrap())
}

fn topk_by_scan(dataset: &Dataset, query: &QueryVector, dim: DimId, delta: f64) -> Vec<TupleId> {
    use ir_types::{score_cmp, RankedTuple};
    let mut ranked: Vec<RankedTuple> = dataset
        .iter()
        .map(|(id, t)| RankedTuple::new(id, query.score(t) + delta * t.get(dim)))
        .collect();
    ranked.sort_by(score_cmp);
    ranked.into_iter().take(query.k()).map(|r| r.id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0xB00C_0002))]

    /// Inside the reported immutable region the ordered top-k never changes.
    #[test]
    fn regions_are_immutable_inside(
        dataset in dataset_strategy(5, 40),
        query in query_strategy(5),
    ) {
        let index = Arc::new(TopKIndex::build_in_memory(&dataset).unwrap());
        let mut computation =
            RegionComputation::new(index.clone(), &query, RegionConfig::flat(Algorithm::Cpt)).unwrap();
        let report = computation.compute().unwrap();
        let baseline = computation.result().ids();

        for dim_regions in &report.dims {
            let dim = dim_regions.dim;
            let (lo, hi) = (dim_regions.immutable.lo, dim_regions.immutable.hi);
            // Sample a few interior points (strictly inside to avoid the
            // boundary itself, where the perturbation happens).
            for frac in [0.05, 0.35, 0.65, 0.95] {
                let delta = lo + (hi - lo) * frac;
                if delta <= lo + 1e-12 || delta >= hi - 1e-12 {
                    continue;
                }
                let result = topk_by_scan(&dataset, &query, dim, delta);
                prop_assert_eq!(
                    &result, &baseline,
                    "result changed inside IR of {:?} at delta {}", dim, delta
                );
            }
        }
    }

    /// Just outside a boundary that is not the domain edge the result does
    /// change (maximality of the region).
    #[test]
    fn regions_are_maximal_outside(
        dataset in dataset_strategy(4, 30),
        query in query_strategy(4),
    ) {
        let index = Arc::new(TopKIndex::build_in_memory(&dataset).unwrap());
        let mut computation =
            RegionComputation::new(index.clone(), &query, RegionConfig::flat(Algorithm::Scan)).unwrap();
        let report = computation.compute().unwrap();
        let baseline = computation.result().ids();

        for dim_regions in &report.dims {
            let dim = dim_regions.dim;
            let weight = dim_regions.weight;
            let eps = 1e-7;
            if dim_regions.upper_boundary.is_some()
                && dim_regions.immutable.hi + eps < 1.0 - weight
            {
                let outside = topk_by_scan(&dataset, &query, dim, dim_regions.immutable.hi + eps);
                prop_assert_ne!(
                    &outside, &baseline,
                    "no perturbation just past the upper bound of {:?}", dim
                );
            }
            if dim_regions.lower_boundary.is_some() && dim_regions.immutable.lo - eps > -weight {
                let outside = topk_by_scan(&dataset, &query, dim, dim_regions.immutable.lo - eps);
                prop_assert_ne!(
                    &outside, &baseline,
                    "no perturbation just below the lower bound of {:?}", dim
                );
            }
        }
    }

    /// All four algorithms report identical regions on arbitrary inputs.
    #[test]
    fn algorithms_agree_on_arbitrary_inputs(
        dataset in dataset_strategy(4, 30),
        query in query_strategy(4),
    ) {
        let index = Arc::new(TopKIndex::build_in_memory(&dataset).unwrap());
        let mut reports = Vec::new();
        for algorithm in Algorithm::ALL {
            let mut computation =
                RegionComputation::new(index.clone(), &query, RegionConfig::flat(algorithm)).unwrap();
            reports.push(computation.compute().unwrap());
        }
        for report in &reports[1..] {
            for (a, b) in reports[0].dims.iter().zip(&report.dims) {
                prop_assert!(a.immutable.approx_eq(&b.immutable, 1e-9));
            }
        }
    }
}
