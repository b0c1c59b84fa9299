//! Iterative re-evaluation: the straightforward alternative to the one-off
//! `φ > 0` computation (the dashed lines of Figure 15).
//!
//! Instead of computing all `φ` regions per direction in a single pass, the
//! iterative approach repeatedly (i) computes a single immutable region,
//! (ii) conceptually moves the weight just past the region boundary, and
//! (iii) re-runs the whole machinery — including TA — on the shifted query.
//! It produces the same regions but repeats a large amount of work, which is
//! exactly the inefficiency Section 6 is designed to avoid.

use crate::compute::RegionComputation;
use crate::config::{Algorithm, RegionConfig};
use crate::metrics::ComputationStats;
use crate::region::WeightRegion;
use ir_storage::TopKIndex;
use ir_types::{DimId, IrResult, QueryVector};
use std::sync::Arc;

/// How far past a region boundary the weight is nudged before re-evaluating.
const BOUNDARY_NUDGE: f64 = 1e-9;

/// The outcome of an iterative multi-region computation for one dimension.
#[derive(Clone, Debug)]
pub struct IterativeDimRegions {
    /// The dimension.
    pub dim: DimId,
    /// All regions found (up to `2φ + 1`), sorted by deviation relative to
    /// the *original* weight.
    pub regions: Vec<WeightRegion>,
    /// Index of the region containing deviation zero.
    pub current_region: usize,
}

/// Result of [`compute_iterative`]: per-dimension regions plus the total cost
/// of all the repeated single-region computations.
#[derive(Clone, Debug)]
pub struct IterativeReport {
    /// Per-dimension regions.
    pub dims: Vec<IterativeDimRegions>,
    /// Aggregated cost over every repetition (including the repeated TA
    /// runs, whose I/O is folded into `io`).
    pub stats: ComputationStats,
}

/// Computes up to `phi` regions on each side of the current weight for every
/// query dimension by iterative re-evaluation with single-region requests.
pub fn compute_iterative(
    index: &Arc<TopKIndex>,
    query: &QueryVector,
    algorithm: Algorithm,
    phi: usize,
) -> IrResult<IterativeReport> {
    let flat = RegionConfig::flat(algorithm);
    let mut total = ComputationStats::default();
    let mut dims_out = Vec::new();

    // The first pass over the original query serves every dimension.
    let mut base = RegionComputation::new(Arc::clone(index), query, flat)?;
    let base_report = base.compute()?;
    accumulate(&mut total, &base_report.stats, true);

    for dim_regions in &base_report.dims {
        let dim = dim_regions.dim;
        let mut regions: Vec<WeightRegion> = vec![WeightRegion {
            delta_lo: dim_regions.immutable.lo,
            delta_hi: dim_regions.immutable.hi,
            result: dim_regions.current_result().to_vec(),
        }];

        // Walk to the right: re-evaluate with the weight moved just past the
        // previous upper bound, φ times (or until the domain edge).
        let mut shift = dim_regions.immutable.hi;
        for _ in 0..phi {
            if shift >= 1.0 - dim_regions.weight - BOUNDARY_NUDGE {
                break;
            }
            let shifted = query.with_weight_shift(dim, shift + BOUNDARY_NUDGE)?;
            let mut rc = RegionComputation::new(Arc::clone(index), &shifted, flat)?;
            let report = rc.compute()?;
            accumulate(&mut total, &report.stats, true);
            let Some(d) = report.for_dim(dim) else { break };
            let lo = shift;
            let hi = shift + BOUNDARY_NUDGE + d.immutable.hi;
            regions.push(WeightRegion {
                delta_lo: lo,
                delta_hi: hi,
                result: d.current_result().to_vec(),
            });
            shift = hi;
        }

        // Walk to the left symmetrically.
        let mut shift = dim_regions.immutable.lo;
        let mut left_regions = Vec::new();
        for _ in 0..phi {
            if shift <= -dim_regions.weight + BOUNDARY_NUDGE {
                break;
            }
            let shifted = query.with_weight_shift(dim, shift - BOUNDARY_NUDGE)?;
            let mut rc = RegionComputation::new(Arc::clone(index), &shifted, flat)?;
            let report = rc.compute()?;
            accumulate(&mut total, &report.stats, true);
            let Some(d) = report.for_dim(dim) else { break };
            let hi = shift;
            let lo = shift - BOUNDARY_NUDGE + d.immutable.lo;
            left_regions.push(WeightRegion {
                delta_lo: lo,
                delta_hi: hi,
                result: d.current_result().to_vec(),
            });
            shift = lo;
        }

        left_regions.reverse();
        let current_region = left_regions.len();
        let mut all = left_regions;
        all.extend(regions);
        dims_out.push(IterativeDimRegions {
            dim,
            regions: all,
            current_region,
        });
    }

    Ok(IterativeReport {
        dims: dims_out,
        stats: total,
    })
}

fn accumulate(total: &mut ComputationStats, stats: &ComputationStats, include_topk: bool) {
    total.merge(stats);
    if include_topk {
        // The repeated TA runs are genuine extra work of the iterative
        // approach, so their I/O counts toward the total.
        total.io = total.io.plus(&stats.topk_io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::{Dataset, TupleId};

    #[test]
    fn iterative_regions_match_one_off_on_running_example() {
        let dataset = Dataset::running_example();
        let index = Arc::new(TopKIndex::build_in_memory(&dataset).unwrap());
        let query = QueryVector::running_example();

        let iterative = compute_iterative(&index, &query, Algorithm::Cpt, 1).unwrap();
        let dim0 = &iterative.dims[0];
        assert_eq!(dim0.dim, DimId(0));
        // Three regions: left, current, right — matching Section 1.
        assert_eq!(dim0.regions.len(), 3);
        let current = &dim0.regions[dim0.current_region];
        assert!((current.delta_lo + 16.0 / 35.0).abs() < 1e-6);
        assert!((current.delta_hi - 0.1).abs() < 1e-6);
        let right = &dim0.regions[dim0.current_region + 1];
        assert_eq!(right.result, vec![TupleId(0), TupleId(1)]);
        assert!((right.delta_hi - 0.2).abs() < 1e-6);
        let left = &dim0.regions[dim0.current_region - 1];
        assert_eq!(left.result, vec![TupleId(1), TupleId(2)]);
        assert!((left.delta_lo + 0.55).abs() < 1e-6);
    }

    #[test]
    fn iterative_cost_grows_with_phi() {
        let dataset = Dataset::running_example();
        let index = Arc::new(TopKIndex::build_in_memory(&dataset).unwrap());
        let query = QueryVector::running_example();
        index.cold_start();
        let phi1 = compute_iterative(&index, &query, Algorithm::Prune, 1).unwrap();
        index.cold_start();
        let phi3 = compute_iterative(&index, &query, Algorithm::Prune, 3).unwrap();
        assert!(
            phi3.stats.evaluated_candidates >= phi1.stats.evaluated_candidates,
            "more regions cannot require fewer evaluations"
        );
    }
}
