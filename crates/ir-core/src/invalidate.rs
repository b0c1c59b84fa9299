//! Update-driven region invalidation: deciding, from one logical update,
//! whether a cached [`RegionReport`] is still exact.
//!
//! The kinetic view of Section 4 makes this a line question. Within one
//! [`WeightRegion`](crate::region::WeightRegion) the ordered result is
//! fixed, so the k-th member's score — restricted to deviations of one
//! query dimension `j` — is a single [`ir_geometry::Line`] (intercept: its
//! score at the anchor weights; slope: its coordinate `t_j`). Every region
//! boundary in the report is an *envelope event*: some tuple's line meeting
//! the k-th line. An update to tuple `t` can only flip events that `t`'s
//! own line (old or new) participates in; if both lines stay **strictly
//! below** the k-th line across every reported region — a linear function
//! below at both endpoints is below throughout — then no reported event
//! involves `t`, no new event appears inside the reported span, and a full
//! recompute on the mutated dataset reproduces the report verbatim.
//!
//! The test is deliberately one-sided: [`UpdateImpact::Survived`] is a
//! proof, [`UpdateImpact::Punctured`] merely a refusal to prove (boundary
//! ties within [`PUNCTURE_EPS`] are treated as punctures). Callers
//! recompute on puncture, so a conservative answer costs work, never
//! correctness — the contract the `dynamic_oracle` suite checks by full
//! recomputation after every batch.

use crate::region::RegionReport;
use ir_geometry::Line;
use ir_types::{IrResult, QueryVector, SparseVector, TupleId};
use std::collections::HashMap;

/// Slack under which a tuple's line is considered to touch the k-th line —
/// touching at a region endpoint is exactly an envelope event, so it
/// punctures.
pub const PUNCTURE_EPS: f64 = 1e-9;

/// Whether a cached region report survived one update exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateImpact {
    /// The report is provably identical to a recompute on the mutated data.
    Survived,
    /// The update may flip a reported envelope event — recompute.
    Punctured,
}

impl UpdateImpact {
    /// `true` for [`UpdateImpact::Survived`].
    pub fn survived(self) -> bool {
        matches!(self, UpdateImpact::Survived)
    }
}

/// Decides whether the report anchored at `anchor` survives the update that
/// took `tuple` from `old_vector` to `new_vector` (an insert arrives with
/// an empty old vector, a delete with an empty new one).
///
/// `fetch` resolves the full vector of a result member (the k-th member of
/// each region, needed to build its line); it is only called when the
/// cheap structural checks cannot already decide, and each member is
/// fetched at most once. When a whole batch is screened, feed the updates
/// through in order and stop at the first puncture — once any update in
/// the batch touches a result member the report is punctured before any
/// fetch could observe that member's mutated vector, so the lines built
/// here are always the report-time ones.
pub fn update_impact(
    anchor: &QueryVector,
    report: &RegionReport,
    tuple: TupleId,
    old_vector: &SparseVector,
    new_vector: &SparseVector,
    mut fetch: impl FnMut(TupleId) -> IrResult<SparseVector>,
) -> IrResult<UpdateImpact> {
    // A result member's score feeds every region stack directly: any change
    // to it (even on a non-query dimension: its stored vector is part of
    // the answer a recompute would re-derive) is a puncture.
    for dim_regions in &report.dims {
        for region in &dim_regions.regions {
            if region.result.contains(&tuple) {
                return Ok(UpdateImpact::Punctured);
            }
        }
    }

    // Scores see only the query dimensions. A non-member whose coordinates
    // are unchanged on every query dimension has the exact same line in
    // every dimension's arrangement: nothing can flip.
    let unchanged_on_query_dims = anchor
        .dims()
        .all(|(dim, _)| old_vector.get(dim) == new_vector.get(dim));
    if unchanged_on_query_dims {
        return Ok(UpdateImpact::Survived);
    }

    let old_score = anchor.score(old_vector);
    let new_score = anchor.score(new_vector);
    let mut members: HashMap<TupleId, (f64, SparseVector)> = HashMap::new();
    for dim_regions in &report.dims {
        for region in &dim_regions.regions {
            let Some(&kth) = region.result.last() else {
                // A region with an empty result never certifies anything.
                return Ok(UpdateImpact::Punctured);
            };
            let (kth_score, kth_vector) = match members.get(&kth) {
                Some(entry) => entry,
                None => {
                    let vector = fetch(kth)?;
                    members
                        .entry(kth)
                        .or_insert((anchor.score(&vector), vector))
                }
            };
            let kth_line = Line::new(kth.0 as u64, *kth_score, kth_vector.get(dim_regions.dim));
            for (score, vector) in [(old_score, old_vector), (new_score, new_vector)] {
                let line = Line::new(tuple.0 as u64, score, vector.get(dim_regions.dim));
                for x in [region.delta_lo, region.delta_hi] {
                    if line.eval(x) >= kth_line.eval(x) - PUNCTURE_EPS {
                        return Ok(UpdateImpact::Punctured);
                    }
                }
            }
        }
    }
    Ok(UpdateImpact::Survived)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::RegionComputation;
    use crate::config::RegionConfig;
    use ir_storage::TopKIndex;
    use ir_types::Dataset;
    use std::sync::Arc;

    fn running_report() -> (QueryVector, RegionReport, Arc<TopKIndex>) {
        let dataset = Dataset::running_example();
        let index = Arc::new(TopKIndex::build_in_memory(&dataset).unwrap());
        let query = QueryVector::running_example();
        let report = RegionComputation::new(index.clone(), &query, RegionConfig::default())
            .unwrap()
            .compute()
            .unwrap();
        (query, report, index)
    }

    fn impact(
        query: &QueryVector,
        report: &RegionReport,
        index: &TopKIndex,
        tuple: TupleId,
        old: &SparseVector,
        new: &SparseVector,
    ) -> UpdateImpact {
        update_impact(query, report, tuple, old, new, |id| index.fetch_tuple(id)).unwrap()
    }

    #[test]
    fn touching_a_result_member_always_punctures() {
        let (query, report, index) = running_report();
        // d1 and d2 form the running example's top-2; any change to either,
        // even on a dimension the query does not weigh, punctures.
        let old = index.fetch_tuple(TupleId(0)).unwrap();
        let new = old.with_coordinate(ir_types::DimId(1), 0.99).unwrap();
        assert_eq!(
            impact(&query, &report, &index, TupleId(0), &old, &new),
            UpdateImpact::Punctured
        );
    }

    #[test]
    fn a_non_member_update_far_below_the_kth_line_survives() {
        let (query, report, index) = running_report();
        // d4 = <0.1, 0.6> scores 0.38 at the anchor, far below the k-th
        // (d1, 0.8); nudging its dim-1 coordinate down keeps both lines
        // clear of every reported boundary.
        let old = index.fetch_tuple(TupleId(3)).unwrap();
        let new = old.with_coordinate(ir_types::DimId(1), 0.55).unwrap();
        assert_eq!(
            impact(&query, &report, &index, TupleId(3), &old, &new),
            UpdateImpact::Survived
        );
    }

    #[test]
    fn a_non_member_rising_to_the_boundary_punctures() {
        let (query, report, index) = running_report();
        // Push d4's first coordinate up until it threatens the k-th score
        // somewhere in the reported span.
        let old = index.fetch_tuple(TupleId(3)).unwrap();
        let new = old.with_coordinate(ir_types::DimId(0), 0.95).unwrap();
        assert_eq!(
            impact(&query, &report, &index, TupleId(3), &old, &new),
            UpdateImpact::Punctured
        );
    }

    #[test]
    fn an_update_off_the_query_dimensions_survives_without_fetching() {
        let (query, report, _) = running_report();
        // Dimension 7 is not a query dimension of the running example, so
        // the structural check decides before `fetch` is ever needed.
        let old = SparseVector::from_pairs([(0, 0.1), (7, 0.2)]).unwrap();
        let new = old.with_coordinate(ir_types::DimId(7), 0.9).unwrap();
        let result = update_impact(&query, &report, TupleId(3), &old, &new, |_| {
            panic!("fetch must not be called for a non-query-dimension update")
        })
        .unwrap();
        assert_eq!(result, UpdateImpact::Survived);
    }

    #[test]
    fn an_insert_below_every_region_survives_and_above_punctures() {
        let (query, report, index) = running_report();
        let none = SparseVector::new();
        let low = SparseVector::from_pairs([(0, 0.05), (1, 0.05)]).unwrap();
        assert_eq!(
            impact(&query, &report, &index, TupleId(4), &none, &low),
            UpdateImpact::Survived
        );
        let high = SparseVector::from_pairs([(0, 0.99), (1, 0.99)]).unwrap();
        assert_eq!(
            impact(&query, &report, &index, TupleId(4), &none, &high),
            UpdateImpact::Punctured
        );
    }
}
