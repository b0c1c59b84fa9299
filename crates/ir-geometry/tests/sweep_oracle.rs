//! Property tests for the kinetic sweep: its reported order changes must
//! agree with brute-force re-ranking of the lines at sampled positions, the
//! envelope trace must equal the k-th ranked value everywhere, and a line
//! that stays below the k-th trace must leave the outcome bit-identical.

use ir_geometry::{sweep_topk, Line};
use proptest::prelude::*;

fn rank_at(lines: &[Line], x: f64) -> Vec<u64> {
    let mut sorted: Vec<&Line> = lines.iter().collect();
    sorted.sort_by(|a, b| {
        b.eval(x)
            .total_cmp(&a.eval(x))
            .then_with(|| a.label.cmp(&b.label))
    });
    sorted.iter().map(|l| l.label).collect()
}

fn lines_strategy(count: usize) -> impl Strategy<Value = Vec<Line>> {
    proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), count..=count).prop_map(|params| {
        params
            .into_iter()
            .enumerate()
            .map(|(i, (intercept, slope))| Line::new(i as u64, intercept, slope))
            .collect()
    })
}

/// Lines on a coarse 1/8 grid, so exact duplicates (one intercept and slope
/// under several labels) and many-way ties at one crossing are common — the
/// shape of a real corpus that repeats documents.
fn grid_lines(count: usize) -> impl Strategy<Value = Vec<Line>> {
    proptest::collection::vec((0u8..=8, 0u8..=8), count..=count).prop_map(|params| {
        params
            .into_iter()
            .enumerate()
            .map(|(i, (a, b))| Line::new(i as u64, f64::from(a) / 8.0, f64::from(b) / 8.0))
            .collect()
    })
}

/// The slack of the "stays below" test (the value `ir_core` uses).
const SLACK: f64 = 1e-9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64).with_seed(0xB00C_0003))]

    /// Folds the non-result lines, then a relabelled copy of each, into a
    /// sweep one at a time. Whenever the new line stays below the k-th trace
    /// of the outcome before it by [`SLACK`], the fresh sweep over all lines
    /// folded so far must equal (`==`: every event, order, piece and
    /// `end_x`) that earlier outcome. This is what lets a caller keep a
    /// cached outcome instead of re-sweeping.
    #[test]
    fn a_line_below_the_kth_trace_leaves_the_outcome_unchanged(
        all_lines in grid_lines(12),
        k in 1usize..4,
        max_events in 1usize..16,
    ) {
        let x_max = 1.0;
        let initial = rank_at(&all_lines, 0.0);
        let topk: Vec<Line> = initial[..k]
            .iter()
            .map(|&label| all_lines[label as usize])
            .collect();
        let outside = all_lines.iter().filter(|l| !initial[..k].contains(&l.label));
        let copies = outside.clone().map(|l| Line::new(l.label + 100, l.intercept, l.slope));
        let mut folded = Vec::new();
        let mut outcome = sweep_topk(topk.clone(), vec![], 0.0, x_max, max_events);
        for line in outside.copied().chain(copies) {
            let below = outcome.line_stays_below(&line, SLACK);
            folded.push(line);
            let fresh = sweep_topk(topk.clone(), folded.clone(), 0.0, x_max, max_events);
            if below {
                prop_assert_eq!(&fresh, &outcome, "line {:?} changed the outcome", line);
            }
            outcome = fresh;
        }
    }

    /// Between consecutive events the k-th member reported by the sweep's
    /// envelope equals the brute-force k-th ranked line, and after the last
    /// event the final order equals the brute-force ranking.
    #[test]
    fn sweep_matches_brute_force_ranking(all_lines in lines_strategy(8), k in 2usize..5) {
        let x_max = 0.7f64;
        // Rank at x = 0 to split into result (top k) and outside lines.
        let initial = rank_at(&all_lines, 0.0);
        let topk: Vec<Line> = initial[..k]
            .iter()
            .map(|&label| all_lines[label as usize])
            .collect();
        let outside: Vec<Line> = initial[k..]
            .iter()
            .map(|&label| all_lines[label as usize])
            .collect();

        let outcome = sweep_topk(topk.clone(), outside, 0.0, x_max, 1_000);
        prop_assert!(!outcome.truncated);

        // The envelope value must equal the k-th best value among *all* lines
        // at the midpoint of each piece (modulo ties, compare values not
        // labels).
        for piece in &outcome.envelope {
            let mid = 0.5 * (piece.x_start + piece.x_end);
            if piece.x_end - piece.x_start < 1e-9 {
                continue;
            }
            let mut values: Vec<f64> = all_lines.iter().map(|l| l.eval(mid)).collect();
            values.sort_by(|a, b| b.total_cmp(a));
            let expected_kth = values[k - 1];
            prop_assert!(
                (piece.line.eval(mid) - expected_kth).abs() < 1e-9,
                "envelope value {} != k-th value {} at x = {mid}",
                piece.line.eval(mid),
                expected_kth
            );
        }

        // The order after the final event must equal the brute-force top-k
        // order just past it (ties can legitimately differ exactly at the
        // event, so sample slightly to the right).
        if let Some(last) = outcome.events.last() {
            let probe = (last.x + 1e-9).min(x_max);
            let expected: Vec<u64> = rank_at(&all_lines, probe)[..k].to_vec();
            let expected_values: Vec<f64> = expected
                .iter()
                .map(|&l| all_lines[l as usize].eval(probe))
                .collect();
            let got_values: Vec<f64> = last
                .order_after
                .iter()
                .map(|&l| all_lines[l as usize].eval(probe))
                .collect();
            for (g, e) in got_values.iter().zip(&expected_values) {
                prop_assert!((g - e).abs() < 1e-9, "ranked values diverge at x = {probe}");
            }
        }

        // Events must be in non-decreasing x order and inside the range.
        for w in outcome.events.windows(2) {
            prop_assert!(w[0].x <= w[1].x + 1e-12);
        }
        for ev in &outcome.events {
            prop_assert!(ev.x >= -1e-12 && ev.x <= x_max + 1e-12);
        }
    }

    /// A sweep with no outside lines reports exactly the pairwise crossings
    /// of the result lines that occur inside the range (counted with the
    /// adjacency rule), never more than `k(k-1)/2`.
    #[test]
    fn reorder_count_is_bounded(all_lines in lines_strategy(6)) {
        let k = all_lines.len();
        let initial = rank_at(&all_lines, 0.0);
        let ordered: Vec<Line> = initial.iter().map(|&l| all_lines[l as usize]).collect();
        let outcome = sweep_topk(ordered, vec![], 0.0, 1.0, 10_000);
        prop_assert!(outcome.events.len() <= k * (k - 1) / 2);
        // And the final order matches brute force at x = 1.
        let final_order = outcome
            .events
            .last()
            .map(|e| e.order_after.clone())
            .unwrap_or_else(|| initial.clone());
        let expected = rank_at(&all_lines, 1.0);
        let val = |label: u64| all_lines[label as usize].eval(1.0);
        for (a, b) in final_order.iter().zip(&expected) {
            prop_assert!((val(*a) - val(*b)).abs() < 1e-9);
        }
    }
}
