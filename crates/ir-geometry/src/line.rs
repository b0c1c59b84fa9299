//! Lines in the score-coordinate plane.

use serde::{Deserialize, Serialize};

/// A line `y(x) = intercept + slope · x`.
///
/// In the immutable-region setting `x` is the deviation `δq_j` of one query
/// weight, `intercept` is the tuple's score at the current weight and `slope`
/// is the tuple's coordinate in the queried dimension. The `label` is an
/// opaque identifier (the tuple id) used to report which tuple caused a
/// perturbation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Line {
    /// Opaque identifier of the object this line represents.
    pub label: u64,
    /// Value at `x = 0`.
    pub intercept: f64,
    /// Growth per unit of `x` (a coordinate, hence non-negative in practice).
    pub slope: f64,
}

impl Line {
    /// Creates a line.
    pub fn new(label: u64, intercept: f64, slope: f64) -> Self {
        Line {
            label,
            intercept,
            slope,
        }
    }

    /// Evaluates the line at `x`.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }

    /// True if `self` lies below `upper` by more than `slack` at both `lo`
    /// and `hi` — and so, both being linear, on all of `[lo, hi]`.
    ///
    /// This is the one "cannot reach the k-th line" test shared by the
    /// update screen (a tuple below every region's k-th line cannot flip a
    /// region boundary) and the φ-solver's cached sweep (a candidate below
    /// the whole k-th trace cannot change the sweep outcome).
    #[inline]
    pub fn stays_below(&self, upper: &Line, lo: f64, hi: f64, slack: f64) -> bool {
        [lo, hi]
            .into_iter()
            .all(|x| self.eval(x) < upper.eval(x) - slack)
    }

    /// Compares two lines at position `x` with the canonical ranking order:
    /// higher value first, ties broken by smaller label.
    #[inline]
    pub fn rank_cmp_at(&self, other: &Line, x: f64) -> std::cmp::Ordering {
        other
            .eval(x)
            .total_cmp(&self.eval(x))
            .then_with(|| self.label.cmp(&other.label))
    }
}

/// The `x` at which two lines intersect, or `None` if they are parallel.
///
/// The returned value can be negative — callers restrict it to the deviation
/// range they care about.
#[inline]
pub fn intersection_x(a: &Line, b: &Line) -> Option<f64> {
    let slope_diff = a.slope - b.slope;
    if slope_diff == 0.0 {
        return None;
    }
    Some((b.intercept - a.intercept) / slope_diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eval_is_affine() {
        let l = Line::new(1, 0.5, 0.25);
        assert_eq!(l.eval(0.0), 0.5);
        assert_eq!(l.eval(2.0), 1.0);
        assert_eq!(l.eval(-2.0), 0.0);
    }

    #[test]
    fn intersection_matches_running_example() {
        // d2 scores 0.81 with slope 0.7, d1 scores 0.80 with slope 0.8:
        // they cross at δq1 = 0.1 (Figure 1: u1 = 0.1).
        let d2 = Line::new(2, 0.81, 0.7);
        let d1 = Line::new(1, 0.80, 0.8);
        let x = intersection_x(&d2, &d1).unwrap();
        assert!((x - 0.1).abs() < 1e-12);

        // d1 (0.80, slope 0.8) and d3 (0.48, slope 0.1) cross at -16/35.
        let d3 = Line::new(3, 0.48, 0.1);
        let x = intersection_x(&d1, &d3).unwrap();
        assert!((x + 16.0 / 35.0).abs() < 1e-12);
    }

    #[test]
    fn stays_below_needs_the_slack_at_both_endpoints() {
        let upper = Line::new(0, 0.5, 0.0);
        let rising = Line::new(1, 0.3, 0.1);
        assert!(rising.stays_below(&upper, 0.0, 1.0, 1e-9));
        // Touches the upper line at x = 2: punctured on a range reaching it.
        assert!(!rising.stays_below(&upper, 0.0, 2.0, 1e-9));
        // Below by less than the slack counts as touching.
        let grazing = Line::new(2, 0.5 - 1e-10, 0.0);
        assert!(!grazing.stays_below(&upper, 0.0, 1.0, 1e-9));
        assert!(grazing.stays_below(&upper, 0.0, 1.0, 0.0));
    }

    #[test]
    fn parallel_lines_do_not_intersect() {
        let a = Line::new(0, 0.3, 0.5);
        let b = Line::new(1, 0.7, 0.5);
        assert_eq!(intersection_x(&a, &b), None);
    }

    #[test]
    fn rank_cmp_orders_by_value_then_label() {
        let hi = Line::new(7, 0.9, 0.0);
        let lo = Line::new(2, 0.1, 0.0);
        assert_eq!(hi.rank_cmp_at(&lo, 0.0), std::cmp::Ordering::Less);
        let tie_a = Line::new(1, 0.5, 0.0);
        let tie_b = Line::new(3, 0.5, 0.0);
        assert_eq!(tie_a.rank_cmp_at(&tie_b, 10.0), std::cmp::Ordering::Less);
    }

    proptest! {
        #[test]
        fn lines_agree_at_their_intersection(
            i1 in -1.0f64..1.0, s1 in 0.0f64..1.0,
            i2 in -1.0f64..1.0, s2 in 0.0f64..1.0,
        ) {
            let a = Line::new(0, i1, s1);
            let b = Line::new(1, i2, s2);
            if let Some(x) = intersection_x(&a, &b) {
                // Values can be large when slopes are nearly equal; compare
                // with a tolerance that scales with the magnitude.
                let (ya, yb) = (a.eval(x), b.eval(x));
                let scale = ya.abs().max(yb.abs()).max(1.0);
                prop_assert!((ya - yb).abs() <= 1e-9 * scale);
            }
        }

        #[test]
        fn intersection_is_symmetric(
            i1 in -1.0f64..1.0, s1 in 0.0f64..1.0,
            i2 in -1.0f64..1.0, s2 in 0.0f64..1.0,
        ) {
            let a = Line::new(0, i1, s1);
            let b = Line::new(1, i2, s2);
            match (intersection_x(&a, &b), intersection_x(&b, &a)) {
                (Some(x), Some(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    prop_assert!((x - y).abs() <= 1e-9 * scale);
                }
                (None, None) => {}
                _ => prop_assert!(false, "asymmetric intersection result"),
            }
        }
    }
}
