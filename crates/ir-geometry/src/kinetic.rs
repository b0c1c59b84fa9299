//! Kinetic sweep over the ordered top-k as one weight deviation grows.
//!
//! Section 6 of the paper computes, for `φ > 0`, the sequence of result
//! perturbations as `δq_j` increases: crossings among result lines are
//! reorderings, and a candidate line crossing the lower envelope of the
//! result enters the result (evicting the then k-th tuple). This module
//! implements that process as a *kinetic sorted list*: the ordered top-k is
//! maintained while `x` (the deviation) sweeps to the right, and every order
//! change is reported as a [`SweepEvent`].
//!
//! The sweep works on abstract [`Line`]s; the caller mirrors lines
//! (`slope → -slope`) to reuse the same machinery for negative deviations.
//!
//! **Invariant.** The [`SweepOutcome`] depends only on the lines that reach
//! the k-th trace and on their insertion order. A line that never wins an
//! event — one that stays strictly below every piece of
//! [`SweepOutcome::envelope`] (see [`SweepOutcome::line_stays_below`]) —
//! can be added to or left out of the outside set without changing a single
//! bit of the outcome: the outside set keeps its relative order when a line
//! enters (`Vec::remove`, never `swap_remove`), so a losing line's position
//! cannot decide which of several exactly tied lines enters later. Callers
//! that fold lines in one at a time rely on this to keep a cached outcome
//! instead of re-sweeping.

use crate::envelope::EnvelopePiece;
use crate::line::{intersection_x, Line};
use serde::{Deserialize, Serialize};

/// What kind of perturbation an event represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepEventKind {
    /// Two adjacent result members swapped ranks: `overtaker` moved above
    /// `overtaken`.
    Reorder {
        /// Label of the line that moved up.
        overtaker: u64,
        /// Label of the line that moved down.
        overtaken: u64,
    },
    /// A line from outside the result overtook the k-th member.
    Enter {
        /// Label of the entering line.
        entering: u64,
        /// Label of the evicted (previously k-th) line.
        evicted: u64,
    },
}

/// One perturbation of the ordered top-k.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepEvent {
    /// Deviation at which the perturbation happens.
    pub x: f64,
    /// The kind of perturbation.
    pub kind: SweepEventKind,
    /// The ordered top-k labels immediately after the event.
    pub order_after: Vec<u64>,
}

/// Result of running a sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepOutcome {
    /// The perturbations found, in increasing `x` order (at most the
    /// requested maximum).
    pub events: Vec<SweepEvent>,
    /// Piecewise description of the k-th (lowest ranked) line between `0` and
    /// [`SweepOutcome::end_x`] — the paper's lower envelope of the result.
    pub envelope: Vec<EnvelopePiece>,
    /// Where the sweep stopped: `x_max`, or the position of the last event if
    /// the maximum event count was reached first.
    pub end_x: f64,
    /// Whether the sweep stopped because it found the maximum number of
    /// events (as opposed to reaching `x_max`).
    pub truncated: bool,
}

impl SweepOutcome {
    /// True if `line` stays below the k-th trace by more than `slack` at
    /// both endpoints of every [`SweepOutcome::envelope`] piece (and hence,
    /// the pieces being linear, throughout `[0, end_x]`). Such a line can
    /// never win an event of this sweep, so adding it to the outside set
    /// leaves the outcome unchanged. An empty trace proves nothing and
    /// yields `false`.
    pub fn line_stays_below(&self, line: &Line, slack: f64) -> bool {
        !self.envelope.is_empty()
            && self
                .envelope
                .iter()
                .all(|p| line.stays_below(&p.line, p.x_start, p.x_end, slack))
    }
}

/// The kinetic sorted list.
#[derive(Clone, Debug)]
pub struct KineticSweep {
    x: f64,
    x_max: f64,
    ordered: Vec<Line>,
    outside: Vec<Line>,
    envelope: Vec<EnvelopePiece>,
    envelope_from: f64,
}

const EVENT_EPS: f64 = 1e-15;

impl KineticSweep {
    /// Creates a sweep starting at `x = x_start` with the given ordered
    /// result lines (best first). Panics if `ordered` is empty.
    pub fn new(ordered: Vec<Line>, x_start: f64, x_max: f64) -> Self {
        assert!(!ordered.is_empty(), "kinetic sweep needs at least one line");
        assert!(x_start <= x_max, "invalid sweep range");
        KineticSweep {
            x: x_start,
            x_max,
            ordered,
            outside: Vec::new(),
            envelope: Vec::new(),
            envelope_from: x_start,
        }
    }

    /// Adds a line that is currently outside the result (a candidate). It
    /// will produce an [`SweepEventKind::Enter`] event if and when it
    /// overtakes the k-th result line.
    pub fn add_outside(&mut self, line: Line) {
        self.outside.push(line);
    }

    /// Current sweep position.
    pub fn position(&self) -> f64 {
        self.x
    }

    /// The current ordered result labels (best first).
    pub fn order(&self) -> Vec<u64> {
        self.ordered.iter().map(|l| l.label).collect()
    }

    /// The current k-th (worst ranked) result line.
    pub fn kth_line(&self) -> Line {
        *self.ordered.last().expect("non-empty order")
    }

    fn record_envelope_piece(&mut self, to_x: f64) {
        if to_x > self.envelope_from {
            let piece = EnvelopePiece {
                x_start: self.envelope_from,
                x_end: to_x,
                line: self.kth_line(),
            };
            self.envelope.push(piece);
            self.envelope_from = to_x;
        }
    }

    /// Finds and applies the next perturbation at or after the current
    /// position, returning `None` when no further perturbation occurs before
    /// `x_max`.
    pub fn next_event(&mut self) -> Option<SweepEvent> {
        #[derive(Clone, Copy)]
        enum Pending {
            Reorder(usize),
            Enter(usize),
        }

        let mut best_x = f64::INFINITY;
        let mut best: Option<Pending> = None;

        // Adjacent reorderings inside the result.
        for i in 0..self.ordered.len().saturating_sub(1) {
            let upper = &self.ordered[i];
            let lower = &self.ordered[i + 1];
            if lower.slope <= upper.slope {
                continue; // lower can never catch up
            }
            if let Some(cx) = intersection_x(upper, lower) {
                let cx = cx.max(self.x);
                if cx <= self.x_max && cx < best_x - EVENT_EPS {
                    best_x = cx;
                    best = Some(Pending::Reorder(i));
                }
            }
        }

        // Outside lines overtaking the k-th result line.
        let kth = self.kth_line();
        let kth_here = kth.eval(self.x);
        // Tolerance for the "already above" test: right after an Enter event
        // the evicted line is numerically equal to the new k-th line at the
        // event position; without a tolerance, rounding can make it appear
        // infinitesimally above and the two lines would flip-flop forever.
        let above_eps = 1e-12 * kth_here.abs().max(1.0);
        for (idx, cand) in self.outside.iter().enumerate() {
            let entry_x = if cand.eval(self.x) > kth_here + above_eps {
                // Clearly above already (can happen right after another event
                // at the same x): enters immediately.
                Some(self.x)
            } else if cand.slope > kth.slope {
                intersection_x(cand, &kth).map(|cx| cx.max(self.x))
            } else {
                None
            };
            if let Some(cx) = entry_x {
                if cx <= self.x_max && cx < best_x - EVENT_EPS {
                    best_x = cx;
                    best = Some(Pending::Enter(idx));
                }
            }
        }

        let pending = best?;
        self.record_envelope_piece(best_x);
        self.x = best_x;

        let kind = match pending {
            Pending::Reorder(i) => {
                let overtaker = self.ordered[i + 1].label;
                let overtaken = self.ordered[i].label;
                self.ordered.swap(i, i + 1);
                SweepEventKind::Reorder {
                    overtaker,
                    overtaken,
                }
            }
            Pending::Enter(idx) => {
                // Order-preserving: see the module-level invariant.
                let entering = self.outside.remove(idx);
                let evicted = self.ordered.pop().expect("non-empty order");
                self.ordered.push(entering);
                self.outside.push(evicted);
                SweepEventKind::Enter {
                    entering: entering.label,
                    evicted: evicted.label,
                }
            }
        };
        Some(SweepEvent {
            x: best_x,
            kind,
            order_after: self.order(),
        })
    }

    /// Runs the sweep until `max_events` perturbations were found or `x_max`
    /// was reached, and returns the outcome (events + envelope trace).
    pub fn run(mut self, max_events: usize) -> SweepOutcome {
        let mut events = Vec::new();
        let mut truncated = false;
        while events.len() < max_events {
            match self.next_event() {
                Some(ev) => events.push(ev),
                None => break,
            }
        }
        if events.len() >= max_events {
            truncated = true;
        }
        let end_x = if truncated {
            events.last().map(|e| e.x).unwrap_or(self.x_max)
        } else {
            self.x_max
        };
        // Complete the envelope trace to end_x.
        self.record_envelope_piece(end_x);
        SweepOutcome {
            events,
            envelope: self.envelope,
            end_x,
            truncated,
        }
    }
}

/// Convenience wrapper: sweeps `ordered` (best first) against `outside`
/// candidates over `[x_start, x_max]`, reporting at most `max_events`
/// perturbations.
pub fn sweep_topk(
    ordered: Vec<Line>,
    outside: Vec<Line>,
    x_start: f64,
    x_max: f64,
    max_events: usize,
) -> SweepOutcome {
    let mut sweep = KineticSweep::new(ordered, x_start, x_max);
    for line in outside {
        sweep.add_outside(line);
    }
    sweep.run(max_events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(label: u64, intercept: f64, slope: f64) -> Line {
        Line::new(label, intercept, slope)
    }

    #[test]
    fn reorder_event_matches_running_example() {
        // Top-2 of the running example on dimension 1: d2 (0.81, slope 0.7)
        // then d1 (0.80, slope 0.8). They swap at δ = 0.1.
        let outcome = sweep_topk(vec![l(2, 0.81, 0.7), l(1, 0.80, 0.8)], vec![], 0.0, 0.2, 10);
        assert_eq!(outcome.events.len(), 1);
        let ev = &outcome.events[0];
        assert!((ev.x - 0.1).abs() < 1e-12);
        assert_eq!(
            ev.kind,
            SweepEventKind::Reorder {
                overtaker: 1,
                overtaken: 2
            }
        );
        assert_eq!(ev.order_after, vec![1, 2]);
        assert!(!outcome.truncated);
        assert_eq!(outcome.end_x, 0.2);
    }

    #[test]
    fn enter_event_evicts_kth() {
        // One result line at 0.5 flat; a candidate starting at 0.2 with slope
        // 1.0 enters at x = 0.3.
        let outcome = sweep_topk(vec![l(0, 0.5, 0.0)], vec![l(9, 0.2, 1.0)], 0.0, 1.0, 10);
        assert_eq!(outcome.events.len(), 1);
        let ev = &outcome.events[0];
        assert!((ev.x - 0.3).abs() < 1e-12);
        assert_eq!(
            ev.kind,
            SweepEventKind::Enter {
                entering: 9,
                evicted: 0
            }
        );
        assert_eq!(ev.order_after, vec![9]);
    }

    #[test]
    fn evicted_line_can_reenter_later() {
        // Result: flat 0.5 (label 0). Candidate 1: slope 2 from 0.2 (enters
        // at 0.15, evicting 0). Candidate 2 never enters. After the eviction
        // the k-th is line 1, which line 0 can never overtake again (slope 0
        // vs 2), so only one event total.
        let outcome = sweep_topk(
            vec![l(0, 0.5, 0.0)],
            vec![l(1, 0.2, 2.0), l(2, 0.0, 0.1)],
            0.0,
            1.0,
            10,
        );
        assert_eq!(outcome.events.len(), 1);
        assert_eq!(outcome.events[0].order_after, vec![1]);
    }

    #[test]
    fn events_are_reported_in_increasing_x() {
        let outcome = sweep_topk(
            vec![l(0, 0.9, 0.1), l(1, 0.8, 0.5), l(2, 0.7, 0.2)],
            vec![l(3, 0.4, 1.5), l(4, 0.3, 0.05)],
            0.0,
            1.0,
            100,
        );
        let xs: Vec<f64> = outcome.events.iter().map(|e| e.x).collect();
        for w in xs.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "events out of order: {xs:?}");
        }
        // The final order must rank lines consistently with direct evaluation
        // at end_x (allowing ties).
        let end = outcome.end_x;
        let final_order = outcome.events.last().unwrap().order_after.clone();
        let all = [
            l(0, 0.9, 0.1),
            l(1, 0.8, 0.5),
            l(2, 0.7, 0.2),
            l(3, 0.4, 1.5),
            l(4, 0.3, 0.05),
        ];
        let val = |label: u64| all.iter().find(|x| x.label == label).unwrap().eval(end);
        for w in final_order.windows(2) {
            assert!(val(w[0]) >= val(w[1]) - 1e-9);
        }
    }

    #[test]
    fn max_events_truncates_and_reports_end_x() {
        let outcome = sweep_topk(
            vec![l(0, 0.9, 0.0), l(1, 0.85, 0.1)],
            vec![l(2, 0.5, 2.0), l(3, 0.4, 3.0)],
            0.0,
            1.0,
            1,
        );
        assert!(outcome.truncated);
        assert_eq!(outcome.events.len(), 1);
        assert!((outcome.end_x - outcome.events[0].x).abs() < 1e-12);
    }

    #[test]
    fn envelope_traces_the_kth_line() {
        // Two result lines; the k-th (lowest) changes identity at their
        // crossing.
        let outcome = sweep_topk(vec![l(0, 0.9, 0.0), l(1, 0.6, 0.8)], vec![], 0.0, 1.0, 10);
        // Crossing at x = 0.375: before it the k-th is line 1, after it the
        // k-th is line 0.
        assert_eq!(outcome.events.len(), 1);
        assert!((outcome.events[0].x - 0.375).abs() < 1e-12);
        assert_eq!(outcome.envelope.len(), 2);
        assert_eq!(outcome.envelope[0].line.label, 1);
        assert_eq!(outcome.envelope[1].line.label, 0);
        assert!((outcome.envelope[0].x_end - 0.375).abs() < 1e-12);
        assert!((outcome.envelope[1].x_end - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_events_when_nothing_crosses() {
        let outcome = sweep_topk(
            vec![l(0, 0.9, 0.5), l(1, 0.5, 0.5)],
            vec![l(2, 0.2, 0.5)],
            0.0,
            1.0,
            10,
        );
        assert!(outcome.events.is_empty());
        assert!(!outcome.truncated);
        assert_eq!(outcome.envelope.len(), 1);
        assert_eq!(outcome.envelope[0].line.label, 1);
    }
}
