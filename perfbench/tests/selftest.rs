//! Self-tests of the benchmark at a tiny input size: every named metric is
//! emitted, the metric lists match `BENCHMARK.json`, the deterministic
//! counters repeat, and the output check fails on a corrupted answer.

use perfbench::{run, Options, Outcome, Size, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool, corrupt_answer: bool, tag: &str) -> Outcome {
    let state_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("selftest-{}-{tag}", workload.name()));
    let opts = Options {
        workload,
        seed: 7,
        seconds: 1,
        trace,
        size: Size::Tiny,
        state_dir,
        corrupt_answer,
    };
    run(&opts).unwrap_or_else(|e| panic!("{} did not run: {e}", workload.name()))
}

fn names(outcome: &Outcome) -> Vec<(&'static str, &'static str)> {
    outcome.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let outcome = tiny(workload, false, false, "e2e");
        assert!(outcome.correct(), "{:?}", outcome.violations);
        assert_eq!(names(&outcome), END_TO_END.to_vec());
        for metric in &outcome.metrics {
            assert!(metric.value > 0.0, "{metric:?} must never be 0");
        }
        let json = outcome.json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        assert!(json.contains("\"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "));
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    for workload in Workload::ALL {
        let outcome = tiny(workload, true, false, "layers");
        assert!(outcome.correct(), "{:?}", outcome.violations);
        assert_eq!(names(&outcome), PER_LAYER.to_vec());
        assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
    }
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
    let listed = json.matches("\"name\": ").count();
    assert_eq!(
        listed,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}

#[test]
fn counters_repeat_across_runs_on_one_seed() {
    for workload in Workload::ALL {
        let first = tiny(workload, false, false, "repeat");
        let second = tiny(workload, false, false, "repeat");
        assert!(second.correct(), "{:?}", second.violations);
        let counts = |o: &Outcome| o.stamp.iter().find(|(k, _)| *k == "counts").cloned();
        assert!(counts(&first).is_some());
        assert_eq!(counts(&first), counts(&second));
    }
}

#[test]
fn a_corrupted_answer_fails_the_check() {
    for workload in Workload::ALL {
        let outcome = tiny(workload, false, true, "corrupt");
        assert!(
            !outcome.correct(),
            "{} accepted a wrong answer",
            workload.name()
        );
        assert!(outcome.failed > 0);
        assert!(outcome.json().starts_with("{\"correct\": false"));
    }
}
