//! Fleet service benchmark: a `SubscriptionManager` under an open-loop
//! drift stream, at growing fleet sizes.
//!
//! For every fleet size N the runner admits N subscriptions over the ST
//! workload queries, generates a deterministic Zipf-popular drift stream
//! (`ir_datagen::drift`), ingests it through the manager, and reports
//! **deterministic counter distributions** — never wall-clock — so the
//! emitted `BENCH_fleet.json` is byte-stable across machines and CI can
//! diff it exactly:
//!
//! * `CheckCost` — per-answer recompute cost (evaluated candidates; 0 for
//!   a local answer): p50 in the `evaluated_per_dim` column, p99 in
//!   `logical_reads`, mean in `memory_kbytes`.
//! * `Service` — hit ratio in `evaluated_per_dim`, locally served events
//!   in `logical_reads`, batched recomputes in `memory_kbytes`.
//! * `Batches` — flushed batches in `evaluated_per_dim`, largest batch in
//!   `logical_reads`, mean batch size in `memory_kbytes`.
//!
//! The runner is self-checking and exits non-zero unless the fleet
//! economics hold: every event answered exactly once, the in-region
//! majority served locally, and batches bounded by the configured maximum.

use immutable_regions::engine::EngineResult;
use immutable_regions::fleet::{FleetConfig, SubscriptionManager};
use ir_bench::{print_table, BenchArgs, BenchDataset, ExperimentTable, MethodMeasurement, Scale};
use ir_datagen::{DriftConfig, DriftStream};
use ir_types::QueryVector;
use std::time::Instant;

/// Fleet sizes per scale (the x-axis).
fn fleet_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![8, 16, 32],
        Scale::Default => vec![64, 128, 256],
        Scale::Full => vec![512, 2_048, 8_192],
    }
}

/// Drift events per subscription at each scale.
fn events_per_sub(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 25,
        Scale::Default => 50,
        Scale::Full => 100,
    }
}

/// A packed table row (see the module docs for the column mapping).
fn row(series: &str, x: f64, a: f64, b: f64, c: f64) -> MethodMeasurement {
    MethodMeasurement {
        algorithm: series.to_string(),
        x,
        evaluated_per_dim: a,
        io_time_ms: 0.0,
        cpu_time_ms: 0.0,
        memory_kbytes: c,
        logical_reads: b,
        physical_reads: 0.0,
    }
}

/// The `q`-quantile of a sorted counter distribution (nearest-rank).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn main() -> EngineResult<()> {
    let args = BenchArgs::parse();
    let started = Instant::now();
    let scale = Scale::from_env();
    let mut table = ExperimentTable::new(
        "Fleet service — drift-stream serving cost per fleet size (p50/p99/mean of evaluated candidates; hit ratio; batch shape)",
        "fleet size",
    );
    let mut violations = Vec::new();

    for n in fleet_sizes(scale) {
        let (engine, workload) = BenchDataset::St.prepare_engine_for(scale, 3, 10, n, &args)?;
        let fleet: Vec<(u64, QueryVector)> = workload
            .queries()
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, q)| (i as u64, q))
            .collect();
        let mut manager = SubscriptionManager::new(
            &engine,
            FleetConfig {
                max_batch: 16,
                ..FleetConfig::default()
            },
        )?;
        manager.admit_all(fleet.clone())?;

        // Nudges sized for the ST workload's region widths: the stream
        // must be dominated by in-region drift (that is the paper's
        // premise), with a steady minority of region-exiting jumps.
        let drift = DriftConfig {
            num_events: n * events_per_sub(scale),
            small_delta: 0.004,
            large_delta: 0.3,
            large_every: 10,
            ..DriftConfig::default()
        };
        let stream = DriftStream::generate(&fleet, &drift, 0xD21F7)?;
        let answers = manager.ingest(stream.events())?;
        let stats = manager.stats();

        let mut costs: Vec<u64> = answers.iter().map(|a| a.evaluated_candidates).collect();
        costs.sort_unstable();
        let mean = costs.iter().sum::<u64>() as f64 / costs.len().max(1) as f64;
        let mean_batch = if stats.batches == 0 {
            0.0
        } else {
            stats.recomputes as f64 / stats.batches as f64
        };

        println!(
            "fleet {n}: {} events, hit ratio {:.3}, {} batches (largest {}), check cost p50 {} p99 {}",
            stats.events,
            stats.hit_ratio(),
            stats.batches,
            stats.largest_batch,
            quantile(&costs, 0.50),
            quantile(&costs, 0.99),
        );

        table.push(row(
            "CheckCost",
            n as f64,
            quantile(&costs, 0.50) as f64,
            quantile(&costs, 0.99) as f64,
            mean,
        ));
        table.push(row(
            "Service",
            n as f64,
            stats.hit_ratio(),
            stats.local_answers as f64,
            stats.recomputes as f64,
        ));
        table.push(row(
            "Batches",
            n as f64,
            stats.batches as f64,
            stats.largest_batch as f64,
            mean_batch,
        ));

        // Self checks: the economics the fleet exists for.
        if answers.len() != stream.len() {
            violations.push(format!(
                "fleet {n}: {} answers for {} events",
                answers.len(),
                stream.len()
            ));
        }
        if stats.local_answers + stats.recomputes != stats.events {
            violations.push(format!(
                "fleet {n}: local {} + recomputed {} != events {}",
                stats.local_answers, stats.recomputes, stats.events
            ));
        }
        if stats.hit_ratio() <= 0.5 {
            violations.push(format!(
                "fleet {n}: hit ratio {:.3} — the in-region majority must be served locally",
                stats.hit_ratio()
            ));
        }
        if stats.largest_batch > manager.config().max_batch as u64 {
            violations.push(format!(
                "fleet {n}: batch of {} exceeds max_batch {}",
                stats.largest_batch,
                manager.config().max_batch
            ));
        }
    }

    print_table(&table);
    args.emit("fleet", &table)?;
    args.report_wall_clock(started);

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("fleet violation: {v}");
        }
        std::process::exit(1);
    }
    Ok(())
}
