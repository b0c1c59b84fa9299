//! The query workloads: `flat_query_wsj` and `sweep_query_wsj`.
//!
//! Each pass clears the buffer pool, warms it with an untimed set of
//! queries, then times every query of the workload one at a time through
//! [`IrEngine::query_with`]. `flat_query_wsj` then times a prefix of the
//! same queries as one `query_batch` on two workers. Clearing the pool
//! before the warm-up makes every pass start from the same pool state, so
//! the page counters of a pass repeat exactly.

use crate::stats::{median, quantile, ratio, tail_percentile};
use crate::trace::Tracer;
use crate::{
    corpus, dump_spans, fleet, probes, sub_seed, Counts, Options, Outcome, Params, Workload,
    THREADS,
};
use immutable_regions::core::{ExhaustiveOracle, Perturbation, RegionConfig, RegionReport};
use immutable_regions::datagen::queries::DimSelection;
use immutable_regions::datagen::{QueryWorkload, WorkloadConfig};
use immutable_regions::engine::{EngineResult, IrEngine};
use immutable_regions::storage::buffer::DEFAULT_POOL_CAPACITY;
use immutable_regions::storage::IoStatsSnapshot;
use immutable_regions::types::{Dataset, DimId, QueryVector, SeededLcg, TupleId};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Result size of every query.
pub const K: usize = 10;

/// Query lengths of the mix; queries cycle through them.
pub const QLENS: [usize; 5] = [2, 3, 4, 6, 8];

/// Tuple ids kept for the `fetch_tuple` probe.
const TOUCHED_CAP: usize = 2_000;

/// `n` popularity-biased queries cycling through [`QLENS`].
pub fn query_mix(dataset: &Dataset, n: usize, seed: u64) -> Result<Vec<QueryVector>, String> {
    let per_qlen = n.div_ceil(QLENS.len());
    let mut sets = Vec::with_capacity(QLENS.len());
    for (i, &qlen) in QLENS.iter().enumerate() {
        let workload = QueryWorkload::generate(
            dataset,
            &WorkloadConfig {
                qlen,
                k: K,
                num_queries: per_qlen,
                min_postings: (2 * K).max(20),
                max_postings: usize::MAX,
                selection: DimSelection::PopularityBiased,
                equal_weights: false,
            },
            sub_seed(seed, i as u64),
        )
        .map_err(|e| format!("query generation (qlen {qlen}): {e}"))?;
        sets.push(workload.queries().to_vec());
    }
    let mut mix = Vec::with_capacity(n);
    for j in 0..per_qlen {
        for set in &sets {
            if mix.len() < n {
                mix.push(set[j].clone());
            }
        }
    }
    Ok(mix)
}

/// Fisher-Yates shuffle driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SeededLcg::mixed(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// Work observed by traced queries, for the `topk.*` and `core.*` layer
/// metrics and the storage probes.
#[derive(Clone, Debug, Default)]
pub struct LayerAcc {
    /// Queries that completed.
    pub queries: u64,
    /// TA sorted accesses.
    pub sorted: u64,
    /// TA random accesses.
    pub random: u64,
    /// Initial TA candidates.
    pub initial: u64,
    /// Phase-3 tuples.
    pub phase3: u64,
    /// Evaluated candidates.
    pub evaluated: u64,
    /// Sum over queries of evaluated candidates per dimension.
    pub per_dim: f64,
    /// Sum over queries of distinct tuples bounding a region edge.
    pub boundary_tuples: u64,
    /// Tuples the TA runs touched (capped).
    pub touched: BTreeSet<TupleId>,
    /// Query dimensions seen.
    pub dims: BTreeSet<DimId>,
}

impl LayerAcc {
    fn record(&mut self, report: &RegionReport) {
        self.queries += 1;
        self.phase3 += report.stats.phase3_tuples;
        self.evaluated += report.stats.evaluated_candidates;
        self.per_dim += report.stats.evaluated_per_dim_avg();
        let mut bounding = BTreeSet::new();
        for dim in &report.dims {
            for boundary in [dim.lower_boundary, dim.upper_boundary]
                .into_iter()
                .flatten()
            {
                match boundary.perturbation {
                    Perturbation::Reorder {
                        moved_up,
                        moved_down,
                    } => bounding.extend([moved_up, moved_down]),
                    Perturbation::Replace { entering, leaving } => {
                        bounding.extend([entering, leaving])
                    }
                }
            }
        }
        self.boundary_tuples += bounding.len() as u64;
    }
}

/// One query split the way the layers see it: a `topk.ta` span around
/// [`IrEngine::computation_with`] (validation and TA) and a
/// `core.regions` span around the region computation, both inside an
/// `engine.query` span.
pub fn traced_query(
    engine: &IrEngine,
    query: &QueryVector,
    config: RegionConfig,
    tracer: &mut Tracer,
    op: u64,
    acc: &mut LayerAcc,
) -> EngineResult<RegionReport> {
    let whole = tracer.enter("engine.query", op);
    let computation = tracer.span("topk.ta", op, || engine.computation_with(query, config));
    let report = computation.and_then(|mut computation| {
        let ta = computation.ta();
        acc.sorted += ta.stats().sorted_accesses;
        acc.random += ta.stats().random_accesses;
        acc.initial += computation.initial_candidates() as u64;
        for entry in ta.result_entries().iter().chain(ta.candidates().entries()) {
            if acc.touched.len() >= TOUCHED_CAP {
                break;
            }
            acc.touched.insert(entry.id);
        }
        Ok(tracer.span("core.regions", op, || computation.compute())?)
    });
    tracer.exit(whole);
    acc.dims.extend(query.dim_ids());
    if let Ok(report) = &report {
        acc.record(report);
    }
    report
}

/// Adds a report's deterministic solver counters.
fn count_report(counts: &mut Counts, report: &RegionReport) {
    counts.evaluated += report.stats.evaluated_candidates;
    counts.phase3 += report.stats.phase3_tuples;
}

/// One pass over the workload.
struct Pass {
    latencies_ns: Vec<u64>,
    elapsed_ns: u64,
    reports: Vec<Option<RegionReport>>,
    failed: u64,
    counts: Counts,
    io: IoStatsSnapshot,
    device: IoStatsSnapshot,
    batch_ns: u64,
    batch: Option<EngineResult<Vec<RegionReport>>>,
}

fn pass(
    engine: &IrEngine,
    config: RegionConfig,
    queries: &[QueryVector],
    warm: &[QueryVector],
    batch_queries: usize,
    mut traced: Option<(&mut Tracer, &mut LayerAcc)>,
) -> Pass {
    engine.cold_start();
    for query in warm {
        let _ = black_box(engine.query_with(query, config));
    }
    let index = engine.index();
    let (io_before, device_before) = (index.io_snapshot(), index.store_io_snapshot());
    let ta_before = traced.as_ref().map(|(_, acc)| (acc.sorted, acc.random));
    let mut latencies_ns = Vec::with_capacity(queries.len());
    let mut reports = Vec::with_capacity(queries.len());
    let mut counts = Counts::default();
    let mut failed = 0;
    let start = Instant::now();
    for (op, query) in queries.iter().enumerate() {
        let t = Instant::now();
        let report = match traced.as_mut() {
            None => engine.query_with(query, config),
            Some((tracer, acc)) => traced_query(engine, query, config, tracer, op as u64, acc),
        };
        latencies_ns.push(t.elapsed().as_nanos() as u64);
        match report {
            Ok(report) => {
                count_report(&mut counts, &report);
                reports.push(Some(report));
            }
            Err(e) => {
                if failed == 0 {
                    eprintln!("perfbench: query {op} failed: {e}");
                }
                failed += 1;
                reports.push(None);
            }
        }
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let io = index.io_snapshot().since(&io_before);
    counts.logical_reads = io.logical_reads;
    counts.physical_reads = io.physical_reads;
    let device = index.store_io_snapshot().since(&device_before);
    if let (Some((sorted, random)), Some((_, acc))) = (ta_before, traced.as_ref()) {
        counts.ta_accesses = Some((acc.sorted - sorted, acc.random - random));
    }

    let mut batch = None;
    let mut batch_ns = 0;
    if batch_queries > 0 {
        let batch_queries = &queries[..batch_queries.min(queries.len())];
        let t = Instant::now();
        batch = Some(match traced.as_mut() {
            None => engine.query_batch(batch_queries),
            Some((tracer, _)) => {
                tracer.span("engine.batch", 0, || engine.query_batch(batch_queries))
            }
        });
        batch_ns = t.elapsed().as_nanos() as u64;
    }
    Pass {
        latencies_ns,
        elapsed_ns,
        reports,
        failed,
        counts,
        io,
        device,
        batch_ns,
        batch,
    }
}

/// The region configuration a workload serves.
pub fn region_config(workload: Workload) -> RegionConfig {
    match workload {
        // Figure 16: only changes of the result composition count.
        Workload::SweepQuery => RegionConfig::default().composition_only(),
        _ => RegionConfig::default(),
    }
}

/// Runs a query workload; returns the counters the ledger compares.
pub fn run(
    opts: &Options,
    params: &Params,
    scratch: &Path,
    outcome: &mut Outcome,
) -> Result<Counts, String> {
    let dataset = corpus(params);
    let mut queries = query_mix(&dataset, params.queries, crate::FIXED_SEED)?;
    shuffle(&mut queries, sub_seed(opts.seed, 2));
    let warm = query_mix(&dataset, params.warm_queries, sub_seed(opts.seed, 3))?;
    let config = region_config(opts.workload);

    let mut setup_s = Vec::with_capacity(params.setup_reps);
    let mut engine = None;
    for _ in 0..params.setup_reps.max(1) {
        drop(engine.take());
        let t = Instant::now();
        let built = IrEngine::builder()
            .dataset_ref(&dataset)
            .config(config)
            .threads(THREADS)
            .build()
            .map_err(|e| format!("engine build: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        engine = Some(built);
    }
    let engine = engine.expect("at least one bring-up ran");
    outcome.stamp.extend([
        ("docs", dataset.cardinality().to_string()),
        ("terms", dataset.dimensionality().to_string()),
        ("queries", queries.len().to_string()),
        ("index_pages", engine.cold_start_info().pages.to_string()),
        ("pool_capacity", DEFAULT_POOL_CAPACITY.to_string()),
        ("backend", "mem".to_string()),
    ]);

    let plain = pass(&engine, config, &queries, &warm, params.batch_queries, None);
    let batch_n = plain.batch.as_ref().map_or(0, |_| params.batch_queries) as u64;
    outcome.attempted += queries.len() as u64 + batch_n;
    outcome.failed += plain.failed;
    check_batch(&plain, opts.corrupt_answer, outcome);
    let sample = oracle_sample(&plain.reports, params.oracle_sample, opts.seed);
    check_oracle(
        &dataset,
        &queries,
        &plain.reports,
        &sample,
        opts.corrupt_answer,
        outcome,
    );

    // The end-to-end figures, reported by both modes (the traced mode
    // needs the untraced throughput for its overhead figure).
    let ops = queries.len() as u64 + batch_n;
    let ops_per_s = ratio(ops as f64, (plain.elapsed_ns + plain.batch_ns) as f64 / 1e9);
    let tail = tail_percentile(plain.latencies_ns.len(), &[99.0, 90.0]);
    let p50_ms = quantile(&plain.latencies_ns, 0.5) as f64 / 1e6;
    let tail_ms = quantile(&plain.latencies_ns, tail / 100.0) as f64 / 1e6;
    let n = plain.latencies_ns.len() as u64;
    outcome.line("setup_s", median(&setup_s), "s", setup_s.len() as u64);
    outcome.line("ops_per_s", ops_per_s, "1/s", ops);
    outcome.line("query_p50_ms", p50_ms, "ms", n);
    if tail > 50.0 {
        outcome.line(&format!("query_p{tail}_ms"), tail_ms, "ms", n);
    }
    if batch_n > 0 {
        outcome.line(
            "batch_qps",
            ratio(batch_n as f64, plain.batch_ns as f64 / 1e9),
            "1/s",
            batch_n,
        );
    }

    if !opts.trace {
        outcome.line(
            "error_ratio",
            ratio(outcome.failed as f64, outcome.attempted as f64),
            "ratio",
            outcome.attempted,
        );
        outcome.metric("setup_s", median(&setup_s), "s");
        outcome.metric("ops_per_s", ops_per_s, "1/s");
        outcome.metric("latency_p50_ms", p50_ms, "ms");
        outcome.metric("latency_tail_ms", tail_ms, "ms");
        outcome.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
        return Ok(plain.counts);
    }

    let mut tracer = Tracer::new();
    let mut acc = LayerAcc::default();
    let traced = pass(
        &engine,
        config,
        &queries,
        &warm,
        params.batch_queries,
        Some((&mut tracer, &mut acc)),
    );
    outcome.attempted += queries.len() as u64 + batch_n;
    outcome.failed += traced.failed;
    if traced.counts.shared() != plain.counts.shared() {
        outcome.violation(format!(
            "traced pass counters {:?} differ from the untraced pass {:?}",
            traced.counts, plain.counts
        ));
    }
    let dims = |p: &Pass| -> Vec<_> {
        p.reports
            .iter()
            .map(|r| r.as_ref().map(|r| r.dims.clone()))
            .collect()
    };
    if dims(&traced) != dims(&plain) {
        outcome.violation("traced pass reports differ from the untraced pass".to_string());
    }
    check_batch(&traced, false, outcome);
    // The sampled reports again, as one traced batch.
    if opts.workload == Workload::SweepQuery {
        traced_sample_batch(
            &engine,
            &queries,
            &plain.reports,
            &sample,
            &mut tracer,
            outcome,
        );
    }

    let dims: Vec<DimId> = acc.dims.iter().copied().collect();
    let touched: Vec<TupleId> = acc.touched.iter().copied().collect();
    let storage = probes::storage(&engine, &touched, &dims)?;
    let fleet_layer =
        fleet::layer_probe(&engine, &dataset, &queries, scratch, opts.seed, &mut tracer)?;
    outcome.attempted += fleet_layer.operations;
    outcome.failed += fleet_layer.failed;

    let loop_ops = queries.len() as u64;
    let traced_ops_per_s = ratio(
        (loop_ops + batch_n) as f64,
        (traced.elapsed_ns + traced.batch_ns) as f64 / 1e9,
    );
    let layer = crate::LayerInputs {
        tracer: &tracer,
        acc: &acc,
        loop_ops,
        io: traced.io,
        device: traced.device,
        storage,
        fleet: fleet_layer,
        overhead_pct: (ratio(ops_per_s, traced_ops_per_s) - 1.0) * 100.0,
    };
    crate::per_layer_metrics(&layer, outcome);
    dump_spans(opts, &tracer);
    Ok(traced.counts)
}

/// `flat_query_wsj`: the 2-worker batch must return exactly the sequential
/// reports.
fn check_batch(pass: &Pass, corrupt: bool, outcome: &mut Outcome) {
    let Some(batch) = &pass.batch else {
        return;
    };
    match batch {
        Err(e) => outcome.violation(format!("query_batch failed: {e}")),
        Ok(reports) => {
            let mut reports = reports.clone();
            if corrupt {
                corrupt_report(&mut reports[0]);
            }
            for (i, report) in reports.iter().enumerate() {
                let agrees = pass.reports[i]
                    .as_ref()
                    .is_some_and(|sequential| sequential.dims == report.dims);
                if !agrees {
                    outcome.violation(format!(
                        "batch report {i} differs from the sequential report"
                    ));
                }
            }
        }
    }
}

/// Indices of the reports checked against the oracle (seeded).
fn oracle_sample(reports: &[Option<RegionReport>], n: usize, seed: u64) -> Vec<usize> {
    if n == 0 || reports.is_empty() {
        return Vec::new();
    }
    let mut rng = SeededLcg::mixed(sub_seed(seed, 5));
    let mut picked = BTreeSet::new();
    while picked.len() < n.min(reports.len()) {
        picked.insert(rng.next_below(reports.len() as u64) as usize);
    }
    picked.into_iter().collect()
}

/// `sweep_query_wsj`: sampled reports must agree with the exhaustive
/// oracle in composition-only mode. The oracle's full region sweep is
/// quadratic in the tuple count (seconds per query at 2,000 tuples), so
/// each reported immutable region is checked with the oracle's top-k by
/// full scan instead: inside the region (at zero, near both ends and at
/// the middle) the result's composition must equal the composition at
/// zero, and just past each end that lies inside the weight domain it must
/// differ.
fn check_oracle(
    dataset: &Dataset,
    queries: &[QueryVector],
    reports: &[Option<RegionReport>],
    sample: &[usize],
    corrupt: bool,
    outcome: &mut Outcome,
) {
    const EDGE: f64 = 1e-7;
    let composition = |mut ids: Vec<TupleId>| {
        ids.sort_unstable();
        ids
    };
    for (n, &i) in sample.iter().enumerate() {
        let Some(report) = &reports[i] else {
            outcome.violation(format!("sampled query {i} has no report"));
            continue;
        };
        let mut report = report.clone();
        if corrupt && n == 0 {
            corrupt_report(&mut report);
        }
        let query = &queries[i];
        let oracle = ExhaustiveOracle::new(dataset, query.clone());
        for dim in &report.dims {
            let at = |delta: f64| composition(oracle.topk_at(dim.dim, delta));
            let base = at(0.0);
            let (lo, hi) = (dim.immutable.lo, dim.immutable.hi);
            let weight = query.weight(dim.dim);
            let width = hi - lo;
            let inside = [0.0, lo + width * 1e-4, lo + width * 0.5, hi - width * 1e-4];
            let mut wrong = !(lo <= 0.0 && 0.0 <= hi) || inside.iter().any(|&x| at(x) != base);
            if lo > -weight + EDGE {
                wrong |= at(lo - EDGE) == base;
            }
            if hi < 1.0 - weight - EDGE {
                wrong |= at(hi + EDGE) == base;
            }
            if wrong {
                outcome.violation(format!(
                    "query {i}, dim {:?}: region {:?} disagrees with the oracle's top-k",
                    dim.dim, dim.immutable
                ));
            }
        }
    }
}

/// Runs the oracle sample as one traced `query_batch` (the batch layer's
/// span on this workload) and checks it against the sequential reports.
fn traced_sample_batch(
    engine: &IrEngine,
    queries: &[QueryVector],
    reports: &[Option<RegionReport>],
    sample: &[usize],
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) {
    let batch: Vec<QueryVector> = sample.iter().map(|&i| queries[i].clone()).collect();
    match tracer.span("engine.batch", 0, || engine.query_batch(&batch)) {
        Err(e) => outcome.violation(format!("query_batch failed: {e}")),
        Ok(batch_reports) => {
            for (report, &i) in batch_reports.iter().zip(sample) {
                if reports[i].as_ref().map(|r| &r.dims) != Some(&report.dims) {
                    outcome.violation(format!("batch report of query {i} differs"));
                }
            }
        }
    }
}

/// Moves the first region boundary of a report: a wrong answer.
pub fn corrupt_report(report: &mut RegionReport) {
    if let Some(dim) = report.dims.first_mut() {
        dim.immutable.lo -= 0.125;
    }
}
