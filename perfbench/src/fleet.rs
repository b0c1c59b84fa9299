//! The `fleet_churn_wsj` workload, and the small fleet probe the traced
//! query workloads run so that every layer metric is measured on every
//! workload.
//!
//! The 20,000-document index is built once in memory (untimed), saved as a
//! snapshot, and every bring-up serves a fresh copy of that snapshot file
//! from the file backend: maintenance writes into the file it serves, so
//! no two bring-ups may share one. A bring-up opens the snapshot and admits
//! the fleet; admission computes every member's report and is the pass's
//! warm-up. The timed loop alternates a drift tick (`ingest` of 16 events)
//! with a batch of 16 tuple updates (`apply_updates`). The engine serves
//! fleet flushes on one worker, so the pool's page counters repeat exactly.

use crate::query::{corrupt_report, traced_query, LayerAcc, K};
use crate::stats::{median, quantile, ratio, tail_percentile};
use crate::trace::Tracer;
use crate::{corpus, dump_spans, probes, sub_seed, Counts, Options, Outcome, Params};
use immutable_regions::core::RegionConfig;
use immutable_regions::datagen::queries::DimSelection;
use immutable_regions::datagen::{
    DriftConfig, DriftEvent, DriftStream, QueryWorkload, UpdateConfig, UpdateStream, WorkloadConfig,
};
use immutable_regions::engine::{EngineResult, IrEngine};
use immutable_regions::fleet::{AnswerKind, FleetConfig, FleetStats, SubscriptionManager};
use immutable_regions::storage::buffer::DEFAULT_POOL_CAPACITY;
use immutable_regions::storage::{IoStatsSnapshot, MaintenanceStatsSnapshot, StorageBackend};
use immutable_regions::types::{Dataset, DimId, QueryVector, TupleId, TupleUpdate};
use std::path::Path;
use std::time::Instant;

/// Drift events per tick.
const TICK_EVENTS: usize = 16;
/// Tuple updates per maintenance batch.
const UPDATE_BATCH: usize = 16;
/// Query length of every member.
const MEMBER_QLEN: usize = 3;
/// Worker threads of the fleet's engine (see the module docs).
const FLEET_THREADS: usize = 1;

/// The generated inputs of one fleet.
struct FleetInputs {
    /// `(subscription id, initial query)`, most popular first.
    members: Vec<(u64, QueryVector)>,
    /// `rounds × tick` drift events.
    events: Vec<DriftEvent>,
    /// `rounds × batch` tuple updates, valid in order from the dataset.
    updates: Vec<TupleUpdate>,
    /// Rounds (one tick plus one update batch each).
    rounds: usize,
    /// Events per tick.
    tick: usize,
    /// Updates per batch.
    batch: usize,
}

impl FleetInputs {
    /// Generates the drift stream for `members` from `seed` and the update
    /// stream over `dataset` from `update_seed`.
    fn generate(
        dataset: &Dataset,
        members: Vec<(u64, QueryVector)>,
        rounds: usize,
        (tick, batch): (usize, usize),
        seed: u64,
        update_seed: u64,
    ) -> Result<Self, String> {
        // Nudges sized so that most events (about 85 %) stay inside the
        // member's reported region, with a steady minority of jumps out of
        // it. Drift is spread evenly over the members and jumps stay small,
        // so that a tick's cost does not follow one hot member's weights on
        // a long random walk: with Zipf-popular members and jumps of up to
        // 0.45, recompute work differed fourfold between seeds.
        let drift = DriftConfig {
            num_events: rounds * tick,
            zipf_exponent: 0.0,
            small_delta: 0.01,
            large_delta: 0.1,
            large_every: 10,
        };
        let events = DriftStream::generate(&members, &drift, sub_seed(seed, 6))
            .map_err(|e| format!("drift stream: {e}"))?
            .events()
            .to_vec();
        let updates = UpdateStream::generate(
            dataset,
            &UpdateConfig {
                num_updates: rounds * batch,
                churn: 0.4,
                zipf_exponent: 1.0,
                remove_fraction: 0.1,
            },
            sub_seed(update_seed, 7),
        )
        .map_err(|e| format!("update stream: {e}"))?
        .updates()
        .to_vec();
        Ok(FleetInputs {
            members,
            events,
            updates,
            rounds,
            tick,
            batch,
        })
    }
}

/// A served fleet.
struct Fleet {
    engine: IrEngine,
    manager: SubscriptionManager,
}

/// Opens a fresh copy of the snapshot in `master` on the file backend and
/// admits the members. Returns the fleet and the bring-up time in seconds.
fn bring_up(
    master: &Path,
    work: &Path,
    members: &[(u64, QueryVector)],
    mut tracer: Option<&mut Tracer>,
) -> Result<(Fleet, f64), String> {
    let file = "index.pages";
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    std::fs::copy(master.join(file), work.join(file))
        .map_err(|e| format!("snapshot copy into {}: {e}", work.display()))?;
    let start = Instant::now();
    let open = || {
        IrEngine::builder()
            .open_snapshot(work)
            .backend(StorageBackend::Disk(work.to_path_buf()))
            .threads(FLEET_THREADS)
            .build()
    };
    let engine = match tracer.as_mut() {
        None => open(),
        Some(tracer) => tracer.span("storage.snapshot_open", 0, open),
    }
    .map_err(|e| format!("snapshot open: {e}"))?;
    let mut manager = SubscriptionManager::new(
        &engine,
        FleetConfig {
            max_batch: 16,
            ..FleetConfig::default()
        },
    )
    .map_err(|e| format!("fleet: {e}"))?;
    manager
        .admit_all(members.iter().cloned())
        .map_err(|e| format!("fleet admission: {e}"))?;
    Ok((Fleet { engine, manager }, start.elapsed().as_secs_f64()))
}

/// What a fleet pass observed.
struct FleetPass {
    tick_ns: Vec<u64>,
    update_ns: Vec<u64>,
    round_ns: Vec<u64>,
    /// Durations of ticks whose every event was answered locally.
    local_tick_ns: Vec<u64>,
    elapsed_ns: u64,
    /// Failed ticks and update batches, and missing answers.
    failed: u64,
    /// Updates applied (a prefix of the stream).
    applied: usize,
    counts: Counts,
    io: IoStatsSnapshot,
    device: IoStatsSnapshot,
    maintenance: MaintenanceStatsSnapshot,
    stats: FleetStats,
}

/// Serves every round of `inputs`. A pass runs on a fresh bring-up, so the
/// fleet's and the index's cumulative counters are the pass's own.
fn fleet_pass(
    fleet: &mut Fleet,
    inputs: &FleetInputs,
    mut tracer: Option<&mut Tracer>,
) -> FleetPass {
    let Fleet { engine, manager } = fleet;
    let index = engine.index();
    let (io_before, device_before) = (index.io_snapshot(), index.store_io_snapshot());
    let mut counts = Counts::default();
    let (mut tick_ns, mut update_ns, mut round_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut local_tick_ns = Vec::new();
    let (mut failed, mut applied) = (0, 0);
    let start = Instant::now();
    for round in 0..inputs.rounds {
        let op = round as u64;
        let events = &inputs.events[round * inputs.tick..(round + 1) * inputs.tick];
        let updates = &inputs.updates[round * inputs.batch..(round + 1) * inputs.batch];

        let t = Instant::now();
        let answers = match tracer.as_mut() {
            None => manager.ingest(events),
            Some(tracer) => tracer.span("fleet.tick", op, || manager.ingest(events)),
        };
        let tick = t.elapsed().as_nanos() as u64;
        match answers {
            Ok(answers) => {
                counts.evaluated += answers.iter().map(|a| a.evaluated_candidates).sum::<u64>();
                if answers.len() != events.len() {
                    failed += 1;
                } else if answers.iter().all(|a| a.kind == AnswerKind::Local) {
                    local_tick_ns.push(tick);
                }
            }
            Err(e) => {
                eprintln!("perfbench: tick {round} failed: {e}");
                failed += 1;
            }
        }

        let t = Instant::now();
        let maintained: EngineResult<()> = match tracer.as_mut() {
            None => manager.apply_updates(updates).map(drop),
            // Split so that index maintenance and region revalidation each
            // get their own span.
            Some(tracer) => tracer
                .span("storage.maintain", op, || engine.apply_updates(updates))
                .and_then(|applied| {
                    tracer.span("fleet.revalidate", op, || manager.revalidate(&applied))
                }),
        };
        let update = t.elapsed().as_nanos() as u64;
        if let Err(e) = maintained {
            // Later updates of the stream may depend on this batch.
            eprintln!("perfbench: update batch {round} failed: {e}");
            failed += 1;
            break;
        }
        applied += updates.len();
        tick_ns.push(tick);
        update_ns.push(update);
        round_ns.push(tick + update);
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let io = index.io_snapshot().since(&io_before);
    let maintenance = engine.maintenance_stats();
    let stats = manager.stats();
    if maintenance.updates_applied != applied as u64 {
        failed += 1;
    }
    counts.logical_reads = io.logical_reads;
    counts.physical_reads = io.physical_reads;
    counts.maintenance_pages = (maintenance.logical_reads, maintenance.pages_written);
    counts.survived = stats.regions_survived;
    counts.punctured = stats.regions_punctured;
    counts.local_answers = stats.local_answers;
    FleetPass {
        tick_ns,
        update_ns,
        round_ns,
        local_tick_ns,
        elapsed_ns,
        failed,
        applied,
        counts,
        io,
        device: index.store_io_snapshot().since(&device_before),
        maintenance,
        stats,
    }
}

/// The fleet-layer figures of one traced fleet pass.
#[derive(Clone, Debug, Default)]
pub struct FleetLayer {
    /// Ticks run.
    pub ticks: u64,
    /// Events per tick.
    pub tick_events: u64,
    /// Durations of fully local ticks.
    pub local_tick_ns: Vec<u64>,
    /// Fleet statistics of the pass.
    pub stats: FleetStats,
    /// Maintenance counters of the pass.
    pub maintenance: MaintenanceStatsSnapshot,
    /// Operations (events and updates) the probe attempted.
    pub operations: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl FleetLayer {
    fn of(pass: &FleetPass, inputs: &FleetInputs) -> Self {
        FleetLayer {
            ticks: pass.tick_ns.len() as u64,
            tick_events: inputs.tick as u64,
            local_tick_ns: pass.local_tick_ns.clone(),
            stats: pass.stats,
            maintenance: pass.maintenance,
            operations: (inputs.events.len() + inputs.updates.len()) as u64,
            failed: pass.failed,
        }
    }
}

/// A small traced fleet on a query workload's index, so that the snapshot,
/// maintenance and fleet layers are measured on every workload: 16 members
/// taken from the workload's queries, 12 ticks of 4 events, 12 batches of
/// 8 updates, served from a snapshot of `engine` on the file backend.
pub fn layer_probe(
    engine: &IrEngine,
    dataset: &Dataset,
    queries: &[QueryVector],
    scratch: &Path,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<FleetLayer, String> {
    let master = scratch.join("probe-master");
    engine
        .save_snapshot(&master)
        .map_err(|e| format!("snapshot save: {e}"))?;
    let members: Vec<(u64, QueryVector)> = queries
        .iter()
        .take(16)
        .cloned()
        .enumerate()
        .map(|(i, q)| (i as u64, q))
        .collect();
    let probe_seed = sub_seed(seed, 8);
    let inputs = FleetInputs::generate(dataset, members, 12, (4, 8), probe_seed, probe_seed)?;
    let mut layer = FleetLayer::default();
    for rep in 0..3 {
        let (mut fleet, _) = bring_up(
            &master,
            &scratch.join(format!("probe-{rep}")),
            &inputs.members,
            Some(&mut *tracer),
        )?;
        if rep == 2 {
            let pass = fleet_pass(&mut fleet, &inputs, Some(&mut *tracer));
            layer = FleetLayer::of(&pass, &inputs);
        }
    }
    Ok(layer)
}

/// The fleet's members: `members` popularity-biased queries of length 3.
fn members(dataset: &Dataset, n: usize, seed: u64) -> Result<Vec<(u64, QueryVector)>, String> {
    let workload = QueryWorkload::generate(
        dataset,
        &WorkloadConfig {
            qlen: MEMBER_QLEN,
            k: K,
            num_queries: n,
            min_postings: (2 * K).max(20),
            max_postings: usize::MAX,
            selection: DimSelection::PopularityBiased,
            equal_weights: false,
        },
        sub_seed(seed, 4),
    )
    .map_err(|e| format!("member queries: {e}"))?;
    Ok(workload
        .queries()
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, q)| (i as u64, q))
        .collect())
}

/// Runs `fleet_churn_wsj`; returns the counters the ledger compares.
pub fn run(
    opts: &Options,
    params: &Params,
    scratch: &Path,
    outcome: &mut Outcome,
) -> Result<Counts, String> {
    let dataset = corpus(params);
    let inputs = FleetInputs::generate(
        &dataset,
        members(&dataset, params.members, crate::FIXED_SEED)?,
        params.rounds,
        (TICK_EVENTS, UPDATE_BATCH),
        opts.seed,
        crate::FIXED_SEED,
    )?;
    let master = scratch.join("master");
    let index_pages = {
        let built = IrEngine::builder()
            .dataset_ref(&dataset)
            .build()
            .map_err(|e| format!("engine build: {e}"))?;
        built
            .save_snapshot(&master)
            .map_err(|e| format!("snapshot save: {e}"))?;
        built.cold_start_info().pages
    };
    outcome.stamp.extend([
        ("docs", dataset.cardinality().to_string()),
        ("terms", dataset.dimensionality().to_string()),
        ("members", inputs.members.len().to_string()),
        ("rounds", inputs.rounds.to_string()),
        ("index_pages", index_pages.to_string()),
        ("pool_capacity", DEFAULT_POOL_CAPACITY.to_string()),
        ("backend", "file".to_string()),
        ("fleet_threads", FLEET_THREADS.to_string()),
    ]);

    let mut setup_s = Vec::with_capacity(params.setup_reps);
    let mut fleet = None;
    for rep in 0..params.setup_reps.max(1) {
        drop(fleet.take());
        let work = scratch.join(format!("work-{rep}"));
        let (up, seconds) = bring_up(&master, &work, &inputs.members, None)?;
        setup_s.push(seconds);
        fleet = Some(up);
    }
    let mut fleet = fleet.expect("at least one bring-up ran");
    let plain = fleet_pass(&mut fleet, &inputs, None);
    outcome.attempted += (inputs.events.len() + inputs.updates.len()) as u64;
    outcome.failed += plain.failed;

    let ops = (inputs.rounds * (inputs.tick + inputs.batch)) as u64;
    let ops_per_s = ratio(ops as f64, plain.elapsed_ns as f64 / 1e9);
    let rounds = plain.round_ns.len() as u64;
    let tail = tail_percentile(plain.round_ns.len(), &[90.0]);
    let q = tail / 100.0;
    let p50_ms = quantile(&plain.round_ns, 0.5) as f64 / 1e6;
    let tail_ms = quantile(&plain.round_ns, q) as f64 / 1e6;
    outcome.line("setup_s", median(&setup_s), "s", setup_s.len() as u64);
    outcome.line("ops_per_s", ops_per_s, "1/s", ops);
    for (name, samples) in [
        ("round", &plain.round_ns),
        ("drift_tick", &plain.tick_ns),
        ("update", &plain.update_ns),
    ] {
        let ms = |q: f64| quantile(samples, q) as f64 / 1e6;
        outcome.line(&format!("{name}_p50_ms"), ms(0.5), "ms", rounds);
        if tail > 50.0 {
            outcome.line(&format!("{name}_p{tail}_ms"), ms(q), "ms", rounds);
        }
    }
    outcome.line(
        "hit_ratio",
        plain.stats.hit_ratio(),
        "ratio",
        plain.stats.events,
    );
    outcome.line(
        "punctured",
        plain.stats.regions_punctured as f64,
        "count",
        plain.stats.regions_survived + plain.stats.regions_punctured,
    );
    outcome.line(
        "maint_pages_written",
        plain.maintenance.pages_written as f64,
        "count",
        plain.maintenance.batches,
    );

    if !opts.trace {
        check(
            &dataset,
            &inputs.updates[..plain.applied],
            &fleet,
            opts.corrupt_answer,
            None,
            outcome,
        )?;
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
    let (mut traced_fleet, _) = bring_up(
        &master,
        &scratch.join("work-traced"),
        &inputs.members,
        Some(&mut tracer),
    )?;
    let traced = fleet_pass(&mut traced_fleet, &inputs, Some(&mut tracer));
    outcome.attempted += (inputs.events.len() + inputs.updates.len()) as u64;
    outcome.failed += traced.failed;
    if traced.counts.shared() != plain.counts.shared() {
        outcome.violation(format!(
            "traced pass counters {:?} differ from the untraced pass {:?}",
            traced.counts, plain.counts
        ));
    }
    let reports = |f: &Fleet| -> Vec<_> {
        f.manager
            .members()
            .map(|m| m.report().dims.clone())
            .collect()
    };
    if reports(&traced_fleet) != reports(&fleet) {
        outcome.violation("traced fleet reports differ from the untraced fleet".to_string());
    }
    let mut acc = LayerAcc::default();
    check(
        &dataset,
        &inputs.updates[..traced.applied],
        &traced_fleet,
        false,
        Some((&mut tracer, &mut acc)),
        outcome,
    )?;

    let dims: Vec<DimId> = acc.dims.iter().copied().collect();
    let touched: Vec<TupleId> = acc.touched.iter().copied().collect();
    let storage = probes::storage(&traced_fleet.engine, &touched, &dims)?;
    let traced_ops_per_s = ratio(ops as f64, traced.elapsed_ns as f64 / 1e9);
    let layer = crate::LayerInputs {
        tracer: &tracer,
        acc: &acc,
        loop_ops: ops,
        io: traced.io,
        device: traced.device,
        storage,
        fleet: FleetLayer::of(&traced, &inputs),
        overhead_pct: (ratio(ops_per_s, traced_ops_per_s) - 1.0) * 100.0,
    };
    crate::per_layer_metrics(&layer, outcome);
    dump_spans(opts, &tracer);
    Ok(traced.counts)
}

/// The `dynamic` runner's law: after the stream, every member's report,
/// a re-run of every member query (one at a time and as one batch) must
/// equal a fresh engine built on the mutated dataset.
fn check(
    dataset: &Dataset,
    applied: &[TupleUpdate],
    fleet: &Fleet,
    corrupt: bool,
    mut traced: Option<(&mut Tracer, &mut LayerAcc)>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let mutated = dataset
        .with_updates(applied)
        .map_err(|e| format!("mutated dataset: {e}"))?;
    let fresh = IrEngine::builder()
        .dataset(mutated)
        .build()
        .map_err(|e| format!("fresh engine: {e}"))?;
    let config = RegionConfig::default();
    let mut currents = Vec::new();
    let mut expected_current = Vec::new();
    for (n, member) in fleet.manager.members().enumerate() {
        if member.is_stale() {
            outcome.violation(format!("member {} is still stale", member.id()));
        }
        let mut report = member.report().clone();
        if corrupt && n == 0 {
            corrupt_report(&mut report);
        }
        match fresh.query_with(member.anchor(), config) {
            Ok(expected) if expected.dims == report.dims => {}
            Ok(_) => outcome.violation(format!(
                "member {}'s maintained report differs from a fresh engine",
                member.id()
            )),
            Err(e) => outcome.violation(format!("fresh engine query failed: {e}")),
        }
        let rerun = match traced.as_mut() {
            None => fleet.engine.query_with(member.current(), config),
            Some((tracer, acc)) => traced_query(
                &fleet.engine,
                member.current(),
                config,
                tracer,
                member.id(),
                acc,
            ),
        };
        let expected = fresh.query_with(member.current(), config);
        match (rerun, &expected) {
            (Ok(rerun), Ok(expected)) if rerun.dims == expected.dims => {}
            _ => outcome.violation(format!(
                "member {}'s query differs from a fresh engine",
                member.id()
            )),
        }
        currents.push(member.current().clone());
        expected_current.push(expected.ok().map(|r| r.dims));
    }
    let batch = match traced.as_mut() {
        None => fleet.engine.query_batch(&currents),
        Some((tracer, _)) => tracer.span("engine.batch", 0, || fleet.engine.query_batch(&currents)),
    };
    match batch {
        Ok(reports) => {
            for (i, report) in reports.iter().enumerate() {
                if expected_current[i].as_ref() != Some(&report.dims) {
                    outcome.violation(format!(
                        "batched member query {i} differs from a fresh engine"
                    ));
                }
            }
        }
        Err(e) => outcome.violation(format!("member query_batch failed: {e}")),
    }
    Ok(())
}
