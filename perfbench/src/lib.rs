//! Serving benchmark of the immutable-regions stack.
//!
//! One run serves one workload through the public [`IrEngine`] /
//! [`SubscriptionManager`] API from one process with at most two threads,
//! checks every answer, and reports either the end-to-end metrics (untraced
//! run) or the per-layer metrics (traced run). `README.md` beside this
//! package lists every metric, every workload and why it was chosen.
//!
//! The amount of work is a deterministic function of the workload, the
//! seed and the requested seconds, so the deterministic counters (page
//! reads, evaluated candidates, Phase-3 tuples, TA accesses, maintenance
//! pages, survival and local-answer counts) repeat exactly for one seed;
//! the benchmark asserts that across its own passes and runs.
//!
//! [`IrEngine`]: immutable_regions::engine::IrEngine
//! [`SubscriptionManager`]: immutable_regions::fleet::SubscriptionManager

pub mod fleet;
pub mod probes;
pub mod query;
pub mod stats;
pub mod trace;

use immutable_regions::datagen::{TextCorpusConfig, TextCorpusGenerator};
use immutable_regions::storage::IoStatsSnapshot;
use immutable_regions::types::Dataset;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Worker threads of every engine the benchmark builds (`query_batch` and
/// fleet flushes). The sequential loops run on the calling thread.
pub const THREADS: usize = 2;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Pool-bound flat CPT queries on the 20,000-document corpus.
    FlatQuery,
    /// Solver-bound composition-only CPT queries on a pool-resident corpus.
    SweepQuery,
    /// A 64-member subscription fleet on the file backend under drift
    /// ticks alternating with tuple-update batches.
    FleetChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FlatQuery,
        Workload::SweepQuery,
        Workload::FleetChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlatQuery => "flat_query_wsj",
            Workload::SweepQuery => "sweep_query_wsj",
            Workload::FleetChurn => "fleet_churn_wsj",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The inputs' sizes for a run whose timed loop takes about `seconds`
    /// seconds on a 2-core host (at `seconds` = 20: 1,000 queries, or 280
    /// fleet rounds, enough samples for a p99 or p90 with ten beyond it).
    pub fn params(self, seconds: u64, size: Size) -> Params {
        let s = seconds.max(1) as usize;
        let wsj = TextCorpusConfig::default();
        let none = Params {
            corpus: TextCorpusConfig::tiny(),
            queries: 0,
            warm_queries: 0,
            batch_queries: 0,
            oracle_sample: 0,
            members: 0,
            rounds: 0,
            setup_reps: 3,
        };
        match (self, size) {
            (Workload::FlatQuery, Size::Full) => Params {
                corpus: wsj,
                queries: 50 * s,
                warm_queries: 200,
                batch_queries: 25 * s,
                setup_reps: 5,
                ..none
            },
            (Workload::SweepQuery, Size::Full) => Params {
                corpus: TextCorpusConfig {
                    num_docs: 2_000,
                    vocabulary: 1_000,
                    ..wsj
                },
                queries: 50 * s,
                warm_queries: 100,
                oracle_sample: 64,
                setup_reps: 15,
                ..none
            },
            (Workload::FleetChurn, Size::Full) => Params {
                corpus: wsj,
                members: 64,
                rounds: 14 * s,
                setup_reps: 5,
                ..none
            },
            (Workload::FlatQuery, Size::Tiny) => Params {
                queries: 40,
                warm_queries: 10,
                batch_queries: 20,
                ..none
            },
            (Workload::SweepQuery, Size::Tiny) => Params {
                queries: 40,
                warm_queries: 10,
                oracle_sample: 8,
                ..none
            },
            (Workload::FleetChurn, Size::Tiny) => Params {
                members: 8,
                rounds: 12,
                ..none
            },
        }
    }
}

/// Size class of the generated inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// A few hundred tuples, for the benchmark's own tests.
    Tiny,
}

/// Input sizes of one run.
#[derive(Clone, Debug)]
pub struct Params {
    /// Corpus shape (the seed is the run's).
    pub corpus: TextCorpusConfig,
    /// Timed sequential queries.
    pub queries: usize,
    /// Untimed queries that warm the buffer pool before each pass.
    pub warm_queries: usize,
    /// Queries of the timed 2-worker `query_batch` (0: no batch pass).
    pub batch_queries: usize,
    /// Reports checked against the exhaustive oracle.
    pub oracle_sample: usize,
    /// Fleet members.
    pub members: usize,
    /// Fleet rounds (one drift tick plus one update batch each).
    pub rounds: usize,
    /// Timed engine bring-ups; `setup_s` is their median.
    pub setup_reps: usize,
}

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Requested measurement length; sizes the work.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input size class.
    pub size: Size,
    /// Where snapshots, span dumps and the count ledger go.
    pub state_dir: PathBuf,
    /// Corrupts one checked answer before the output check (self-tests
    /// use it to prove the check catches a wrong answer).
    pub corrupt_answer: bool,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The deterministic counters of one pass, which must repeat exactly for
/// one seed. TA accesses are only observable in a traced pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Buffer-pool logical page reads.
    pub logical_reads: u64,
    /// Buffer-pool physical page reads (misses).
    pub physical_reads: u64,
    /// Evaluated candidates over all region computations.
    pub evaluated: u64,
    /// Phase-3 tuples over all region computations.
    pub phase3: u64,
    /// TA sorted and random accesses (traced passes only).
    pub ta_accesses: Option<(u64, u64)>,
    /// Maintenance logical reads and pages written.
    pub maintenance_pages: (u64, u64),
    /// Screened regions that survived an update batch.
    pub survived: u64,
    /// Screened regions an update batch punctured.
    pub punctured: u64,
    /// Drift events answered from cached regions.
    pub local_answers: u64,
}

impl Counts {
    /// The counters an untraced and a traced pass share.
    pub fn shared(&self) -> Counts {
        Counts {
            ta_accesses: None,
            ..self.clone()
        }
    }
}

/// The result of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (queries, drift events, tuple updates).
    pub attempted: u64,
    /// Operations that failed plus answers that failed their check.
    pub failed: u64,
    /// One line per failed check.
    pub violations: Vec<String>,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (metric, unit, sample count).
    pub lines: Vec<String>,
    /// Run stamp (`key`, value) pairs.
    pub stamp: Vec<(&'static str, String)>,
}

impl Outcome {
    /// True when nothing failed and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Records a failed check.
    pub fn violation(&mut self, message: String) {
        self.failed += 1;
        self.violations.push(message);
    }

    /// Adds a metric to the JSON result.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a report line: a named value with its unit and sample count.
    pub fn line(&mut self, name: &str, value: f64, unit: &str, samples: u64) {
        self.lines
            .push(format!("{name} = {value:.4} {unit} (n = {samples})"));
    }

    /// The last line of the benchmark's output.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The stamp as one JSON object.
    pub fn stamp_json(&self) -> String {
        let fields: Vec<String> = self
            .stamp
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// End-to-end metrics (untraced run), with units, in `BENCHMARK.json`
/// order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), with units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("topk.ta_ms", "ms"),
    ("topk.sorted_accesses", "count"),
    ("topk.random_accesses", "count"),
    ("topk.initial_candidates", "count"),
    ("topk.us_per_access", "us"),
    ("core.regions_ms", "ms"),
    ("core.phase3_tuples", "count"),
    ("core.evaluated_per_dim", "count"),
    ("core.us_per_phase3_tuple", "us"),
    ("core.boundary_yield", "ratio"),
    ("storage.logical_reads", "count"),
    ("storage.physical_reads", "count"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.read_retries", "count"),
    ("storage.fetch_tuple_us", "us"),
    ("storage.pool_hit_us", "us"),
    ("storage.pool_miss_us", "us"),
    ("storage.sorted_entry_us", "us"),
    ("storage.snapshot_open_ms", "ms"),
    ("storage.maintain_ms", "ms"),
    ("storage.maint_reads_per_update", "count"),
    ("storage.maint_pages_written_per_update", "count"),
    ("storage.lists_rewritten_per_batch", "count"),
    ("storage.device_read_syscalls", "count"),
    ("storage.device_pages_written", "count"),
    ("engine.query_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("engine.batch_ms", "ms"),
    ("fleet.tick_ms", "ms"),
    ("fleet.local_event_us", "us"),
    ("fleet.hit_ratio", "ratio"),
    ("fleet.recomputes_per_tick", "count"),
    ("fleet.revalidate_ms", "ms"),
    ("fleet.survival_ratio", "ratio"),
    ("fleet.reanchors_per_batch", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// Derives an independent sub-seed for input `tag` (splitmix64 finaliser).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the populations every run shares: the corpus, the timed query
/// set, the fleet's members and its update stream. `--seed` drives the
/// order of the queries, the warm-up queries and the drift stream. With
/// populations drawn per seed, which population a seed drew moved the
/// timings by up to a quarter from seed to seed, which no bound could
/// absorb.
pub const FIXED_SEED: u64 = 0xC0FFEE;

/// The workload's corpus.
pub fn corpus(params: &Params) -> Dataset {
    TextCorpusGenerator::new(params.corpus.clone()).generate_corpus(FIXED_SEED)
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload and returns its outcome. `Err` means the run could
/// not be set up (inputs, engine bring-up); failures of individual
/// operations and checks land in the outcome instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let params = opts.workload.params(opts.seconds, opts.size);
    std::fs::create_dir_all(&opts.state_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.state_dir.display()))?;
    let scratch = Scratch::new(&opts.state_dir)?;
    let mut outcome = Outcome {
        stamp: vec![
            ("workload", opts.workload.name().to_string()),
            ("seed", opts.seed.to_string()),
            ("seconds", opts.seconds.to_string()),
            ("trace", u8::from(opts.trace).to_string()),
            (
                "nproc",
                std::thread::available_parallelism()
                    .map_or(0, |n| n.get())
                    .to_string(),
            ),
            ("threads", THREADS.to_string()),
            ("git_rev", git_revision()),
        ],
        ..Outcome::default()
    };
    let counts = match opts.workload {
        Workload::FlatQuery | Workload::SweepQuery => {
            query::run(opts, &params, scratch.path(), &mut outcome)?
        }
        Workload::FleetChurn => fleet::run(opts, &params, scratch.path(), &mut outcome)?,
    };
    check_ledger(opts, &counts, &mut outcome);
    Ok(outcome)
}

/// Compares this run's counters with an earlier run of the same build,
/// workload, seed, length and mode, and records them for later runs.
fn check_ledger(opts: &Options, counts: &Counts, outcome: &mut Outcome) {
    let Some(build) = build_fingerprint() else {
        return;
    };
    let dir = opts.state_dir.join("ledger");
    let file = dir.join(format!(
        "{}-seed{}-sec{}-trace{}-{:?}-{build}.txt",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.size,
    ));
    let line = format!("{counts:?}");
    outcome.stamp.push(("counts", line.clone()));
    match std::fs::read_to_string(&file) {
        Ok(previous) if previous != line => outcome.violation(format!(
            "deterministic counters differ from an earlier run on this seed: {previous} vs {line}"
        )),
        Ok(_) => {}
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, &line));
        }
    }
}

/// Size and modification time of the running executable: runs of one
/// build share it.
fn build_fingerprint() -> Option<String> {
    let meta = std::env::current_exe().ok()?.metadata().ok()?;
    let modified = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?;
    Some(format!("{}-{}", meta.len(), modified.as_nanos()))
}

/// The git revision of the working directory, without looking above it.
fn git_revision() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(Path::to_path_buf).unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A per-process scratch directory, removed with everything in it on drop.
struct Scratch {
    path: PathBuf,
}

impl Scratch {
    fn new(state_dir: &Path) -> Result<Self, String> {
        let path = state_dir.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Writes the traced run's spans beside the other state.
pub fn dump_spans(opts: &Options, tracer: &trace::Tracer) {
    let dir = opts.state_dir.join("traces");
    let path = dir.join(format!(
        "{}-seed{}-{:?}.tsv",
        opts.workload.name(),
        opts.seed,
        opts.size
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| tracer.write_tsv(&path)) {
        eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
    }
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Spans of the traced run.
    pub tracer: &'a trace::Tracer,
    /// TA and solver work of the traced queries.
    pub acc: &'a query::LayerAcc,
    /// Operations of the traced loop.
    pub loop_ops: u64,
    /// Buffer-pool I/O of the traced loop.
    pub io: IoStatsSnapshot,
    /// Device I/O of the traced loop.
    pub device: IoStatsSnapshot,
    /// Storage probe results.
    pub storage: probes::StorageProbe,
    /// Figures of the traced fleet pass.
    pub fleet: fleet::FleetLayer,
    /// Untraced throughput over traced throughput, minus one, in percent.
    pub overhead_pct: f64,
}

/// Adds every [`PER_LAYER`] metric, in order.
pub fn per_layer_metrics(l: &LayerInputs, outcome: &mut Outcome) {
    use stats::ratio;
    let span = |name| l.tracer.totals(name);
    let (ta, core, query) = (span("topk.ta"), span("core.regions"), span("engine.query"));
    let acc = l.acc;
    let queries = acc.queries as f64;
    let ops = l.loop_ops as f64;
    let io = &l.io;
    let fleet = &l.fleet;
    let maint = &fleet.maintenance;
    let screened = fleet.stats.regions_survived + fleet.stats.regions_punctured;
    let local_tick_ms = if fleet.local_tick_ns.is_empty() {
        0.0
    } else {
        fleet.local_tick_ns.iter().sum::<u64>() as f64 / fleet.local_tick_ns.len() as f64 / 1e6
    };
    let values = [
        ta.mean_ms(),
        ratio(acc.sorted as f64, queries),
        ratio(acc.random as f64, queries),
        ratio(acc.initial as f64, queries),
        ratio(ta.total_ns as f64 / 1e3, (acc.sorted + acc.random) as f64),
        core.mean_ms(),
        ratio(acc.phase3 as f64, queries),
        ratio(acc.per_dim, queries),
        ratio(core.total_ns as f64 / 1e3, acc.phase3 as f64),
        ratio(acc.boundary_tuples as f64, acc.evaluated as f64),
        ratio(io.logical_reads as f64, ops),
        ratio(io.physical_reads as f64, ops),
        if io.logical_reads == 0 {
            0.0
        } else {
            1.0 - io.physical_reads as f64 / io.logical_reads as f64
        },
        ratio(io.read_retries as f64, ops),
        l.storage.fetch_tuple_us,
        l.storage.pool_hit_us,
        l.storage.pool_miss_us,
        l.storage.sorted_entry_us,
        span("storage.snapshot_open").mean_ms(),
        span("storage.maintain").mean_ms(),
        ratio(maint.logical_reads as f64, maint.updates_applied as f64),
        ratio(maint.pages_written as f64, maint.updates_applied as f64),
        ratio(maint.lists_rewritten as f64, maint.batches as f64),
        ratio(l.device.read_syscalls as f64, ops),
        ratio(l.device.pages_written as f64, ops),
        query.mean_ms(),
        query.mean_self_ms(),
        span("engine.batch").mean_ms(),
        span("fleet.tick").mean_ms(),
        ratio(local_tick_ms * 1e3, fleet.tick_events as f64),
        fleet.stats.hit_ratio(),
        ratio(fleet.stats.recomputes as f64, fleet.ticks as f64),
        span("fleet.revalidate").mean_ms(),
        ratio(fleet.stats.regions_survived as f64, screened as f64),
        ratio(fleet.stats.regions_punctured as f64, maint.batches as f64),
        l.overhead_pct,
    ];
    for ((name, unit), value) in PER_LAYER.into_iter().zip(values) {
        outcome.metric(name, value, unit);
        outcome.lines.push(format!("{name} = {value:.6} {unit}"));
    }
}
