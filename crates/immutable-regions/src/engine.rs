//! [`IrEngine`]: an owned, service-grade façade over the whole stack.
//!
//! The paper's workload is service-shaped: a *subscribed* top-k query whose
//! immutable regions are recomputed as the preference weights drift. The
//! low-level API ([`RegionComputation`]) makes every caller hand-assemble
//! dataset → index → pool → config. The engine replaces that with one owned
//! object that holds the warm state (index + buffer pool behind [`Arc`]) and
//! serves queries; handles are `Send + Sync + Clone` with no caller-visible
//! lifetimes.
//!
//! Two call styles are surfaced:
//!
//! * [`IrEngine::query`] — one query, one [`RegionReport`] (bit-identical to
//!   the low-level sequential path),
//! * [`IrEngine::query_batch`] — many queries fanned out over the engine's
//!   worker pool sharing the warm buffer pool
//!   ([`BatchRegionComputation`] underneath; reports are identical for
//!   every worker count).
//!
//! The subscribed-query loop — cache the last report, answer weight drift
//! locally, recompute only on region exit — is served by
//! [`SubscriptionManager`](crate::fleet::SubscriptionManager), for one
//! subscription or many.
//!
//! ```
//! use immutable_regions::prelude::*;
//!
//! let engine = IrEngine::builder()
//!     .dataset(Dataset::running_example())
//!     .build()?;
//! let report = engine.query(&QueryVector::running_example())?;
//! let dim0 = report.for_dim(DimId(0)).unwrap();
//! assert!((dim0.immutable.lo + 16.0 / 35.0).abs() < 1e-9);
//! # Ok::<(), immutable_regions::engine::EngineError>(())
//! ```

use ir_core::{
    BatchOutcome, BatchRegionComputation, RegionComputation, RegionConfig, RegionReport,
};
use ir_storage::{
    AppliedUpdate, BackendKind, ColdStartInfo, FaultPlan, IndexBuilder, IoConfig,
    MaintenanceStatsSnapshot, RetryPolicy, SnapshotSummary, StorageBackend, TopKIndex,
};
use ir_topk::TaConfig;
use ir_types::{Dataset, DimId, IrError, QueryVector, SparseVector, TupleId, TupleUpdate};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;

/// The unified error type of the engine layer.
///
/// The recoverable conditions a serving layer must distinguish get their own
/// typed variants (so callers can, e.g., reject a request instead of
/// retrying it); everything else is carried through as [`EngineError::Core`].
#[derive(Debug)]
pub enum EngineError {
    /// The engine was built over a dataset (or prebuilt index) with no
    /// tuples — no query can be answered.
    EmptyDataset,
    /// A query requested more result tuples than the dataset holds.
    KTooLarge {
        /// Requested result size.
        k: usize,
        /// Number of indexed tuples.
        cardinality: usize,
    },
    /// A query weighted a dimension the index does not know about.
    DimensionNotIndexed {
        /// The offending dimension index.
        dim: u32,
        /// Dimensionality of the indexed dataset.
        dimensionality: u32,
    },
    /// A query had no strictly positive weight (all weights zero or absent).
    ZeroWeightQuery,
    /// [`IrEngineBuilder::build`] was called without a dataset or index.
    NoSource,
    /// [`IrEngine::save_snapshot`] failed; the directory is named so an
    /// operator can tell a permissions/space problem from a device fault.
    SnapshotSave {
        /// Directory the snapshot was being written into.
        dir: PathBuf,
        /// The underlying storage error.
        source: IrError,
    },
    /// [`IrEngineBuilder::open_snapshot`] failed — a missing, foreign,
    /// corrupt or version-bumped snapshot file, or a device fault during
    /// the trailer read.
    SnapshotOpen {
        /// Directory the snapshot was being opened from.
        dir: PathBuf,
        /// The underlying storage error.
        source: IrError,
    },
    /// An engine policy could not be loaded or was inconsistent.
    Policy(String),
    /// Any other error from the underlying stack (storage, TA, solvers).
    Core(IrError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EmptyDataset => write!(f, "engine has no tuples to query"),
            EngineError::KTooLarge { k, cardinality } => write!(
                f,
                "k = {k} exceeds the {cardinality} tuples the engine indexes"
            ),
            EngineError::DimensionNotIndexed {
                dim,
                dimensionality,
            } => write!(
                f,
                "query dimension {dim} is not indexed (dataset has {dimensionality} dimensions)"
            ),
            EngineError::ZeroWeightQuery => {
                write!(f, "query has no dimension with a positive weight")
            }
            EngineError::NoSource => {
                write!(f, "engine builder needs a dataset or a prebuilt index")
            }
            EngineError::SnapshotSave { dir, source } => {
                write!(f, "saving snapshot to {}: {source}", dir.display())
            }
            EngineError::SnapshotOpen { dir, source } => {
                write!(f, "opening snapshot from {}: {source}", dir.display())
            }
            EngineError::Policy(msg) => write!(f, "invalid engine policy: {msg}"),
            EngineError::Core(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(err)
            | EngineError::SnapshotSave { source: err, .. }
            | EngineError::SnapshotOpen { source: err, .. } => Some(err),
            _ => None,
        }
    }
}

impl From<IrError> for EngineError {
    fn from(err: IrError) -> Self {
        match err {
            IrError::InvalidK { k, cardinality } => EngineError::KTooLarge { k, cardinality },
            IrError::UnknownDimension {
                dim,
                dimensionality,
            } => EngineError::DimensionNotIndexed {
                dim,
                dimensionality,
            },
            IrError::EmptyQuery => EngineError::ZeroWeightQuery,
            other => EngineError::Core(other),
        }
    }
}

/// The serializable part of an engine's configuration: the default region
/// policy, the worker count and the storage-backend kind. Loadable from a
/// JSON file ([`EnginePolicy::from_json_file`]) and dumped into
/// `BENCH_*.json` metadata by the experiment harness.
///
/// Deserialization is strict — every field must be present (the vendored
/// serde has no `#[serde(default)]`), so policy JSON written before a field
/// existed must be refreshed; the committed bench baselines were
/// regenerated when `backend` was added and again when `fault_plan` was.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnginePolicy {
    /// Default region configuration (algorithm, φ, perturbation mode).
    pub config: RegionConfig,
    /// Worker count for batch execution (1 = sequential).
    pub threads: usize,
    /// Which page-store backend serves the engine (mem, file or mmap).
    ///
    /// Descriptive metadata: [`IrEngine::policy`] reports the backend the
    /// index was actually built on, and the experiment harness stamps it
    /// into emitted series. When *loading* a policy, the field is advisory —
    /// selecting a file or mmap backend needs a path and goes through
    /// [`IrEngineBuilder::backend`] / [`IrEngineBuilder::on_disk`] /
    /// [`IrEngineBuilder::on_mmap`].
    pub backend: BackendKind,
    /// The fault plan the engine's storage device executes, if any
    /// (`null`/`None` — the default — means a well-behaved device).
    ///
    /// Unlike `backend` this field *is* applied by
    /// [`IrEngineBuilder::policy`]: a policy file describing a
    /// chaos-testing configuration is enough to reproduce it.
    pub fault_plan: Option<FaultPlan>,
    /// How the engine's index came up and what deterministic work that cost
    /// (built from the dataset vs opened from a snapshot; pages touched,
    /// bytes parsed — see [`ColdStartInfo`]).
    ///
    /// Descriptive metadata, like `backend`: [`IrEngine::policy`] reports
    /// what actually happened and the experiment harness stamps it into
    /// emitted series; [`IrEngineBuilder::policy`] does not apply it.
    pub cold_start: ColdStartInfo,
    /// The cluster topology this engine served under, if any (`null`/`None`
    /// — the default — means a plain unsharded engine).
    ///
    /// Descriptive metadata stamped by the `ir-cluster` coordinator so every
    /// `BENCH_*.json` records how many shards produced the numbers, how the
    /// work was partitioned and which seed drove the simulated network.
    pub cluster: Option<ClusterTopology>,
}

impl Default for EnginePolicy {
    fn default() -> Self {
        EnginePolicy {
            config: RegionConfig::default(),
            threads: 1,
            backend: BackendKind::Mem,
            fault_plan: None,
            cold_start: ColdStartInfo::default(),
            cluster: None,
        }
    }
}

/// How a sharded cluster splits a batch of region computations across its
/// nodes (see the `ir-cluster` crate; defined here so [`EnginePolicy`] can
/// record it without depending on the cluster layer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionMode {
    /// Shard by query dimension: every node holds the full index and solves
    /// the dimensions assigned to it (`dim_index % shards`), one partial
    /// region per dimension.
    #[default]
    ByDim,
    /// Shard by query: every node solves whole queries
    /// (`query_index % shards`) with the plain sequential solver.
    ByQuery,
}

impl fmt::Display for PartitionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PartitionMode::ByDim => "by-dim",
            PartitionMode::ByQuery => "by-query",
        })
    }
}

impl FromStr for PartitionMode {
    type Err = EngineError;

    /// Accepts both the CLI spellings (`by-dim`) and the serialized variant
    /// names (`ByDim`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "by-dim" | "bydim" | "dim" => Ok(PartitionMode::ByDim),
            "by-query" | "byquery" | "query" => Ok(PartitionMode::ByQuery),
            other => Err(EngineError::Policy(format!(
                "unknown partition mode `{other}` (expected by-dim or by-query)"
            ))),
        }
    }
}

/// The shape of a sharded cluster run, as stamped into [`EnginePolicy`] and
/// `BENCH_*.json` metadata: shard count, partition mode and the seed that
/// drove the simulated network's delivery order (and any churn schedule).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterTopology {
    /// Number of shard nodes the work was partitioned across.
    pub shards: u32,
    /// How the work was split ([`PartitionMode`]).
    pub partition: PartitionMode,
    /// The seed of the simulated network (message delay/reordering/drop)
    /// and churn schedule. Two runs with equal topology are byte-identical.
    pub seed: u64,
}

impl EnginePolicy {
    /// Parses a policy from its JSON representation.
    pub fn from_json(json: &str) -> EngineResult<Self> {
        serde_json::from_str(json).map_err(|e| EngineError::Policy(e.to_string()))
    }

    /// Reads a policy from a JSON file.
    pub fn from_json_file(path: impl AsRef<Path>) -> EngineResult<Self> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path)
            .map_err(|e| EngineError::Policy(format!("{}: {e}", path.display())))?;
        Self::from_json(&json)
    }

    /// Renders the policy as JSON (the format [`EnginePolicy::from_json`]
    /// reads back).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("policy serializes infallibly")
    }
}

/// What the engine is built from.
enum EngineSource<'d> {
    /// Build a fresh index over this owned dataset.
    Dataset(Dataset),
    /// Build a fresh index over a borrowed dataset (no clone; the borrow
    /// ends at [`IrEngineBuilder::build`] — the engine never keeps it).
    DatasetRef(&'d Dataset),
    /// Adopt a prebuilt index.
    Index(Arc<TopKIndex>),
    /// Open a saved snapshot directory — no build pass at all.
    Snapshot(PathBuf),
}

/// Builder for [`IrEngine`]: pick a data source, a storage backend, a
/// buffer-pool budget, a worker count and a default region policy.
///
/// The lifetime parameter only exists for [`IrEngineBuilder::dataset_ref`]
/// (borrowing a dataset during the build); the built [`IrEngine`] is always
/// `'static`.
#[must_use = "an engine builder does nothing until `build` is called"]
pub struct IrEngineBuilder<'d> {
    source: Option<EngineSource<'d>>,
    backend: StorageBackend,
    pool_capacity: Option<usize>,
    io_config: Option<IoConfig>,
    retry_policy: Option<RetryPolicy>,
    fault_plan: Option<FaultPlan>,
    storage_knobs_set: bool,
    config: RegionConfig,
    ta_config: TaConfig,
    threads: usize,
}

impl Default for IrEngineBuilder<'_> {
    fn default() -> Self {
        IrEngineBuilder {
            source: None,
            backend: StorageBackend::Memory,
            pool_capacity: None,
            io_config: None,
            retry_policy: None,
            fault_plan: None,
            storage_knobs_set: false,
            config: RegionConfig::default(),
            ta_config: TaConfig::default(),
            threads: 1,
        }
    }
}

impl<'d> IrEngineBuilder<'d> {
    /// Serves queries over `dataset`; the index is built by
    /// [`IrEngineBuilder::build`] with the selected storage options.
    pub fn dataset(mut self, dataset: Dataset) -> Self {
        self.source = Some(EngineSource::Dataset(dataset));
        self
    }

    /// Like [`IrEngineBuilder::dataset`], but borrowing: the dataset is only
    /// read while [`IrEngineBuilder::build`] constructs the index, so
    /// callers that keep (or repeatedly reuse) a dataset — e.g. sweeping
    /// storage configurations over one corpus — avoid cloning it.
    pub fn dataset_ref(mut self, dataset: &'d Dataset) -> Self {
        self.source = Some(EngineSource::DatasetRef(dataset));
        self
    }

    /// Adopts a prebuilt index (taking ownership). Storage options must not
    /// be combined with this source — the index already made those choices.
    pub fn index(mut self, index: TopKIndex) -> Self {
        self.source = Some(EngineSource::Index(Arc::new(index)));
        self
    }

    /// Adopts an already shared index handle (see
    /// [`IndexBuilder::build_shared`](ir_storage::IndexBuilder::build_shared)).
    pub fn shared_index(mut self, index: Arc<TopKIndex>) -> Self {
        self.source = Some(EngineSource::Index(index));
        self
    }

    /// Serves queries from a snapshot saved by [`IrEngine::save_snapshot`]
    /// — cold start becomes a validate-header-and-serve operation with no
    /// build pass (see
    /// [`IndexBuilder::open_snapshot`](ir_storage::IndexBuilder::open_snapshot)).
    ///
    /// Storage options *do* compose with this source (unlike a prebuilt
    /// index): [`IrEngineBuilder::backend`] selects how the snapshot file
    /// is served — its kind only, any path on the variant is ignored — and
    /// pool capacity, I/O model, retry policy and fault plan configure the
    /// serving stack. A configured fault plan is armed *before* the trailer
    /// read, so injected faults during the open surface as typed
    /// [`EngineError::SnapshotOpen`] errors.
    pub fn open_snapshot(mut self, dir: impl Into<PathBuf>) -> Self {
        self.source = Some(EngineSource::Snapshot(dir.into()));
        self
    }

    /// Selects the storage backend for the index built from a dataset
    /// (default: memory).
    pub fn backend(mut self, backend: StorageBackend) -> Self {
        self.backend = backend;
        self.storage_knobs_set = true;
        self
    }

    /// Shorthand for a disk-backed page store under `dir`.
    pub fn on_disk(self, dir: impl Into<PathBuf>) -> Self {
        self.backend(StorageBackend::Disk(dir.into()))
    }

    /// Shorthand for a memory-mapped page store under `dir`.
    ///
    /// Requires `ir-storage`'s `mmap` cargo feature (re-exported as this
    /// crate's `mmap` feature); without it [`IrEngineBuilder::build`]
    /// returns a descriptive error instead of an engine.
    pub fn on_mmap(self, dir: impl Into<PathBuf>) -> Self {
        self.backend(StorageBackend::Mmap(dir.into()))
    }

    /// Sets the buffer-pool budget in pages for the index built from a
    /// dataset.
    pub fn pool_capacity(mut self, pages: usize) -> Self {
        self.pool_capacity = Some(pages);
        self.storage_knobs_set = true;
        self
    }

    /// Sets the simulated I/O latency model for the index built from a
    /// dataset.
    pub fn io_config(mut self, io_config: IoConfig) -> Self {
        self.io_config = Some(io_config);
        self.storage_knobs_set = true;
        self
    }

    /// Sets the buffer pool's retry policy for transient storage faults
    /// (default: [`RetryPolicy::default`] — 3 attempts with deterministic
    /// exponential backoff).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = Some(policy);
        self.storage_knobs_set = true;
        self
    }

    /// Wraps the engine's page store in a fault-injecting proxy executing
    /// `plan` (see [`FaultPlan`]). The injector is armed only *after* the
    /// index is built, so faults strike served queries rather than the
    /// build itself.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self.storage_knobs_set = true;
        self
    }

    /// Sets the default region configuration queries run with (overridable
    /// per call via [`IrEngine::query_with`]).
    pub fn config(mut self, config: RegionConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the TA configuration used for the top-k phase of every query.
    pub fn ta_config(mut self, ta_config: TaConfig) -> Self {
        self.ta_config = ta_config;
        self
    }

    /// Sets the worker count for [`IrEngine::query_batch`] (clamped to at
    /// least 1). Regions and deterministic counters are identical for every
    /// value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Applies a whole [`EnginePolicy`]: the default config, the worker
    /// count and (when present) the fault plan. The policy's `backend`
    /// field is *not* applied — it is descriptive metadata (a file/mmap
    /// backend needs a path; see [`EnginePolicy::backend`]).
    pub fn policy(self, policy: EnginePolicy) -> Self {
        let builder = self.config(policy.config).threads(policy.threads);
        match policy.fault_plan {
            Some(plan) => builder.fault_plan(plan),
            None => builder,
        }
    }

    /// Loads the engine policy from a JSON file (see
    /// [`EnginePolicy::from_json_file`]).
    pub fn policy_from_json_file(self, path: impl AsRef<Path>) -> EngineResult<Self> {
        Ok(self.policy(EnginePolicy::from_json_file(path)?))
    }

    /// Builds the engine: constructs the index if a dataset was given, then
    /// wraps everything into an owned, shareable handle.
    pub fn build(self) -> EngineResult<IrEngine> {
        let IrEngineBuilder {
            source,
            backend,
            pool_capacity,
            io_config,
            retry_policy,
            fault_plan,
            storage_knobs_set,
            config,
            ta_config,
            threads,
        } = self;
        let index_builder = || {
            let mut builder = IndexBuilder::new()
                .backend(backend.clone())
                .fault_plan(fault_plan.clone());
            if let Some(pages) = pool_capacity {
                builder = builder.pool_capacity(pages);
            }
            if let Some(io_config) = io_config {
                builder = builder.io_config(io_config);
            }
            if let Some(retry) = retry_policy {
                builder = builder.retry_policy(retry);
            }
            builder
        };
        let build_index = |dataset: &Dataset| -> EngineResult<Arc<TopKIndex>> {
            if dataset.cardinality() == 0 {
                return Err(EngineError::EmptyDataset);
            }
            Ok(index_builder().build_shared(dataset)?)
        };
        let index = match source {
            None => return Err(EngineError::NoSource),
            Some(EngineSource::Dataset(dataset)) => build_index(&dataset)?,
            Some(EngineSource::DatasetRef(dataset)) => build_index(dataset)?,
            Some(EngineSource::Snapshot(dir)) => {
                let index = index_builder()
                    .open_snapshot(&dir)
                    .map(Arc::new)
                    .map_err(|source| EngineError::SnapshotOpen { dir, source })?;
                if index.cardinality() == 0 {
                    return Err(EngineError::EmptyDataset);
                }
                index
            }
            Some(EngineSource::Index(index)) => {
                if storage_knobs_set {
                    return Err(EngineError::Policy(
                        "storage options (backend, pool capacity, I/O model) apply to an index \
                         built from a dataset; a prebuilt index already made those choices"
                            .to_string(),
                    ));
                }
                if index.cardinality() == 0 {
                    return Err(EngineError::EmptyDataset);
                }
                index
            }
        };
        Ok(IrEngine {
            index,
            config,
            ta_config,
            threads,
            health: Arc::new(EngineHealth::default()),
        })
    }
}

/// Cumulative failure accounting shared by every handle onto one engine
/// (clones, [`IrEngine::with_config`]). Interior-mutable so `&self` query
/// paths can record outcomes.
#[derive(Debug, Default)]
struct EngineHealth {
    queries_ok: AtomicU64,
    queries_failed: AtomicU64,
    worker_panics: AtomicU64,
    corruption_errors: AtomicU64,
    retries_exhausted: AtomicU64,
}

/// A point-in-time view of an engine's cumulative health counters
/// ([`IrEngine::health`]).
///
/// The first five counters track engine *operations* (a batch counts once);
/// the retry counters come from the buffer pool's I/O accounting and count
/// individual retried page transfers. All counters are cumulative since the
/// engine was built, except the retry counters which
/// [`IrEngine::cold_start`] resets along with the rest of the I/O stats.
/// Traffic of the layers above the engine is counted where it happens:
/// fleet serving in [`FleetStats`](crate::fleet::FleetStats), index
/// maintenance in [`IrEngine::maintenance_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineHealthSnapshot {
    /// Operations (queries, batches, update batches) that succeeded.
    pub queries_ok: u64,
    /// Operations that returned an error of any kind.
    pub queries_failed: u64,
    /// Failed operations whose error was [`IrError::WorkerPanicked`] — a
    /// contained panic, in a worker or caught at the engine boundary.
    pub worker_panics: u64,
    /// Failed operations whose error was [`IrError::Corruption`].
    pub corruption_errors: u64,
    /// Failed operations whose error was [`IrError::RetryExhausted`].
    pub retries_exhausted: u64,
    /// Page reads that needed at least one retry (transient faults healed
    /// invisibly by the pool's [`RetryPolicy`]).
    pub read_retries: u64,
    /// Page writes that needed at least one retry.
    pub write_retries: u64,
}

impl EngineHealthSnapshot {
    /// `true` while the engine has never seen a failed operation.
    pub fn is_unblemished(&self) -> bool {
        self.queries_failed == 0
    }
}

/// An owned immutable-regions engine: the single front door for serving
/// region computations.
///
/// The engine holds the [`TopKIndex`] (inverted lists, tuple file, buffer
/// pool) behind [`Arc`], so clones are cheap handles onto the same warm
/// state and the type is `Send + Sync + Clone` with no lifetimes. See the
/// [module docs](self) for the two call styles.
#[derive(Clone)]
pub struct IrEngine {
    index: Arc<TopKIndex>,
    config: RegionConfig,
    ta_config: TaConfig,
    threads: usize,
    health: Arc<EngineHealth>,
}

impl fmt::Debug for IrEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IrEngine")
            .field("cardinality", &self.index.cardinality())
            .field("dimensionality", &self.index.dimensionality())
            .field("config", &self.config)
            .field("threads", &self.threads)
            .field("health", &self.health())
            .finish()
    }
}

impl IrEngine {
    /// Starts building an engine.
    pub fn builder<'d>() -> IrEngineBuilder<'d> {
        IrEngineBuilder::default()
    }

    /// The shared index the engine serves from (for storage-level control:
    /// cache warm-up, I/O accounting, direct cursor access).
    pub fn index(&self) -> &Arc<TopKIndex> {
        &self.index
    }

    /// The default region configuration.
    pub fn config(&self) -> RegionConfig {
        self.config
    }

    /// The worker count used by [`IrEngine::query_batch`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The engine's serializable policy (default config, worker count, the
    /// backend the index was built on and the fault plan its device
    /// executes, if any).
    pub fn policy(&self) -> EnginePolicy {
        EnginePolicy {
            config: self.config,
            threads: self.threads,
            backend: self.index.backend_kind(),
            fault_plan: self.index.fault_plan().cloned(),
            cold_start: self.index.cold_start_info(),
            cluster: None,
        }
    }

    /// Cumulative health counters: operations served and failed (by
    /// failure class) plus the pool's retry counts. Shared by every handle
    /// onto the same engine.
    pub fn health(&self) -> EngineHealthSnapshot {
        let io = self.index.io_snapshot();
        EngineHealthSnapshot {
            queries_ok: self.health.queries_ok.load(Ordering::Relaxed),
            queries_failed: self.health.queries_failed.load(Ordering::Relaxed),
            worker_panics: self.health.worker_panics.load(Ordering::Relaxed),
            corruption_errors: self.health.corruption_errors.load(Ordering::Relaxed),
            retries_exhausted: self.health.retries_exhausted.load(Ordering::Relaxed),
            read_retries: io.read_retries,
            write_retries: io.write_retries,
        }
    }

    /// Runs one engine operation with failure containment: panics anywhere
    /// below (a poisoned solver, an injected device panic) are caught at
    /// this boundary and surfaced as typed
    /// [`IrError::WorkerPanicked`] errors, and the outcome — success or any
    /// failure, classified — is recorded in the engine's health counters.
    /// The engine stays fully serviceable afterwards: all shared state is
    /// lock-free or uses non-poisoning locks.
    fn run_guarded<T>(&self, job: &str, op: impl FnOnce() -> EngineResult<T>) -> EngineResult<T> {
        let result = match catch_unwind(AssertUnwindSafe(op)) {
            Ok(result) => result,
            Err(payload) => Err(EngineError::Core(IrError::WorkerPanicked {
                job: job.to_string(),
                message: ir_core::parallel::panic_message(payload.as_ref()),
            })),
        };
        match &result {
            Ok(_) => {
                self.health.queries_ok.fetch_add(1, Ordering::Relaxed);
            }
            Err(err) => {
                self.health.queries_failed.fetch_add(1, Ordering::Relaxed);
                match err {
                    EngineError::Core(IrError::WorkerPanicked { .. }) => {
                        self.health.worker_panics.fetch_add(1, Ordering::Relaxed);
                    }
                    EngineError::Core(IrError::Corruption { .. }) => {
                        self.health
                            .corruption_errors
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    EngineError::Core(IrError::RetryExhausted { .. }) => {
                        self.health
                            .retries_exhausted
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
            }
        }
        result
    }

    /// Which page-store backend the engine serves from.
    pub fn backend_kind(&self) -> BackendKind {
        self.index.backend_kind()
    }

    /// A handle onto the same warm state with a different default region
    /// configuration.
    pub fn with_config(&self, config: RegionConfig) -> IrEngine {
        IrEngine {
            config,
            ..self.clone()
        }
    }

    /// A handle onto the same warm state with a different worker count
    /// (clamped to at least 1).
    pub fn with_threads(&self, threads: usize) -> IrEngine {
        IrEngine {
            threads: threads.max(1),
            ..self.clone()
        }
    }

    /// Clears the buffer-pool cache and I/O counters — a fully cold start
    /// (what the experiment harness does between measured queries).
    pub fn cold_start(&self) {
        self.index.cold_start();
    }

    /// How this engine's index came up (built vs snapshot-opened) and what
    /// deterministic work that cost — the numbers
    /// `BENCH_coldstart.json` compares across sources and backends.
    pub fn cold_start_info(&self) -> ColdStartInfo {
        self.index.cold_start_info()
    }

    /// Saves the engine's index as a versioned snapshot under `dir`, for a
    /// later [`IrEngineBuilder::open_snapshot`] to serve without rebuilding.
    ///
    /// Every data page is copied through the engine's buffer pool (so the
    /// copy is checksum-verified and I/O-accounted). Do not save into the
    /// directory a disk/mmap engine is currently serving from — see
    /// [`TopKIndex::save_snapshot`].
    pub fn save_snapshot(&self, dir: impl Into<PathBuf>) -> EngineResult<SnapshotSummary> {
        let dir = dir.into();
        self.index
            .save_snapshot(&dir)
            .map_err(|source| EngineError::SnapshotSave { dir, source })
    }

    /// Validates a query against the engine's index without running it,
    /// returning the typed error a malformed request deserves.
    pub fn validate(&self, query: &QueryVector) -> EngineResult<()> {
        query.validate_against(self.index.dimensionality())?;
        if query.k() > self.index.cardinality() {
            return Err(EngineError::KTooLarge {
                k: query.k(),
                cardinality: self.index.cardinality(),
            });
        }
        Ok(())
    }

    /// Prepares a full computation handle for one query: runs the top-k
    /// phase and returns the [`RegionComputation`] (which shares the
    /// engine's index), for callers that need the TA internals or
    /// per-dimension parallel solves in addition to the report.
    pub fn computation(&self, query: &QueryVector) -> EngineResult<RegionComputation> {
        self.computation_with(query, self.config)
    }

    /// [`IrEngine::computation`] with an explicit region configuration.
    pub fn computation_with(
        &self,
        query: &QueryVector,
        config: RegionConfig,
    ) -> EngineResult<RegionComputation> {
        self.run_guarded("computation", || self.computation_untracked(query, config))
    }

    /// The unguarded body of [`IrEngine::computation_with`], for composite
    /// operations that wrap a larger region in one [`IrEngine::run_guarded`]
    /// scope (so each operation is counted exactly once).
    fn computation_untracked(
        &self,
        query: &QueryVector,
        config: RegionConfig,
    ) -> EngineResult<RegionComputation> {
        self.validate(query)?;
        Ok(RegionComputation::with_ta_config(
            Arc::clone(&self.index),
            query,
            config,
            &self.ta_config,
        )?)
    }

    /// Computes the immutable regions of one query with the engine's
    /// default configuration. The report is bit-identical to the low-level
    /// sequential path ([`RegionComputation::compute`]).
    pub fn query(&self, query: &QueryVector) -> EngineResult<RegionReport> {
        self.query_with(query, self.config)
    }

    /// [`IrEngine::query`] with an explicit region configuration.
    pub fn query_with(
        &self,
        query: &QueryVector,
        config: RegionConfig,
    ) -> EngineResult<RegionReport> {
        self.run_guarded("query", || {
            let mut computation = self.computation_untracked(query, config)?;
            Ok(computation.compute()?)
        })
    }

    /// Convenience: builds the query from `(dimension, weight)` pairs and
    /// computes its regions. Malformed weight sets surface as typed errors
    /// ([`EngineError::ZeroWeightQuery`] when no positive weight remains).
    pub fn query_pairs(
        &self,
        pairs: impl IntoIterator<Item = (u32, f64)>,
        k: usize,
    ) -> EngineResult<RegionReport> {
        let query = QueryVector::new(pairs, k)?;
        self.query(&query)
    }

    /// Runs a batch of queries over the engine's worker pool, sharing the
    /// warm buffer pool. Reports come back in query order and are identical
    /// to running each query sequentially, for every worker count.
    pub fn query_batch(&self, queries: &[QueryVector]) -> EngineResult<Vec<RegionReport>> {
        self.query_batch_detailed(queries)
            .map(|outcome| outcome.reports)
    }

    /// [`IrEngine::query_batch`], also returning per-worker I/O tallies and
    /// the batch wall-clock time.
    pub fn query_batch_detailed(&self, queries: &[QueryVector]) -> EngineResult<BatchOutcome> {
        self.run_guarded("query batch", || {
            for query in queries {
                self.validate(query)?;
            }
            let batch = BatchRegionComputation::new(Arc::clone(&self.index), self.config)
                .with_threads(self.threads)
                .with_ta_config(self.ta_config);
            Ok(batch.run_detailed(queries)?)
        })
    }

    /// Applies a batch of logical updates to the live index — the dynamic
    /// half of the paper's system model. The index is maintained **in
    /// place** (tombstones, in-place rewrites, appends; affected inverted
    /// lists rewritten once), never rebuilt; the maintained index is
    /// logically identical to one freshly built from the mutated dataset,
    /// so every query issued after this returns is answered exactly as a
    /// full recompute would.
    ///
    /// The whole batch is validated first — a malformed update (unknown
    /// tuple, out-of-range value) rejects the batch with a typed error
    /// before any page is touched. Returns one [`AppliedUpdate`] per input
    /// (the touched tuple plus its vector before and after), which is what
    /// [`SubscriptionManager::revalidate`](crate::fleet::SubscriptionManager::revalidate)
    /// consumes to decide which cached regions survived.
    ///
    /// Mutations are single-writer and not linearizable with in-flight
    /// queries: a query racing this call sees either the old or the new
    /// index, never a torn one.
    ///
    /// ```
    /// use immutable_regions::prelude::*;
    /// use immutable_regions::types::TupleUpdate;
    ///
    /// let engine = IrEngine::builder()
    ///     .dataset(Dataset::running_example())
    ///     .build()?;
    /// let query = QueryVector::running_example();
    /// assert_eq!(engine.query(&query)?.current_result(), [TupleId(1), TupleId(0)]);
    ///
    /// // Insert a tuple that dominates everything: it takes rank 1.
    /// let applied = engine.apply_updates(&[TupleUpdate::Insert {
    ///     vector: SparseVector::from_pairs([(0, 0.99), (1, 0.99)])?,
    /// }])?;
    /// assert_eq!(applied[0].tuple, TupleId(4));
    /// assert_eq!(engine.query(&query)?.current_result(), [TupleId(4), TupleId(1)]);
    ///
    /// // Deleting it restores the original result exactly.
    /// engine.delete(TupleId(4))?;
    /// assert_eq!(engine.query(&query)?.current_result(), [TupleId(1), TupleId(0)]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn apply_updates(&self, updates: &[TupleUpdate]) -> EngineResult<Vec<AppliedUpdate>> {
        self.run_guarded("apply updates", || Ok(self.index.apply_updates(updates)?))
    }

    /// Inserts a new tuple (dense id assignment: the new tuple's id is the
    /// previous cardinality). See [`IrEngine::apply_updates`].
    pub fn insert(&self, vector: SparseVector) -> EngineResult<AppliedUpdate> {
        self.apply_one(TupleUpdate::Insert { vector })
    }

    /// Deletes a tuple. The id stays addressable and reads back as the
    /// empty vector (ids are never reused). See [`IrEngine::apply_updates`].
    pub fn delete(&self, tuple: TupleId) -> EngineResult<AppliedUpdate> {
        self.apply_one(TupleUpdate::Delete { tuple })
    }

    /// Sets one coordinate of one tuple (`0.0` removes the coordinate). See
    /// [`IrEngine::apply_updates`].
    pub fn update_score(
        &self,
        tuple: TupleId,
        dim: DimId,
        value: f64,
    ) -> EngineResult<AppliedUpdate> {
        self.apply_one(TupleUpdate::UpdateScore { tuple, dim, value })
    }

    fn apply_one(&self, update: TupleUpdate) -> EngineResult<AppliedUpdate> {
        let mut applied = self.apply_updates(std::slice::from_ref(&update))?;
        Ok(applied.pop().expect("one update in, one applied out"))
    }

    /// Cumulative index-maintenance counters (updates, batches, list
    /// rewrites, tuple relocations, maintenance I/O — accounted separately
    /// from query I/O).
    pub fn maintenance_stats(&self) -> MaintenanceStatsSnapshot {
        self.index.maintenance_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::TupleId;

    fn engine() -> IrEngine {
        IrEngine::builder()
            .dataset(Dataset::running_example())
            .build()
            .unwrap()
    }

    #[test]
    fn engine_handles_are_send_sync_clone() {
        fn assert_handle<T: Send + Sync + Clone + 'static>() {}
        assert_handle::<IrEngine>();
    }

    #[test]
    fn query_matches_running_example() {
        let report = engine().query(&QueryVector::running_example()).unwrap();
        let d0 = report.for_dim(DimId(0)).unwrap();
        assert!((d0.immutable.lo + 16.0 / 35.0).abs() < 1e-9);
        assert!((d0.immutable.hi - 0.1).abs() < 1e-9);
    }

    #[test]
    fn policy_round_trips_through_json() {
        let policy = EnginePolicy {
            config: RegionConfig::with_phi(ir_core::Algorithm::Prune, 3).composition_only(),
            threads: 4,
            backend: BackendKind::Mmap,
            fault_plan: Some(FaultPlan::transient_reads(7, 3, 100)),
            cold_start: ir_storage::ColdStartInfo {
                source: ir_storage::ColdStartSource::Snapshot,
                pages: 17,
                bytes: 4242,
            },
            cluster: Some(ClusterTopology {
                shards: 4,
                partition: PartitionMode::ByQuery,
                seed: 0xC1_05_7E,
            }),
        };
        let json = policy.to_json();
        assert_eq!(EnginePolicy::from_json(&json).unwrap(), policy);
        assert!(matches!(
            EnginePolicy::from_json("not json"),
            Err(EngineError::Policy(_))
        ));
        // The default policy stamps an explicit null — the stable shape the
        // committed bench baselines rely on.
        assert!(
            EnginePolicy::default()
                .to_json()
                .contains("\"fault_plan\":null"),
            "{}",
            EnginePolicy::default().to_json()
        );
        assert!(
            EnginePolicy::default()
                .to_json()
                .contains("\"cluster\":null"),
            "{}",
            EnginePolicy::default().to_json()
        );
    }

    #[test]
    fn health_counts_and_classifies_outcomes() {
        let engine = engine();
        assert_eq!(engine.health(), EngineHealthSnapshot::default());
        let _ = engine.query(&QueryVector::running_example()).unwrap();
        // k too large: a failed operation, but not a storage-failure class.
        let big_k = QueryVector::running_example().with_k(100).unwrap();
        assert!(engine.query(&big_k).is_err());
        let health = engine.health();
        assert_eq!(health.queries_ok, 1);
        assert_eq!(health.queries_failed, 1);
        assert_eq!(health.worker_panics, 0);
        assert_eq!(health.corruption_errors, 0);
        assert_eq!(health.retries_exhausted, 0);
        assert!(!health.is_unblemished());
        // Handles share the same counters.
        assert_eq!(engine.clone().health(), health);
    }

    #[test]
    fn fault_plan_flows_from_policy_to_device_and_back() {
        let plan = FaultPlan::device_outage(2, None);
        let policy = EnginePolicy {
            fault_plan: Some(plan.clone()),
            ..EnginePolicy::default()
        };
        let chaos = IrEngine::builder()
            .dataset(Dataset::running_example())
            .policy(policy)
            .build()
            .unwrap();
        assert_eq!(chaos.policy().fault_plan.as_ref(), Some(&plan));
        assert!(chaos.index().fault_injector().unwrap().is_armed());
        // A fault-free engine stamps null.
        assert_eq!(engine().policy().fault_plan, None);
    }

    #[test]
    fn engine_survives_a_device_outage_and_reports_typed_errors() {
        // Read op 0 fails permanently, everything after succeeds; no
        // retry policy so the error surfaces directly.
        let engine = IrEngine::builder()
            .dataset(Dataset::running_example())
            .fault_plan(FaultPlan::device_outage(0, Some(1)))
            .retry_policy(RetryPolicy::none())
            .pool_capacity(1)
            .build()
            .unwrap();
        let query = QueryVector::running_example();
        let err = engine.query(&query).map(|_| ()).unwrap_err();
        assert!(matches!(err, EngineError::Core(_)), "{err}");
        assert!(err.to_string().contains("injected device failure"), "{err}");
        // The engine answers correctly on the next query.
        let report = engine.query(&query).unwrap();
        let d0 = report.for_dim(DimId(0)).unwrap();
        assert!((d0.immutable.lo + 16.0 / 35.0).abs() < 1e-9);
        let health = engine.health();
        assert_eq!(health.queries_failed, 1);
        assert_eq!(health.queries_ok, 1);
    }

    #[test]
    fn policy_reports_the_built_backend() {
        let dir = tempfile::tempdir().unwrap();
        let disk_engine = IrEngine::builder()
            .dataset(Dataset::running_example())
            .on_disk(dir.path())
            .build()
            .unwrap();
        assert_eq!(disk_engine.backend_kind(), BackendKind::File);
        assert_eq!(disk_engine.policy().backend, BackendKind::File);
        // The default engine serves from memory.
        assert_eq!(engine().policy().backend, BackendKind::Mem);
    }

    #[cfg(not(feature = "mmap"))]
    #[test]
    fn mmap_backend_without_feature_is_a_typed_error() {
        let dir = tempfile::tempdir().unwrap();
        let err = IrEngine::builder()
            .dataset(Dataset::running_example())
            .on_mmap(dir.path())
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("mmap"), "{err}");
    }

    #[cfg(feature = "mmap")]
    #[test]
    fn mmap_backend_serves_the_running_example() {
        let dir = tempfile::tempdir().unwrap();
        let engine = IrEngine::builder()
            .dataset(Dataset::running_example())
            .on_mmap(dir.path())
            .build()
            .unwrap();
        assert_eq!(engine.backend_kind(), BackendKind::Mmap);
        let report = engine.query(&QueryVector::running_example()).unwrap();
        let d0 = report.for_dim(DimId(0)).unwrap();
        assert!((d0.immutable.lo + 16.0 / 35.0).abs() < 1e-9);
        assert!((d0.immutable.hi - 0.1).abs() < 1e-9);
    }

    #[test]
    fn dataset_ref_borrows_instead_of_cloning() {
        let dataset = Dataset::running_example();
        let engine = IrEngine::builder()
            .dataset_ref(&dataset)
            .pool_capacity(8)
            .build()
            .unwrap();
        assert_eq!(engine.index().cardinality(), dataset.cardinality());
        let report = engine.query(&QueryVector::running_example()).unwrap();
        assert!(report.for_dim(DimId(0)).is_some());
    }

    #[test]
    fn builder_rejects_storage_knobs_on_prebuilt_index() {
        let dataset = Dataset::running_example();
        let index = ir_storage::TopKIndex::build_in_memory(&dataset).unwrap();
        let err = IrEngine::builder()
            .index(index)
            .pool_capacity(64)
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::Policy(_)), "{err}");
    }

    #[test]
    fn snapshot_roundtrip_through_the_facade() {
        use ir_storage::ColdStartSource;

        let built = engine();
        assert_eq!(built.cold_start_info().source, ColdStartSource::Built);
        assert_eq!(built.policy().cold_start.source, ColdStartSource::Built);

        let dir = tempfile::tempdir().unwrap();
        let summary = built.save_snapshot(dir.path()).unwrap();
        assert!(summary.total_pages > summary.data_pages);

        // Storage knobs compose with the snapshot source (unlike a
        // prebuilt index): pool capacity + backend are the serving stack.
        let reopened = IrEngine::builder()
            .open_snapshot(dir.path())
            .pool_capacity(8)
            .threads(2)
            .build()
            .unwrap();
        let info = reopened.cold_start_info();
        assert_eq!(info.source, ColdStartSource::Snapshot);
        assert!(
            info.bytes < built.cold_start_info().bytes,
            "snapshot open parses less than the build: {info:?}"
        );
        assert_eq!(reopened.policy().cold_start, info);

        // Served regions are identical to the built engine's (stats carry
        // timing/cache counters that legitimately differ, so compare the
        // region payload).
        let query = QueryVector::running_example();
        let expected = built.query(&query).unwrap();
        assert_eq!(reopened.query(&query).unwrap().dims, expected.dims);
    }

    #[test]
    fn opening_a_missing_snapshot_is_a_typed_error() {
        let dir = tempfile::tempdir().unwrap();
        let err = IrEngine::builder()
            .open_snapshot(dir.path().join("nope"))
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, EngineError::SnapshotOpen { .. }), "{err}");
        assert!(err.to_string().contains("opening snapshot"), "{err}");
        assert!(
            std::error::Error::source(&err).is_some(),
            "the storage cause is chained"
        );
    }

    #[test]
    fn saving_over_an_unwritable_dir_is_a_typed_error() {
        // A *file* where the snapshot directory should be: create_dir_all
        // fails, and the failure names the directory.
        let dir = tempfile::tempdir().unwrap();
        let blocker = dir.path().join("blocked");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let err = engine().save_snapshot(&blocker).map(|_| ()).unwrap_err();
        assert!(matches!(err, EngineError::SnapshotSave { .. }), "{err}");
        assert!(err.to_string().contains("saving snapshot"), "{err}");
    }

    #[test]
    fn mutations_flow_through_the_engine_and_count_in_health() {
        let engine = engine();
        let query = QueryVector::running_example();
        assert_eq!(
            engine.query(&query).unwrap().current_result(),
            [TupleId(1), TupleId(0)]
        );

        // Insert a dominating tuple; it enters the result at rank 1.
        let applied = engine
            .insert(SparseVector::from_pairs([(0, 0.99), (1, 0.99)]).unwrap())
            .unwrap();
        assert_eq!(applied.tuple, TupleId(4));
        assert_eq!(
            engine.query(&query).unwrap().current_result(),
            [TupleId(4), TupleId(1)]
        );

        // Nudge a coordinate, then delete the tuple: result restored.
        engine.update_score(TupleId(4), DimId(1), 0.5).unwrap();
        engine.delete(TupleId(4)).unwrap();
        assert_eq!(
            engine.query(&query).unwrap().current_result(),
            [TupleId(1), TupleId(0)]
        );

        assert_eq!(engine.maintenance_stats().updates_applied, 3);
        assert!(engine.maintenance_stats().pages_written > 0);
        // A malformed update is a typed failure and applies nothing.
        assert!(engine.delete(TupleId(99)).is_err());
        assert_eq!(engine.maintenance_stats().updates_applied, 3);
        // Three queries and three single-update batches succeeded.
        let health = engine.health();
        assert_eq!((health.queries_ok, health.queries_failed), (6, 1));
    }

    #[test]
    fn snapshot_open_with_armed_faults_fails_typed_and_named() {
        let dir = tempfile::tempdir().unwrap();
        engine().save_snapshot(dir.path()).unwrap();
        let err = IrEngine::builder()
            .open_snapshot(dir.path())
            .fault_plan(FaultPlan::device_outage(0, None))
            .retry_policy(RetryPolicy::none())
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, EngineError::SnapshotOpen { .. }), "{err}");
        assert!(err.to_string().contains("injected device failure"), "{err}");
    }
}
