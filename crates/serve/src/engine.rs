//! The long-lived serving engine.
//!
//! # Determinism by construction
//!
//! The engine must produce bit-identical accuracy and cache numbers for
//! every worker count — and, since the API became incremental
//! ([`ServeEngine::begin_stream`] / [`crate::ServeSession`]), for every
//! way a request stream is chopped into batches. Shared mutable caches
//! under a lock would make hit/miss patterns depend on thread
//! interleaving, so each drained batch runs through four stages instead
//! (the staging itself lives in [`crate::session`]; this module owns the
//! per-request stage bodies and the engine state they read):
//!
//! 1. **Plan** (sequential, cheap): walk the batch's requests in
//!    canonical arrival order (`ServeEngine::plan_request`), resolve
//!    the per-session fast path and both caches on normalized-text keys
//!    only, and record each request's hit class plus a slot into a dense
//!    table of *unique* selection jobs. Cache state evolves exactly as a
//!    sequential server would evolve it — counters are charged at
//!    reservation time, so *when* a fill lands can never change them.
//! 2. **Compute** (parallel): run the unique selection jobs —
//!    recommender simulation, `Ẽ` embeddings, k-NN arbitration — over
//!    [`lim_core::sharded_map`], whose workers claim small chunks of jobs
//!    as they free up (a cold job costs about 10× a k-NN-only one or a
//!    refill). Every job is a pure function of the normalized query and
//!    each output is placed by its job's index, so which worker ran a
//!    job cannot change values.
//! 3. **Fill** (sequential): write computed values into the reserved
//!    cache slots so the next batch (the engine is long-lived) starts
//!    warm.
//! 4. **Execute** (parallel): run every request's gold chain with its
//!    resolved tool selection via [`Pipeline::run_query_offered`], again
//!    over `sharded_map`, and bill per-request simulated latency.
//!
//! Stages 2 and 4 carry all the heavy work; stage 1 is string hashing and
//! O(1) cache bookkeeping. [`ServeEngine::process_trace`] is a thin
//! wrapper that opens a stream, submits the whole trace and finishes it
//! — one code path, not two.
//!
//! # Admission control
//!
//! When the stream carries open-loop arrival timestamps and
//! [`ServeConfig::admission`] enables a bounded queue, a fifth,
//! sequential stage — owned by the stream, which is the same
//! [`crate::FleetSession`] code whether it serves a fleet or this engine
//! as a one-tenant view — advances the [`crate::admission`]
//! virtual-clock simulation over the per-request service times stages 2
//! and 4 produced: requests wait in a per-session round-robin queue for
//! one of the simulated executors, degrade to Level-3 / selection-free
//! service under pressure (shed policy `degrade`), or are shed outright
//! with a typed outcome once the queue is full. Because the simulation
//! is a pure sequential function of deterministic inputs — and is fed
//! incrementally, one offer per request, no matter how the batches fall
//! — queue depth, wait percentiles and shed/degraded counters are
//! bit-identical for every worker count and every batching, exactly like
//! the cache counters.
//!
//! Admission is simulated at the *dispatch* boundary: the cache plan
//! (stage 1) still walks every request in canonical order, so a later
//! shed request can have warmed a key an admitted request then hits —
//! the same speculative warm-up a real engine performs in its cheap
//! control plane before the expensive execute stage is gated.

use std::collections::HashMap;
use std::sync::Arc;

use lim_core::{
    Pipeline, Policy, SearchLevel, SearchLevels, ServiceLevel, ServicePolicy, ToolController,
    ToolSelection, DEFAULT_CONTEXT, REDUCED_CONTEXT,
};
use lim_embed::Embedding;
use lim_llm::recommender::{recommend_descriptions, stable_text_seed};
use lim_llm::{ModelProfile, Quant};
use lim_tools::ToolDoc;
use lim_vecstore::VectorIndex;
use lim_workloads::trace::SessionTrace;
use lim_workloads::{Query, Workload};

use lim_core::{levels_from_snapshot, Snapshot, SnapshotError};

use lim_device::DeviceKind;
use lim_workloads::carbon::CarbonTrace;

use crate::admission::{AdmissionConfig, Disposition};
use crate::cache::{CacheStats, Lookup, LruCache};
use crate::catalog::{CatalogCounters, CatalogOp, CatalogRecord};
use crate::governor::{GovernorConfig, GovernorState};
use crate::report::{
    AdmissionReport, BootReport, CatalogReport, EnergyReport, LatencyStats, ServeReport,
};
use crate::snapshot as snap;
use crate::StreamMeta;

/// Simulated seconds to decode one snapshot payload byte at boot
/// (≈1 GB/s sequential parse — the cost a snapshot boot pays instead of
/// re-embedding the catalog and re-clustering).
pub const SNAPSHOT_DECODE_SECONDS_PER_BYTE: f64 = 1e-9;

/// Serving-engine tunables.
///
/// Construct via [`ServeConfig::builder`] (or start from
/// [`ServeConfig::default`] and override fields): the struct is
/// `#[non_exhaustive]`, so downstream struct literals do not compile —
/// new knobs can join without breaking anyone.
///
/// # Examples
///
/// ```
/// use lim_serve::{AdmissionConfig, ServeConfig, ShedPolicy};
///
/// let config = ServeConfig::builder()
///     .caches(512, 2048)
///     .admission(AdmissionConfig {
///         queue_depth: 8,
///         servers: 2,
///         shed_policy: ShedPolicy::Degrade,
///     })
///     .build();
/// assert_eq!(config.embed_cache_capacity, 512);
/// assert_eq!(config.admission.servers, 2);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Tool-presentation policy served to every request.
    pub policy: Policy,
    /// Quantization of the served model.
    pub quant: Quant,
    /// Base seed for the agent-call draws (the pipeline seed).
    pub seed: u64,
    /// Capacity of the query-embedding cache.
    pub embed_cache_capacity: usize,
    /// Capacity of the tool-selection memo.
    pub memo_capacity: usize,
    /// Simulated seconds to encode one text with the sentence embedder.
    pub embed_seconds_per_text: f64,
    /// Simulated seconds for one k-NN probe against one search level.
    pub knn_seconds_per_level: f64,
    /// Pre-warm the embedding cache with the training queries at startup.
    pub prewarm: bool,
    /// Backpressure layer: bounded queue, fairness and shed policy
    /// (disabled by default — `queue_depth: 0`).
    pub admission: AdmissionConfig,
    /// Staleness bound on the Level-2 cluster summaries: once the
    /// mutations since the last refresh exceed this fraction of the live
    /// catalog, the clusters are rebuilt over the live tools
    /// (`SearchLevels::refresh_clusters`). `0.0` refreshes after every
    /// mutation; a very large value effectively disables refreshes.
    pub cluster_refresh_fraction: f64,
    /// Simulated device the engine serves on: energy physics (prefill /
    /// decode / selection joules) and idle draw. The default matches
    /// [`lim_core::Pipeline::new`]'s Jetson AGX Orin.
    pub device: DeviceKind,
    /// Power-budget governor knobs (inactive by default — no cap, no
    /// carbon budget). See [`crate::governor`].
    pub governor: GovernorConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            policy: Policy::less_is_more(3),
            quant: Quant::Q4KM,
            seed: 0x5E37_E500, // "serve"
            embed_cache_capacity: 1024,
            memo_capacity: 4096,
            embed_seconds_per_text: 0.004,
            knn_seconds_per_level: 0.0008,
            prewarm: true,
            admission: AdmissionConfig::default(),
            cluster_refresh_fraction: 0.25,
            device: DeviceKind::AgxOrin,
            governor: GovernorConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Starts a builder seeded with [`ServeConfig::default`].
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Builder for [`ServeConfig`] — the supported way to construct one
/// (the config struct itself is `#[non_exhaustive]`). Every setter
/// defaults to the [`ServeConfig::default`] value when not called.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Tool-presentation policy served to every request.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Quantization of the served model.
    pub fn quant(mut self, quant: Quant) -> Self {
        self.config.quant = quant;
        self
    }

    /// Base seed for the agent-call draws (the pipeline seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Capacities of the query-embedding cache and the tool-selection
    /// memo, in entries.
    pub fn caches(mut self, embed_cache_capacity: usize, memo_capacity: usize) -> Self {
        self.config.embed_cache_capacity = embed_cache_capacity;
        self.config.memo_capacity = memo_capacity;
        self
    }

    /// Simulated cost knobs: seconds to encode one text with the
    /// sentence embedder, and seconds for one k-NN probe against one
    /// search level.
    pub fn costs(mut self, embed_seconds_per_text: f64, knn_seconds_per_level: f64) -> Self {
        self.config.embed_seconds_per_text = embed_seconds_per_text;
        self.config.knn_seconds_per_level = knn_seconds_per_level;
        self
    }

    /// Whether to pre-warm the embedding cache with the training queries
    /// at startup.
    pub fn prewarm(mut self, prewarm: bool) -> Self {
        self.config.prewarm = prewarm;
        self
    }

    /// Backpressure layer: bounded queue, fairness and shed policy.
    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.config.admission = admission;
        self
    }

    /// Staleness bound on the Level-2 cluster summaries, as a fraction
    /// of the live catalog (see
    /// [`ServeConfig::cluster_refresh_fraction`]).
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite fraction.
    pub fn cluster_refresh_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction >= 0.0 && fraction.is_finite(),
            "cluster refresh fraction must be finite and non-negative"
        );
        self.config.cluster_refresh_fraction = fraction;
        self
    }

    /// Simulated device the engine serves on (energy physics and idle
    /// draw).
    pub fn device(mut self, device: DeviceKind) -> Self {
        self.config.device = device;
        self
    }

    /// Power-budget governor knobs (see [`crate::governor`]). The
    /// configuration is normalized at [`build`](Self::build): a zero,
    /// negative or non-finite cap/budget collapses to the `0.0` "off"
    /// encoding, so `--power-cap-w inf` is byte-identical to ungoverned.
    pub fn governor(mut self, governor: GovernorConfig) -> Self {
        self.config.governor = governor;
        self
    }

    /// Finalizes the configuration.
    pub fn build(mut self) -> ServeConfig {
        self.config.governor = self.config.governor.normalized();
        self.config
    }
}

/// Cached latent footprint of one normalized query: the recommender's
/// descriptions plus their `Ẽ` context embeddings (and the plain query
/// embedding, which the Gorilla policy retrieves with).
#[derive(Debug, Clone)]
pub struct QueryEmbeddings {
    /// Embedding of the query text itself.
    pub query: Embedding,
    /// Recommender output (empty for non-LiM policies).
    pub recommendations: Vec<String>,
    /// One `Ẽ` context embedding per recommendation.
    pub contexts: Vec<Embedding>,
}

/// Long-lived state for one serving session.
#[derive(Debug, Clone, Default)]
pub(crate) struct SessionState {
    /// Memo key of the session's previous request.
    pub(crate) last_key: Option<String>,
    /// Resolved selection source of that request.
    pub(crate) last_selection: Option<SelectionSource>,
}

/// Where a request's tool selection comes from.
#[derive(Debug, Clone)]
pub(crate) enum SelectionSource {
    /// Policy needs no selection (vanilla full-catalog calling).
    FullCatalog,
    /// Value already resident in the memo.
    Ready(Arc<ToolSelection>),
    /// Slot in this trace's unique-job table.
    Pending(usize),
}

/// Selection-overhead class a request is billed for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CostClass {
    /// Session fast path or memo hit: lookup only, no simulated cost.
    Free,
    /// Embedding-cache hit: pay only the k-NN arbitration.
    KnnOnly,
    /// Cold miss: pay recommender + embeddings + k-NN.
    Cold,
}

/// One planned request, produced by stage 1.
#[derive(Debug, Clone)]
pub(crate) struct PlannedRequest {
    query_index: usize,
    source: SelectionSource,
    cost: CostClass,
}

/// One unique selection job, produced by stage 1 and run by stage 2.
#[derive(Debug, Clone)]
pub(crate) struct SelectionJob {
    /// The query's normalized text (see [`normalize_query`]): what the
    /// job embeds and bills.
    pub(crate) key: String,
    /// First request that demanded the key (supplies the gold chain).
    query_index: usize,
    /// Embeddings recovered from the cache, if the embed lookup hit.
    cached_embeddings: Option<Arc<QueryEmbeddings>>,
    /// A refill for an evicted embedding entry whose memo entry is still
    /// resident: the cold-path cost is never billed, so the recommender
    /// cost simulation can be skipped.
    embeddings_only: bool,
}

/// Output of one selection job.
pub(crate) struct ComputedSelection {
    pub(crate) embeddings: Arc<QueryEmbeddings>,
    pub(crate) selection: Arc<ToolSelection>,
    /// Simulated seconds for the cold path (recommender + embed + k-NN).
    cold_seconds: f64,
    /// Simulated seconds when only the k-NN arbitration runs.
    knn_seconds: f64,
    /// Joules billed on the cold path (recommender inference).
    cold_joules: f64,
}

/// What executing one request at one fidelity costs and achieves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RequestOutcome {
    success: bool,
    tool_correct: bool,
    offered_tools: usize,
    level: Option<SearchLevel>,
    pub(crate) seconds: f64,
    pub(crate) joules: f64,
}

/// One request's facts for the life of a stream, and the only
/// per-request state a stream keeps. It is filled in two steps. At the
/// request's admission offer the stream settles the outcome it will
/// execute, from the governor's rung and whether admission degraded
/// it. When the request resolves the stream adds its disposition, its
/// final joules and its grams. Reports are folds over these records.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RequestRecord {
    pub(crate) tenant: usize,
    pub(crate) session: u64,
    pub(crate) query_index: usize,
    /// Virtual arrival instant (0.0 closed-loop); carbon intensity is
    /// sampled here.
    pub(crate) arrival_s: f64,
    /// The outcome the request executes if admitted.
    pub(crate) outcome: RequestOutcome,
    /// `None` until the request resolves.
    pub(crate) disposition: Option<Disposition>,
    /// Execution at the served fidelity plus queue-wait idle draw; 0.0
    /// for a shed request.
    pub(crate) joules: f64,
    /// `joules` × grid intensity at arrival.
    pub(crate) grams: f64,
}

impl RequestRecord {
    /// Queue wait of an admitted request; `None` for a shed one.
    fn wait_s(&self) -> Option<f64> {
        self.disposition.and_then(|d| d.wait_s())
    }

    /// The outcome the request executed; `None` if it was shed.
    fn executed(&self) -> Option<&RequestOutcome> {
        self.wait_s().map(|_| &self.outcome)
    }
}

/// Everything a report states besides what its records fold to: stream
/// metadata, stream-level counters and the engine-side sections.
pub(crate) struct ReportScope {
    /// `sessions: None` counts runs of consecutive session ids over the
    /// records.
    pub(crate) meta: StreamMeta,
    pub(crate) workers: usize,
    /// Governor knobs the report echoes.
    pub(crate) governor: GovernorConfig,
    pub(crate) transitions: u64,
    pub(crate) sustained_watts_max: f64,
    pub(crate) max_queue_depth: usize,
    pub(crate) embed_cache: CacheStats,
    pub(crate) selection_memo: CacheStats,
    pub(crate) session_fast_hits: u64,
    pub(crate) boot: BootReport,
    pub(crate) catalog: CatalogReport,
    pub(crate) wall_seconds: f64,
}

/// A long-lived serving engine: owns the catalog, the embedder and the
/// search-level indexes (Arc-shared, read-only), and keeps caches and
/// per-session controller state warm across traces.
///
/// # Examples
///
/// ```
/// use lim_serve::{ServeConfig, ServeEngine};
/// use lim_workloads::trace::{zipf_trace, TraceConfig};
///
/// let workload = lim_workloads::bfcl(7, 40);
/// let trace = zipf_trace(&workload, &TraceConfig::default());
/// let model = lim_llm::ModelProfile::by_name("llama3.1-8b").expect("model exists");
/// let mut engine = ServeEngine::new(workload, model, ServeConfig::default());
/// let report = engine.process_trace(&trace, 2).expect("trace matches workload");
/// assert_eq!(report.requests, trace.requests());
/// ```
#[derive(Debug)]
pub struct ServeEngine {
    pub(crate) workload: Arc<Workload>,
    pub(crate) levels: Arc<SearchLevels>,
    pub(crate) model: ModelProfile,
    pub(crate) config: ServeConfig,
    pub(crate) embed_cache: LruCache<Arc<QueryEmbeddings>>,
    pub(crate) memo: LruCache<Arc<ToolSelection>>,
    pub(crate) sessions: HashMap<u64, SessionState>,
    pub(crate) session_fast_hits: u64,
    pub(crate) requests_served: u64,
    pub(crate) boot: BootReport,
    /// Catalog epoch: bumped by every register/retire; part of every
    /// cache key, so entries computed against an older catalog stop
    /// being addressable instead of being flushed.
    pub(crate) epoch: u64,
    /// Every mutation since the engine's base catalog, in order — the
    /// `catalog_log` snapshot section a booting engine replays.
    pub(crate) catalog_log: Vec<CatalogRecord>,
    pub(crate) catalog: CatalogCounters,
    /// Mutations since the last Level-2 cluster refresh.
    pub(crate) churn_since_refresh: u64,
    /// Fleet tenant id: 0 for a standalone engine (and for a fleet's
    /// tenant 0, whose cache keys are byte-identical to the standalone
    /// form — the N=1 equivalence the tenancy tests pin down). Non-zero
    /// ids prefix every cache key with `t{id}|`, so entries can never
    /// alias across tenants even if caches are ever pooled.
    pub(crate) tenant: u64,
    /// Seeded carbon-intensity trace energy accounting samples at
    /// virtual arrival time (seed = `config.governor.carbon_seed`).
    pub(crate) carbon: CarbonTrace,
    /// Engine-persistent governor machine: current service rung plus the
    /// sliding sustained-watts window. Checkpointed (always — on
    /// open-loop streams the estimator runs even uncapped; closed-loop
    /// streams leave the window empty) so a restored engine replays a
    /// stream suffix to the byte.
    pub(crate) governor: GovernorState,
}

impl ServeEngine {
    /// Builds the offline search levels and starts a warm engine — a
    /// **cold boot**: the full level build and (if configured) the cache
    /// pre-warm are paid at startup. Boot from a snapshot via
    /// [`ServeEngine::from_snapshot`] to skip the build, or from a
    /// checkpoint via [`ServeEngine::from_checkpoint`] to also skip the
    /// cold-cache ramp.
    pub fn new(workload: Workload, model: ModelProfile, config: ServeConfig) -> Self {
        let levels = SearchLevels::build(&workload);
        Self::with_levels(workload, levels, model, config)
    }

    /// Starts an engine over prebuilt levels (e.g. loaded from a
    /// persisted artifact). Accounted as a cold boot: the engine cannot
    /// know how the levels were obtained.
    pub fn with_levels(
        workload: Workload,
        levels: SearchLevels,
        model: ModelProfile,
        config: ServeConfig,
    ) -> Self {
        Self::for_tenant(Arc::new(workload), Arc::new(levels), model, config, 0)
    }

    /// Boots an engine from a persisted snapshot, **skipping the level
    /// build**: the embedder, tool index and clusters are decoded from
    /// the snapshot's sections instead of being recomputed. The cache
    /// pre-warm still runs as configured. Accepts both snapshot kinds —
    /// on a checkpoint file the warm-state sections are left undecoded
    /// (the lazy-loading contract; use [`ServeEngine::from_checkpoint`]
    /// to restore them).
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the container is corrupt, carries unknown
    /// sections, or records a different workload identity.
    pub fn from_snapshot(
        snapshot: &Snapshot,
        workload: Workload,
        model: ModelProfile,
        config: ServeConfig,
    ) -> Result<Self, SnapshotError> {
        snapshot.ensure_known(snap::KNOWN_SECTIONS)?;
        snap::validate_workload(snapshot, &workload)?;
        let levels = levels_from_snapshot(snapshot)?;
        let mut engine = Self::assemble(workload, levels, model, config);
        // Pre-warm *before* replaying the catalog log, mirroring live
        // history: a mutated engine pre-warmed at epoch 0 too, so its
        // seed entries sit on epoch-0 keys.
        if engine.wants_prewarm() {
            engine.prewarm_from_training_pool();
        }
        snap::apply_catalog_log(snapshot, &mut engine, "")?;
        // Bill only what this boot decoded: on a checkpoint file the
        // warm sections stay untouched, so their bytes cost nothing.
        engine.boot = engine.describe_boot("snapshot", true, false, decoded_bytes(snapshot));
        Ok(engine)
    }

    /// Boots an engine from a checkpoint, skipping **both** the level
    /// build and the cold-cache ramp: the seeded-LRU embedding cache,
    /// the selection memo (entries restored in exact LRU order) and the
    /// per-session warm-controller state resume exactly where
    /// [`ServeEngine::checkpoint`] left them, so replaying the remainder
    /// of a trace is bit-identical to never having restarted.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the container is corrupt, is not a
    /// checkpoint, or was written by an engine with a different
    /// workload, model, quant, policy, seed or cache geometry.
    pub fn from_checkpoint(
        snapshot: &Snapshot,
        workload: Workload,
        model: ModelProfile,
        config: ServeConfig,
    ) -> Result<Self, SnapshotError> {
        snapshot.ensure_known(snap::KNOWN_SECTIONS)?;
        if snapshot.kind() != "checkpoint" {
            return Err(SnapshotError::Mismatch(format!(
                "kind {:?} carries no warm state; boot it with from_snapshot",
                snapshot.kind()
            )));
        }
        snap::validate_workload(snapshot, &workload)?;
        snap::validate_engine(snapshot, &model, &config, "")?;
        let levels = levels_from_snapshot(snapshot)?;
        let mut engine = Self::assemble(workload, levels, model, config);
        snap::restore_warm_state(snapshot, &mut engine, "")?;
        snap::apply_catalog_log(snapshot, &mut engine, "")?;
        engine.boot = engine.describe_boot("checkpoint", true, true, decoded_bytes(snapshot));
        Ok(engine)
    }

    /// Serializes the engine's full state — levels, indexes, both caches
    /// in deterministic LRU order, session warm state and lifetime
    /// counters — as a `lim/snapshot-v1` checkpoint. Encoding the same
    /// state twice yields byte-identical output.
    pub fn checkpoint(&self) -> Vec<u8> {
        snap::write_checkpoint(self)
    }

    fn assemble(
        workload: Workload,
        levels: SearchLevels,
        model: ModelProfile,
        config: ServeConfig,
    ) -> Self {
        Self::assemble_shared(Arc::new(workload), Arc::new(levels), model, config, 0)
    }

    /// Bare constructor over already-shared workload and levels: what a
    /// fleet uses so N tenants reference one index build (copy-on-write
    /// — a tenant's first catalog mutation forks its own copy via
    /// `Arc::make_mut`). No prewarm, neutral boot.
    pub(crate) fn assemble_shared(
        workload: Arc<Workload>,
        levels: Arc<SearchLevels>,
        model: ModelProfile,
        mut config: ServeConfig,
        tenant: u64,
    ) -> Self {
        // Canonicalize the governor knobs no matter how the config was
        // produced (builder, struct mutation, fleet apportioning) so
        // checkpoints always carry finite, comparable values.
        config.governor = config.governor.normalized();
        Self {
            workload,
            levels,
            model,
            config,
            embed_cache: LruCache::new(config.embed_cache_capacity),
            memo: LruCache::new(config.memo_capacity),
            sessions: HashMap::new(),
            session_fast_hits: 0,
            requests_served: 0,
            boot: BootReport::neutral(),
            epoch: 0,
            catalog_log: Vec::new(),
            catalog: CatalogCounters::default(),
            churn_since_refresh: 0,
            tenant,
            carbon: CarbonTrace::new(config.governor.carbon_seed),
            governor: GovernorState::new(),
        }
    }

    /// Starts one fleet tenant's engine over shared workload/levels Arcs,
    /// running the configured prewarm against the tenant's own caches
    /// (vanilla full-catalog calling never consults the caches, so it
    /// skips the prewarm). Tenant 0 — a standalone engine too — is
    /// accounted as the cold boot that paid the level build; every
    /// other tenant shares that build (`"shared"` mode, build skipped)
    /// and pays only its own prewarm.
    pub(crate) fn for_tenant(
        workload: Arc<Workload>,
        levels: Arc<SearchLevels>,
        model: ModelProfile,
        config: ServeConfig,
        tenant: u64,
    ) -> Self {
        let mut engine = Self::assemble_shared(workload, levels, model, config, tenant);
        if engine.wants_prewarm() {
            engine.prewarm_from_training_pool();
        }
        engine.boot = if tenant == 0 {
            engine.describe_boot("cold", false, false, 0)
        } else {
            engine.describe_boot("shared", true, false, 0)
        };
        engine
    }

    fn wants_prewarm(&self) -> bool {
        self.config.prewarm && !matches!(self.config.policy, Policy::Default)
    }

    /// Builds the boot accounting: what this startup paid (simulated),
    /// and what it skipped. A cold boot embeds every tool description
    /// (Level 1) and the training pool (clustering), a snapshot boot
    /// pays only the decode; pre-warming bills its embeddings wherever
    /// it runs.
    pub(crate) fn describe_boot(
        &self,
        mode: &str,
        build_skipped: bool,
        prewarm_skipped: bool,
        decoded_bytes: usize,
    ) -> BootReport {
        let embed = self.config.embed_seconds_per_text;
        let build_seconds = if build_skipped {
            decoded_bytes as f64 * SNAPSHOT_DECODE_SECONDS_PER_BYTE
        } else {
            (self.levels.tool_count() + self.workload.train_queries.len()) as f64 * embed
        };
        let prewarm_seconds = if prewarm_skipped || !self.wants_prewarm() {
            0.0
        } else {
            self.workload.train_queries.len() as f64 * embed
        };
        BootReport {
            mode: mode.to_owned(),
            build_skipped,
            prewarm_skipped,
            sim_boot_seconds: build_seconds + prewarm_seconds,
            warm_embed_entries: self.embed_cache.len(),
            warm_memo_entries: self.memo.len(),
        }
    }

    /// How this engine booted and what the startup cost.
    pub fn boot(&self) -> &BootReport {
        &self.boot
    }

    /// The engine's shared, read-only search levels. Cloning the `Arc` is
    /// how additional readers (metrics exporters, debug endpoints) attach
    /// without copying an index.
    pub fn levels(&self) -> Arc<SearchLevels> {
        Arc::clone(&self.levels)
    }

    /// The workload (catalog + query pool) the engine serves.
    pub fn workload(&self) -> Arc<Workload> {
        Arc::clone(&self.workload)
    }

    /// Lifetime counters of the embedding cache.
    pub fn embed_cache_stats(&self) -> CacheStats {
        self.embed_cache.stats()
    }

    /// Lifetime counters of the selection memo.
    pub fn memo_stats(&self) -> CacheStats {
        self.memo.stats()
    }

    /// Applies a fleet budget-partition decision: shrinks or grows both
    /// caches (shrinking evicts from the LRU tail, counted as ordinary
    /// evictions) and keeps the recorded config capacities in step so a
    /// checkpoint written afterwards validates against what is actually
    /// allocated.
    pub(crate) fn resize_caches(&mut self, embed_capacity: usize, memo_capacity: usize) {
        self.embed_cache.resize(embed_capacity);
        self.memo.resize(memo_capacity);
        self.config.embed_cache_capacity = embed_capacity;
        self.config.memo_capacity = memo_capacity;
    }

    /// Total requests served since startup.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Current catalog epoch: 0 until the first live mutation, then
    /// bumped by one per register/retire.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Lifetime counters of the live-catalog machinery.
    pub fn catalog_counters(&self) -> CatalogCounters {
        self.catalog
    }

    /// Every catalog mutation applied since the engine's base catalog,
    /// in order — what a snapshot persists and a boot replays.
    pub fn catalog_log(&self) -> &[CatalogRecord] {
        &self.catalog_log
    }

    /// Registers a new tool on the running engine and returns its dense
    /// catalog index. The tool is embedded with the engine's (frozen)
    /// IDF model, inserted incrementally into the Level-1 index, and the
    /// catalog epoch is bumped so every cached selection computed
    /// against the old catalog goes stale without a flush.
    ///
    /// # Errors
    ///
    /// Rejects an invalid document (empty name, duplicate param names)
    /// and a name already present in the catalog. The engine is
    /// unchanged on error.
    pub fn register_tool(&mut self, doc: &ToolDoc) -> Result<usize, String> {
        doc.validate().map_err(|e| e.to_string())?;
        let spec = doc.to_spec();
        let embedding = self.levels.embedder().embed(&spec.embedding_text());
        let index = Arc::make_mut(&mut self.workload)
            .registry
            .register(spec)
            .map_err(|e| e.to_string())?;
        Arc::make_mut(&mut self.levels)
            .register_embedded(index, &embedding)
            .expect("registry allocates dense, unused indices");
        self.bump_epoch();
        self.catalog.registered += 1;
        self.catalog_log.push(CatalogRecord {
            seq: self.epoch,
            epoch_after: self.epoch,
            op: CatalogOp::Register(doc.clone()),
        });
        self.note_churn();
        Ok(index)
    }

    /// Retires the tool at `index` from the running engine: it is
    /// tombstoned out of the Level-1 index (compacted once enough
    /// tombstones pile up), dropped from Level-3, filtered from stale
    /// Level-2 offers, and the catalog epoch is bumped. Its dense index
    /// stays allocated forever — indices are never reused.
    ///
    /// # Errors
    ///
    /// Rejects an index that is out of range or already retired. The
    /// engine is unchanged on error.
    pub fn retire_tool(&mut self, index: usize) -> Result<(), String> {
        if index >= self.levels.tool_count() {
            return Err(format!(
                "tool index {index} out of range (0..{})",
                self.levels.tool_count()
            ));
        }
        let compacted = Arc::make_mut(&mut self.levels)
            .retire(index)
            .map_err(|e| e.to_string())?;
        self.bump_epoch();
        self.catalog.retired += 1;
        if compacted {
            self.catalog.compactions += 1;
        }
        self.catalog_log.push(CatalogRecord {
            seq: self.epoch,
            epoch_after: self.epoch,
            op: CatalogOp::Retire(index),
        });
        self.note_churn();
        Ok(())
    }

    /// Advances the epoch, counting how many memo entries the bump
    /// strands. Stale entries are *not* evicted — they age out of the
    /// LRU under normal pressure; the count just keeps the report
    /// honest.
    fn bump_epoch(&mut self) {
        let stale_tag = format!("|e{}|", self.epoch);
        self.catalog.memo_invalidations += self
            .memo
            .entries_lru()
            .iter()
            .filter(|(key, _)| key.contains(&stale_tag))
            .count() as u64;
        self.epoch += 1;
    }

    /// Applies the staleness bound: refresh the Level-2 cluster
    /// summaries once churn exceeds the configured fraction of the live
    /// catalog.
    fn note_churn(&mut self) {
        self.churn_since_refresh += 1;
        let bound = self.config.cluster_refresh_fraction * self.levels.live_count() as f64;
        if self.churn_since_refresh as f64 > bound {
            Arc::make_mut(&mut self.levels).refresh_clusters();
            self.catalog.cluster_refreshes += 1;
            self.churn_since_refresh = 0;
        }
    }

    /// Seeds the embedding cache with the training pool so a cold trace
    /// starts against warm state (the "seeded" in seeded-LRU).
    fn prewarm_from_training_pool(&mut self) {
        let workload = Arc::clone(&self.workload);
        for query in &workload.train_queries {
            let normalized = normalize_query(&query.text);
            let embeddings = Arc::new(self.build_embeddings(&normalized, query));
            self.embed_cache
                .seed(self.embed_key(&normalized), embeddings);
        }
    }

    /// The embedding-cache key: normalized query text qualified by the
    /// catalog epoch, so a live mutation strands every cached latent
    /// footprint computed against the old catalog without a flush.
    /// Normalized text cannot contain `|` (see [`normalize_query`]), so
    /// the epoch tag parses back unambiguously. A non-zero fleet tenant
    /// additionally prefixes `t{id}|`; tenant 0 keys stay byte-identical
    /// to the standalone engine's.
    pub(crate) fn embed_key(&self, normalized: &str) -> String {
        if self.tenant == 0 {
            format!("e{}|{}", self.epoch, normalized)
        } else {
            format!("t{}|e{}|{}", self.tenant, self.epoch, normalized)
        }
    }

    /// The memo key: normalized query text qualified by policy, level
    /// configuration and catalog epoch, so a reconfigured engine — or a
    /// mutated catalog — never reads stale entries. Like
    /// [`ServeEngine::embed_key`], a non-zero fleet tenant prefixes
    /// `t{id}|`.
    pub(crate) fn memo_key(&self, normalized: &str) -> String {
        let levels_tag = match self.config.policy {
            Policy::LessIsMore { config } => {
                format!("L12-t{:08x}", config.fallback_threshold.to_bits())
            }
            Policy::Gorilla { .. } => "L1".to_owned(),
            Policy::Default => "L3".to_owned(),
        };
        let base = format!(
            "{}|{}|e{}|{}",
            self.config.policy.label(),
            levels_tag,
            self.epoch,
            normalized
        );
        if self.tenant == 0 {
            base
        } else {
            format!("t{}|{}", self.tenant, base)
        }
    }

    /// Computes the latent footprint of `query`, whose
    /// [normalized](normalize_query) text is `normalized` (stage-2 work).
    ///
    /// Everything here derives from the *normalized* text — the cache
    /// key — never the raw text: two queries differing only in case or
    /// punctuation must alias to byte-identical embeddings, or a cache
    /// hit could return something a miss would not have computed.
    fn build_embeddings(&self, normalized: &str, query: &Query) -> QueryEmbeddings {
        let embedder = self.levels.embedder();
        let query_embedding = embedder.embed(normalized);
        match self.config.policy {
            Policy::LessIsMore { .. } => {
                let gold: Vec<&str> = query
                    .steps
                    .iter()
                    .filter_map(|s| self.workload.registry.get_by_name(&s.tool))
                    .map(|t| t.description())
                    .collect();
                let recommendations = recommend_descriptions(
                    &self.model,
                    self.config.quant,
                    normalized,
                    &gold,
                    stable_text_seed(normalized),
                );
                let contexts = recommendations
                    .iter()
                    .map(|rec| embedder.embed_with_context(normalized, rec))
                    .collect();
                QueryEmbeddings {
                    query: query_embedding,
                    recommendations,
                    contexts,
                }
            }
            _ => QueryEmbeddings {
                query: query_embedding,
                recommendations: Vec::new(),
                contexts: Vec::new(),
            },
        }
    }

    /// Arbitrates a selection from cached or fresh embeddings.
    fn arbitrate(&self, embeddings: &QueryEmbeddings) -> ToolSelection {
        match self.config.policy {
            Policy::LessIsMore { config } => {
                let controller = ToolController::new(&self.levels, config);
                controller.select_embedded(&embeddings.contexts)
            }
            Policy::Gorilla { k } => {
                let hits = self
                    .levels
                    .tool_index()
                    .search(embeddings.query.as_slice(), k);
                ToolSelection {
                    level: SearchLevel::Individual,
                    tool_indices: hits.iter().map(|h| h.id as usize).collect(),
                    level1_score: 0.0,
                    level2_score: 0.0,
                }
            }
            Policy::Default => ToolSelection {
                level: SearchLevel::Full,
                tool_indices: self.levels.full_level(),
                level1_score: 0.0,
                level2_score: 0.0,
            },
        }
    }

    /// Replays a session trace across `workers` worker threads
    /// (0 = available parallelism) and reports accuracy, latency
    /// percentiles and cache behaviour.
    ///
    /// Accuracy, latency and cache numbers are bit-identical for every
    /// worker count; only wall-clock throughput varies.
    ///
    /// This is a thin wrapper over the incremental streaming API: it
    /// opens a [`crate::ServeSession`], submits every request in
    /// canonical (session-major) order and finishes — so the batch and
    /// streamed paths share one code path and cannot diverge.
    ///
    /// # Errors
    ///
    /// Rejects traces generated for a different benchmark, referencing
    /// query indices outside the engine's pool, carrying incoherent
    /// arrival/churn metadata, or naming more than one tenant (replay
    /// those on a [`crate::FleetEngine`]).
    pub fn process_trace(
        &mut self,
        trace: &SessionTrace,
        workers: usize,
    ) -> Result<ServeReport, String> {
        let mut stream = self.begin_stream(crate::StreamMeta::of_trace(trace), workers);
        stream.replay(trace)?;
        Ok(stream.finish())
    }

    /// Stage 1, one request: resolve the session fast path and both
    /// caches in submission order; record the request's hit class plus a
    /// slot into the current batch's dense table of unique selection
    /// jobs.
    pub(crate) fn plan_request(
        &mut self,
        session_id: u64,
        query_index: usize,
        jobs: &mut Vec<SelectionJob>,
        slot_of: &mut HashMap<String, usize>,
    ) -> PlannedRequest {
        if let Policy::Default = self.config.policy {
            return PlannedRequest {
                query_index,
                source: SelectionSource::FullCatalog,
                cost: CostClass::Free,
            };
        }
        let query = &self.workload.queries[query_index];
        let normalized = normalize_query(&query.text);
        // The session fast path and the embedding cache key on the
        // epoch-qualified form: a catalog mutation strands both, so no
        // request is ever served a selection computed against a catalog
        // that no longer exists.
        let key = self.embed_key(&normalized);
        let state = self.sessions.entry(session_id).or_default();

        // Per-session warm controller: a session repeating its own
        // previous query bypasses the shared caches entirely.
        if state.last_key.as_deref() == Some(key.as_str()) {
            let source = state
                .last_selection
                .clone()
                .expect("fast path implies a resolved previous request");
            self.session_fast_hits += 1;
            return PlannedRequest {
                query_index,
                source,
                cost: CostClass::Free,
            };
        }

        // Every request conceptually embeds its query first, so the
        // embedding cache is consulted per request — *before* the memo.
        // A `Reserved` outcome means an earlier request in this batch
        // already scheduled the compute: by the time anything executes
        // (stage 4) the value exists, so it counts as a hit, exactly as
        // a sequential server would see it.
        let embed_lookup = self.embed_cache.lookup(&key);
        let memo_key = self.memo_key(&normalized);
        let ensure_job = |jobs: &mut Vec<SelectionJob>,
                          slot_of: &mut HashMap<String, usize>,
                          cached: Option<Arc<QueryEmbeddings>>,
                          embeddings_only: bool|
         -> usize {
            match slot_of.get(&normalized) {
                Some(&slot) => {
                    // A later requester that needs full cost accounting
                    // upgrades an embeddings-only refill (jobs run after
                    // all planning).
                    if !embeddings_only {
                        jobs[slot].embeddings_only = false;
                    }
                    slot
                }
                None => {
                    // Jobs are keyed by the *pure* normalized text: a
                    // job is a function of the query, and its simulated
                    // cost must not vary with the catalog epoch.
                    jobs.push(SelectionJob {
                        key: normalized.clone(),
                        query_index,
                        cached_embeddings: cached,
                        embeddings_only,
                    });
                    slot_of.insert(normalized.clone(), jobs.len() - 1);
                    jobs.len() - 1
                }
            }
        };
        let (source, cost) = match self.memo.lookup(&memo_key) {
            Lookup::Hit(selection) => {
                if matches!(embed_lookup, Lookup::Miss) {
                    // The embedding tier lost the entry while the memo
                    // kept its own; schedule a refill so the reserved
                    // slot gets a value (the request itself is served
                    // from the memo for free).
                    ensure_job(jobs, slot_of, None, true);
                }
                (SelectionSource::Ready(selection), CostClass::Free)
            }
            Lookup::Reserved => {
                // Reserved earlier in this batch: the slot exists (every
                // reservation schedules a job, and fills land at the end
                // of each batch, so a `Reserved` outcome can only come
                // from the current batch).
                let slot = slot_of[&normalized];
                (SelectionSource::Pending(slot), CostClass::Free)
            }
            Lookup::Miss => {
                let (cached, cost) = match &embed_lookup {
                    Lookup::Hit(e) => (Some(Arc::clone(e)), CostClass::KnnOnly),
                    // Pending embeddings: the slot's job computes them
                    // once; this request re-runs arbitration only.
                    Lookup::Reserved => (None, CostClass::KnnOnly),
                    Lookup::Miss => (None, CostClass::Cold),
                };
                let slot = ensure_job(jobs, slot_of, cached, false);
                (SelectionSource::Pending(slot), cost)
            }
        };
        let state = self.sessions.entry(session_id).or_default();
        state.last_key = Some(key);
        state.last_selection = Some(source.clone());
        PlannedRequest {
            query_index,
            source,
            cost,
        }
    }

    /// Stage 2: one unique selection job (pure in the normalized query).
    pub(crate) fn run_selection_job(
        &self,
        pipeline: &Pipeline<'_>,
        job: &SelectionJob,
    ) -> ComputedSelection {
        let embeddings = match &job.cached_embeddings {
            Some(cached) => Arc::clone(cached),
            None => {
                Arc::new(self.build_embeddings(&job.key, &self.workload.queries[job.query_index]))
            }
        };
        // Arbitration runs even for embeddings-only refills: if the memo
        // entry is evicted later in the trace, a subsequent request
        // resolves through this slot and needs the selection.
        let selection = Arc::new(self.arbitrate(&embeddings));

        let levels_probed = match self.config.policy {
            Policy::LessIsMore { .. } => 2.0,
            _ => 1.0,
        };
        let knn_seconds = self.config.knn_seconds_per_level * levels_probed;
        // Embeddings-only refills are never billed cold (every request on
        // this key is served Free from the memo or KnnOnly), so the
        // recommender cost simulation would be dead weight.
        let (rec_seconds, rec_joules) = match self.config.policy {
            Policy::LessIsMore { .. } if !job.embeddings_only => {
                // Billed on the normalized text, like everything else a
                // selection job derives, so the cost is a pure function
                // of the cache key.
                let cost = pipeline.recommender_cost(&job.key);
                (cost.seconds, cost.joules)
            }
            _ => (0.0, 0.0),
        };
        let texts_embedded = 1.0 + embeddings.contexts.len() as f64;
        let cold_seconds =
            rec_seconds + self.config.embed_seconds_per_text * texts_embedded + knn_seconds;
        ComputedSelection {
            embeddings,
            selection,
            cold_seconds,
            knn_seconds,
            cold_joules: rec_joules,
        }
    }

    /// Stage 4: execute one request's gold chain under its selection.
    pub(crate) fn execute_request(
        &self,
        pipeline: &Pipeline<'_>,
        request: &PlannedRequest,
        computed: &[ComputedSelection],
    ) -> RequestOutcome {
        let query = &self.workload.queries[request.query_index];
        let full_level;
        let (offered, level): (&[usize], Option<SearchLevel>) = match &request.source {
            SelectionSource::FullCatalog => {
                full_level = self.levels.full_level();
                (&full_level, None)
            }
            SelectionSource::Ready(selection) => (&selection.tool_indices, Some(selection.level)),
            SelectionSource::Pending(slot) => {
                let selection = &computed[*slot].selection;
                (&selection.tool_indices, Some(selection.level))
            }
        };
        let context = match level {
            None | Some(SearchLevel::Full) => DEFAULT_CONTEXT,
            _ => REDUCED_CONTEXT,
        };
        let result = pipeline.run_query_offered(query, offered, context);
        let (selection_seconds, selection_joules) = match (request.cost, &request.source) {
            (CostClass::Cold, SelectionSource::Pending(slot)) => {
                (computed[*slot].cold_seconds, computed[*slot].cold_joules)
            }
            (CostClass::KnnOnly, SelectionSource::Pending(slot)) => {
                (computed[*slot].knn_seconds, 0.0)
            }
            _ => (0.0, 0.0),
        };
        RequestOutcome {
            success: result.success,
            tool_correct: result.tool_correct,
            offered_tools: offered.len(),
            level,
            seconds: selection_seconds + result.cost.seconds,
            joules: selection_joules + result.cost.joules,
        }
    }

    /// The admission layer's degrade path: the Level-3 full catalog with
    /// zero selection overhead ([`ServiceLevel::Floor`] through the
    /// [`ServicePolicy`] actuation API). A degraded request pays the
    /// vanilla full-prompt execution but nothing for selection — the
    /// recommender, the `Ẽ` embeddings and the k-NN arbitration are all
    /// skipped.
    pub(crate) fn execute_degraded(
        &self,
        pipeline: &Pipeline<'_>,
        request: &PlannedRequest,
    ) -> RequestOutcome {
        let query = &self.workload.queries[request.query_index];
        let controller = ToolController::new(&self.levels, Default::default());
        let selection = controller.actuate(ServiceLevel::Floor, &[]);
        let result = pipeline.run_query_offered(query, &selection.tool_indices, DEFAULT_CONTEXT);
        RequestOutcome {
            success: result.success,
            tool_correct: result.tool_correct,
            offered_tools: selection.tool_indices.len(),
            level: None,
            seconds: result.cost.seconds,
            joules: result.cost.joules,
        }
    }

    /// The live-catalog section of a report, read off this engine's
    /// counters.
    pub(crate) fn catalog_report(&self) -> CatalogReport {
        CatalogReport {
            epoch: self.epoch,
            registered: self.catalog.registered,
            retired: self.catalog.retired,
            tombstones: self.levels.tool_index().tombstones().len(),
            compactions: self.catalog.compactions,
            cluster_refreshes: self.catalog.cluster_refreshes,
            memo_invalidations: self.catalog.memo_invalidations,
        }
    }

    /// Builds a [`ServeReport`] by folding `records` — the one
    /// aggregation path. A stream's overall report folds every record and
    /// carries cache deltas *summed* over its tenants, while the identity
    /// fields (benchmark, model, policy, seed, admission config) come
    /// from a real engine; a tenant's report folds that tenant's records
    /// and passes its own sections. Shed requests stay in every
    /// denominator: shedding buys stability by paying accuracy, and the
    /// report must show that price.
    pub(crate) fn compose_report<'r, I>(&self, scope: ReportScope, records: I) -> ServeReport
    where
        I: Iterator<Item = &'r RequestRecord> + Clone,
    {
        let requests = records.clone().count();
        let n = requests.max(1) as f64;
        let executed = || records.clone().filter_map(RequestRecord::executed);
        let admitted = || records.clone().filter(|r| r.wait_s().is_some());
        let count = |pick: fn(&Disposition) -> bool| {
            records
                .clone()
                .filter(|r| r.disposition.as_ref().is_some_and(pick))
                .count() as u64
        };
        // Shed requests drew nothing and stay out of the per-request
        // joule percentiles (they still count in the gCO₂ denominator —
        // grams per *offered* request is the deployment-facing rate).
        let request_joules: Vec<f64> = admitted().map(|r| r.joules).collect();
        let total_grams: f64 = admitted().map(|r| r.grams).sum();
        let knobs = scope.governor;
        let energy_report = EnergyReport {
            device: self.config.device.label().to_owned(),
            power_cap_w: knobs.power_cap_w,
            window_s: knobs.window_s,
            carbon_seed: knobs.carbon_seed,
            carbon_budget_g_per_h: knobs.carbon_budget_g_per_h,
            joules_per_request: LatencyStats::from_seconds(&request_joules),
            sustained_watts_max: scope.sustained_watts_max,
            gco2_per_1k_requests: total_grams / n * 1000.0,
            governor_transitions: scope.transitions,
        };
        let shed = count(|d| *d == Disposition::Shed);
        let waits: Vec<f64> = records.clone().filter_map(RequestRecord::wait_s).collect();
        let total_seconds: f64 = executed().map(|o| o.seconds).sum();
        let total_joules: f64 = executed().map(|o| o.joules).sum();
        let latencies: Vec<f64> = executed().map(|o| o.seconds).collect();
        let executed_n = latencies.len().max(1) as f64;
        let share =
            |level: SearchLevel| executed().filter(|o| o.level == Some(level)).count() as f64 / n;
        ServeReport {
            benchmark: self.workload.name.to_owned(),
            model: self.model.name.to_owned(),
            quant: self.config.quant,
            policy: self.config.policy.label(),
            engine_seed: self.config.seed,
            trace_seed: scope.meta.trace_seed,
            zipf_s: scope.meta.zipf_s,
            workers: scope.workers,
            sessions: scope
                .meta
                .sessions
                .unwrap_or_else(|| session_runs(records.clone().map(|r| r.session))),
            requests,
            unique_queries: unique_count(records.clone().map(|r| r.query_index)),
            success_rate: executed().filter(|o| o.success).count() as f64 / n,
            tool_accuracy: executed().filter(|o| o.tool_correct).count() as f64 / n,
            avg_offered_tools: executed().map(|o| o.offered_tools as f64).sum::<f64>() / executed_n,
            level1_share: share(SearchLevel::Individual),
            level2_share: share(SearchLevel::Cluster),
            level3_share: executed()
                .filter(|o| o.level == Some(SearchLevel::Full) || o.level.is_none())
                .count() as f64
                / n,
            latency: LatencyStats::from_seconds(&latencies),
            sim_total_seconds: total_seconds,
            avg_power_w: if total_seconds > 0.0 {
                total_joules / total_seconds
            } else {
                0.0
            },
            energy: energy_report,
            embed_cache: scope.embed_cache,
            selection_memo: scope.selection_memo,
            session_fast_hits: scope.session_fast_hits,
            boot: scope.boot,
            catalog: scope.catalog,
            admission: AdmissionReport {
                arrivals: scope.meta.arrivals.label(),
                queue_depth: self.config.admission.queue_depth,
                servers: self.config.admission.effective_servers(),
                shed_policy: self.config.admission.shed_policy.label().to_owned(),
                admitted: requests as u64 - shed,
                degraded: count(|d| matches!(d, Disposition::Degraded { .. })),
                shed,
                max_queue_depth: scope.max_queue_depth,
                queue_wait: LatencyStats::from_seconds(&waits),
            },
            wall_seconds: scope.wall_seconds,
            requests_per_second: if scope.wall_seconds > 0.0 {
                requests as f64 / scope.wall_seconds
            } else {
                0.0
            },
        }
    }
}

/// Runs of consecutive equal session ids: a session-major stream's
/// session count.
fn session_runs(sessions: impl Iterator<Item = u64>) -> usize {
    let mut last = None;
    sessions.filter(|s| last.replace(*s) != Some(*s)).count()
}

/// Distinct query indices in a stream.
fn unique_count(queries: impl Iterator<Item = usize>) -> usize {
    let mut unique: Vec<usize> = queries.collect();
    unique.sort_unstable();
    unique.dedup();
    unique.len()
}

/// Bytes of the sections a boot actually decoded — the basis of the
/// simulated decode cost. A levels boot from a checkpoint file never
/// touches the warm sections, so it never pays for them.
fn decoded_bytes(snapshot: &Snapshot) -> usize {
    snapshot
        .decoded_sections()
        .iter()
        .filter_map(|name| snapshot.section_len(name))
        .sum()
}

/// Normalizes a query into its cache key: lowercase, alphanumeric words,
/// single spaces. Punctuation and casing never change what a query means
/// to the selector, so they must not fragment the cache.
pub fn normalize_query(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut pending_space = false;
    for c in text.chars() {
        if c.is_alphanumeric() {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            out.extend(c.to_lowercase());
        } else {
            pending_space = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_collapses_case_and_punctuation() {
        assert_eq!(
            normalize_query("  What's the Weather, in Paris?! "),
            "what s the weather in paris"
        );
        assert_eq!(normalize_query("a  b\tc"), "a b c");
        assert_eq!(normalize_query("???"), "");
    }
}
