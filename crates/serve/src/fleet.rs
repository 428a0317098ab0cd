//! Fleet tenancy: N QoS-fair catalogs served by one engine process.
//!
//! A [`FleetEngine`] holds one [`ServeEngine`] per tenant, all sharing
//! one offline index build through copy-on-write `Arc`s (a tenant's
//! first live catalog mutation forks its own levels via
//! `Arc::make_mut`; cold tenants keep referencing the shared build
//! forever). Three fleet-wide mechanisms sit on top:
//!
//! * **Budget partition.** One shared embedding-cache budget and one
//!   memo budget are split across tenants by a deterministic
//!   weighted-by-traffic policy with a per-tenant floor
//!   ([`partition`]): every tenant is granted its floor first, and the
//!   spare is divided by cumulative submitted-request counts using
//!   largest-remainder rounding (ties to the lower tenant id). A hot
//!   tenant can grow its slice only from the spare — it can never push
//!   a cold tenant below the floor. With more than one tenant,
//!   partitions are recomputed at fixed global submission counts
//!   ([`FleetConfig::rebalance_every`]), so
//!   the capacity history is a pure function of the submission order
//!   and the numbers stay bit-identical for every worker count and
//!   every drain chopping.
//! * **Two-level admission fairness.** All tenants feed one simulated
//!   executor pool through
//!   [`crate::admission::FleetAdmissionSim`]:
//!   round-robin across tenants with waiting work, then round-robin
//!   across sessions within the tenant. Queue depths and shed policies
//!   are enforced against each tenant's *own* backlog, so a flooding
//!   tenant sheds its own traffic instead of starving the others.
//! * **One stream path.** [`FleetSession`] is the only stream
//!   implementation: submit validation, the stage-5 governor/admission
//!   walk, event and joule accounting, trace replay and the final
//!   aggregation exist once. Each request leaves one record: its
//!   admission offer settles the outcome it executes, and its
//!   resolution adds its disposition, joules and grams. Per-tenant
//!   reports and the fleet-wide aggregate are folds over those records
//!   through `ServeEngine::compose_report`. A standalone
//!   engine's [`crate::ServeSession`] is a one-tenant view of it, and a
//!   one-tenant stream does no fleet-only work: no rebalance (a
//!   one-tenant partition is always the whole budget), no governor
//!   apportioning (the configured cap is enforced bit for bit), and no
//!   fleet-wide estimator (tenant 0's governor windows the same
//!   samples). A one-tenant fleet is therefore bit-identical to no
//!   fleet at all (the N=1 equivalence the tenancy tests pin down).
//!
//! # Examples
//!
//! ```
//! use lim_serve::{FleetConfig, FleetEngine, ServeConfig};
//! use lim_workloads::trace::{zipf_trace, TraceConfig};
//!
//! let workload = lim_workloads::bfcl(7, 40);
//! let trace = zipf_trace(
//!     &workload,
//!     &TraceConfig { tenants: 3, ..TraceConfig::default() },
//! );
//! let model = lim_llm::ModelProfile::by_name("llama3.1-8b").expect("model exists");
//! let config = FleetConfig::new(3, ServeConfig::default());
//! let mut fleet = FleetEngine::new(workload, model, config).expect("valid config");
//! let report = fleet.process_trace(&trace, 2).expect("trace matches workload");
//! assert_eq!(report.tenants.len(), 3);
//! assert_eq!(report.overall.requests, trace.requests());
//! ```

use std::sync::Arc;

use lim_core::{resolve_threads, Policy, SearchLevels, ServiceLevel, Snapshot, SnapshotError};
use lim_llm::ModelProfile;
use lim_tools::ToolDoc;
use lim_workloads::trace::{ArrivalProcess, ChurnEvent, ChurnOp, SessionTrace};
use lim_workloads::Workload;

use crate::admission::{Disposition, FleetAdmissionSim, ShedPolicy};
use crate::cache::CacheStats;
use crate::engine::{ReportScope, RequestRecord, SelectionSource, ServeConfig, ServeEngine};
use crate::governor::{GovernorConfig, GovernorState};
use crate::report::{CatalogReport, FleetReport, TenantReport};
use crate::session::{Executed, RequestEvent, StreamMeta, StreamRequest, Ticket};

/// Fleet-wide tunables: the shared per-tenant base [`ServeConfig`] plus
/// the cache budgets the partition policy divides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of tenants (dense ids `0..tenants`).
    pub tenants: usize,
    /// Per-tenant engine configuration. Cache capacities in here are
    /// reinterpreted as the *fleet-wide budgets* by [`FleetConfig::new`];
    /// each tenant's actual capacity is its partition slice.
    pub base: ServeConfig,
    /// Total embedding-cache entries shared by all tenants.
    pub embed_budget: usize,
    /// Total selection-memo entries shared by all tenants.
    pub memo_budget: usize,
    /// Guaranteed minimum embedding-cache entries per tenant. Clamped
    /// into `1..=embed_budget / tenants` at partition time.
    pub embed_floor: usize,
    /// Guaranteed minimum selection-memo entries per tenant.
    pub memo_floor: usize,
    /// Recompute the budget partition every this many globally submitted
    /// requests (0 disables rebalancing; the boot-time equal split then
    /// holds forever).
    pub rebalance_every: u64,
}

impl FleetConfig {
    /// A fleet of `tenants` engines over `base`: the base cache
    /// capacities become the fleet-wide budgets, floors default to a
    /// quarter of an equal share, and the partition is recomputed every
    /// 64 requests.
    pub fn new(tenants: usize, base: ServeConfig) -> Self {
        Self {
            tenants,
            base,
            embed_budget: base.embed_cache_capacity,
            memo_budget: base.memo_capacity,
            embed_floor: (base.embed_cache_capacity / (4 * tenants.max(1))).max(1),
            memo_floor: (base.memo_capacity / (4 * tenants.max(1))).max(1),
            rebalance_every: 64,
        }
    }

    /// Checks the budgets can cover every tenant's minimum slice.
    ///
    /// # Errors
    ///
    /// A human-readable message when `tenants` is zero or a budget
    /// cannot grant every tenant at least one entry.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants == 0 {
            return Err("fleet needs at least one tenant".to_owned());
        }
        if self.embed_budget < self.tenants {
            return Err(format!(
                "embed budget {} cannot grant {} tenants one entry each",
                self.embed_budget, self.tenants
            ));
        }
        if self.memo_budget < self.tenants {
            return Err(format!(
                "memo budget {} cannot grant {} tenants one entry each",
                self.memo_budget, self.tenants
            ));
        }
        Ok(())
    }

    /// The effective embedding-cache floor after clamping: at least one
    /// entry, at most an equal share of the budget.
    pub fn effective_embed_floor(&self) -> usize {
        effective_floor(self.embed_budget, self.embed_floor, self.tenants)
    }

    /// The effective selection-memo floor after clamping.
    pub fn effective_memo_floor(&self) -> usize {
        effective_floor(self.memo_budget, self.memo_floor, self.tenants)
    }
}

fn effective_floor(budget: usize, floor: usize, tenants: usize) -> usize {
    floor.clamp(1, (budget / tenants.max(1)).max(1))
}

/// Splits `budget` cache entries across tenants: every tenant gets the
/// (clamped) floor, and the spare is divided proportionally to
/// `weights` by largest-remainder rounding, ties broken toward the
/// lower tenant id. All-zero weights (a fleet that has served nothing)
/// split the spare equally. The result always sums to exactly `budget`
/// and every slice is at least the effective floor — the invariant the
/// hot/cold isolation test leans on.
pub fn partition(budget: usize, floor: usize, weights: &[u64]) -> Vec<usize> {
    let n = weights.len();
    assert!(n > 0, "partition over zero tenants");
    assert!(budget >= n, "budget {budget} below one entry per tenant");
    let floor = effective_floor(budget, floor, n);
    let spare = budget - n * floor;
    let uniform = vec![1u64; n];
    let weights = if weights.iter().all(|w| *w == 0) {
        &uniform
    } else {
        weights
    };
    let total: u128 = weights.iter().map(|w| u128::from(*w)).sum();
    let mut slices: Vec<usize> = Vec::with_capacity(n);
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(n);
    let mut granted = 0usize;
    for (i, w) in weights.iter().enumerate() {
        let exact = u128::from(*w) * spare as u128;
        let share = (exact / total) as usize;
        granted += share;
        slices.push(floor + share);
        remainders.push((exact % total, i));
    }
    // Leftover units go to the largest fractional remainders; the tie
    // break (lower tenant id first) keeps the split fully deterministic.
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for (_, i) in remainders.iter().take(spare - granted) {
        slices[*i] += 1;
    }
    debug_assert_eq!(slices.iter().sum::<usize>(), budget);
    slices
}

/// [`partition`] over a continuous budget (watts, g CO₂/h): quantized
/// to integer milli-units so the split is exact, with the same
/// quarter-of-an-equal-share floor the cache budgets default to.
fn partition_budget(total: f64, tenants: usize, weights: &[u64]) -> Vec<f64> {
    let tenants = tenants.max(1);
    let total_m = ((total * 1000.0).round() as usize).max(tenants);
    let floor_m = (total_m / (4 * tenants)).max(1);
    partition(total_m, floor_m, weights)
        .into_iter()
        .map(|m| m as f64 / 1000.0)
        .collect()
}

/// Why a [`FleetSession::submit`] was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetSubmitError {
    /// The request named a tenant the fleet does not serve. The stream
    /// survives: wire front-ends answer this with a typed `error` frame
    /// and keep reading.
    UnknownTenant {
        /// The tenant id the request carried.
        tenant: u64,
        /// How many tenants the fleet serves (`0..tenants` are valid).
        tenants: usize,
    },
    /// Any other rejection: a query index outside the pool or an
    /// arrival-timestamp violation.
    Other(String),
}

impl std::fmt::Display for FleetSubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownTenant { tenant, tenants } => {
                write!(f, "unknown tenant {tenant} (fleet serves 0..{tenants})")
            }
            Self::Other(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for FleetSubmitError {}

/// A multi-tenant serving engine: one [`ServeEngine`] per tenant over a
/// shared index build, a shared cache budget, and two-level admission
/// fairness. See the [module docs](self) for the mechanism summary.
#[derive(Debug)]
pub struct FleetEngine {
    pub(crate) engines: Vec<ServeEngine>,
    pub(crate) config: FleetConfig,
    /// Lifetime submitted-request count per tenant — the partition
    /// weights.
    pub(crate) traffic: Vec<u64>,
    /// Lifetime globally submitted requests (drives the rebalance
    /// cadence).
    pub(crate) total_submitted: u64,
    /// Fleet-wide passive sustained-watts estimator: observes every
    /// tenant's admitted energy on open-loop streams (never decides —
    /// actuation is per-tenant) so the overall report can state what
    /// the whole box drew. Idle with one tenant, whose governor windows
    /// the same samples, and on closed-loop streams, which have no
    /// arrival clock. Checkpointed with the fleet section.
    pub(crate) estimator: GovernorState,
}

impl FleetEngine {
    /// Builds the offline search levels **once** and starts one engine
    /// per tenant over the shared build, each with its equal-split
    /// partition slice of the cache budgets.
    ///
    /// # Errors
    ///
    /// A human-readable message when the config fails
    /// [`FleetConfig::validate`].
    pub fn new(
        workload: Workload,
        model: ModelProfile,
        config: FleetConfig,
    ) -> Result<Self, String> {
        config.validate()?;
        let levels = Arc::new(SearchLevels::build(&workload));
        let workload = Arc::new(workload);
        Self::with_shared(workload, levels, model, config)
    }

    /// Starts a fleet over already-shared workload/levels Arcs (what the
    /// checkpoint restore path and [`FleetEngine::new`] both go
    /// through). Public so front-ends that already hold built levels —
    /// a snapshot boot, a custom index backend — can share one
    /// copy-on-write `SearchLevels` across every tenant instead of
    /// rebuilding it `tenants` times.
    ///
    /// # Errors
    ///
    /// Returns a description of an invalid [`FleetConfig`].
    pub fn with_shared(
        workload: Arc<Workload>,
        levels: Arc<SearchLevels>,
        model: ModelProfile,
        config: FleetConfig,
    ) -> Result<Self, String> {
        config.validate()?;
        let traffic = vec![0u64; config.tenants];
        let embed = partition(config.embed_budget, config.embed_floor, &traffic);
        let memo = partition(config.memo_budget, config.memo_floor, &traffic);
        let engines = (0..config.tenants)
            .map(|tenant| {
                let mut tenant_config = config.base;
                tenant_config.embed_cache_capacity = embed[tenant];
                tenant_config.memo_capacity = memo[tenant];
                ServeEngine::for_tenant(
                    Arc::clone(&workload),
                    Arc::clone(&levels),
                    model.clone(),
                    tenant_config,
                    tenant as u64,
                )
            })
            .collect();
        let mut fleet = Self {
            engines,
            config,
            traffic,
            total_submitted: 0,
            estimator: GovernorState::new(),
        };
        fleet.apportion_governor();
        Ok(fleet)
    }

    /// Number of tenants this fleet serves.
    pub fn tenants(&self) -> usize {
        self.engines.len()
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// One tenant's engine, read-only — how tests and metrics exporters
    /// inspect per-tenant cache state.
    ///
    /// # Panics
    ///
    /// Panics when `tenant` is out of range.
    pub fn tenant_engine(&self, tenant: usize) -> &ServeEngine {
        &self.engines[tenant]
    }

    /// Current embedding-cache capacities per tenant (the latest
    /// partition decision).
    pub fn embed_capacities(&self) -> Vec<usize> {
        self.engines
            .iter()
            .map(|e| e.config.embed_cache_capacity)
            .collect()
    }

    /// Current selection-memo capacities per tenant.
    pub fn memo_capacities(&self) -> Vec<usize> {
        self.engines
            .iter()
            .map(|e| e.config.memo_capacity)
            .collect()
    }

    /// Recomputes the budget partition from the cumulative traffic
    /// weights and resizes every tenant's caches to its new slice.
    /// Called at fixed global submission counts, never mid-batch.
    pub(crate) fn rebalance(&mut self) {
        let embed = partition(
            self.config.embed_budget,
            self.config.embed_floor,
            &self.traffic,
        );
        let memo = partition(
            self.config.memo_budget,
            self.config.memo_floor,
            &self.traffic,
        );
        for (tenant, engine) in self.engines.iter_mut().enumerate() {
            engine.resize_caches(embed[tenant], memo[tenant]);
        }
        self.apportion_governor();
    }

    /// Splits the fleet-wide power cap (and carbon budget) across
    /// tenants through the same floor + largest-remainder machinery as
    /// the cache budgets, weighted by cumulative traffic, in integer
    /// milliwatts (milligrams) so the slices are exact and
    /// deterministic. No-op when the base governor has no cap/budget,
    /// and for a single tenant, which keeps the configured knobs
    /// unrounded.
    fn apportion_governor(&mut self) {
        if self.engines.len() == 1 {
            return;
        }
        let base = self.config.base.governor.normalized();
        if base.power_capped() {
            let caps = partition_budget(base.power_cap_w, self.config.tenants, &self.traffic);
            for (tenant, engine) in self.engines.iter_mut().enumerate() {
                engine.config.governor.power_cap_w = caps[tenant];
            }
        }
        if base.carbon_capped() {
            let budgets = partition_budget(
                base.carbon_budget_g_per_h,
                self.config.tenants,
                &self.traffic,
            );
            for (tenant, engine) in self.engines.iter_mut().enumerate() {
                engine.config.governor.carbon_budget_g_per_h = budgets[tenant];
            }
        }
    }

    /// Current per-tenant power-cap slices in watts (all `0.0` when the
    /// fleet is uncapped).
    pub fn power_caps_w(&self) -> Vec<f64> {
        self.engines
            .iter()
            .map(|e| e.config.governor.power_cap_w)
            .collect()
    }

    /// Registers a tool on one tenant's live catalog (the tenant's
    /// levels fork from the shared build on first mutation). Prefer
    /// [`FleetSession::register_tool`] mid-stream.
    ///
    /// # Errors
    ///
    /// Unknown tenant, or the per-engine rejection (invalid document,
    /// duplicate name).
    pub fn register_tool(&mut self, tenant: u64, doc: &ToolDoc) -> Result<usize, String> {
        tenant_engine(&mut self.engines, tenant)?.register_tool(doc)
    }

    /// Retires a tool from one tenant's live catalog.
    ///
    /// # Errors
    ///
    /// Unknown tenant, or the per-engine rejection (index out of range
    /// or already retired).
    pub fn retire_tool(&mut self, tenant: u64, index: usize) -> Result<(), String> {
        tenant_engine(&mut self.engines, tenant)?.retire_tool(index)
    }

    /// Serializes the whole fleet — tenancy state, every tenant's
    /// levels, warm caches in deterministic LRU order, sessions and
    /// catalog log — as one `lim/snapshot-v1` checkpoint. Encoding the
    /// same fleet twice yields byte-identical output. A single-engine
    /// boot handed a fleet file fails safe (its `fleet` and `t{i}.*`
    /// sections are unknown to [`ServeEngine::from_checkpoint`]).
    pub fn checkpoint(&self) -> Vec<u8> {
        crate::snapshot::write_fleet_checkpoint(self)
    }

    /// Boots a whole fleet from a checkpoint written by
    /// [`FleetEngine::checkpoint`], skipping the level build and the
    /// cold-cache ramp for every tenant: replaying the remainder of a
    /// trace on the restored fleet is bit-identical to never having
    /// restarted, and the first replayed requests hit the warm caches
    /// with zero misses.
    ///
    /// # Errors
    ///
    /// Typed [`SnapshotError`]s: a missing or malformed `tenants`
    /// header is [`SnapshotError::Header`]; sections for tenants the
    /// header does not declare (`t9.engine` in a 3-tenant file) are
    /// [`SnapshotError::UnknownSection`]; duplicate sections are
    /// rejected by the container parser; configuration disagreements
    /// (tenant count, budgets, floors, cadence, model, quant, policy,
    /// seed) are [`SnapshotError::Mismatch`].
    pub fn from_checkpoint(
        snapshot: &Snapshot,
        workload: Workload,
        model: ModelProfile,
        config: FleetConfig,
    ) -> Result<Self, SnapshotError> {
        crate::snapshot::restore_fleet(snapshot, workload, model, config)
    }

    /// Opens an incremental multi-tenant serving session (the fleet
    /// shape of [`ServeEngine::begin_stream`]).
    pub fn begin_stream(&mut self, meta: StreamMeta, workers: usize) -> FleetSession<'_> {
        FleetSession::new(Host::Fleet(self), meta, workers)
    }

    /// Replays a multi-tenant session trace and reports the fleet-wide
    /// aggregate plus per-tenant breakdowns. Thin wrapper over the
    /// incremental [`FleetSession`], exactly like
    /// [`ServeEngine::process_trace`].
    ///
    /// # Errors
    ///
    /// Rejects traces for a different benchmark, out-of-pool query
    /// indices, incoherent arrival/churn/tenant metadata, and traces
    /// naming more tenants than the fleet serves.
    pub fn process_trace(
        &mut self,
        trace: &SessionTrace,
        workers: usize,
    ) -> Result<FleetReport, String> {
        let mut stream = self.begin_stream(StreamMeta::of_trace(trace), workers);
        stream.replay(trace)?;
        Ok(stream.finish())
    }
}

/// A standalone engine as a one-tenant fleet — how a front-end that
/// picks its tenant count at run time serves a single catalog through
/// the one fleet code path. The fleet config's budgets are the engine's
/// own cache capacities, so nothing is repartitioned.
impl From<ServeEngine> for FleetEngine {
    fn from(engine: ServeEngine) -> Self {
        Self {
            config: FleetConfig::new(1, engine.config),
            engines: vec![engine],
            traffic: vec![0],
            total_submitted: 0,
            estimator: GovernorState::new(),
        }
    }
}

/// The engine(s) a stream serves: a fleet, or one standalone engine
/// viewed as a one-tenant fleet ([`ServeEngine::begin_stream`]).
pub(crate) enum Host<'e> {
    Fleet(&'e mut FleetEngine),
    Solo(&'e mut ServeEngine),
}

impl Host<'_> {
    fn engines(&self) -> &[ServeEngine] {
        match self {
            Host::Fleet(fleet) => &fleet.engines,
            Host::Solo(engine) => std::slice::from_ref(&**engine),
        }
    }

    fn engines_mut(&mut self) -> &mut [ServeEngine] {
        match self {
            Host::Fleet(fleet) => &mut fleet.engines,
            Host::Solo(engine) => std::slice::from_mut(&mut **engine),
        }
    }

    /// The fleet, when it has more than one tenant. Budget rebalancing
    /// and the fleet-wide sustained-watts estimator exist only then: a
    /// one-tenant partition is always the whole budget, and the
    /// estimator would window exactly tenant 0's governor samples.
    fn multi_tenant(&mut self) -> Option<&mut FleetEngine> {
        match self {
            Host::Fleet(fleet) if fleet.engines.len() > 1 => Some(fleet),
            _ => None,
        }
    }
}

/// Looks up `tenant`'s engine, or names the valid range.
fn tenant_engine(engines: &mut [ServeEngine], tenant: u64) -> Result<&mut ServeEngine, String> {
    let tenants = engines.len();
    usize::try_from(tenant)
        .ok()
        .and_then(|t| engines.get_mut(t))
        .ok_or_else(|| format!("unknown tenant {tenant} (fleet serves 0..{tenants})"))
}

/// An in-flight incremental serving session — the one stream
/// implementation, for a fleet and (as a one-tenant view, see
/// [`crate::ServeSession`]) for a standalone engine. Requests carry a
/// tenant id; drains route each tenant's slice of the batch through
/// that tenant's engine (preserving global submission order within the
/// tenant) and feed the two-level admission simulation one offer per
/// request in global submission order — so every number is a pure
/// function of the submission sequence, chopped however the front-end
/// likes. Each drained request leaves one record, and the final
/// reports fold those records.
pub struct FleetSession<'e> {
    host: Host<'e>,
    workers: usize,
    meta: StreamMeta,
    open_loop: bool,
    needs_degraded: bool,
    /// Whether the governors can actuate on this stream (active base
    /// config on an open-loop stream) — gates the Economy alternative
    /// pass.
    needs_eco: bool,
    /// The normalized base governor knobs: what the overall report
    /// shows and what the fleet-wide estimator windows over (tenants
    /// decide with their own apportioned slices).
    base_governor: GovernorConfig,
    /// Idle draw of the shared device profile: what a queued request
    /// burns per second of waiting.
    idle_power_w: f64,
    started: std::time::Instant,
    embed_before: Vec<CacheStats>,
    memo_before: Vec<CacheStats>,
    session_fast_before: Vec<u64>,
    sim: FleetAdmissionSim,
    /// Submitted but not yet drained, global submission order, with the
    /// tenant of each.
    pending: Vec<StreamRequest>,
    pending_tenants: Vec<usize>,
    /// Events resolved by a forced rebalance drain, owed to the next
    /// explicit [`FleetSession::drain`] call.
    stashed_events: Vec<RequestEvent>,
    /// One record per drained request, global submission order.
    records: Vec<RequestRecord>,
    /// Governor rung transitions per tenant.
    tenant_transitions: Vec<u64>,
    /// Per-tenant sustained-watts max (each tenant's governor windows
    /// its own admitted energy; 0 on a closed-loop stream).
    tenant_watts_max: Vec<f64>,
    /// Max of the fleet-wide estimator (multi-tenant open-loop streams
    /// only).
    fleet_watts_max: f64,
    last_arrival: f64,
}

impl<'e> FleetSession<'e> {
    pub(crate) fn new(mut host: Host<'e>, meta: StreamMeta, workers: usize) -> Self {
        let base = match &host {
            Host::Fleet(fleet) => fleet.config.base,
            Host::Solo(engine) => engine.config,
        };
        // Defensive: a `Pending` selection source indexes a batch job
        // table that no longer exists. `drain_batch` re-anchors every
        // touched session to `Ready` before returning, so nothing should
        // ever be `Pending` here — but a stream must never start from a
        // dangling slot.
        for engine in host.engines_mut() {
            for state in engine.sessions.values_mut() {
                if matches!(state.last_selection, Some(SelectionSource::Pending(_))) {
                    state.last_key = None;
                    state.last_selection = None;
                }
            }
        }
        let open_loop = meta.arrivals != ArrivalProcess::BackToBack;
        // The degrade path serves the Level-3 full catalog with zero
        // selection work; under the default policy that *is* the
        // full-quality outcome, so only the other policies compute it.
        let needs_degraded = base.admission.enabled()
            && base.admission.shed_policy == ShedPolicy::Degrade
            && open_loop
            && !matches!(base.policy, Policy::Default);
        // The governor's Economy rung only ever actuates on open-loop
        // streams: sustained watts is a rate over *arrival* time, which
        // a closed-loop stream does not have.
        let base_governor = base.governor.normalized();
        let needs_eco = base_governor.active() && open_loop;
        let engines = host.engines();
        let tenants = engines.len();
        Self {
            workers: resolve_threads(workers),
            meta,
            open_loop,
            needs_degraded,
            needs_eco,
            base_governor,
            idle_power_w: base.device.profile().idle_power_w(),
            started: std::time::Instant::now(),
            embed_before: engines.iter().map(|e| e.embed_cache.stats()).collect(),
            memo_before: engines.iter().map(|e| e.memo.stats()).collect(),
            session_fast_before: engines.iter().map(|e| e.session_fast_hits).collect(),
            sim: FleetAdmissionSim::new(base.admission, tenants, open_loop),
            pending: Vec::new(),
            pending_tenants: Vec::new(),
            stashed_events: Vec::new(),
            records: Vec::new(),
            tenant_transitions: vec![0; tenants],
            tenant_watts_max: vec![0.0; tenants],
            fleet_watts_max: 0.0,
            last_arrival: 0.0,
            host,
        }
    }
}

impl FleetSession<'_> {
    /// Accepts one request for `tenant` into the current batch. Cheap —
    /// no engine work happens until [`FleetSession::drain`] — except at
    /// a rebalance boundary of a multi-tenant fleet, where the pending
    /// batch is drained first so the capacity change lands between
    /// requests, never inside a plan.
    ///
    /// # Errors
    ///
    /// [`FleetSubmitError::UnknownTenant`] for a tenant id outside
    /// `0..tenants` (the session survives and keeps accepting), or
    /// [`FleetSubmitError::Other`] for a query index outside the pool, a
    /// missing arrival timestamp on an open-loop stream (or a present
    /// one on a closed-loop stream), and arrival timestamps that
    /// decrease.
    pub fn submit(
        &mut self,
        tenant: u64,
        request: StreamRequest,
    ) -> Result<Ticket, FleetSubmitError> {
        let tenants = self.host.engines().len();
        let Some(tenant) = usize::try_from(tenant).ok().filter(|t| *t < tenants) else {
            return Err(FleetSubmitError::UnknownTenant { tenant, tenants });
        };
        let pool = self.host.engines()[tenant].workload.queries.len();
        if request.query_index >= pool {
            return Err(FleetSubmitError::Other(format!(
                "request query index {} out of range (0..{pool})",
                request.query_index
            )));
        }
        match (self.open_loop, request.arrival_s) {
            (true, None) => {
                return Err(FleetSubmitError::Other(format!(
                    "open-loop stream ({}) requires an arrival timestamp per request",
                    self.meta.arrivals.label()
                )));
            }
            (false, Some(_)) => {
                return Err(FleetSubmitError::Other(
                    "closed-loop (back-to-back) stream carries no arrival timestamps".to_owned(),
                ));
            }
            (true, Some(t)) => {
                if t < self.last_arrival {
                    return Err(FleetSubmitError::Other(format!(
                        "arrival {t}s decreases below {}s; arrivals must be nondecreasing",
                        self.last_arrival
                    )));
                }
                self.last_arrival = t;
            }
            (false, None) => {}
        }

        // Rebalance boundary: drain whatever is pending under the old
        // capacities, then recompute the partition. The boundary is a
        // fixed global submission count, so the capacity history cannot
        // depend on how the front-end chopped its drains.
        let rebalance = self.host.multi_tenant().is_some_and(|fleet| {
            let every = fleet.config.rebalance_every;
            every > 0 && fleet.total_submitted > 0 && fleet.total_submitted % every == 0
        });
        if rebalance {
            let events = self.drain_pending();
            self.stashed_events.extend(events);
            if let Some(fleet) = self.host.multi_tenant() {
                fleet.rebalance();
            }
        }

        self.pending.push(request);
        self.pending_tenants.push(tenant);
        if let Host::Fleet(fleet) = &mut self.host {
            fleet.traffic[tenant] += 1;
            fleet.total_submitted += 1;
        }
        Ok(Ticket(self.submitted() - 1))
    }

    /// Requests submitted so far (drained or not).
    pub fn submitted(&self) -> usize {
        self.records.len() + self.pending.len()
    }

    /// Runs the batch accumulated since the last drain through each
    /// tenant's deterministic stages and offers each request to the
    /// virtual-clock admission queue. Returns the requests whose
    /// disposition resolved — from this batch, earlier ones whose
    /// executor slot came up, or a forced rebalance drain. Queued
    /// requests resolve in a later drain or at
    /// [`FleetSession::finish`].
    pub fn drain(&mut self) -> Vec<RequestEvent> {
        let mut events = std::mem::take(&mut self.stashed_events);
        events.extend(self.drain_pending());
        events
    }

    fn drain_pending(&mut self) -> Vec<RequestEvent> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let batch = std::mem::take(&mut self.pending);
        let tenants = std::mem::take(&mut self.pending_tenants);
        let mut executed = self.execute(&batch, &tenants);

        // ---- Stage 5: sequential virtual-clock admission, one offer
        // per request in global submission order. The owning tenant's
        // governor decides a rung *before* each offer (projecting the
        // request at full fidelity against its budget) and, on an
        // open-loop stream, observes the energy actually admitted
        // *after* it — both keyed only to the
        // virtual arrival clock and the submission order, so any worker
        // count and any batch chopping replays the identical decision
        // sequence.
        let mut events = Vec::new();
        for (request, &tenant) in batch.iter().zip(&tenants) {
            let Executed {
                full,
                degraded,
                eco,
            } = executed[tenant].next().expect("one execution per request");
            let index = self.records.len();
            let arrival_s = request.arrival_s.unwrap_or(0.0);
            let engine = &mut self.host.engines_mut()[tenant];
            let governor = engine.config.governor;
            let variant = match eco {
                Some(eco) => {
                    let before = engine.governor.level();
                    let rung = engine.governor.decide(
                        &governor,
                        &engine.carbon,
                        arrival_s,
                        full.joules,
                        eco.joules,
                    );
                    // Transitions count rung moves of the tenant's state
                    // machine, not per-request served-variant flips.
                    if engine.governor.level() != before {
                        self.tenant_transitions[tenant] += 1;
                    }
                    if rung == ServiceLevel::Economy {
                        eco
                    } else {
                        full
                    }
                }
                None => full,
            };
            // Under the default policy the degrade path is the
            // full-quality outcome itself.
            let floor = degraded.unwrap_or(full);
            let (was_degraded, resolved) = self.sim.offer(
                tenant,
                request.session,
                arrival_s,
                variant.seconds,
                floor.seconds,
            );
            let outcome = if was_degraded { floor } else { variant };
            self.records.push(RequestRecord {
                tenant,
                session: request.session,
                query_index: request.query_index,
                arrival_s,
                outcome,
                disposition: None,
                joules: 0.0,
                grams: 0.0,
            });
            // Feed the estimators what this offer actually admitted: the
            // executed outcome's joules, or nothing for a shed request
            // (which still advances the window's clock). Sustained watts
            // is a rate over arrival time, so a closed-loop stream, which
            // has no arrival clock, feeds neither estimator.
            if self.open_loop {
                let shed_now = resolved.contains(&(index, Disposition::Shed));
                let admitted_joules = if shed_now { 0.0 } else { outcome.joules };
                let engine = &mut self.host.engines_mut()[tenant];
                let watts = engine
                    .governor
                    .observe(&governor, arrival_s, admitted_joules);
                if watts > self.tenant_watts_max[tenant] {
                    self.tenant_watts_max[tenant] = watts;
                }
                if let Some(fleet) = self.host.multi_tenant() {
                    let fleet_watts =
                        fleet
                            .estimator
                            .observe(&self.base_governor, arrival_s, admitted_joules);
                    if fleet_watts > self.fleet_watts_max {
                        self.fleet_watts_max = fleet_watts;
                    }
                }
            }
            for (idx, disposition) in resolved {
                events.push(self.resolve(idx, disposition));
            }
        }
        events
    }

    /// Stages 1–4 for one batch: each tenant's requests go through its
    /// engine in submission order. Returns, per tenant, its requests'
    /// executions in that order.
    fn execute(
        &mut self,
        batch: &[StreamRequest],
        tenants: &[usize],
    ) -> Vec<std::vec::IntoIter<Executed>> {
        let (workers, degraded, eco) = (self.workers, self.needs_degraded, self.needs_eco);
        self.host
            .engines_mut()
            .iter_mut()
            .enumerate()
            .map(|(tenant, engine)| {
                let slice: Vec<StreamRequest> = batch
                    .iter()
                    .zip(tenants)
                    .filter(|(_, t)| **t == tenant)
                    .map(|(request, _)| *request)
                    .collect();
                if slice.is_empty() {
                    Vec::new()
                } else {
                    engine.drain_batch(&slice, workers, degraded, eco)
                }
                .into_iter()
            })
            .collect()
    }

    /// Settles request `index`'s record once its disposition resolves —
    /// final energy (execution at the served fidelity plus queue-wait
    /// idle draw) and carbon grams at the arrival-time grid intensity of
    /// the owning tenant's carbon trace — and builds its event.
    fn resolve(&mut self, index: usize, disposition: Disposition) -> RequestEvent {
        let record = &mut self.records[index];
        record.disposition = Some(disposition);
        let wait_s = disposition.wait_s();
        if let Some(wait_s) = wait_s {
            record.joules = record.outcome.joules + wait_s * self.idle_power_w;
            let carbon = &self.host.engines()[record.tenant].carbon;
            record.grams = record.joules * carbon.grams_per_joule_at(record.arrival_s);
        }
        RequestEvent {
            ticket: Ticket(index),
            disposition,
            service_s: wait_s.map(|_| record.outcome.seconds),
        }
    }

    /// Registers a tool on `tenant`'s live catalog mid-stream. The
    /// pending batch is drained first — a mutation applies at a drain
    /// boundary, never inside one, so every request submitted before
    /// the call is served against the old catalog and every request
    /// after against the new one, for any worker count. Returns the new
    /// tool's catalog index plus the [`RequestEvent`]s the forced drain
    /// resolved.
    ///
    /// # Errors
    ///
    /// Unknown tenant or the per-engine rejection (see
    /// [`ServeEngine::register_tool`]); the stream is unaffected on
    /// error (the forced drain still happened).
    pub fn register_tool(
        &mut self,
        tenant: u64,
        doc: &ToolDoc,
    ) -> Result<(usize, Vec<RequestEvent>), String> {
        let events = self.drain();
        let index = tenant_engine(self.host.engines_mut(), tenant)?.register_tool(doc)?;
        Ok((index, events))
    }

    /// Retires a tool from `tenant`'s live catalog mid-stream, draining
    /// the pending batch first (see [`FleetSession::register_tool`] for
    /// the boundary semantics). Returns the resolved events.
    ///
    /// # Errors
    ///
    /// Unknown tenant or the per-engine rejection (see
    /// [`ServeEngine::retire_tool`]); the stream is unaffected on error
    /// (the forced drain still happened).
    pub fn retire_tool(&mut self, tenant: u64, index: usize) -> Result<Vec<RequestEvent>, String> {
        let events = self.drain();
        tenant_engine(self.host.engines_mut(), tenant)?.retire_tool(index)?;
        Ok(events)
    }

    /// One tenant's current catalog epoch — what a wire front-end stamps
    /// into the `catalog` acknowledgement frame after a mutation.
    ///
    /// # Errors
    ///
    /// Unknown tenant.
    pub fn epoch(&self, tenant: u64) -> Result<u64, String> {
        let tenants = self.host.engines().len();
        usize::try_from(tenant)
            .ok()
            .and_then(|t| self.host.engines().get(t))
            .map(ServeEngine::epoch)
            .ok_or_else(|| format!("unknown tenant {tenant} (fleet serves 0..{tenants})"))
    }

    /// Submits a whole trace in canonical (session-major) order. Churn
    /// events apply at their recorded global request position through
    /// the drain-boundary mutation API, so a mutation always lands on a
    /// batch boundary — identical for every worker count.
    ///
    /// # Errors
    ///
    /// Rejects traces for a different benchmark, out-of-pool query
    /// indices, incoherent arrival/churn/tenant metadata, and traces
    /// naming more tenants than the stream serves.
    pub(crate) fn replay(&mut self, trace: &SessionTrace) -> Result<(), String> {
        let engines = self.host.engines();
        let workload = &engines[0].workload;
        if trace.benchmark != workload.name {
            return Err(format!(
                "trace was generated for {:?} but the engine serves {:?}",
                trace.benchmark, workload.name
            ));
        }
        let pool = workload.queries.len();
        if let Some(bad) = trace
            .sessions
            .iter()
            .flat_map(|s| s.query_indices.iter())
            .find(|q| **q >= pool)
        {
            return Err(format!("trace query index {bad} out of range (0..{pool})"));
        }
        trace.validate_arrivals()?;
        trace.validate_churn()?;
        trace.validate_tenants()?;
        if trace.tenants > engines.len() {
            return Err(format!(
                "trace names {} tenants but the engine serves {}",
                trace.tenants,
                engines.len()
            ));
        }

        let arrivals = trace.arrival_seconds();
        let mut churn = trace.churn.iter().peekable();
        let mut next = 0usize;
        for session in &trace.sessions {
            for &query_index in &session.query_indices {
                while let Some(event) = churn.next_if(|e| e.after_requests <= next) {
                    self.apply_churn(event)?;
                }
                let request = StreamRequest {
                    session: session.id,
                    query_index,
                    arrival_s: arrivals.as_ref().map(|a| a[next]),
                };
                self.submit(session.tenant, request)
                    .map_err(|e| e.to_string())?;
                next += 1;
            }
        }
        for event in churn {
            self.apply_churn(event)?;
        }
        Ok(())
    }

    /// Applies one trace churn event, discarding the drained events (a
    /// trace replay reports them through the final report, not per
    /// event).
    fn apply_churn(&mut self, event: &ChurnEvent) -> Result<(), String> {
        match &event.op {
            ChurnOp::Register(doc) => self.register_tool(event.tenant, doc).map(|_| ()),
            ChurnOp::Retire(id) => self.retire_tool(event.tenant, *id).map(|_| ()),
        }
    }

    /// Drains the pending batch, works the admission queue dry and
    /// aggregates the fleet report — exactly what
    /// [`FleetEngine::process_trace`] returns for the same stream.
    pub fn finish(self) -> FleetReport {
        self.finish_with_events().0
    }

    /// [`FleetSession::finish`], also returning the tail events resolved
    /// by the final queue drain (a wire front-end still owes its client
    /// those dispositions). A standalone engine's stream reports no
    /// per-tenant breakdown.
    pub fn finish_with_events(mut self) -> (FleetReport, Vec<RequestEvent>) {
        let mut events = self.drain();
        for (index, disposition) in self.sim.drain() {
            events.push(self.resolve(index, disposition));
        }
        let wall_seconds = self.started.elapsed().as_secs_f64();
        let engines = self.host.engines();
        let tenants = engines.len();
        let embed_delta = |t: usize| engines[t].embed_cache.stats().since(&self.embed_before[t]);
        let memo_delta = |t: usize| engines[t].memo.stats().since(&self.memo_before[t]);
        let fast_delta = |t: usize| engines[t].session_fast_hits - self.session_fast_before[t];

        // Stream-wide aggregate: identity fields from tenant 0's engine
        // (all tenants share the base config), cache/session deltas and
        // catalog counters summed across tenants. The transition count
        // is the sum over per-tenant governors. Sustained watts came from
        // the fleet-wide estimator as the stream ran — or, with one
        // tenant, from its governor, which windowed the very same
        // samples.
        let overall = engines[0].compose_report(
            ReportScope {
                meta: self.meta,
                workers: self.workers,
                governor: self.base_governor,
                transitions: self.tenant_transitions.iter().sum(),
                sustained_watts_max: if tenants == 1 {
                    self.tenant_watts_max[0]
                } else {
                    self.fleet_watts_max
                },
                max_queue_depth: self.sim.max_queue_depth(),
                embed_cache: (0..tenants)
                    .fold(CacheStats::default(), |acc, t| acc.plus(&embed_delta(t))),
                selection_memo: (0..tenants)
                    .fold(CacheStats::default(), |acc, t| acc.plus(&memo_delta(t))),
                session_fast_hits: (0..tenants).map(fast_delta).sum(),
                boot: engines[0].boot.clone(),
                catalog: (0..tenants).fold(CatalogReport::unchanged(), |acc, t| {
                    sum_catalog(&acc, &engines[t].catalog_report())
                }),
                wall_seconds,
            },
            self.records.iter(),
        );

        // Per-tenant breakdowns through the identical fold over the
        // tenant's own records, with its own counters and cache deltas.
        let Host::Fleet(fleet) = &self.host else {
            let report = FleetReport {
                overall,
                tenants: Vec::new(),
            };
            return (report, events);
        };
        let embed_floor = fleet.config.effective_embed_floor();
        let memo_floor = fleet.config.effective_memo_floor();
        let tenant_reports = (0..tenants)
            .map(|t| {
                let engine = &engines[t];
                let report = engine.compose_report(
                    ReportScope {
                        meta: StreamMeta {
                            sessions: None,
                            ..self.meta
                        },
                        workers: self.workers,
                        governor: engine.config.governor,
                        transitions: self.tenant_transitions[t],
                        sustained_watts_max: self.tenant_watts_max[t],
                        max_queue_depth: self.sim.tenant_max_queue_depth(t),
                        embed_cache: embed_delta(t),
                        selection_memo: memo_delta(t),
                        session_fast_hits: fast_delta(t),
                        boot: engine.boot.clone(),
                        catalog: engine.catalog_report(),
                        wall_seconds,
                    },
                    self.records.iter().filter(move |r| r.tenant == t),
                );
                TenantReport {
                    tenant: t as u64,
                    report,
                    embed_capacity: engine.config.embed_cache_capacity,
                    embed_floor,
                    memo_capacity: engine.config.memo_capacity,
                    memo_floor,
                }
            })
            .collect();
        let report = FleetReport {
            overall,
            tenants: tenant_reports,
        };
        (report, events)
    }
}

/// Adds two catalog reports field-by-field — the fleet-wide `catalog`
/// section is the sum over tenants (epoch included: the fleet total is
/// total mutations applied anywhere, since each engine's epoch counts
/// its own mutations).
fn sum_catalog(a: &CatalogReport, b: &CatalogReport) -> CatalogReport {
    CatalogReport {
        epoch: a.epoch + b.epoch,
        registered: a.registered + b.registered,
        retired: a.retired + b.retired,
        tombstones: a.tombstones + b.tombstones,
        compactions: a.compactions + b.compactions,
        cluster_refreshes: a.cluster_refreshes + b.cluster_refreshes,
        memo_invalidations: a.memo_invalidations + b.memo_invalidations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_grants_floors_and_splits_spare_by_weight() {
        // 100 entries, floor 10, weights 3:1 → floors 10+10, spare 80
        // splits 60:20.
        assert_eq!(partition(100, 10, &[300, 100]), vec![70, 30]);
        // All-zero weights split equally.
        assert_eq!(partition(100, 10, &[0, 0]), vec![50, 50]);
        // Largest-remainder: spare 7 over equal weights → extra entry to
        // the lower ids first.
        assert_eq!(partition(10, 1, &[0, 0, 0]), vec![4, 3, 3]);
        // A dominant tenant can never push another below the floor.
        let slices = partition(64, 8, &[1_000_000, 1]);
        assert_eq!(slices.iter().sum::<usize>(), 64);
        assert!(slices[1] >= 8, "cold tenant pushed below floor: {slices:?}");
        // Floor too large for the budget is clamped to an equal share.
        assert_eq!(partition(6, 100, &[0, 0, 0]), vec![2, 2, 2]);
    }

    #[test]
    fn partition_is_exact_and_deterministic_under_extreme_weights() {
        let weights = [u64::MAX, u64::MAX - 1, 1, 0];
        let slices = partition(1000, 5, &weights);
        assert_eq!(slices.iter().sum::<usize>(), 1000);
        assert!(slices.iter().all(|s| *s >= 5));
        assert_eq!(slices, partition(1000, 5, &weights));
        assert!(slices[0] >= slices[1] && slices[1] > slices[2]);
    }

    #[test]
    fn fleet_config_validates_budgets() {
        let base = ServeConfig::default();
        assert!(FleetConfig::new(4, base).validate().is_ok());
        let mut starved = FleetConfig::new(4, base);
        starved.embed_budget = 3;
        assert!(starved.validate().unwrap_err().contains("embed budget"));
        let mut empty = FleetConfig::new(0, base);
        empty.tenants = 0;
        assert!(empty.validate().is_err());
    }
}
