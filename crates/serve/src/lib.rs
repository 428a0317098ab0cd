//! `lim-serve` — a long-lived, cache-accelerated serving engine over the
//! Less-is-More pipeline.
//!
//! Batch evaluation (`lim bench`) re-embeds and re-selects from scratch
//! for every query of a cold batch. A deployed edge assistant faces the
//! opposite regime: a persistent process serving a stream of sessions
//! whose query popularity is heavily skewed. This crate exploits that
//! repetition:
//!
//! * [`ServeEngine`] — owns the tool catalog, the embedder and the
//!   Arc-shared read-only search-level indexes, and keeps per-session
//!   controller state warm across chain steps and traces;
//! * [`FleetSession`] — the incremental ingestion API, and the one
//!   stream implementation: requests are submitted one at a time or in
//!   batches as they arrive, each drain advances the deterministic
//!   stages plus the virtual-clock admission queue, and the finished
//!   report is bit-identical to replaying the same stream through
//!   `process_trace` — which is itself a thin wrapper over a session. A
//!   [`FleetEngine`] serves N tenants through it; a standalone engine's
//!   [`ServeSession`] ([`ServeEngine::begin_stream`]) is its one-tenant
//!   view, which skips every fleet-only mechanism (budget rebalancing,
//!   governor apportioning, the fleet-wide watts estimator);
//! * [`cache::LruCache`] — the seeded-LRU behind both the
//!   query-embedding cache (recommender output + `Ẽ` embeddings) and the
//!   tool-selection memo (keyed by normalized query, policy and level
//!   configuration), with hit/miss/eviction counters;
//! * [`admission`] — backpressure for open-loop traces: bounded
//!   request queues with tenant- then session-round-robin fairness on a
//!   deterministic virtual clock ([`FleetAdmissionSim`], one config
//!   shared by every tenant, holding only the waiting requests),
//!   degrading to Level-3 / selection-free service under pressure and
//!   shedding with a typed outcome once a queue is full;
//! * [`catalog`] — live-catalog mutation on a running engine:
//!   [`ServeEngine::register_tool`] / [`ServeEngine::retire_tool`] (and
//!   their drain-boundary [`ServeSession`] counterparts) grow and shrink
//!   the tool catalog without a restart. Every mutation bumps a
//!   monotonic **catalog epoch** that is threaded through the
//!   embedding-cache and selection-memo keys, so stale entries die by
//!   key mismatch — the caches are never flushed — and is appended to a
//!   replayable [`CatalogRecord`] log that checkpoints carry;
//! * [`governor`] — the energy layer: every request is costed in joules
//!   on the configured [`lim_device::DeviceKind`] (execution at the
//!   served fidelity plus queue-wait idle draw), a sliding-window
//!   sustained-watts estimator runs on the virtual arrival clock, and an
//!   optional power cap / carbon budget actuates a typed
//!   [`lim_core::ServiceLevel`] ladder through the
//!   [`lim_core::ServicePolicy`] API — stepping service down to an
//!   economy quantization when the window would breach the budget, and
//!   back up with hysteresis;
//! * [`ServeReport`] — accuracy, p50/p95/p99 simulated latency, cache
//!   hit rates, queue/shed/degraded counters, boot accounting, the
//!   [`EnergyReport`] joules/watts/carbon section, the
//!   [`CatalogReport`] mutation counters and wall-clock throughput,
//!   serialized as `BENCH_serve_*.json` (`lim-serve/report-v5`);
//! * [`snapshot`] — boot-from-disk: [`ServeEngine::from_snapshot`] skips
//!   the offline level build by decoding a `lim/snapshot-v1` file
//!   (sections load lazily), and [`ServeEngine::checkpoint`] /
//!   [`ServeEngine::from_checkpoint`] round-trip the warm caches and
//!   session state so a restarted server also skips the cold-cache ramp
//!   — restore-then-replay is bit-identical to never restarting. A
//!   checkpoint of a mutated engine carries the catalog log; booting a
//!   *base* snapshot and replaying the same mutations converges to the
//!   same checkpoint bytes.
//!
//! Replays are **bit-identical for every worker count**: the engine
//! plans cache behaviour sequentially in canonical arrival order,
//! parallelizes only pure computation over [`lim_core::sharded_map`],
//! and replays admission control sequentially over the deterministic
//! per-request service times (see [`engine`] for the staged design).
//!
//! # Examples
//!
//! ```
//! use lim_serve::{ServeConfig, ServeEngine};
//! use lim_workloads::trace::{zipf_trace, TraceConfig};
//!
//! let workload = lim_workloads::bfcl(42, 60);
//! let trace = zipf_trace(&workload, &TraceConfig { seed: 1, ..TraceConfig::default() });
//! let model = lim_llm::ModelProfile::by_name("qwen2-7b").expect("model exists");
//! let mut engine = ServeEngine::new(workload, model, ServeConfig::default());
//! let a = engine.process_trace(&trace, 1).expect("valid trace");
//! // The engine is long-lived: a second replay hits the warm caches.
//! let b = engine.process_trace(&trace, 4).expect("valid trace");
//! assert_eq!(a.success_rate, b.success_rate);
//! assert!(b.embed_cache.hit_rate() > a.embed_cache.hit_rate());
//! ```
//!
//! Overload a bounded queue with a Poisson arrival storm and watch the
//! admission layer shed:
//!
//! ```
//! use lim_serve::{AdmissionConfig, ServeConfig, ServeEngine, ShedPolicy};
//! use lim_workloads::trace::{zipf_trace, ArrivalProcess, TraceConfig};
//!
//! let workload = lim_workloads::bfcl(42, 60);
//! let trace = zipf_trace(&workload, &TraceConfig {
//!     seed: 1,
//!     arrivals: ArrivalProcess::Poisson { rate_rps: 50.0 }, // far past capacity
//!     ..TraceConfig::default()
//! });
//! let model = lim_llm::ModelProfile::by_name("qwen2-7b").expect("model exists");
//! let config = ServeConfig::builder()
//!     .admission(AdmissionConfig { queue_depth: 8, servers: 1, shed_policy: ShedPolicy::Reject })
//!     .build();
//! let mut engine = ServeEngine::new(workload, model, config);
//! let report = engine.process_trace(&trace, 2).expect("valid trace");
//! assert!(report.admission.shed > 0, "overload must shed");
//! assert_eq!(report.admission.admitted + report.admission.shed, report.requests as u64);
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod catalog;
pub mod engine;
pub mod fleet;
pub mod governor;
pub mod report;
pub mod session;
pub mod snapshot;
pub mod wire;

pub use admission::{AdmissionConfig, Disposition, FleetAdmissionSim, ShedPolicy};
pub use cache::{CacheStats, LruCache};
pub use catalog::{CatalogCounters, CatalogOp, CatalogRecord};
pub use engine::{
    normalize_query, QueryEmbeddings, ServeConfig, ServeConfigBuilder, ServeEngine,
    SNAPSHOT_DECODE_SECONDS_PER_BYTE,
};
pub use fleet::{partition, FleetConfig, FleetEngine, FleetSession, FleetSubmitError};
pub use governor::{ClosedLoopGovernor, GovernorConfig, GovernorState, ASCEND_HEADROOM};
pub use report::{
    AdmissionReport, BootReport, CatalogReport, EnergyReport, FleetReport, LatencyStats,
    ServeReport, TenantReport,
};
pub use session::{RequestEvent, ServeSession, StreamMeta, StreamRequest, Ticket};

#[cfg(test)]
mod tests;
