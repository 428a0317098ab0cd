//! Less-is-More: dynamic tool selection for hardware-efficient LLM
//! function calling on edge devices.
//!
//! This crate implements the paper's contribution end to end:
//!
//! * [`SearchLevels`] — the offline stage (§III-A): Level 1 embeds every
//!   tool description into a 768-d latent space `T̃`; Level 2 augments
//!   benchmark queries (GPT-4-substitute), embeds them into `Ã`, runs
//!   agglomerative clustering and derives *tool clusters* that capture
//!   co-usage; Level 3 is the plain full catalog.
//! * [`ToolController`] — the online stage (§III-C): k-NN search of the
//!   recommender's "ideal tool" embeddings against Levels 1 and 2, level
//!   arbitration by mean top-k similarity, and the two fallbacks to
//!   Level 3 (low confidence, runtime error).
//! * [`Pipeline`] — per-query execution under a [`Policy`]
//!   (Default / Gorilla / Less-is-More / ToolLLM-DFSDT), accounting
//!   success, tool accuracy, latency and energy on a
//!   [`lim_device::DeviceProfile`].
//! * [`evaluate`] / [`BatchMetrics`] — the paper's four metrics over query
//!   batches, plus normalization against the default policy.
//! * [`evaluate_parallel`] / [`Pipeline::run_all_parallel`] — the same
//!   evaluation sharded across worker threads, bit-identical to the
//!   sequential run (see the [`parallel`](crate::sharded_map) executor).
//!
//! # Examples
//!
//! ```
//! use lim_core::{Pipeline, Policy, SearchLevels};
//! use lim_llm::{ModelProfile, Quant};
//!
//! let workload = lim_workloads::bfcl(42, 20);
//! let levels = SearchLevels::build(&workload);
//! let model = ModelProfile::by_name("llama3.1-8b").expect("model exists");
//! let pipeline = Pipeline::new(&workload, &levels, &model, Quant::Q4KM);
//! let result = pipeline.run_query(&workload.queries[0], Policy::less_is_more(3));
//! assert!(result.cost.seconds > 0.0);
//! ```

mod controller;
mod levels;
mod metrics;
mod parallel;
pub mod persist;
mod pipeline;
mod service;
mod toolllm;

pub use controller::{ControllerConfig, SearchLevel, ToolController, ToolSelection};
pub use levels::{chain_coverage, IndexSpec, LevelsConfig, SearchLevels, ToolCluster, ToolIndex};
pub use metrics::{
    evaluate, evaluate_repeated, normalize_against, BatchMetrics, MeanCi, RepeatedMetrics,
};
pub use parallel::{evaluate_parallel, resolve_threads, sharded_map};
pub use persist::{
    levels_from_snapshot, levels_from_snapshot_prefixed, snapshot_levels, snapshot_levels_prefixed,
    write_levels_snapshot, LoadLevelsError, Snapshot, SnapshotError, SnapshotWriter,
    SECTION_TOOL_INDEX, SNAPSHOT_FORMAT,
};
pub use pipeline::{
    Pipeline, Policy, QueryResult, QueryTrace, StepTrace, DEFAULT_CONTEXT, REDUCED_CONTEXT,
};
pub use service::{ServiceLevel, ServicePolicy};
pub use toolllm::{plan_dfsdt, DfsdtConfig, DfsdtPlan};

#[cfg(test)]
mod tests;
