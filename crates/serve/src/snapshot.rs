//! Checkpointing the engine's warm state into `lim/snapshot-v1` files.
//!
//! A *levels* snapshot (written by `lim snapshot build`) lets a booting
//! engine skip the offline level build; a *checkpoint* (written by
//! [`crate::ServeEngine::checkpoint`]) additionally carries everything
//! the engine warmed up online:
//!
//! * the seeded-LRU query-embedding cache and the tool-selection memo,
//!   with entries serialized in **exact LRU order** (least-recent first)
//!   so the restored caches evict identically;
//! * per-session warm-controller state (the session fast path);
//! * lifetime counters, so cache hit rates keep accumulating across
//!   restarts instead of resetting.
//!
//! Restore-then-replay is bit-identical to never restarting: for any
//! trace split, replaying the suffix on a restored engine produces the
//! same deterministic report as replaying it on the engine that never
//! went down (proptest-verified in `tests`). Writers emit deterministic
//! JSON (sessions sorted by id, caches in recency order), so the same
//! engine state always checkpoints to the same bytes.

use std::collections::HashMap;
use std::sync::Arc;

use lim_core::persist::{SECTION_CLUSTERS, SECTION_LEVELS, SECTION_TOOL_INDEX};
use lim_core::{
    levels_from_snapshot_prefixed, snapshot_levels_prefixed, SearchLevel, Snapshot, SnapshotError,
    SnapshotWriter, ToolSelection,
};
use lim_embed::Embedding;
use lim_json::Value;
use lim_llm::ModelProfile;
use lim_vecstore::floats_to_json;
use lim_workloads::Workload;

use lim_core::ServiceLevel;

use crate::cache::{CacheStats, LruCache};
use crate::catalog::{CatalogOp, CatalogRecord};
use crate::engine::{QueryEmbeddings, SelectionSource, ServeConfig, ServeEngine, SessionState};
use crate::fleet::{FleetConfig, FleetEngine};
use crate::governor::GovernorState;

/// Checkpoint section recording the engine configuration and counters.
pub const SECTION_ENGINE: &str = "engine";
/// Checkpoint section holding the query-embedding cache.
pub const SECTION_EMBED_CACHE: &str = "embed_cache";
/// Checkpoint section holding the tool-selection memo.
pub const SECTION_MEMO: &str = "memo";
/// Checkpoint section holding per-session warm-controller state.
pub const SECTION_SESSIONS: &str = "sessions";
/// Checkpoint section holding the live-catalog mutation log. Written
/// only when the catalog was actually mutated (epoch > 0), so snapshots
/// of never-mutated engines are byte-identical to the pre-catalog
/// format — and older readers, which treat unknown sections as errors,
/// fail safe on churned snapshots instead of silently dropping the log.
pub const SECTION_CATALOG: &str = "catalog_log";
/// Checkpoint section holding the energy governor's live state: the
/// current service rung, the virtual clock, and the resident
/// sliding-window `(arrival, joules)` samples. Always written — the
/// sustained-watts estimator runs on open-loop streams even when no cap
/// is set — so a warm boot converges to the byte with the engine that
/// never restarted. Closed-loop streams leave the window untouched.
pub const SECTION_GOVERNOR: &str = "governor";
/// Fleet-checkpoint section recording the tenancy state: tenant count,
/// cache budgets and floors, the rebalance cadence, and the cumulative
/// per-tenant traffic weights the partition policy derives capacities
/// from. Present only in fleet checkpoints, so a single-engine boot
/// handed a fleet file fails safe with an unknown-section error instead
/// of silently restoring one tenant.
pub const SECTION_FLEET: &str = "fleet";

/// Every section a serving boot understands. A snapshot carrying any
/// other section is rejected (unknown sections are an error).
pub const KNOWN_SECTIONS: &[&str] = &[
    SECTION_LEVELS,
    SECTION_TOOL_INDEX,
    SECTION_CLUSTERS,
    SECTION_ENGINE,
    SECTION_EMBED_CACHE,
    SECTION_MEMO,
    SECTION_SESSIONS,
    SECTION_CATALOG,
    SECTION_GOVERNOR,
];

fn section_err(section: &str, message: impl Into<String>) -> SnapshotError {
    SnapshotError::Section {
        section: section.to_owned(),
        message: message.into(),
    }
}

/// Rejects a snapshot whose recorded workload identity disagrees with
/// the workload the engine is being booted over.
pub(crate) fn validate_workload(
    snapshot: &Snapshot,
    workload: &Workload,
) -> Result<(), SnapshotError> {
    let field = |key: &str| snapshot.header_field(key);
    if let Some(benchmark) = field("benchmark").and_then(Value::as_str) {
        if benchmark != workload.name {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot is for benchmark {benchmark:?} but the engine serves {:?}",
                workload.name
            )));
        }
    } else {
        return Err(SnapshotError::Header("missing benchmark".into()));
    }
    let checks = [
        ("tool_count", workload.registry.len()),
        ("pool_size", workload.queries.len()),
        ("train_size", workload.train_queries.len()),
    ];
    for (key, ours) in checks {
        if let Some(theirs) = field(key).and_then(Value::as_i64) {
            if theirs as usize != ours {
                return Err(SnapshotError::Mismatch(format!(
                    "snapshot records {key} {theirs} but the workload has {ours}"
                )));
            }
        }
    }
    Ok(())
}

/// Rejects a checkpoint written under a different engine configuration:
/// cached values are functions of the model, quant, policy and seed, so
/// restoring them into a differently configured engine would serve
/// answers that engine would never have computed.
pub(crate) fn validate_engine(
    snapshot: &Snapshot,
    model: &ModelProfile,
    config: &ServeConfig,
    prefix: &str,
) -> Result<(), SnapshotError> {
    let section = format!("{prefix}{SECTION_ENGINE}");
    let doc = snapshot.section(&section)?;
    let text = |key: &str| {
        doc.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| section_err(&section, format!("missing {key}")))
    };
    let int = |key: &str| {
        doc.get(key)
            .and_then(Value::as_i64)
            .ok_or_else(|| section_err(&section, format!("missing {key}")))
    };
    let expect = [
        ("model", model.name.to_owned()),
        ("quant", config.quant.label().to_owned()),
        ("policy", config.policy.label()),
        ("device", config.device.label().to_owned()),
    ];
    for (key, ours) in expect {
        let theirs = text(key)?;
        if theirs != ours {
            return Err(SnapshotError::Mismatch(format!(
                "checkpoint was written with {key} {theirs:?} but the engine runs {ours:?}"
            )));
        }
    }
    // Cached values are independent of the governor knobs, but the
    // virtual-clock window the governor section carries is not — compare
    // against the *normalized* knobs, the form every assembled engine
    // (and therefore every checkpoint) carries.
    let governor = config.governor.normalized();
    let numeric = [
        ("seed", config.seed as i64),
        ("carbon_seed", governor.carbon_seed as i64),
        ("embed_cache_capacity", config.embed_cache_capacity as i64),
        ("memo_capacity", config.memo_capacity as i64),
    ];
    for (key, ours) in numeric {
        let theirs = int(key)?;
        if theirs != ours {
            return Err(SnapshotError::Mismatch(format!(
                "checkpoint was written with {key} {theirs} but the engine runs {ours}"
            )));
        }
    }
    let float = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| section_err(&section, format!("missing {key}")))
    };
    let floats = [
        ("power_cap_w", governor.power_cap_w),
        ("governor_window_s", governor.window_s),
        ("carbon_budget_g_per_h", governor.carbon_budget_g_per_h),
    ];
    for (key, ours) in floats {
        let theirs = float(key)?;
        if theirs != ours {
            return Err(SnapshotError::Mismatch(format!(
                "checkpoint was written with {key} {theirs} but the engine runs {ours}"
            )));
        }
    }
    Ok(())
}

/// Encodes the engine's full state as a `kind: "checkpoint"` snapshot.
pub(crate) fn write_checkpoint(engine: &ServeEngine) -> Vec<u8> {
    let mut writer = SnapshotWriter::new("checkpoint");
    checkpoint_header(&mut writer, engine);
    engine_sections(engine, &mut writer, "");
    writer.encode()
}

/// Writes the workload-identity header fields a boot validates against.
fn checkpoint_header(writer: &mut SnapshotWriter, engine: &ServeEngine) {
    writer.header_field("benchmark", Value::from(engine.workload.name));
    // The header records the *base* catalog size — what the workload a
    // booting process constructs from the benchmark generator has. Tools
    // registered live are not in that base; the catalog_log section
    // replays them on top at boot.
    writer.header_field(
        "tool_count",
        Value::from(engine.workload.registry.len() - engine.catalog.registered as usize),
    );
    writer.header_field("pool_size", Value::from(engine.workload.queries.len()));
    writer.header_field(
        "train_size",
        Value::from(engine.workload.train_queries.len()),
    );
    writer.header_field("dim", Value::from(engine.levels.embedder().dim()));
}

/// Writes one engine's full section set under `prefix` — `""` for a
/// standalone checkpoint, `"t{i}."` for tenant `i` of a fleet.
fn engine_sections(engine: &ServeEngine, writer: &mut SnapshotWriter, prefix: &str) {
    snapshot_levels_prefixed(&engine.levels, writer, prefix);
    writer.add_section(
        &format!("{prefix}{SECTION_ENGINE}"),
        &engine_to_json(engine),
    );
    writer.add_section(
        &format!("{prefix}{SECTION_EMBED_CACHE}"),
        &cache_to_json(&engine.embed_cache, embeddings_to_json),
    );
    writer.add_section(
        &format!("{prefix}{SECTION_MEMO}"),
        &cache_to_json(&engine.memo, selection_to_json),
    );
    writer.add_section(
        &format!("{prefix}{SECTION_SESSIONS}"),
        &sessions_to_json(&engine.sessions),
    );
    writer.add_section(
        &format!("{prefix}{SECTION_GOVERNOR}"),
        &governor_to_json(&engine.governor),
    );
    if engine.epoch > 0 {
        writer.add_section(
            &format!("{prefix}{SECTION_CATALOG}"),
            &catalog_to_json(engine),
        );
    }
}

/// Serializes the live-catalog state: epoch, churn bookkeeping, lifetime
/// counters and the full mutation log in order.
fn catalog_to_json(engine: &ServeEngine) -> Value {
    Value::object([
        ("epoch", Value::from(engine.epoch as i64)),
        (
            "churn_since_refresh",
            Value::from(engine.churn_since_refresh as i64),
        ),
        (
            "counters",
            Value::object([
                ("registered", Value::from(engine.catalog.registered as i64)),
                ("retired", Value::from(engine.catalog.retired as i64)),
                (
                    "compactions",
                    Value::from(engine.catalog.compactions as i64),
                ),
                (
                    "cluster_refreshes",
                    Value::from(engine.catalog.cluster_refreshes as i64),
                ),
                (
                    "memo_invalidations",
                    Value::from(engine.catalog.memo_invalidations as i64),
                ),
            ]),
        ),
        (
            "records",
            engine
                .catalog_log
                .iter()
                .map(CatalogRecord::to_json)
                .collect(),
        ),
    ])
}

/// Replays a snapshot's `catalog_log` section into a freshly assembled
/// engine: registers every logged tool into the workload registry (the
/// levels sections already carry the mutated vector state, so nothing is
/// re-embedded), restores the retired set, and adopts the epoch, churn
/// bookkeeping and lifetime counters. A snapshot without the section is
/// a never-mutated catalog — nothing to do.
///
/// Validation is strict and typed: records must be contiguous from
/// `seq` 1 with `epoch_after == seq`, the count must equal the recorded
/// epoch, the counters must agree with the log, registered names must be
/// fresh, and retired ids must be in-range and unrepeated. A corrupt,
/// reordered or truncated log is a [`SnapshotError::Section`], never a
/// silently different catalog.
pub(crate) fn apply_catalog_log(
    snapshot: &Snapshot,
    engine: &mut ServeEngine,
    prefix: &str,
) -> Result<(), SnapshotError> {
    let section = format!("{prefix}{SECTION_CATALOG}");
    if snapshot.section_len(&section).is_none() {
        return Ok(());
    }
    let doc = snapshot.section(&section)?;
    let int = |doc: &Value, key: &str| {
        doc.get(key)
            .and_then(Value::as_i64)
            .filter(|x| *x >= 0)
            .ok_or_else(|| section_err(&section, format!("missing or negative {key}")))
    };
    let epoch = int(doc, "epoch")? as u64;
    let churn_since_refresh = int(doc, "churn_since_refresh")? as u64;
    let counters_doc = doc
        .get("counters")
        .ok_or_else(|| section_err(&section, "missing counters"))?;
    let counters = crate::catalog::CatalogCounters {
        registered: int(counters_doc, "registered")? as u64,
        retired: int(counters_doc, "retired")? as u64,
        compactions: int(counters_doc, "compactions")? as u64,
        cluster_refreshes: int(counters_doc, "cluster_refreshes")? as u64,
        memo_invalidations: int(counters_doc, "memo_invalidations")? as u64,
    };
    let mut records = Vec::new();
    for (i, entry) in doc
        .get("records")
        .and_then(Value::as_array)
        .ok_or_else(|| section_err(&section, "missing records"))?
        .iter()
        .enumerate()
    {
        let record = CatalogRecord::from_json(entry)
            .map_err(|e| section_err(&section, format!("record {i}: {e}")))?;
        let expected = i as u64 + 1;
        if record.seq != expected {
            return Err(section_err(
                SECTION_CATALOG,
                format!(
                    "record {i} has seq {}, expected {expected}; the log must be \
                     contiguous and in order",
                    record.seq
                ),
            ));
        }
        if record.epoch_after != record.seq {
            return Err(section_err(
                SECTION_CATALOG,
                format!(
                    "record {i} claims epoch {} after seq {}; every mutation bumps \
                     the epoch by exactly one",
                    record.epoch_after, record.seq
                ),
            ));
        }
        records.push(record);
    }
    if records.len() as u64 != epoch {
        return Err(section_err(
            SECTION_CATALOG,
            format!(
                "{} records disagree with recorded epoch {epoch}",
                records.len()
            ),
        ));
    }
    let registers = records
        .iter()
        .filter(|r| matches!(r.op, CatalogOp::Register(_)))
        .count() as u64;
    if counters.registered != registers || counters.retired != epoch - registers {
        return Err(section_err(
            SECTION_CATALOG,
            format!(
                "counters record {} registrations and {} retirements but the log \
                 holds {registers} and {}",
                counters.registered,
                counters.retired,
                epoch - registers
            ),
        ));
    }

    // Replay. Registration order fixes each tool's dense index; the
    // levels sections already hold the mutated vectors, so only the
    // registry and the retired set move here.
    let workload = Arc::make_mut(&mut engine.workload);
    let mut retired: Vec<usize> = Vec::new();
    for record in &records {
        match &record.op {
            CatalogOp::Register(tool) => {
                workload
                    .registry
                    .register(tool.to_spec())
                    .map_err(|e| section_err(&section, e.to_string()))?;
            }
            CatalogOp::Retire(id) => {
                // Bounded by the catalog as it stood *at this log
                // position* — the registry grows in replay order, so a
                // log retiring a tool before registering it is corrupt.
                if *id >= workload.registry.len() || retired.contains(id) {
                    return Err(section_err(
                        SECTION_CATALOG,
                        format!("retire record names invalid or repeated tool {id}"),
                    ));
                }
                retired.push(*id);
            }
        }
    }
    if workload.registry.len() != engine.levels.tool_count() {
        return Err(SnapshotError::Mismatch(format!(
            "catalog log replays to {} tools but the levels sections hold {}",
            workload.registry.len(),
            engine.levels.tool_count()
        )));
    }
    Arc::make_mut(&mut engine.levels).restore_retired(retired);
    engine.epoch = epoch;
    engine.catalog = counters;
    engine.catalog_log = records;
    engine.churn_since_refresh = churn_since_refresh;
    Ok(())
}

/// Restores caches, sessions and counters from a checkpoint's warm
/// sections into a freshly assembled engine.
pub(crate) fn restore_warm_state(
    snapshot: &Snapshot,
    engine: &mut ServeEngine,
    prefix: &str,
) -> Result<(), SnapshotError> {
    let engine_section = format!("{prefix}{SECTION_ENGINE}");
    let doc = snapshot.section(&engine_section)?;
    let int = |key: &str| {
        doc.get(key)
            .and_then(Value::as_i64)
            .ok_or_else(|| section_err(&engine_section, format!("missing {key}")))
    };
    engine.requests_served = int("requests_served")? as u64;
    engine.session_fast_hits = int("session_fast_hits")? as u64;
    let embed_section = format!("{prefix}{SECTION_EMBED_CACHE}");
    engine.embed_cache = cache_from_json(
        snapshot.section(&embed_section)?,
        &embed_section,
        engine.config.embed_cache_capacity,
        |v| embeddings_from_json(v).map(Arc::new),
    )?;
    let memo_section = format!("{prefix}{SECTION_MEMO}");
    engine.memo = cache_from_json(
        snapshot.section(&memo_section)?,
        &memo_section,
        engine.config.memo_capacity,
        |v| selection_from_json(v).map(Arc::new),
    )?;
    let sessions_section = format!("{prefix}{SECTION_SESSIONS}");
    engine.sessions = sessions_from_json(snapshot.section(&sessions_section)?, &sessions_section)?;
    let governor_section = format!("{prefix}{SECTION_GOVERNOR}");
    engine.governor = governor_from_json(snapshot.section(&governor_section)?, &governor_section)?;
    Ok(())
}

/// Serializes a governor's live state. The window is stored as parallel
/// `(arrival, joules)` arrays; both round-trip bit-exactly, and the
/// restored window re-sums front-to-back exactly like the one that never
/// checkpointed.
fn governor_to_json(state: &GovernorState) -> Value {
    Value::object([
        ("level", Value::from(state.level().label())),
        ("clock_s", Value::from(state.clock_s())),
        (
            "window_t",
            state
                .window()
                .iter()
                .map(|(t, _)| Value::from(*t))
                .collect(),
        ),
        (
            "window_j",
            state
                .window()
                .iter()
                .map(|(_, j)| Value::from(*j))
                .collect(),
        ),
    ])
}

fn governor_from_json(doc: &Value, section: &str) -> Result<GovernorState, SnapshotError> {
    let level = doc
        .get("level")
        .and_then(Value::as_str)
        .and_then(ServiceLevel::from_label)
        .ok_or_else(|| section_err(section, "missing or unknown level"))?;
    let clock_s = doc
        .get("clock_s")
        .and_then(Value::as_f64)
        .ok_or_else(|| section_err(section, "missing clock_s"))?;
    let series = |key: &str| -> Result<Vec<f64>, SnapshotError> {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| section_err(section, format!("missing {key}")))?
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| section_err(section, format!("{key} must be numbers")))
            })
            .collect()
    };
    let window_t = series("window_t")?;
    let window_j = series("window_j")?;
    if window_t.len() != window_j.len() {
        return Err(section_err(
            section,
            format!(
                "window_t holds {} samples but window_j holds {}",
                window_t.len(),
                window_j.len()
            ),
        ));
    }
    Ok(GovernorState::restore(
        level,
        clock_s,
        window_t.into_iter().zip(window_j).collect(),
    ))
}

/// Encodes a whole fleet — the tenancy state plus every tenant's full
/// section set under a `t{i}.` prefix — as one `kind: "checkpoint"`
/// snapshot. The header carries the *base* workload identity (shared by
/// all tenants) plus a `tenants` count that restore uses to build the
/// set of section names it accepts. Encoding the same fleet twice
/// yields byte-identical output.
pub(crate) fn write_fleet_checkpoint(fleet: &FleetEngine) -> Vec<u8> {
    let mut writer = SnapshotWriter::new("checkpoint");
    checkpoint_header(&mut writer, &fleet.engines[0]);
    writer.header_field("tenants", Value::from(fleet.engines.len()));
    writer.add_section(SECTION_FLEET, &fleet_to_json(fleet));
    for (tenant, engine) in fleet.engines.iter().enumerate() {
        engine_sections(engine, &mut writer, &format!("t{tenant}."));
    }
    writer.encode()
}

/// Serializes the fleet-wide tenancy state: the budget/floor/cadence
/// configuration and the cumulative traffic weights the next rebalance
/// will partition by.
fn fleet_to_json(fleet: &FleetEngine) -> Value {
    let config = fleet.config();
    Value::object([
        ("tenants", Value::from(fleet.engines.len())),
        ("embed_budget", Value::from(config.embed_budget)),
        ("memo_budget", Value::from(config.memo_budget)),
        ("embed_floor", Value::from(config.embed_floor)),
        ("memo_floor", Value::from(config.memo_floor)),
        (
            "rebalance_every",
            Value::from(config.rebalance_every as i64),
        ),
        (
            "traffic",
            fleet
                .traffic
                .iter()
                .map(|t| Value::from(*t as i64))
                .collect(),
        ),
        ("total_submitted", Value::from(fleet.total_submitted as i64)),
        // The passive fleet-wide sustained-watts estimator (per-tenant
        // governors live in each tenant's own governor section). A
        // one-tenant fleet runs no estimator: its window would hold
        // exactly tenant 0's governor samples, so that is what it
        // records.
        (
            "estimator",
            governor_to_json(match fleet.engines.as_slice() {
                [only] => &only.governor,
                _ => &fleet.estimator,
            }),
        ),
    ])
}

/// The per-tenant cache capacities a fleet checkpoint recorded — the
/// partition decision in force when it was written. Restore must adopt
/// these rather than recompute the partition: capacities change only at
/// rebalance boundaries, so the current traffic counts generally
/// post-date the last decision.
fn recorded_capacities(
    snapshot: &Snapshot,
    section: &str,
) -> Result<(usize, usize), SnapshotError> {
    let doc = snapshot.section(section)?;
    let int = |key: &str| {
        doc.get(key)
            .and_then(Value::as_i64)
            .filter(|x| *x > 0)
            .ok_or_else(|| section_err(section, format!("missing or non-positive {key}")))
    };
    Ok((
        int("embed_cache_capacity")? as usize,
        int("memo_capacity")? as usize,
    ))
}

/// Restores a whole fleet from a checkpoint written by
/// [`write_fleet_checkpoint`]: validates the tenancy configuration
/// against `config`, then rebuilds every tenant's engine from its
/// `t{i}.`-prefixed sections — levels, warm caches at their recorded
/// partition capacities, sessions and catalog log — so a restarted
/// fleet boots with zero cold-cache misses.
///
/// Every rejection is a typed [`SnapshotError`] naming the offending
/// section: a missing or non-integer `tenants` header is
/// [`SnapshotError::Header`]; a section for a tenant outside
/// `0..tenants` (e.g. `t9.engine` in a 3-tenant file) is
/// [`SnapshotError::UnknownSection`]; duplicated sections are rejected
/// by the container parser before this function runs; capacities that
/// do not sum to the configured budgets are
/// [`SnapshotError::Mismatch`].
pub(crate) fn restore_fleet(
    snapshot: &Snapshot,
    workload: Workload,
    model: ModelProfile,
    config: FleetConfig,
) -> Result<FleetEngine, SnapshotError> {
    if snapshot.kind() != "checkpoint" {
        return Err(SnapshotError::Mismatch(format!(
            "kind {:?} carries no warm state; a fleet boots only from checkpoints",
            snapshot.kind()
        )));
    }
    config.validate().map_err(SnapshotError::Mismatch)?;
    let tenants = snapshot
        .header_field("tenants")
        .ok_or_else(|| SnapshotError::Header("missing tenants (not a fleet checkpoint)".into()))?
        .as_i64()
        .filter(|t| *t >= 1)
        .ok_or_else(|| SnapshotError::Header("tenants must be a positive integer".into()))?
        as usize;
    if tenants != config.tenants {
        return Err(SnapshotError::Mismatch(format!(
            "checkpoint holds {tenants} tenants but the fleet is configured for {}",
            config.tenants
        )));
    }

    // The accepted section set is a function of the tenant count: every
    // per-engine section name under each `t{i}.` prefix, plus the fleet
    // section itself. A section for a tenant the header does not declare
    // is a stranger — out-of-range tenant data must never restore.
    let mut known: Vec<String> = vec![SECTION_FLEET.to_owned()];
    for tenant in 0..tenants {
        for name in KNOWN_SECTIONS {
            known.push(format!("t{tenant}.{name}"));
        }
    }
    let known_refs: Vec<&str> = known.iter().map(String::as_str).collect();
    snapshot.ensure_known(&known_refs)?;
    validate_workload(snapshot, &workload)?;

    let doc = snapshot.section(SECTION_FLEET)?;
    let int = |key: &str| {
        doc.get(key)
            .and_then(Value::as_i64)
            .filter(|x| *x >= 0)
            .ok_or_else(|| section_err(SECTION_FLEET, format!("missing or negative {key}")))
    };
    if int("tenants")? as usize != tenants {
        return Err(section_err(
            SECTION_FLEET,
            "tenant count disagrees with the header",
        ));
    }
    let recorded = [
        ("embed_budget", config.embed_budget as i64),
        ("memo_budget", config.memo_budget as i64),
        ("embed_floor", config.embed_floor as i64),
        ("memo_floor", config.memo_floor as i64),
        ("rebalance_every", config.rebalance_every as i64),
    ];
    for (key, ours) in recorded {
        let theirs = int(key)?;
        if theirs != ours {
            return Err(SnapshotError::Mismatch(format!(
                "checkpoint was written with {key} {theirs} but the fleet runs {ours}"
            )));
        }
    }
    let traffic: Vec<u64> = doc
        .get("traffic")
        .and_then(Value::as_array)
        .ok_or_else(|| section_err(SECTION_FLEET, "missing traffic"))?
        .iter()
        .map(|t| t.as_i64().filter(|x| *x >= 0).map(|x| x as u64))
        .collect::<Option<Vec<u64>>>()
        .ok_or_else(|| section_err(SECTION_FLEET, "traffic must be nonnegative integers"))?;
    if traffic.len() != tenants {
        return Err(section_err(
            SECTION_FLEET,
            format!(
                "traffic records {} tenants, expected {tenants}",
                traffic.len()
            ),
        ));
    }
    let total_submitted = int("total_submitted")? as u64;
    if traffic.iter().sum::<u64>() != total_submitted {
        return Err(section_err(
            SECTION_FLEET,
            format!(
                "per-tenant traffic sums to {} but total_submitted records {total_submitted}",
                traffic.iter().sum::<u64>()
            ),
        ));
    }

    let estimator = governor_from_json(
        doc.get("estimator")
            .ok_or_else(|| section_err(SECTION_FLEET, "missing estimator"))?,
        SECTION_FLEET,
    )?;

    let workload = Arc::new(workload);
    let mut engines = Vec::with_capacity(tenants);
    for tenant in 0..tenants {
        let prefix = format!("t{tenant}.");
        let engine_section = format!("{prefix}{SECTION_ENGINE}");
        let (embed_capacity, memo_capacity) = recorded_capacities(snapshot, &engine_section)?;
        let mut tenant_config = config.base;
        tenant_config.embed_cache_capacity = embed_capacity;
        tenant_config.memo_capacity = memo_capacity;
        // Like the cache capacities, the governor budget slices are the
        // apportionment decision in force when the checkpoint was
        // written — adopt the recorded values rather than recompute the
        // partition over post-decision traffic.
        let recorded_doc = snapshot.section(&engine_section)?;
        let recorded_float = |key: &str| {
            recorded_doc
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| section_err(&engine_section, format!("missing {key}")))
        };
        tenant_config.governor.power_cap_w = recorded_float("power_cap_w")?;
        tenant_config.governor.carbon_budget_g_per_h = recorded_float("carbon_budget_g_per_h")?;
        validate_engine(snapshot, &model, &tenant_config, &prefix)?;
        let levels = levels_from_snapshot_prefixed(snapshot, &prefix)?;
        let mut engine = ServeEngine::assemble_shared(
            Arc::clone(&workload),
            Arc::new(levels),
            model.clone(),
            tenant_config,
            tenant as u64,
        );
        restore_warm_state(snapshot, &mut engine, &prefix)?;
        apply_catalog_log(snapshot, &mut engine, &prefix)?;
        // Bill each tenant the decode of its own sections only.
        let tenant_bytes: usize = KNOWN_SECTIONS
            .iter()
            .filter_map(|name| snapshot.section_len(&format!("{prefix}{name}")))
            .sum();
        engine.boot = engine.describe_boot("checkpoint", true, true, tenant_bytes);
        engines.push(engine);
    }
    let embed_granted: usize = engines.iter().map(|e| e.config.embed_cache_capacity).sum();
    let memo_granted: usize = engines.iter().map(|e| e.config.memo_capacity).sum();
    let check = [
        ("embed", config.embed_budget, embed_granted),
        ("memo", config.memo_budget, memo_granted),
    ];
    for (label, budget, granted) in check {
        if granted != budget {
            return Err(SnapshotError::Mismatch(format!(
                "per-tenant {label} capacities sum to {granted}, not the configured budget \
                 {budget}"
            )));
        }
    }
    Ok(FleetEngine {
        engines,
        config,
        traffic,
        total_submitted,
        estimator,
    })
}

fn engine_to_json(engine: &ServeEngine) -> Value {
    // `engine.config.governor` is normalized at assembly, so the floats
    // here are always finite and round-trip bit-exactly through
    // `lim_json`.
    Value::object([
        ("model", Value::from(engine.model.name)),
        ("quant", Value::from(engine.config.quant.label())),
        ("policy", Value::from(engine.config.policy.label())),
        ("seed", Value::from(engine.config.seed as i64)),
        ("device", Value::from(engine.config.device.label())),
        (
            "power_cap_w",
            Value::from(engine.config.governor.power_cap_w),
        ),
        (
            "governor_window_s",
            Value::from(engine.config.governor.window_s),
        ),
        (
            "carbon_seed",
            Value::from(engine.config.governor.carbon_seed as i64),
        ),
        (
            "carbon_budget_g_per_h",
            Value::from(engine.config.governor.carbon_budget_g_per_h),
        ),
        (
            "embed_cache_capacity",
            Value::from(engine.config.embed_cache_capacity),
        ),
        ("memo_capacity", Value::from(engine.config.memo_capacity)),
        (
            "requests_served",
            Value::from(engine.requests_served as i64),
        ),
        (
            "session_fast_hits",
            Value::from(engine.session_fast_hits as i64),
        ),
    ])
}

fn stats_to_json(stats: CacheStats) -> Value {
    Value::object([
        ("hits", Value::from(stats.hits as i64)),
        ("misses", Value::from(stats.misses as i64)),
        ("insertions", Value::from(stats.insertions as i64)),
        ("evictions", Value::from(stats.evictions as i64)),
    ])
}

fn stats_from_json(doc: &Value, section: &str) -> Result<CacheStats, SnapshotError> {
    let int = |key: &str| {
        doc.get(key)
            .and_then(Value::as_i64)
            .ok_or_else(|| section_err(section, format!("stats missing {key}")))
    };
    Ok(CacheStats {
        hits: int("hits")? as u64,
        misses: int("misses")? as u64,
        insertions: int("insertions")? as u64,
        evictions: int("evictions")? as u64,
    })
}

/// Serializes a cache: lifetime counters plus entries in LRU order
/// (least-recent first), reserved slots as `null` values.
fn cache_to_json<V>(cache: &LruCache<Arc<V>>, value_to_json: impl Fn(&V) -> Value) -> Value {
    Value::object([
        ("stats", stats_to_json(cache.stats())),
        (
            "entries",
            cache
                .entries_lru()
                .into_iter()
                .map(|(key, value)| {
                    Value::object([
                        ("key", Value::from(key)),
                        ("value", value.map_or(Value::Null, |v| value_to_json(v))),
                    ])
                })
                .collect(),
        ),
    ])
}

fn cache_from_json<V: Clone>(
    doc: &Value,
    section: &str,
    capacity: usize,
    value_from_json: impl Fn(&Value) -> Result<V, String>,
) -> Result<LruCache<V>, SnapshotError> {
    let stats = stats_from_json(
        doc.get("stats")
            .ok_or_else(|| section_err(section, "missing stats"))?,
        section,
    )?;
    let entry_docs = doc
        .get("entries")
        .and_then(Value::as_array)
        .ok_or_else(|| section_err(section, "missing entries"))?;
    if entry_docs.len() > capacity {
        return Err(SnapshotError::Mismatch(format!(
            "checkpoint section {section:?} holds {} entries but the engine caps at {capacity}",
            entry_docs.len()
        )));
    }
    let mut entries = Vec::with_capacity(entry_docs.len());
    let mut seen = std::collections::HashSet::new();
    for entry in entry_docs {
        let key = entry
            .get("key")
            .and_then(Value::as_str)
            .ok_or_else(|| section_err(section, "entry missing key"))?
            .to_owned();
        // A key appearing twice would leave the restored recency list
        // and key index disagreeing — corrupted input must fail typed,
        // never restore into a structurally broken cache.
        if !seen.insert(key.clone()) {
            return Err(section_err(section, format!("duplicate cache key {key:?}")));
        }
        let value = match entry.get("value") {
            None | Some(Value::Null) => None,
            Some(doc) => Some(value_from_json(doc).map_err(|m| section_err(section, m))?),
        };
        entries.push((key, value));
    }
    Ok(LruCache::restore(capacity, entries, stats))
}

// The f32 <-> JSON encoding rule lives in lim_vecstore::serial so the
// bit-exactness contract has one implementation; only the error type is
// adapted here.
fn floats_from_json(doc: &Value, what: &str) -> Result<Vec<f32>, String> {
    lim_vecstore::floats_from_json(doc, what).map_err(|e| e.message)
}

fn embeddings_to_json(e: &QueryEmbeddings) -> Value {
    Value::object([
        ("query", floats_to_json(e.query.as_slice())),
        (
            "recommendations",
            e.recommendations
                .iter()
                .map(|r| Value::from(r.as_str()))
                .collect(),
        ),
        (
            "contexts",
            e.contexts
                .iter()
                .map(|c| floats_to_json(c.as_slice()))
                .collect(),
        ),
    ])
}

fn embeddings_from_json(doc: &Value) -> Result<QueryEmbeddings, String> {
    // Checkpointed embeddings are already unit-norm; `Embedding::new`
    // would re-normalise and drift each component by an ulp, breaking
    // the byte-exact restore contract.
    let query = Embedding::from_normalized(floats_from_json(
        doc.get("query").ok_or("embeddings missing query")?,
        "query",
    )?);
    let recommendations = doc
        .get("recommendations")
        .and_then(Value::as_array)
        .ok_or("embeddings missing recommendations")?
        .iter()
        .map(|r| r.as_str().map(str::to_owned))
        .collect::<Option<Vec<String>>>()
        .ok_or("recommendations must be strings")?;
    let contexts = doc
        .get("contexts")
        .and_then(Value::as_array)
        .ok_or("embeddings missing contexts")?
        .iter()
        .map(|c| floats_from_json(c, "context").map(Embedding::from_normalized))
        .collect::<Result<Vec<Embedding>, String>>()?;
    Ok(QueryEmbeddings {
        query,
        recommendations,
        contexts,
    })
}

fn level_label(level: SearchLevel) -> &'static str {
    match level {
        SearchLevel::Individual => "individual",
        SearchLevel::Cluster => "cluster",
        SearchLevel::Full => "full",
    }
}

fn level_from_label(label: &str) -> Result<SearchLevel, String> {
    match label {
        "individual" => Ok(SearchLevel::Individual),
        "cluster" => Ok(SearchLevel::Cluster),
        "full" => Ok(SearchLevel::Full),
        other => Err(format!("unknown search level {other:?}")),
    }
}

fn selection_to_json(s: &ToolSelection) -> Value {
    Value::object([
        ("level", Value::from(level_label(s.level))),
        (
            "tools",
            s.tool_indices.iter().map(|t| Value::from(*t)).collect(),
        ),
        ("level1_score", Value::from(f64::from(s.level1_score))),
        ("level2_score", Value::from(f64::from(s.level2_score))),
    ])
}

fn selection_from_json(doc: &Value) -> Result<ToolSelection, String> {
    let level = level_from_label(
        doc.get("level")
            .and_then(Value::as_str)
            .ok_or("selection missing level")?,
    )?;
    let tool_indices = doc
        .get("tools")
        .and_then(Value::as_array)
        .ok_or("selection missing tools")?
        .iter()
        .map(|t| t.as_i64().map(|x| x as usize))
        .collect::<Option<Vec<usize>>>()
        .ok_or("selection tools must be integers")?;
    let score = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .map(|x| x as f32)
            .ok_or_else(|| format!("selection missing {key}"))
    };
    Ok(ToolSelection {
        level,
        tool_indices,
        level1_score: score("level1_score")?,
        level2_score: score("level2_score")?,
    })
}

/// Serializes session warm state, sorted by session id so the same state
/// always encodes identically. Sessions whose last selection is still
/// `Pending` (it indexes a dead job table) are dropped — the engine
/// re-anchors those to `Ready` at the end of every drained batch, so a
/// `Pending` here can only mean the job table it points into is gone.
fn sessions_to_json(sessions: &HashMap<u64, SessionState>) -> Value {
    let mut ids: Vec<u64> = sessions.keys().copied().collect();
    ids.sort_unstable();
    ids.iter()
        .filter_map(|id| {
            let state = &sessions[id];
            let key = state.last_key.as_deref()?;
            let selection = match state.last_selection.as_ref()? {
                SelectionSource::Ready(selection) => selection_to_json(selection),
                SelectionSource::FullCatalog | SelectionSource::Pending(_) => return None,
            };
            Some(Value::object([
                ("id", Value::from(*id as i64)),
                ("key", Value::from(key)),
                ("selection", selection),
            ]))
        })
        .collect()
}

fn sessions_from_json(
    doc: &Value,
    section: &str,
) -> Result<HashMap<u64, SessionState>, SnapshotError> {
    let mut sessions = HashMap::new();
    for entry in doc
        .as_array()
        .ok_or_else(|| section_err(section, "sessions must be an array"))?
    {
        let id = entry
            .get("id")
            .and_then(Value::as_i64)
            .ok_or_else(|| section_err(section, "session missing id"))? as u64;
        let key = entry
            .get("key")
            .and_then(Value::as_str)
            .ok_or_else(|| section_err(section, "session missing key"))?
            .to_owned();
        let selection = selection_from_json(
            entry
                .get("selection")
                .ok_or_else(|| section_err(section, "session missing selection"))?,
        )
        .map_err(|m| section_err(section, m))?;
        let state = SessionState {
            last_key: Some(key),
            last_selection: Some(SelectionSource::Ready(Arc::new(selection))),
        };
        if sessions.insert(id, state).is_some() {
            return Err(section_err(section, format!("duplicate session id {id}")));
        }
    }
    Ok(sessions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_cache_keys_and_session_ids_are_rejected() {
        let doc = lim_json::parse(
            r#"{"stats":{"hits":0,"misses":0,"insertions":2,"evictions":0},
                "entries":[{"key":"a","value":{"level":"full","tools":[],
                            "level1_score":0,"level2_score":0}},
                           {"key":"a","value":null}]}"#,
        )
        .unwrap();
        let err = cache_from_json(&doc, SECTION_MEMO, 8, |v| {
            selection_from_json(v).map(Arc::new)
        })
        .unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Section { section, message }
                if section == SECTION_MEMO && message.contains("duplicate")),
            "{err}"
        );

        let doc = lim_json::parse(
            r#"[{"id":3,"key":"k","selection":{"level":"full","tools":[],
                 "level1_score":0,"level2_score":0}},
                {"id":3,"key":"k","selection":{"level":"full","tools":[],
                 "level1_score":0,"level2_score":0}}]"#,
        )
        .unwrap();
        let err = sessions_from_json(&doc, SECTION_SESSIONS).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Section { message, .. }
                if message.contains("duplicate session id 3")),
            "{err}"
        );
    }
}
