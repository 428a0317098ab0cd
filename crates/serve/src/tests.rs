//! Engine-level integration and property tests.

use lim_core::{Policy, Snapshot, SnapshotError};
use lim_llm::{ModelProfile, Quant};
use lim_workloads::trace::{zipf_trace, ArrivalProcess, SessionTrace, TraceConfig, TraceSession};
use proptest::prelude::*;

use crate::admission::{AdmissionConfig, ShedPolicy};
use crate::{GovernorConfig, ServeConfig, ServeEngine, ServeReport};

fn model() -> ModelProfile {
    ModelProfile::by_name("llama3.1-8b").expect("model exists")
}

fn bfcl_trace(pool: usize, seed: u64, sessions: usize) -> (lim_workloads::Workload, SessionTrace) {
    let w = lim_workloads::bfcl(seed, pool);
    let trace = zipf_trace(
        &w,
        &TraceConfig {
            seed,
            sessions,
            requests_per_session: 8,
            ..TraceConfig::default()
        },
    );
    (w, trace)
}

fn fresh_replay(workers: usize) -> ServeReport {
    let (w, trace) = bfcl_trace(120, 7, 48);
    let mut engine = ServeEngine::new(w, model(), ServeConfig::default());
    engine.process_trace(&trace, workers).expect("valid trace")
}

/// The acceptance criterion: for worker counts 1, 4 and 8, a fresh
/// engine replaying the same Zipf(1.0) trace produces bit-identical
/// deterministic reports — accuracy, latency percentiles *and* cache
/// counters — and the embedding cache hits on more than half the
/// lookups.
#[test]
fn replay_is_bit_identical_across_worker_counts_with_warm_caches() {
    let baseline = fresh_replay(1);
    for workers in [4, 8] {
        let other = fresh_replay(workers);
        assert_eq!(
            baseline.deterministic_view(),
            other.deterministic_view(),
            "workers={workers}"
        );
    }
    assert!(
        baseline.embed_cache.hit_rate() > 0.5,
        "embedding cache hit rate {:.3} on a Zipf(1.0) trace",
        baseline.embed_cache.hit_rate()
    );
    assert!(baseline.latency.p50_s > 0.0);
    assert!(baseline.latency.p99_s >= baseline.latency.p95_s);
    assert!(baseline.latency.p95_s >= baseline.latency.p50_s);
}

#[test]
fn long_lived_engine_gets_faster_on_repetition() {
    let (w, trace) = bfcl_trace(80, 3, 24);
    let mut engine = ServeEngine::new(w, model(), ServeConfig::default());
    let cold = engine.process_trace(&trace, 2).expect("valid trace");
    let warm = engine.process_trace(&trace, 2).expect("valid trace");
    // Same accuracy — caching must never change outcomes.
    assert_eq!(cold.success_rate, warm.success_rate);
    assert_eq!(cold.tool_accuracy, warm.tool_accuracy);
    assert_eq!(cold.avg_offered_tools, warm.avg_offered_tools);
    // But the warm replay answers every selection from cache…
    assert_eq!(warm.embed_cache.misses, 0, "warm replay should not miss");
    assert_eq!(warm.selection_memo.misses, 0);
    // …and its simulated latency drops accordingly.
    assert!(
        warm.sim_total_seconds < cold.sim_total_seconds,
        "warm {:.1}s vs cold {:.1}s",
        warm.sim_total_seconds,
        cold.sim_total_seconds
    );
    assert_eq!(
        engine.requests_served(),
        (cold.requests + warm.requests) as u64
    );
}

#[test]
fn caching_never_changes_outcomes_vs_uncached_engine() {
    // An engine with 1-entry caches (permanent thrash) must agree with a
    // generously cached engine on every accuracy metric.
    let (w, trace) = bfcl_trace(60, 9, 20);
    let tiny = ServeConfig::builder().caches(1, 1).prewarm(false).build();
    let mut thrashing = ServeEngine::new(w.clone(), model(), tiny);
    let mut cached = ServeEngine::new(w, model(), ServeConfig::default());
    let a = thrashing.process_trace(&trace, 3).expect("valid trace");
    let b = cached.process_trace(&trace, 3).expect("valid trace");
    assert_eq!(a.success_rate, b.success_rate);
    assert_eq!(a.tool_accuracy, b.tool_accuracy);
    assert_eq!(a.avg_offered_tools, b.avg_offered_tools);
    assert_eq!(a.level1_share, b.level1_share);
    assert_eq!(a.level2_share, b.level2_share);
    assert!(a.embed_cache.evictions > 0, "tiny cache must evict");
}

#[test]
fn session_fast_path_fires_on_repeated_queries() {
    let w = lim_workloads::bfcl(5, 30);
    // Hand-build a trace where one session repeats the same query.
    let trace = SessionTrace {
        benchmark: "bfcl".into(),
        seed: 0,
        zipf_s: 0.0,
        pool_size: 30,
        arrivals: ArrivalProcess::BackToBack,
        tenants: 1,
        sessions: vec![lim_workloads::trace::TraceSession {
            id: 77,
            tenant: 0,
            query_indices: vec![4, 4, 4, 9, 4],
            arrival_us: Vec::new(),
        }],
        churn: Vec::new(),
    };
    let mut engine = ServeEngine::new(w, model(), ServeConfig::default());
    let report = engine.process_trace(&trace, 1).expect("valid trace");
    // Requests 2 and 3 repeat the session's previous key; request 5
    // follows a different query so it goes through the memo again.
    assert_eq!(report.session_fast_hits, 2);
    assert_eq!(report.requests, 5);
}

#[test]
fn gorilla_and_default_policies_are_served() {
    let (w, trace) = bfcl_trace(40, 11, 10);
    for policy in [Policy::Gorilla { k: 3 }, Policy::Default] {
        let config = ServeConfig::builder().policy(policy).build();
        let mut engine = ServeEngine::new(w.clone(), model(), config);
        let report = engine.process_trace(&trace, 2).expect("valid trace");
        assert_eq!(report.requests, trace.requests());
        assert_eq!(report.policy, policy.label());
        match policy {
            Policy::Gorilla { .. } => {
                assert!(report.avg_offered_tools <= 3.0);
                assert!(report.level1_share > 0.99);
            }
            _ => {
                assert!(report.avg_offered_tools > 40.0);
                assert!(report.level3_share > 0.99);
                // Vanilla calling never touches the caches.
                assert_eq!(report.embed_cache.hits + report.embed_cache.misses, 0);
            }
        }
    }
}

#[test]
fn mismatched_traces_are_rejected() {
    let w = lim_workloads::bfcl(1, 20);
    let geo = lim_workloads::geoengine(1, 20);
    let trace = zipf_trace(&geo, &TraceConfig::default());
    let mut engine = ServeEngine::new(w.clone(), model(), ServeConfig::default());
    assert!(engine.process_trace(&trace, 1).is_err());

    let mut out_of_range = zipf_trace(&w, &TraceConfig::default());
    out_of_range.benchmark = "bfcl".into();
    out_of_range.sessions[0].query_indices.push(999);
    assert!(engine.process_trace(&out_of_range, 1).is_err());
}

#[test]
fn report_serializes_to_parseable_json() {
    let report = fresh_replay(2);
    let text = report.to_json().to_pretty_string();
    let doc = lim_json::parse(&text).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(lim_json::Value::as_str),
        Some("lim-serve/report-v5")
    );
    let energy = doc.get("energy").expect("energy section");
    for field in [
        "device",
        "power_cap_w",
        "joules_per_request",
        "sustained_watts_max",
        "gco2_per_1k_requests",
        "governor_transitions",
    ] {
        assert!(energy.get(field).is_some(), "missing energy.{field}");
    }
    let catalog = doc.get("catalog").expect("catalog section");
    for field in [
        "epoch",
        "registered",
        "retired",
        "tombstones",
        "compactions",
        "cluster_refreshes",
        "memo_invalidations",
    ] {
        assert!(
            catalog
                .get(field)
                .and_then(lim_json::Value::as_i64)
                .is_some(),
            "missing catalog.{field}"
        );
    }
    let admission = doc.get("admission").expect("admission section");
    for field in ["admitted", "degraded", "shed", "max_queue_depth"] {
        assert!(
            admission
                .get(field)
                .and_then(lim_json::Value::as_i64)
                .is_some(),
            "missing admission.{field}"
        );
    }
    assert!(admission
        .get("queue_wait")
        .and_then(|q| q.get("p95_s"))
        .and_then(lim_json::Value::as_f64)
        .is_some());
    let boot = doc.get("boot").expect("boot section");
    assert_eq!(
        boot.get("mode").and_then(lim_json::Value::as_str),
        Some("cold")
    );
    assert_eq!(
        boot.get("build_skipped").and_then(lim_json::Value::as_bool),
        Some(false)
    );
    assert!(boot
        .get("sim_boot_seconds")
        .and_then(lim_json::Value::as_f64)
        .is_some_and(|s| s > 0.0));
    let caches = doc.get("caches").expect("caches section");
    let embed = caches.get("embedding").expect("embedding cache");
    assert!(embed
        .get("hit_rate")
        .and_then(lim_json::Value::as_f64)
        .is_some());
    let latency = doc.get("latency").expect("latency section");
    for field in ["p50_s", "p95_s", "p99_s"] {
        assert!(
            latency
                .get(field)
                .and_then(lim_json::Value::as_f64)
                .is_some(),
            "missing {field}"
        );
    }
    assert_eq!(
        doc.get("trace")
            .and_then(|t| t.get("requests"))
            .and_then(lim_json::Value::as_i64),
        Some(report.requests as i64)
    );
}

#[test]
fn serve_matches_geoengine_chains_too() {
    let w = lim_workloads::geoengine(13, 60);
    let trace = zipf_trace(
        &w,
        &TraceConfig {
            seed: 13,
            sessions: 16,
            requests_per_session: 6,
            ..TraceConfig::default()
        },
    );
    let mut engine = ServeEngine::new(w, model(), ServeConfig::default());
    let report = engine.process_trace(&trace, 4).expect("valid trace");
    assert_eq!(report.requests, trace.requests());
    assert!(report.success_rate > 0.0 && report.success_rate <= 1.0);
    // Sequential chains lean on Level 2 clusters.
    assert!(report.level2_share > 0.0);
}

/// Splits a trace's flat request stream at `index`, preserving session
/// structure: the straddling session is cut into two [`TraceSession`]s
/// with the **same id**, so session warm state must survive a
/// checkpoint/restore for the suffix to replay identically.
fn split_trace(trace: &SessionTrace, index: usize) -> (SessionTrace, SessionTrace) {
    let mut prefix = SessionTrace {
        sessions: Vec::new(),
        ..trace.clone()
    };
    let mut suffix = prefix.clone();
    let mut remaining = index;
    for session in &trace.sessions {
        let n = session.query_indices.len();
        let take = remaining.min(n);
        remaining -= take;
        if take > 0 {
            prefix.sessions.push(TraceSession {
                id: session.id,
                tenant: session.tenant,
                query_indices: session.query_indices[..take].to_vec(),
                arrival_us: Vec::new(),
            });
        }
        if take < n {
            suffix.sessions.push(TraceSession {
                id: session.id,
                tenant: session.tenant,
                query_indices: session.query_indices[take..].to_vec(),
                arrival_us: Vec::new(),
            });
        }
    }
    (prefix, suffix)
}

/// The tentpole acceptance property: for any trace split point and any
/// worker count, checkpointing after the prefix and restoring into a
/// fresh process replays the suffix bit-identically to the engine that
/// never went down. (Boot accounting differs by construction and is
/// neutralized by `deterministic_view`.)
fn assert_restore_equals_continuous(
    seed: u64,
    sessions: usize,
    split_index: usize,
    workers: usize,
) {
    let (w, levels) = fixture();
    let trace = zipf_trace(
        w,
        &TraceConfig {
            seed,
            sessions,
            requests_per_session: 5,
            ..TraceConfig::default()
        },
    );
    let split_index = split_index % trace.requests().max(1);
    let (prefix, suffix) = split_trace(&trace, split_index);
    let config = ServeConfig::default();

    let mut continuous = ServeEngine::with_levels(w.clone(), levels.clone(), model(), config);
    let mut interrupted = ServeEngine::with_levels(w.clone(), levels.clone(), model(), config);
    if !prefix.sessions.is_empty() {
        continuous.process_trace(&prefix, workers).expect("prefix");
        interrupted.process_trace(&prefix, workers).expect("prefix");
    }
    let bytes = interrupted.checkpoint();
    // Byte-determinism: the same state checkpoints identically.
    assert_eq!(bytes, interrupted.checkpoint());
    let snapshot = Snapshot::parse(&bytes).expect("valid checkpoint");
    let mut restored = ServeEngine::from_checkpoint(&snapshot, w.clone(), model(), config)
        .expect("restore succeeds");
    assert_eq!(restored.requests_served(), interrupted.requests_served());

    let expected = continuous.process_trace(&suffix, workers).expect("suffix");
    let actual = restored.process_trace(&suffix, workers).expect("suffix");
    assert_eq!(
        expected.deterministic_view(),
        actual.deterministic_view(),
        "seed={seed} sessions={sessions} split={split_index} workers={workers}"
    );
    assert_eq!(expected.embed_cache, actual.embed_cache);
    assert_eq!(expected.selection_memo, actual.selection_memo);
    assert_eq!(expected.session_fast_hits, actual.session_fast_hits);
}

/// A snapshot boot computes exactly what a cold boot computes — the CI
/// round-trip gate, in-process, for the acceptance worker counts.
#[test]
fn snapshot_boot_is_bit_identical_to_cold_boot_for_workers_1_4_8() {
    let (w, trace) = bfcl_trace(120, 7, 48);
    let bytes = lim_core::write_levels_snapshot(
        &lim_core::SearchLevels::build(&w),
        "bfcl",
        7,
        w.queries.len(),
    );
    let snapshot = Snapshot::parse(&bytes).expect("valid snapshot");
    for workers in [1, 4, 8] {
        let mut cold = ServeEngine::new(w.clone(), model(), ServeConfig::default());
        let mut warm =
            ServeEngine::from_snapshot(&snapshot, w.clone(), model(), ServeConfig::default())
                .expect("snapshot boot");
        assert!(warm.boot().build_skipped);
        assert_eq!(warm.boot().mode, "snapshot");
        assert!(!cold.boot().build_skipped);
        assert!(
            warm.boot().sim_boot_seconds < cold.boot().sim_boot_seconds,
            "snapshot boot {:.4}s must undercut cold boot {:.4}s",
            warm.boot().sim_boot_seconds,
            cold.boot().sim_boot_seconds
        );
        let a = cold.process_trace(&trace, workers).expect("cold replay");
        let b = warm.process_trace(&trace, workers).expect("warm replay");
        assert_eq!(
            a.deterministic_view(),
            b.deterministic_view(),
            "workers={workers}"
        );
    }
    // A boot that never touches the warm sections leaves them undecoded:
    // the lazy-loading contract, observed through a checkpoint file.
    let mut engine = ServeEngine::new(w.clone(), model(), ServeConfig::default());
    engine.process_trace(&trace, 2).expect("warm up");
    let checkpoint_bytes = engine.checkpoint();
    let checkpoint = Snapshot::parse(&checkpoint_bytes).expect("valid checkpoint");
    let from_checkpoint_file =
        ServeEngine::from_snapshot(&checkpoint, w, model(), ServeConfig::default())
            .expect("levels-only boot from a checkpoint file");
    let decoded = checkpoint.decoded_sections();
    assert!(
        !decoded.contains(&crate::snapshot::SECTION_EMBED_CACHE)
            && !decoded.contains(&crate::snapshot::SECTION_MEMO)
            && !decoded.contains(&crate::snapshot::SECTION_SESSIONS),
        "warm sections must stay undecoded on a levels boot: {decoded:?}"
    );
    // And undecoded bytes are never billed: the boot cost of a levels
    // boot from the (much larger) checkpoint file stays below the cost
    // of decoding its whole payload.
    assert!(
        from_checkpoint_file.boot().sim_boot_seconds
            < checkpoint.payload_len() as f64 * crate::engine::SNAPSHOT_DECODE_SECONDS_PER_BYTE
                + from_checkpoint_file.boot().warm_embed_entries as f64
                    * ServeConfig::default().embed_seconds_per_text,
        "levels boot billed for warm sections it never decoded"
    );
}

/// Explicit acceptance splits (empty prefix, mid-session, empty suffix)
/// at the acceptance worker counts; the proptest sweeps the space.
#[test]
fn checkpoint_restore_matches_continuous_engine_at_fixed_splits() {
    for (split, workers) in [(0, 1), (7, 4), (13, 8), (usize::MAX, 2)] {
        assert_restore_equals_continuous(21, 8, split, workers);
    }
}

/// After two replays every session's last selection is memo-resident
/// (`Ready`), so the checkpoint must carry real per-session warm state —
/// and a third replay on the restored engine must still match the
/// engine that never restarted, fast-path hits included.
#[test]
fn checkpoint_after_multiple_traces_preserves_ready_session_state() {
    let (w, trace) = bfcl_trace(60, 5, 16);
    let config = ServeConfig::default();
    let mut continuous = ServeEngine::new(w.clone(), model(), config);
    let mut interrupted = ServeEngine::new(w.clone(), model(), config);
    for _ in 0..2 {
        continuous.process_trace(&trace, 3).expect("replay");
        interrupted.process_trace(&trace, 3).expect("replay");
    }
    let bytes = interrupted.checkpoint();
    let snapshot = Snapshot::parse(&bytes).expect("valid checkpoint");
    assert!(
        snapshot
            .section_len(crate::snapshot::SECTION_SESSIONS)
            .expect("sessions section")
            > 2,
        "memo-resident sessions must serialize (not the empty array)"
    );
    let mut restored =
        ServeEngine::from_checkpoint(&snapshot, w, model(), config).expect("restore");
    let expected = continuous.process_trace(&trace, 3).expect("third replay");
    let actual = restored.process_trace(&trace, 3).expect("third replay");
    assert_eq!(expected.deterministic_view(), actual.deterministic_view());
    assert_eq!(expected.session_fast_hits, actual.session_fast_hits);
    assert_eq!(actual.selection_memo.misses, 0, "fully warm after restore");
}

/// Restores are refused — with typed errors — when the checkpoint comes
/// from a different workload or engine configuration, and corrupted or
/// truncated files never produce an engine.
#[test]
fn corrupted_or_mismatched_checkpoints_are_rejected() {
    let (w, trace) = bfcl_trace(40, 11, 10);
    let mut engine = ServeEngine::new(w.clone(), model(), ServeConfig::default());
    engine.process_trace(&trace, 2).expect("warm up");
    let bytes = engine.checkpoint();

    // Truncation: typed at parse time.
    assert!(matches!(
        Snapshot::parse(&bytes[..bytes.len() / 2]).unwrap_err(),
        SnapshotError::Truncated { .. } | SnapshotError::Header(_)
    ));
    // Bit corruption inside a section payload: typed at decode time.
    let mut corrupt = bytes.clone();
    let len = corrupt.len();
    corrupt[len - 1] = b'!'; // the sessions section's closing bracket
    let snapshot = Snapshot::parse(&corrupt).expect("header intact");
    assert!(matches!(
        ServeEngine::from_checkpoint(&snapshot, w.clone(), model(), ServeConfig::default())
            .unwrap_err(),
        SnapshotError::Section { .. }
    ));

    let snapshot = Snapshot::parse(&bytes).expect("valid checkpoint");
    // Wrong workload.
    let geo = lim_workloads::geoengine(11, 40);
    assert!(matches!(
        ServeEngine::from_checkpoint(&snapshot, geo, model(), ServeConfig::default()).unwrap_err(),
        SnapshotError::Mismatch(_)
    ));
    // Wrong engine configuration: the cached values would be stale.
    let other_quant = ServeConfig::builder().quant(Quant::Q8_0).build();
    assert!(matches!(
        ServeEngine::from_checkpoint(&snapshot, w.clone(), model(), other_quant).unwrap_err(),
        SnapshotError::Mismatch(_)
    ));
    // A levels-only snapshot carries no warm state to restore.
    let levels_only = lim_core::write_levels_snapshot(
        &lim_core::SearchLevels::build(&w),
        "bfcl",
        11,
        w.queries.len(),
    );
    let levels_snapshot = Snapshot::parse(&levels_only).expect("valid snapshot");
    assert!(matches!(
        ServeEngine::from_checkpoint(&levels_snapshot, w, model(), ServeConfig::default())
            .unwrap_err(),
        SnapshotError::Mismatch(_)
    ));
}

/// Shared fixture: workload construction and level building dominate the
/// property test's runtime; only the trace and quant vary per case.
fn fixture() -> &'static (lim_workloads::Workload, lim_core::SearchLevels) {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<(lim_workloads::Workload, lim_core::SearchLevels)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let w = lim_workloads::bfcl(17, 60);
        let levels = lim_core::SearchLevels::build(&w);
        (w, levels)
    })
}

proptest! {
    /// For random trace seeds, session counts and quants, worker counts
    /// 1–8 agree bit for bit on the deterministic report.
    #[test]
    fn deterministic_for_any_worker_count(
        seed in 0u64..200,
        sessions in 4usize..24,
        workers in 2usize..9,
        quant_ix in 0usize..5,
    ) {
        let (w, levels) = fixture();
        let trace = zipf_trace(w, &TraceConfig {
            seed,
            sessions,
            requests_per_session: 5,
            ..TraceConfig::default()
        });
        let config = ServeConfig::builder().quant(Quant::ALL[quant_ix]).build();
        let mut sequential =
            ServeEngine::with_levels(w.clone(), levels.clone(), model(), config);
        let mut parallel = ServeEngine::with_levels(w.clone(), levels.clone(), model(), config);
        let a = sequential.process_trace(&trace, 1).expect("valid trace");
        let b = parallel.process_trace(&trace, workers).expect("valid trace");
        prop_assert_eq!(a.deterministic_view(), b.deterministic_view());
    }

    /// Checkpoint determinism over (seed x trace length x split point x
    /// workers 1-8): restoring a checkpoint taken after any prefix and
    /// replaying the suffix equals replaying the full trace without the
    /// restart.
    #[test]
    fn checkpoint_restore_then_suffix_replay_equals_full_replay(
        seed in 0u64..200,
        sessions in 2usize..12,
        split_index in 0usize..64,
        workers in 1usize..9,
    ) {
        assert_restore_equals_continuous(seed, sessions, split_index, workers);
    }

    /// Acceptance property: under Poisson-arrival Zipf traces with a
    /// bounded queue, the queue/shed/degraded counters and wait-time
    /// percentiles are bit-identical for any worker count and either
    /// shed policy.
    #[test]
    fn admission_counters_deterministic_for_any_worker_count(
        seed in 0u64..200,
        sessions in 4usize..20,
        workers in 2usize..9,
        rate_centirps in 5u32..400,
        queue_depth in 1usize..24,
        degrade in 0usize..2,
    ) {
        let (w, levels) = fixture();
        let trace = zipf_trace(w, &TraceConfig {
            seed,
            sessions,
            requests_per_session: 5,
            arrivals: ArrivalProcess::Poisson { rate_rps: rate_centirps as f64 / 100.0 },
            ..TraceConfig::default()
        });
        let config = ServeConfig::builder().admission(AdmissionConfig {
            queue_depth,
            servers: 1,
            shed_policy: if degrade == 1 { ShedPolicy::Degrade } else { ShedPolicy::Reject },
        }).build();
        let mut sequential =
            ServeEngine::with_levels(w.clone(), levels.clone(), model(), config);
        let mut parallel = ServeEngine::with_levels(w.clone(), levels.clone(), model(), config);
        let a = sequential.process_trace(&trace, 1).expect("valid trace");
        let b = parallel.process_trace(&trace, workers).expect("valid trace");
        prop_assert_eq!(a.admission.clone(), b.admission.clone());
        prop_assert_eq!(a.deterministic_view(), b.deterministic_view());
    }
}

/// The PR 4 acceptance test, explicit worker counts: a Poisson-overload
/// replay is bit-identical (admission section included) for workers
/// {1, 4, 8}, sheds under overload, and sheds nothing under the PR 3
/// back-to-back baseline trace.
#[test]
fn admission_bit_identical_across_workers_and_sheds_only_under_overload() {
    let admission = AdmissionConfig {
        queue_depth: 8,
        servers: 1,
        shed_policy: ShedPolicy::Reject,
    };
    let overloaded = |workers: usize| -> ServeReport {
        let (w, trace) = bfcl_trace(120, 7, 48);
        // Mean service is a few simulated seconds; 25 rps is far past a
        // single simulated executor's capacity.
        let trace = trace.with_arrivals(ArrivalProcess::Poisson { rate_rps: 25.0 });
        let config = ServeConfig::builder().admission(admission).build();
        let mut engine = ServeEngine::new(w, model(), config);
        engine.process_trace(&trace, workers).expect("valid trace")
    };
    let baseline = overloaded(1);
    for workers in [4, 8] {
        let other = overloaded(workers);
        assert_eq!(
            baseline.deterministic_view(),
            other.deterministic_view(),
            "workers={workers}"
        );
        assert_eq!(baseline.admission, other.admission);
    }
    assert!(
        baseline.admission.shed > 0,
        "a 25 rps storm against one simulated executor must shed"
    );
    assert!(baseline.admission.max_queue_depth > 0);
    assert!(baseline.admission.queue_wait.p95_s > 0.0);
    assert_eq!(
        baseline.admission.admitted + baseline.admission.shed,
        baseline.requests as u64
    );

    // The PR 3 baseline trace is back-to-back: the same bounded queue
    // never builds depth, waits or sheds.
    let (w, trace) = bfcl_trace(120, 7, 48);
    let config = ServeConfig::builder().admission(admission).build();
    let mut engine = ServeEngine::new(w, model(), config);
    let calm = engine.process_trace(&trace, 4).expect("valid trace");
    assert_eq!(calm.admission.shed, 0);
    assert_eq!(calm.admission.degraded, 0);
    assert_eq!(calm.admission.max_queue_depth, 0);
    assert_eq!(calm.admission.queue_wait.max_s, 0.0);
}

/// Shed requests count as failures; the accuracy gap vs the unshed
/// replay is exactly the shed share, and the latency distribution only
/// covers executed requests.
#[test]
fn shedding_pays_accuracy_and_is_visible_in_the_report() {
    let (w, trace) = bfcl_trace(80, 3, 24);
    let trace = trace.with_arrivals(ArrivalProcess::Poisson { rate_rps: 40.0 });
    let open_loop = ServeConfig::default(); // queue disabled
    let bounded = ServeConfig::builder()
        .admission(AdmissionConfig {
            queue_depth: 4,
            servers: 1,
            shed_policy: ShedPolicy::Reject,
        })
        .build();
    let mut a = ServeEngine::new(w.clone(), model(), open_loop);
    let mut b = ServeEngine::new(w, model(), bounded);
    let unshed = a.process_trace(&trace, 2).expect("valid trace");
    let shed = b.process_trace(&trace, 2).expect("valid trace");
    assert_eq!(unshed.admission.shed, 0, "disabled queue never sheds");
    assert!(shed.admission.shed > 0);
    assert!(
        shed.success_rate < unshed.success_rate,
        "shed requests are failed requests"
    );
    // Level shares cover executed requests only: they sum to the
    // admitted fraction.
    let n = shed.requests as f64;
    let shares = shed.level1_share + shed.level2_share + shed.level3_share;
    let admitted_fraction = shed.admission.admitted as f64 / n;
    assert!(
        (shares - admitted_fraction).abs() < 1e-9,
        "shares {shares} vs admitted fraction {admitted_fraction}"
    );
}

/// Under the degrade policy a storm is absorbed by Level-3 /
/// selection-free service: degraded requests show up in the counters and
/// in `level3_share`, and fewer requests are shed than under reject.
#[test]
fn degrade_policy_absorbs_pressure_before_shedding() {
    let run = |shed_policy: ShedPolicy| -> ServeReport {
        let (w, trace) = bfcl_trace(80, 9, 24);
        let trace = trace.with_arrivals(ArrivalProcess::Burst {
            rate_rps: 20.0,
            burst: 16,
        });
        let config = ServeConfig::builder()
            .admission(AdmissionConfig {
                queue_depth: 12,
                servers: 1,
                shed_policy,
            })
            .build();
        let mut engine = ServeEngine::new(w, model(), config);
        engine.process_trace(&trace, 2).expect("valid trace")
    };
    let rejecting = run(ShedPolicy::Reject);
    let degrading = run(ShedPolicy::Degrade);
    assert_eq!(rejecting.admission.degraded, 0);
    assert!(degrading.admission.degraded > 0);
    assert!(
        degrading.admission.shed <= rejecting.admission.shed,
        "degrade shed {} vs reject shed {}",
        degrading.admission.shed,
        rejecting.admission.shed
    );
    assert!(
        degrading.level3_share > rejecting.level3_share,
        "degraded requests are served at Level 3"
    );
}

// ---------------------------------------------------------------------
// Streaming ingestion (ServeSession) vs the batch replay path.
// ---------------------------------------------------------------------

/// Replays `trace` through a [`crate::ServeSession`], submitting one
/// request at a time and draining between every two submissions — the
/// maximally fragmented batching the incremental API allows.
fn stream_one_at_a_time(
    engine: &mut ServeEngine,
    trace: &SessionTrace,
    workers: usize,
) -> ServeReport {
    use crate::{StreamMeta, StreamRequest};
    let arrivals = trace.arrival_seconds();
    let mut stream = engine.begin_stream(
        StreamMeta {
            trace_seed: trace.seed,
            zipf_s: trace.zipf_s,
            arrivals: trace.arrivals,
            sessions: Some(trace.sessions.len()),
        },
        workers,
    );
    let mut next = 0usize;
    for session in &trace.sessions {
        for &query_index in &session.query_indices {
            stream
                .submit(StreamRequest {
                    session: session.id,
                    query_index,
                    arrival_s: arrivals.as_ref().map(|a| a[next]),
                })
                .expect("valid request");
            next += 1;
            stream.drain();
        }
    }
    stream.finish()
}

/// Explicit acceptance check at the CI gate's worker counts: a Poisson
/// storm against a bounded Degrade queue, submitted one request at a
/// time, reproduces the batch report bit for bit at workers {1, 4, 8} —
/// and the storm actually sheds *and* degrades, so the equivalence
/// covers the admission paths, not just the happy path. The streamed
/// run honors the trace's recorded timestamps (no re-stamping), which
/// is what makes the two timelines comparable at all.
#[test]
fn streamed_poisson_storm_matches_batch_and_exercises_shed_and_degrade() {
    let (w, trace) = bfcl_trace(80, 3, 24);
    let trace = trace.with_arrivals(ArrivalProcess::Poisson { rate_rps: 40.0 });
    let config = ServeConfig::builder()
        .admission(AdmissionConfig {
            queue_depth: 6,
            servers: 1,
            shed_policy: ShedPolicy::Degrade,
        })
        .build();
    let mut batch_engine = ServeEngine::new(w.clone(), model(), config);
    let batch = batch_engine.process_trace(&trace, 4).expect("valid trace");
    assert!(batch.admission.shed > 0, "storm must shed");
    assert!(batch.admission.degraded > 0, "storm must degrade");
    for workers in [1usize, 4, 8] {
        let mut engine = ServeEngine::new(w.clone(), model(), config);
        let streamed = stream_one_at_a_time(&mut engine, &trace, workers);
        assert_eq!(
            batch.deterministic_view(),
            streamed.deterministic_view(),
            "workers={workers}"
        );
        assert_eq!(batch.admission, streamed.admission, "workers={workers}");
    }
}

/// The event stream is coherent: every submitted ticket resolves exactly
/// once across `drain` and `finish_with_events`, shed events carry no
/// service time and executed ones do, and each event bills the service
/// time the admission queue actually charged: re-offering every ticket
/// to a fresh admission machine with its billed `service_s` reproduces
/// every disposition. The second input is the default policy under a
/// degrade queue and a power cap, where the degrade path (the
/// full-quality outcome) and the governor's Economy rung differ.
#[test]
fn stream_events_resolve_every_ticket_exactly_once() {
    use crate::admission::{Disposition, FleetAdmissionSim};
    use crate::{StreamMeta, StreamRequest};
    let (w, trace) = bfcl_trace(60, 9, 12);
    let trace = trace.with_arrivals(ArrivalProcess::Poisson { rate_rps: 30.0 });
    let queue = |shed_policy| AdmissionConfig {
        queue_depth: 4,
        servers: 1,
        shed_policy,
    };
    let inputs = [
        ServeConfig::builder()
            .admission(queue(ShedPolicy::Reject))
            .build(),
        ServeConfig::builder()
            .policy(Policy::Default)
            .admission(queue(ShedPolicy::Degrade))
            .governor(GovernorConfig {
                power_cap_w: 15.0,
                window_s: 20.0,
                ..GovernorConfig::default()
            })
            .build(),
    ];
    let arrivals = trace.arrival_seconds().expect("timed trace");
    let sessions: Vec<u64> = trace
        .sessions
        .iter()
        .flat_map(|s| s.query_indices.iter().map(move |_| s.id))
        .collect();
    for config in inputs {
        let mut engine = ServeEngine::new(w.clone(), model(), config);
        let mut stream = engine.begin_stream(
            StreamMeta {
                trace_seed: trace.seed,
                zipf_s: trace.zipf_s,
                arrivals: trace.arrivals,
                sessions: Some(trace.sessions.len()),
            },
            2,
        );
        let mut events = Vec::new();
        let mut next = 0usize;
        for s in &trace.sessions {
            for &q in &s.query_indices {
                stream
                    .submit(StreamRequest {
                        session: s.id,
                        query_index: q,
                        arrival_s: Some(arrivals[next]),
                    })
                    .expect("valid request");
                next += 1;
                events.extend(stream.drain());
            }
        }
        let (report, tail) = stream.finish_with_events();
        events.extend(tail);
        assert_eq!(events.len(), trace.requests());
        let mut by_ticket = vec![None; trace.requests()];
        for event in &events {
            assert!(
                by_ticket[event.ticket.index()].replace(*event).is_none(),
                "every ticket resolves exactly once"
            );
            match event.disposition {
                Disposition::Shed => assert!(event.service_s.is_none(), "shed never executes"),
                _ => assert!(event.service_s.expect("admitted requests bill time") > 0.0),
            }
        }
        assert_eq!(report.requests, trace.requests());
        assert!(report.admission.shed > 0, "the storm should shed");
        if config.governor.active() {
            assert!(report.admission.degraded > 0 && report.energy.governor_transitions > 0);
        }

        let mut sim = FleetAdmissionSim::new(config.admission, 1, true);
        let mut replayed = vec![None; trace.requests()];
        for (i, event) in by_ticket.iter().enumerate() {
            let billed = event.expect("resolved").service_s.unwrap_or(0.0);
            for (idx, d) in sim.offer(0, sessions[i], arrivals[i], billed, billed).1 {
                replayed[idx] = Some(d);
            }
        }
        for (idx, d) in sim.drain() {
            replayed[idx] = Some(d);
        }
        for (i, (event, d)) in by_ticket.iter().zip(&replayed).enumerate() {
            assert_eq!(
                event.map(|e| e.disposition),
                *d,
                "ticket {i} under {:?}",
                config.policy
            );
        }
    }
}

/// Streaming validation matches the batch path's: out-of-pool queries,
/// timestamps on closed-loop streams, missing timestamps on open-loop
/// streams and decreasing timestamps are all rejected at submit time.
#[test]
fn stream_submit_validates_requests() {
    use crate::{StreamMeta, StreamRequest};
    let w = lim_workloads::bfcl(5, 30);
    let mut engine = ServeEngine::new(w, model(), ServeConfig::default());
    // Closed loop: timestamps are forbidden, pool bounds enforced.
    let mut stream = engine.begin_stream(StreamMeta::default(), 1);
    let closed = |query_index, arrival_s| StreamRequest {
        session: 0,
        query_index,
        arrival_s,
    };
    assert!(stream.submit(closed(999, None)).is_err());
    assert!(stream.submit(closed(0, Some(1.0))).is_err());
    assert!(stream.submit(closed(0, None)).is_ok());
    let report = stream.finish();
    assert_eq!(report.requests, 1);
    // Open loop: timestamps required and nondecreasing.
    let meta = StreamMeta {
        arrivals: ArrivalProcess::Poisson { rate_rps: 1.0 },
        ..StreamMeta::default()
    };
    let mut stream = engine.begin_stream(meta, 1);
    assert!(stream.submit(closed(0, None)).is_err());
    assert!(stream.submit(closed(0, Some(2.0))).is_ok());
    assert!(stream.submit(closed(1, Some(1.0))).is_err());
    let report = stream.finish();
    assert_eq!(report.requests, 1);
}

proptest! {
    /// The tentpole acceptance property: for random seeds and session
    /// counts, submitting a trace one request at a time through
    /// `ServeSession` (draining between every two submissions) produces
    /// a report bit-identical to the batch `process_trace` path at
    /// workers {1, 4, 8} — including shed/degrade accounting when a
    /// Poisson storm drives a bounded Degrade queue.
    #[test]
    fn streamed_equals_batch_for_any_seed_sessions_and_workers(
        seed in 0u64..200,
        sessions in 2usize..16,
        workers_ix in 0usize..3,
        storm in 0usize..2,
    ) {
        let workers = [1usize, 4, 8][workers_ix];
        let (w, levels) = fixture();
        let mut trace = zipf_trace(w, &TraceConfig {
            seed,
            sessions,
            requests_per_session: 5,
            ..TraceConfig::default()
        });
        let mut builder = ServeConfig::builder();
        if storm == 1 {
            trace = trace.with_arrivals(ArrivalProcess::Poisson { rate_rps: 20.0 });
            builder = builder.admission(AdmissionConfig {
                queue_depth: 6,
                servers: 1,
                shed_policy: ShedPolicy::Degrade,
            });
        }
        let config = builder.build();
        let mut batch = ServeEngine::with_levels(w.clone(), levels.clone(), model(), config);
        let mut incremental =
            ServeEngine::with_levels(w.clone(), levels.clone(), model(), config);
        let a = batch.process_trace(&trace, workers).expect("valid trace");
        let b = stream_one_at_a_time(&mut incremental, &trace, workers);
        prop_assert_eq!(a.deterministic_view(), b.deterministic_view());
        prop_assert_eq!(a.admission.clone(), b.admission.clone());
    }
}

// ---------------------------------------------------------------------
// Live catalogs: register/retire on a running engine.
// ---------------------------------------------------------------------

use lim_workloads::churn::{synthetic_tool, with_churn, ChurnConfig};

/// Unit behaviour of the mutation API: epoch bookkeeping, counter
/// accounting, the catalog log, and typed rejection of invalid
/// mutations — none of which may move state when refused.
#[test]
fn register_and_retire_mutate_the_live_engine() {
    let (w, trace) = bfcl_trace(40, 11, 10);
    let base_tools = w.registry.len();
    let mut engine = ServeEngine::new(w, model(), ServeConfig::default());
    engine.process_trace(&trace, 2).expect("warm up");
    assert_eq!(engine.epoch(), 0);
    assert_eq!(engine.catalog_log().len(), 0);

    let doc = synthetic_tool(1, 0);
    let index = engine.register_tool(&doc).expect("register");
    assert_eq!(
        index, base_tools,
        "dense index right after the base catalog"
    );
    assert_eq!(engine.epoch(), 1);
    // Duplicate names and invalid documents are refused without moving
    // the epoch.
    assert!(engine.register_tool(&doc).is_err());
    assert!(engine
        .register_tool(&lim_tools::ToolDoc::new("", "c", "d"))
        .is_err());
    assert_eq!(engine.epoch(), 1);

    engine.retire_tool(index).expect("retire");
    assert_eq!(engine.epoch(), 2);
    assert!(engine.retire_tool(index).is_err(), "double retire");
    assert!(engine.retire_tool(99_999).is_err(), "out of range");
    assert_eq!(engine.epoch(), 2);

    let counters = engine.catalog_counters();
    assert_eq!(counters.registered, 1);
    assert_eq!(counters.retired, 1);
    assert_eq!(engine.catalog_log().len(), 2);
    assert!(
        counters.memo_invalidations > 0,
        "a warm memo crossed two epoch bumps"
    );

    // The catalog section of the next report mirrors the live state.
    let report = engine.process_trace(&trace, 2).expect("replay");
    assert_eq!(report.catalog.epoch, 2);
    assert_eq!(report.catalog.registered, 1);
    assert_eq!(report.catalog.retired, 1);
}

/// The epoch keying contract: mutating the catalog must not poison warm
/// answers — the engine re-misses once per epoch and then reconverges —
/// and a mutation never changes accuracy on queries whose gold tools
/// stay live.
#[test]
fn epoch_bump_invalidates_stale_cache_entries_without_a_flush() {
    let (w, trace) = bfcl_trace(60, 5, 16);
    let mut engine = ServeEngine::new(w, model(), ServeConfig::default());
    let cold = engine.process_trace(&trace, 2).expect("cold");
    let warm = engine.process_trace(&trace, 2).expect("warm");
    assert_eq!(warm.embed_cache.misses, 0, "fully warm before the mutation");

    engine
        .register_tool(&synthetic_tool(2, 0))
        .expect("register");
    let churned = engine.process_trace(&trace, 2).expect("after mutation");
    // Stale-by-key: every unique query re-misses exactly once under the
    // new epoch (no flush, so the *old* entries are still resident until
    // LRU pressure evicts them)…
    assert!(churned.embed_cache.misses > 0, "epoch bump must re-miss");
    // …and outcomes on the untouched gold catalog are unchanged.
    assert_eq!(cold.success_rate, churned.success_rate);
    assert_eq!(cold.tool_accuracy, churned.tool_accuracy);

    let again = engine.process_trace(&trace, 2).expect("reconverged");
    assert_eq!(
        again.embed_cache.misses, 0,
        "warm again under the new epoch"
    );
}

/// Staleness-bounded Level-2 refresh: with the refresh fraction wound
/// down, a single mutation rebuilds the clusters; with the default
/// fraction a small mutation burst does not.
#[test]
fn cluster_refresh_fires_once_churn_exceeds_the_configured_fraction() {
    let (w, trace) = bfcl_trace(40, 11, 10);
    let eager = ServeConfig::builder()
        .cluster_refresh_fraction(0.01)
        .build();
    let mut engine = ServeEngine::new(w.clone(), model(), eager);
    engine
        .register_tool(&synthetic_tool(3, 0))
        .expect("register");
    assert_eq!(engine.catalog_counters().cluster_refreshes, 1);
    let report = engine.process_trace(&trace, 2).expect("replay");
    assert_eq!(report.catalog.cluster_refreshes, 1);

    let mut lazy = ServeEngine::new(w, model(), ServeConfig::default());
    lazy.register_tool(&synthetic_tool(3, 0)).expect("register");
    lazy.register_tool(&synthetic_tool(3, 1)).expect("register");
    assert_eq!(
        lazy.catalog_counters().cluster_refreshes,
        0,
        "two mutations stay under the default quarter-catalog bound"
    );
}

/// The churn acceptance gate, in-process: a seeded churn trace replays
/// bit-identically (catalog section included) at workers {1, 4, 8}, and
/// accuracy on the live gold catalog never falls below the static
/// baseline — churn only ever retires gold-safe tools.
#[test]
fn churned_replay_is_bit_identical_across_workers_and_keeps_accuracy() {
    let (w, trace) = bfcl_trace(120, 7, 48);
    let churned = with_churn(&w, trace.clone(), &ChurnConfig::default());
    assert!(!churned.churn.is_empty());
    let run = |workers: usize| {
        let mut engine = ServeEngine::new(w.clone(), model(), ServeConfig::default());
        engine
            .process_trace(&churned, workers)
            .expect("churned replay")
    };
    let baseline = run(1);
    for workers in [4, 8] {
        let other = run(workers);
        assert_eq!(
            baseline.deterministic_view(),
            other.deterministic_view(),
            "workers={workers}"
        );
        assert_eq!(baseline.catalog, other.catalog, "workers={workers}");
    }
    assert!(baseline.catalog.epoch > 0);
    assert!(baseline.catalog.registered > 0);
    assert!(baseline.catalog.retired > 0);

    let mut static_engine = ServeEngine::new(w.clone(), model(), ServeConfig::default());
    let static_report = static_engine.process_trace(&trace, 1).expect("static");
    assert!(
        baseline.success_rate >= static_report.success_rate,
        "churn {:.4} vs static {:.4}: gold-safe churn must not lose accuracy",
        baseline.success_rate,
        static_report.success_rate
    );
}

/// The snapshot convergence contract: (A) a live engine that churned,
/// (B) a checkpoint restore of it, and (C) a snapshot-booted engine that
/// replays the same churn trace all converge — reports at tolerance 0
/// and checkpoints to the byte.
#[test]
fn mutate_then_snapshot_equals_boot_then_replay_log() {
    let (w, trace) = bfcl_trace(60, 5, 16);
    let churned = with_churn(
        &w,
        trace,
        &ChurnConfig {
            seed: 3,
            registers: 3,
            retires: 3,
        },
    );
    let config = ServeConfig::default();

    // A: the engine that lived through the churn.
    let mut live = ServeEngine::new(w.clone(), model(), config);
    let report_a = live.process_trace(&churned, 4).expect("A");
    assert!(report_a.catalog.epoch > 0);
    let ck_a = live.checkpoint();
    assert_eq!(ck_a, live.checkpoint(), "checkpointing is byte-stable");

    // B: restore the churned checkpoint. Same epoch, same bytes back
    // out, and the future is served identically at another worker count.
    let snapshot = Snapshot::parse(&ck_a).expect("valid checkpoint");
    let mut restored =
        ServeEngine::from_checkpoint(&snapshot, w.clone(), model(), config).expect("restore");
    assert_eq!(restored.epoch(), live.epoch());
    assert_eq!(restored.catalog_counters(), live.catalog_counters());
    assert_eq!(
        restored.checkpoint(),
        ck_a,
        "restore round-trips to the byte"
    );
    let future = zipf_trace(
        &w,
        &TraceConfig {
            seed: 99,
            sessions: 8,
            requests_per_session: 5,
            ..TraceConfig::default()
        },
    );
    let expected = live.process_trace(&future, 1).expect("live future");
    let actual = restored.process_trace(&future, 8).expect("restored future");
    assert_eq!(expected.deterministic_view(), actual.deterministic_view());

    // C: boot from a *base* levels snapshot (no churn recorded), replay
    // the same churn trace, and converge with A bit-for-bit.
    let levels_bytes = lim_core::write_levels_snapshot(
        &lim_core::SearchLevels::build(&w),
        "bfcl",
        5,
        w.queries.len(),
    );
    let levels_snapshot = Snapshot::parse(&levels_bytes).expect("valid snapshot");
    let mut from_base = ServeEngine::from_snapshot(&levels_snapshot, w.clone(), model(), config)
        .expect("snapshot boot");
    let report_c = from_base.process_trace(&churned, 8).expect("C");
    assert_eq!(report_a.deterministic_view(), report_c.deterministic_view());
    assert_eq!(
        from_base.checkpoint(),
        ck_a,
        "mutate-then-snapshot equals boot-then-mutate, to the byte"
    );
}

/// Re-encodes a checkpoint with its `catalog_log` section tampered by
/// `mutate` — the corrupt-log rejection fixtures below all go through
/// this.
fn tampered_catalog_checkpoint(
    snapshot: &Snapshot,
    mutate: impl Fn(&mut lim_json::Value),
) -> Vec<u8> {
    let mut writer = lim_core::SnapshotWriter::new("checkpoint");
    for key in ["benchmark", "tool_count", "pool_size", "train_size", "dim"] {
        writer.header_field(
            key,
            snapshot.header_field(key).expect("header field").clone(),
        );
    }
    for name in crate::snapshot::KNOWN_SECTIONS {
        if snapshot.section_len(name).is_some() {
            let mut doc = snapshot.section(name).expect("section decodes").clone();
            if *name == crate::snapshot::SECTION_CATALOG {
                mutate(&mut doc);
            }
            writer.add_section(name, &doc);
        }
    }
    writer.encode()
}

/// Corrupt, reordered or inconsistent catalog logs are refused with
/// typed [`SnapshotError`]s — a damaged log must never replay into a
/// silently different catalog.
#[test]
fn corrupt_or_unordered_catalog_logs_are_rejected() {
    use lim_json::Value;
    let (w, trace) = bfcl_trace(40, 11, 10);
    let churned = with_churn(
        &w,
        trace,
        &ChurnConfig {
            seed: 1,
            registers: 2,
            retires: 2,
        },
    );
    let config = ServeConfig::default();
    let mut engine = ServeEngine::new(w.clone(), model(), config);
    engine.process_trace(&churned, 2).expect("churned replay");
    assert!(engine.epoch() >= 2);
    let bytes = engine.checkpoint();
    let snapshot = Snapshot::parse(&bytes).expect("valid checkpoint");

    // The untampered re-encode restores fine (the harness itself is
    // sound — rejections below are the tamper, not the rebuild).
    let clean = tampered_catalog_checkpoint(&snapshot, |_| {});
    let reparsed = Snapshot::parse(&clean).expect("clean re-encode parses");
    ServeEngine::from_checkpoint(&reparsed, w.clone(), model(), config)
        .expect("clean re-encode restores");

    let reject = |label: &str, needle: &str, mutate: &dyn Fn(&mut Value)| {
        let bytes = tampered_catalog_checkpoint(&snapshot, mutate);
        let tampered = Snapshot::parse(&bytes).expect("tampered file still parses");
        let err = ServeEngine::from_checkpoint(&tampered, w.clone(), model(), config)
            .expect_err(&format!("{label} must be refused"));
        match &err {
            SnapshotError::Section { section, message } => {
                assert_eq!(section, crate::snapshot::SECTION_CATALOG, "{label}");
                assert!(message.contains(needle), "{label}: {message}");
            }
            other => panic!("{label}: expected a Section error, got {other:?}"),
        }
    };

    let records_of = |doc: &Value| -> Vec<Value> {
        doc.get("records")
            .and_then(Value::as_array)
            .expect("records")
            .to_vec()
    };
    // Reordered log: swapping two records breaks seq contiguity.
    reject("reordered log", "contiguous", &|doc| {
        let mut records = records_of(doc);
        records.swap(0, 1);
        doc.insert("records", records.into_iter().collect());
    });
    // Truncated log: dropping the last record disagrees with the epoch.
    reject("truncated log", "disagree", &|doc| {
        let mut records = records_of(doc);
        records.pop();
        doc.insert("records", records.into_iter().collect());
    });
    // Epoch coherence inside one record.
    reject("incoherent record epoch", "bumps", &|doc| {
        let mut records = records_of(doc);
        records[0].insert("epoch_after", Value::from(7));
        doc.insert("records", records.into_iter().collect());
    });
    // Lifetime counters disagreeing with the log.
    reject("counter mismatch", "counters", &|doc| {
        let counters = doc.get("counters").expect("counters").clone();
        let mut counters = counters;
        counters.insert("registered", Value::from(99));
        doc.insert("counters", counters);
    });
    // A retire aimed at a tool the log never had at that point.
    reject(
        "retire out of replay range",
        "invalid or repeated",
        &|doc| {
            let mut records = records_of(doc);
            for record in &mut records {
                if record.get("op").and_then(Value::as_str) == Some("retire") {
                    record.insert("id", Value::from(99_999));
                    break;
                }
            }
            doc.insert("records", records.into_iter().collect());
        },
    );
    // Structurally missing members.
    reject("missing records", "missing records", &|doc| {
        doc.insert("records", Value::Null);
    });
    reject("negative epoch", "epoch", &|doc| {
        doc.insert("epoch", Value::from(-1));
    });
}

proptest! {
    /// The churn acceptance property: for random trace seeds, churn
    /// schedules and worker counts, a churned replay is bit-identical
    /// to the sequential replay (catalog counters included), and the
    /// checkpoint it leaves behind restores to byte-identical state —
    /// live mutation equals snapshot-boot plus catalog-log replay.
    #[test]
    fn churned_replay_deterministic_and_checkpoint_convergent(
        seed in 0u64..100,
        churn_seed in 0u64..100,
        registers in 0usize..4,
        retires in 0usize..4,
        workers_ix in 0usize..3,
    ) {
        let workers = [1usize, 4, 8][workers_ix];
        let (w, levels) = fixture();
        let trace = zipf_trace(w, &TraceConfig {
            seed,
            sessions: 6,
            requests_per_session: 4,
            ..TraceConfig::default()
        });
        let churned = with_churn(w, trace, &ChurnConfig {
            seed: churn_seed,
            registers,
            retires,
        });
        let config = ServeConfig::default();
        let mut sequential =
            ServeEngine::with_levels(w.clone(), levels.clone(), model(), config);
        let mut parallel = ServeEngine::with_levels(w.clone(), levels.clone(), model(), config);
        let a = sequential.process_trace(&churned, 1).expect("sequential");
        let b = parallel.process_trace(&churned, workers).expect("parallel");
        prop_assert_eq!(a.deterministic_view(), b.deterministic_view());
        prop_assert_eq!(a.catalog.clone(), b.catalog.clone());

        let ck = sequential.checkpoint();
        let snapshot = Snapshot::parse(&ck).expect("parse checkpoint");
        let restored = ServeEngine::from_checkpoint(&snapshot, w.clone(), model(), config)
            .expect("restore churned checkpoint");
        prop_assert_eq!(restored.checkpoint(), ck);
    }
}

// ---------------------------------------------------------------------
// Fleet tenancy: N isolated catalogs in one engine (FleetEngine).
// ---------------------------------------------------------------------

use crate::{FleetConfig, FleetEngine, FleetSubmitError, RequestEvent, StreamMeta, StreamRequest};
use lim_workloads::trace::{ChurnEvent, ChurnOp};
use std::sync::Arc;

/// A multi-tenant trace over the shared fixture workload.
fn fleet_trace(
    tenants: usize,
    tenant_skew: f64,
    seed: u64,
    sessions: usize,
    arrivals: ArrivalProcess,
) -> SessionTrace {
    let (w, _) = fixture();
    zipf_trace(
        w,
        &TraceConfig {
            seed,
            sessions,
            requests_per_session: 5,
            arrivals,
            tenants,
            tenant_skew,
            ..TraceConfig::default()
        },
    )
}

/// A fleet over the shared fixture levels — one COW `SearchLevels`
/// shared by every tenant, exactly like the CLI's shared-build boot.
fn fleet_with(config: FleetConfig) -> FleetEngine {
    let (w, levels) = fixture();
    FleetEngine::with_shared(
        Arc::new(w.clone()),
        Arc::new(levels.clone()),
        model(),
        config,
    )
    .expect("valid fleet config")
}

fn fleet_for(tenants: usize, base: ServeConfig) -> FleetEngine {
    fleet_with(FleetConfig::new(tenants, base))
}

/// Streams `trace` in canonical order through any session shape — one
/// drain per trace session, churn applied at its recorded position —
/// and returns every event in emission order (the final tail excluded).
fn stream_trace_events<S>(
    trace: &SessionTrace,
    stream: &mut S,
    mut submit: impl FnMut(&mut S, u64, StreamRequest),
    mut churn: impl FnMut(&mut S, &ChurnEvent) -> Vec<RequestEvent>,
    mut drain: impl FnMut(&mut S) -> Vec<RequestEvent>,
) -> Vec<RequestEvent> {
    let arrivals = trace.arrival_seconds();
    let mut events = Vec::new();
    let mut pending_churn = trace.churn.iter().peekable();
    let mut next = 0usize;
    for session in &trace.sessions {
        for &query_index in &session.query_indices {
            while let Some(event) = pending_churn.next_if(|e| e.after_requests <= next) {
                events.extend(churn(stream, event));
            }
            let request = StreamRequest {
                session: session.id,
                query_index,
                arrival_s: arrivals.as_ref().map(|a| a[next]),
            };
            submit(stream, session.tenant, request);
            next += 1;
        }
        events.extend(drain(stream));
    }
    for event in pending_churn {
        events.extend(churn(stream, event));
    }
    events
}

/// The N=1 equivalence gate: a one-tenant fleet is the single-tenant
/// engine — same aggregate report bit for bit (tolerance 0), same
/// per-request event sequence, same per-tenant breakdown, tenant 0
/// holds the entire cache budget, and its governor enforces the
/// configured cap and carbon budget bit for bit (no milli-unit
/// apportioning). Covered inputs: a closed-loop ungoverned trace, an
/// open-loop Poisson storm into a degrade queue under a non-round power
/// cap, and a churned trace with a non-round carbon budget.
#[test]
fn single_tenant_fleet_is_bit_identical_to_standalone_engine() {
    let (w, levels) = fixture();
    let closed = fleet_trace(1, 1.0, 21, 12, ArrivalProcess::BackToBack);
    let churned = with_churn(w, closed.clone(), &ChurnConfig::default());
    assert!(!churned.churn.is_empty());
    let budgeted = ServeConfig::builder()
        .governor(GovernorConfig {
            carbon_budget_g_per_h: 4.2731,
            ..GovernorConfig::default()
        })
        .build();
    let cases = [
        ("closed", closed, ServeConfig::default()),
        ("storm", storm_trace(), storm_config(11.8347)),
        ("churned", churned, budgeted),
    ];
    for (label, trace, config) in cases {
        let mut fleet = fleet_for(1, config);
        let mut stream = fleet.begin_stream(StreamMeta::of_trace(&trace), 4);
        let mut fleet_events = stream_trace_events(
            &trace,
            &mut stream,
            |s, tenant, request| {
                s.submit(tenant, request).expect("valid request");
            },
            |s, event| match &event.op {
                ChurnOp::Register(doc) => s.register_tool(event.tenant, doc).expect("register").1,
                ChurnOp::Retire(id) => s.retire_tool(event.tenant, *id).expect("retire"),
            },
            |s| s.drain(),
        );
        let (fleet_report, tail) = stream.finish_with_events();
        fleet_events.extend(tail);

        let mut solo = ServeEngine::with_levels(w.clone(), levels.clone(), model(), config);
        let mut stream = solo.begin_stream(StreamMeta::of_trace(&trace), 4);
        let mut solo_events = stream_trace_events(
            &trace,
            &mut stream,
            |s, _, request| {
                s.submit(request).expect("valid request");
            },
            |s, event| match &event.op {
                ChurnOp::Register(doc) => s.register_tool(doc).expect("register").1,
                ChurnOp::Retire(id) => s.retire_tool(*id).expect("retire"),
            },
            |s| s.drain(),
        );
        let (solo_report, tail) = stream.finish_with_events();
        solo_events.extend(tail);

        assert_eq!(
            fleet_report.overall.deterministic_view(),
            solo_report.deterministic_view(),
            "{label}: a one-tenant fleet must not perturb the single-engine numbers"
        );
        assert_eq!(fleet_events, solo_events, "{label}: event sequence");
        assert_eq!(fleet_events.len(), trace.requests(), "{label}");
        assert_eq!(fleet_report.tenants.len(), 1);
        let t0 = &fleet_report.tenants[0];
        assert_eq!(t0.tenant, 0);
        assert_eq!(
            t0.report.deterministic_view(),
            solo_report.deterministic_view(),
            "{label}: tenant breakdown"
        );
        // The sole tenant owns the whole budget; its floor is the clamped
        // quarter-share.
        assert_eq!(t0.embed_capacity, config.embed_cache_capacity);
        assert_eq!(t0.memo_capacity, config.memo_capacity);
        assert_eq!(t0.embed_floor, fleet.config().effective_embed_floor());
        assert_eq!(
            fleet.power_caps_w()[0].to_bits(),
            config.governor.power_cap_w.to_bits(),
            "{label}: cap enforced as configured"
        );
        assert_eq!(
            fleet.tenant_engine(0).config.governor,
            config.governor,
            "{label}: governor knobs enforced as configured"
        );
    }
}

/// Chopping a fleet stream one request at a time — draining between
/// every two submissions — reproduces the batch replay bit for bit, and
/// emits exactly one event per request across the chop points.
#[test]
fn fleet_stream_chopped_per_request_matches_batch_replay() {
    let trace = fleet_trace(3, 1.2, 33, 10, ArrivalProcess::BackToBack);
    let mut batch = fleet_for(3, ServeConfig::default());
    let expected = batch.process_trace(&trace, 2).expect("batch replay");

    let mut fleet = fleet_for(3, ServeConfig::default());
    let mut stream = fleet.begin_stream(
        StreamMeta {
            trace_seed: trace.seed,
            zipf_s: trace.zipf_s,
            arrivals: trace.arrivals,
            sessions: Some(trace.sessions.len()),
        },
        2,
    );
    let mut events = 0usize;
    for session in &trace.sessions {
        for &query_index in &session.query_indices {
            stream
                .submit(
                    session.tenant,
                    StreamRequest {
                        session: session.id,
                        query_index,
                        arrival_s: None,
                    },
                )
                .expect("valid request");
            events += stream.drain().len();
        }
    }
    let (report, tail) = stream.finish_with_events();
    events += tail.len();
    assert_eq!(events, trace.requests(), "one event per request");
    assert_eq!(report.deterministic_view(), expected.deterministic_view());
}

/// A request naming a tenant the fleet does not serve is refused with
/// the typed error — and the stream *survives*: the very next valid
/// submission is accepted and counted. This is the library-level
/// contract behind the wire front-end's non-fatal `error` frame.
#[test]
fn unknown_tenant_submission_is_typed_and_does_not_kill_the_stream() {
    let mut fleet = fleet_for(2, ServeConfig::default());
    let mut stream = fleet.begin_stream(
        StreamMeta {
            trace_seed: 1,
            zipf_s: 1.0,
            arrivals: ArrivalProcess::BackToBack,
            sessions: None,
        },
        1,
    );
    let err = stream
        .submit(
            9,
            StreamRequest {
                session: 1,
                query_index: 0,
                arrival_s: None,
            },
        )
        .expect_err("tenant 9 of 2 must be refused");
    assert!(
        matches!(
            err,
            FleetSubmitError::UnknownTenant {
                tenant: 9,
                tenants: 2
            }
        ),
        "{err:?}"
    );
    assert_eq!(err.to_string(), "unknown tenant 9 (fleet serves 0..2)");
    stream
        .submit(
            0,
            StreamRequest {
                session: 1,
                query_index: 0,
                arrival_s: None,
            },
        )
        .expect("the stream keeps accepting after a refused tenant");
    let report = stream.finish();
    assert_eq!(report.overall.requests, 1);
    assert_eq!(report.tenants[0].report.requests, 1);
    assert_eq!(report.tenants[1].report.requests, 0);
}

/// The isolation battery: a hot tenant drawing ~an order of magnitude
/// more traffic than a cold one, under a Poisson storm against a
/// bounded Reject queue, cannot
///   1. push the cold tenant's cache slices below the QoS floors, nor
///   2. push the cold tenant's shed count above the single-tenant
///      baseline (the *same* sub-trace replayed on a dedicated engine).
#[test]
fn hot_tenant_cannot_starve_cold_tenant_caches_or_shed_budget() {
    let (w, levels) = fixture();
    let trace = fleet_trace(2, 3.5, 71, 24, ArrivalProcess::Poisson { rate_rps: 2.0 });
    let per_tenant = |t: u64| {
        trace
            .sessions
            .iter()
            .filter(|s| s.tenant == t)
            .map(|s| s.query_indices.len())
            .sum::<usize>()
    };
    let (hot_requests, cold_requests) = (per_tenant(0), per_tenant(1));
    assert!(
        hot_requests >= 5 * cold_requests.max(1),
        "skew 3.5 must make tenant 0 dominate: {hot_requests} vs {cold_requests}"
    );

    let base = ServeConfig::builder()
        .admission(AdmissionConfig {
            queue_depth: 6,
            servers: 1,
            shed_policy: ShedPolicy::Reject,
        })
        .build();
    let mut fleet = fleet_for(2, base);
    let report = fleet.process_trace(&trace, 4).expect("fleet replay");
    let hot = &report.tenants[0];
    let cold = &report.tenants[1];

    // The storm is real: the hot tenant overruns *its own* queue bound.
    assert!(
        hot.report.admission.shed > 0,
        "the hot tenant must shed under this storm (got {:?})",
        hot.report.admission
    );

    // (1) Cache floors: traffic-weighted rebalancing can shrink the cold
    // tenant's slices, but never below the guaranteed minimum — and the
    // hot tenant is the one the spare flows to.
    let fc = fleet.config();
    assert!(cold.embed_capacity >= fc.effective_embed_floor());
    assert!(cold.memo_capacity >= fc.effective_memo_floor());
    assert_eq!(cold.embed_floor, fc.effective_embed_floor());
    assert!(
        hot.embed_capacity > cold.embed_capacity,
        "spare capacity must follow traffic: hot {} vs cold {}",
        hot.embed_capacity,
        cold.embed_capacity
    );

    // (2) Shed budget: the cold tenant does no worse than it would on a
    // dedicated single-tenant engine replaying its own sub-trace.
    let solo_trace = trace.tenant_subtrace(1);
    assert_eq!(solo_trace.requests(), cold_requests);
    let mut solo = ServeEngine::with_levels(w.clone(), levels.clone(), model(), base);
    let solo_report = solo.process_trace(&solo_trace, 4).expect("solo replay");
    assert!(
        cold.report.admission.shed <= solo_report.admission.shed,
        "fleet must not shed more cold-tenant requests ({}) than the \
         dedicated baseline ({})",
        cold.report.admission.shed,
        solo_report.admission.shed
    );
}

/// A restored fleet is *warm*: replaying the very trace that produced a
/// checkpoint costs zero embedding-cache and zero memo misses, for the
/// aggregate and for every tenant.
#[test]
fn fleet_checkpoint_boot_replays_with_zero_cache_misses() {
    let trace = fleet_trace(3, 1.5, 41, 9, ArrivalProcess::BackToBack);
    let mut config = FleetConfig::new(3, ServeConfig::default());
    // Pin the partition so the warm replay measures cache state, not a
    // rebalance-induced resize.
    config.rebalance_every = 1 << 20;
    let mut live = fleet_with(config);
    let cold = live.process_trace(&trace, 2).expect("cold replay");
    assert!(cold.overall.embed_cache.misses > 0, "cold replay must miss");

    let bytes = live.checkpoint();
    assert_eq!(
        bytes,
        live.checkpoint(),
        "checkpoints are byte-deterministic"
    );
    let snapshot = Snapshot::parse(&bytes).expect("valid checkpoint");
    let (w, _) = fixture();
    let mut restored =
        FleetEngine::from_checkpoint(&snapshot, w.clone(), model(), config).expect("fleet restore");
    let warm = restored.process_trace(&trace, 2).expect("warm replay");
    assert_eq!(
        warm.overall.embed_cache.misses, 0,
        "warm fleet must not miss"
    );
    assert_eq!(warm.overall.selection_memo.misses, 0);
    for tenant in &warm.tenants {
        assert_eq!(
            tenant.report.embed_cache.misses, 0,
            "tenant {} missed after a warm boot",
            tenant.tenant
        );
    }
    // Accuracy is boot-invariant.
    assert_eq!(cold.overall.success_rate, warm.overall.success_rate);
    assert_eq!(cold.overall.tool_accuracy, warm.overall.tool_accuracy);
}

/// Mid-stream fleet restore: checkpoint after a trace prefix, boot a
/// fresh fleet from the file, and the suffix replays bit-identically to
/// the fleet that never went down — per tenant included.
#[test]
fn fleet_restore_midstream_replays_suffix_bit_identical_to_uninterrupted() {
    let trace = fleet_trace(3, 1.2, 47, 12, ArrivalProcess::BackToBack);
    let (prefix, suffix) = split_trace(&trace, trace.requests() / 2);
    let config = FleetConfig::new(3, ServeConfig::default());

    let mut continuous = fleet_with(config);
    let mut interrupted = fleet_with(config);
    continuous.process_trace(&prefix, 3).expect("prefix");
    interrupted.process_trace(&prefix, 3).expect("prefix");

    let snapshot = Snapshot::parse(&interrupted.checkpoint()).expect("valid checkpoint");
    let (w, _) = fixture();
    let mut restored =
        FleetEngine::from_checkpoint(&snapshot, w.clone(), model(), config).expect("fleet restore");

    let expected = continuous.process_trace(&suffix, 3).expect("suffix");
    let actual = restored.process_trace(&suffix, 3).expect("suffix");
    assert_eq!(expected.deterministic_view(), actual.deterministic_view());
}

/// Re-encodes a fleet checkpoint with optional hostile edits: a
/// replacement `tenants` header, a section-name rewrite, or a
/// duplicated section. The identity rebuild must restore cleanly — the
/// rejections below are the tamper, not the harness.
fn reencoded_fleet_checkpoint(
    snapshot: &Snapshot,
    tenants_header: Option<lim_json::Value>,
    rename: &dyn Fn(&str) -> String,
    duplicate: Option<&str>,
) -> Vec<u8> {
    let mut writer = lim_core::SnapshotWriter::new("checkpoint");
    for key in ["benchmark", "tool_count", "pool_size", "train_size", "dim"] {
        writer.header_field(
            key,
            snapshot.header_field(key).expect("header field").clone(),
        );
    }
    let tenants = tenants_header.unwrap_or_else(|| {
        snapshot
            .header_field("tenants")
            .expect("tenants header")
            .clone()
    });
    writer.header_field("tenants", tenants);
    for name in snapshot.section_names() {
        let doc = snapshot.section(name).expect("section decodes").clone();
        writer.add_section(&rename(name), &doc);
        if duplicate == Some(name) {
            writer.add_section(&rename(name), &doc);
        }
    }
    writer.encode()
}

/// Hostile snapshot inputs fail safe with *typed* errors, in both
/// directions and for every tamper class the fleet header introduces:
/// single-engine files offered to a fleet boot, fleet files offered to
/// a single-engine boot, sections for tenants the header never
/// declared, non-positive tenant headers, tenant-count mismatches, and
/// duplicated sections.
#[test]
fn hostile_fleet_checkpoints_are_rejected_with_typed_errors() {
    let (w, levels) = fixture();
    let keep = |name: &str| name.to_owned();

    // A single-engine checkpoint is not a fleet checkpoint: no tenants
    // header -> SnapshotError::Header, stream-level state untouched.
    let mut single =
        ServeEngine::with_levels(w.clone(), levels.clone(), model(), ServeConfig::default());
    let solo_trace = fleet_trace(1, 1.0, 3, 4, ArrivalProcess::BackToBack);
    single.process_trace(&solo_trace, 1).expect("solo replay");
    let solo_snapshot = Snapshot::parse(&single.checkpoint()).expect("valid checkpoint");
    let err = FleetEngine::from_checkpoint(
        &solo_snapshot,
        w.clone(),
        model(),
        FleetConfig::new(1, ServeConfig::default()),
    )
    .expect_err("a fleet must not boot from a single-engine file");
    assert!(matches!(err, SnapshotError::Header(_)), "{err:?}");

    // Build a real 2-tenant checkpoint to tamper with.
    let trace = fleet_trace(2, 1.0, 4, 6, ArrivalProcess::BackToBack);
    let config = FleetConfig::new(2, ServeConfig::default());
    let mut fleet = fleet_with(config);
    fleet.process_trace(&trace, 1).expect("fleet replay");
    let snapshot = Snapshot::parse(&fleet.checkpoint()).expect("valid checkpoint");

    // The identity rebuild restores — the harness itself is sound.
    let clean = reencoded_fleet_checkpoint(&snapshot, None, &keep, None);
    let reparsed = Snapshot::parse(&clean).expect("clean re-encode parses");
    FleetEngine::from_checkpoint(&reparsed, w.clone(), model(), config)
        .expect("clean re-encode restores");

    // The mirror direction: a fleet file offered to a single-engine
    // boot — its fleet/t{i}.* sections are strangers.
    let err = ServeEngine::from_checkpoint(&snapshot, w.clone(), model(), ServeConfig::default())
        .expect_err("a single engine must not boot from a fleet file");
    assert!(matches!(err, SnapshotError::UnknownSection(_)), "{err:?}");

    // A section for a tenant the header does not declare: t1 -> t9.
    let moved =
        reencoded_fleet_checkpoint(&snapshot, None, &|name| name.replace("t1.", "t9."), None);
    let moved = Snapshot::parse(&moved).expect("tampered file still parses");
    let err = FleetEngine::from_checkpoint(&moved, w.clone(), model(), config)
        .expect_err("out-of-range tenant sections must be refused");
    match &err {
        SnapshotError::UnknownSection(name) => assert!(name.starts_with("t9."), "{name}"),
        other => panic!("expected UnknownSection, got {other:?}"),
    }

    // A non-positive tenants header.
    let zeroed = reencoded_fleet_checkpoint(&snapshot, Some(lim_json::Value::from(0)), &keep, None);
    let zeroed = Snapshot::parse(&zeroed).expect("tampered file still parses");
    let err = FleetEngine::from_checkpoint(&zeroed, w.clone(), model(), config)
        .expect_err("tenants: 0 must be refused");
    assert!(matches!(err, SnapshotError::Header(_)), "{err:?}");

    // A tenant-count disagreement between file and boot config.
    let err = FleetEngine::from_checkpoint(
        &snapshot,
        w.clone(),
        model(),
        FleetConfig::new(3, ServeConfig::default()),
    )
    .expect_err("2-tenant file vs 3-tenant config must be refused");
    assert!(matches!(err, SnapshotError::Mismatch(_)), "{err:?}");

    // Duplicated sections never even parse.
    let doubled =
        reencoded_fleet_checkpoint(&snapshot, None, &keep, Some(crate::snapshot::SECTION_FLEET));
    let err = Snapshot::parse(&doubled).expect_err("duplicate sections must not parse");
    assert!(err.to_string().contains("duplicate"), "{err}");
}

proptest! {
    /// The fleet acceptance property: for random seeds, tenant counts
    /// {1, 3, 8}, traffic skews, Poisson storms and per-tenant churn,
    /// the multi-tenant replay is bit-identical between the sequential
    /// and any parallel worker count — the aggregate *and* every
    /// per-tenant breakdown.
    #[test]
    fn fleet_replay_bit_identical_for_any_worker_count(
        seed in 0u64..50,
        tenants_ix in 0usize..3,
        skew_centi in 0u64..250,
        workers_ix in 0usize..2,
        storm in 0usize..2,
        churn in 0usize..2,
    ) {
        let tenants = [1usize, 3, 8][tenants_ix];
        let workers = [4usize, 8][workers_ix];
        let (w, _) = fixture();
        let arrivals = if storm == 1 {
            ArrivalProcess::Poisson { rate_rps: 8.0 }
        } else {
            ArrivalProcess::BackToBack
        };
        let mut trace = zipf_trace(w, &TraceConfig {
            seed,
            sessions: 8,
            requests_per_session: 4,
            arrivals,
            tenants,
            tenant_skew: skew_centi as f64 / 100.0,
            ..TraceConfig::default()
        });
        if churn == 1 {
            trace = lim_workloads::churn::with_tenant_churn(w, trace, &ChurnConfig {
                seed: seed ^ 0x9e37,
                registers: 2,
                retires: 1,
            });
        }
        let base = if storm == 1 {
            ServeConfig::builder()
                .admission(AdmissionConfig {
                    queue_depth: 4,
                    servers: 1,
                    shed_policy: ShedPolicy::Reject,
                })
                .build()
        } else {
            ServeConfig::default()
        };
        let mut sequential = fleet_for(tenants, base);
        let mut parallel = fleet_for(tenants, base);
        let a = sequential.process_trace(&trace, 1).expect("sequential");
        let b = parallel.process_trace(&trace, workers).expect("parallel");
        prop_assert_eq!(a.deterministic_view(), b.deterministic_view());
        // Requests route to exactly the tenants the trace names.
        let routed: usize = a.tenants.iter().map(|t| t.report.requests).sum();
        prop_assert_eq!(routed, trace.requests());
    }
}

// ---------------------------------------------------------------------
// Energy governor: capped storms, degenerate caps, idle-wait billing,
// and governed determinism across workers and restarts.

/// The acceptance storm: Poisson arrivals at 0.06 rps — arrival-limited
/// against two simulated executors — into a depth-12 degrade queue,
/// served at Q8_0 so the Economy rung (Q8_0 → Q4_K_M, a halved
/// bit-width) has a real joules gap to descend into. The low rate keeps
/// the queue shallow (no degraded floor-catalog spikes) and makes the
/// window-basis draw something the quant ladder can actually steer; a
/// server-limited flood would shed its way to the same sustained watts
/// no matter what the governor does.
fn storm_trace() -> SessionTrace {
    let (w, _) = fixture();
    zipf_trace(
        w,
        &TraceConfig {
            seed: 11,
            sessions: 24,
            requests_per_session: 8,
            arrivals: ArrivalProcess::Poisson { rate_rps: 0.06 },
            ..TraceConfig::default()
        },
    )
}

fn storm_config(power_cap_w: f64) -> ServeConfig {
    ServeConfig::builder()
        .quant(Quant::Q8_0)
        .admission(AdmissionConfig {
            queue_depth: 12,
            servers: 2,
            shed_policy: ShedPolicy::Degrade,
        })
        .governor(GovernorConfig {
            power_cap_w,
            // Long relative to the storm's Poisson clumps, so a burst
            // admitted during an Economy hold cannot swing the average
            // over a cap the all-Economy draw itself respects.
            window_s: 600.0,
            ..GovernorConfig::default()
        })
        .build()
}

fn storm_replay(power_cap_w: f64, workers: usize) -> ServeReport {
    let (w, levels) = fixture();
    let mut engine = ServeEngine::with_levels(
        w.clone(),
        levels.clone(),
        model(),
        storm_config(power_cap_w),
    );
    engine
        .process_trace(&storm_trace(), workers)
        .expect("valid trace")
}

/// Success rate of serving every request of `trace` at the
/// [`lim_core::ServiceLevel::Floor`] rung — the selection-free full
/// catalog, i.e. the always-Level-3 baseline the governed replay must
/// never fall below.
fn always_floor_success_rate(trace: &SessionTrace, config: &ServeConfig) -> f64 {
    let (w, levels) = fixture();
    let profile = model();
    let pipeline = lim_core::Pipeline::new(w, levels, &profile, config.quant)
        .with_seed(config.seed)
        .with_device(config.device.profile());
    let controller = lim_core::ToolController::new(levels, Default::default());
    let selection =
        lim_core::ServicePolicy::actuate(&controller, lim_core::ServiceLevel::Floor, &[]);
    let mut successes = 0usize;
    let mut total = 0usize;
    for session in &trace.sessions {
        for &q in &session.query_indices {
            total += 1;
            let result = pipeline.run_query_offered(
                &w.queries[q],
                &selection.tool_indices,
                lim_core::DEFAULT_CONTEXT,
            );
            if result.success {
                successes += 1;
            }
        }
    }
    successes as f64 / total.max(1) as f64
}

/// The PR acceptance test: a Poisson storm replayed under a power cap
/// set below the uncapped sustained draw (1) completes, (2) keeps the
/// window-basis sustained watts under the cap, (3) actually transitions
/// rungs, (4) never falls below the always-Level-3 accuracy floor, and
/// (5) is bit-identical for workers {1, 4, 8}.
#[test]
fn governed_storm_caps_watts_and_holds_the_accuracy_floor() {
    let uncapped = storm_replay(0.0, 4);
    assert_eq!(uncapped.energy.governor_transitions, 0);
    assert!(
        uncapped.energy.sustained_watts_max > 0.0,
        "the estimator runs even uncapped"
    );

    // 95% of uncapped: below the uncapped peak, above the all-Economy
    // sustained peak. A two-rung quant ladder can only guarantee caps in
    // that band — during an Economy hold there is no cheaper rung left,
    // so arrivals admit unchecked at the Economy rate (see the module
    // docs on `lim_serve::governor` for the compliance-band argument).
    let cap = 0.95 * uncapped.energy.sustained_watts_max;
    let governed = storm_replay(cap, 1);
    for workers in [4, 8] {
        let other = storm_replay(cap, workers);
        assert_eq!(
            governed.deterministic_view(),
            other.deterministic_view(),
            "workers={workers}"
        );
    }

    assert!(
        governed.energy.governor_transitions >= 1,
        "a cap below uncapped draw must actuate (transitions={})",
        governed.energy.governor_transitions
    );
    assert!(
        governed.energy.sustained_watts_max <= cap,
        "sustained {:.3} W must stay under the {:.3} W cap",
        governed.energy.sustained_watts_max,
        cap
    );
    assert!(governed.energy.sustained_watts_max < uncapped.energy.sustained_watts_max);

    // Degrade absorbs the storm: nothing sheds, so `success_rate` is an
    // executed-request accuracy and compares directly to the floor.
    assert_eq!(
        governed.admission.shed, 0,
        "depth-12 degrade queue absorbs this storm"
    );
    let floor = always_floor_success_rate(&storm_trace(), &storm_config(cap));
    assert!(
        governed.success_rate >= floor,
        "governed accuracy {:.4} must not fall below the always-Floor baseline {:.4}",
        governed.success_rate,
        floor
    );
}

/// Degenerate caps (zero, negative, infinite, NaN) normalize to an
/// inactive governor whose replay is *byte*-identical — serialized JSON
/// compared as strings — to the ungoverned engine's.
#[test]
fn degenerate_caps_serve_byte_identically_to_ungoverned() {
    let (w, trace) = bfcl_trace(120, 7, 24);
    let trace = trace.with_arrivals(ArrivalProcess::Poisson { rate_rps: 25.0 });
    let admission = AdmissionConfig {
        queue_depth: 8,
        servers: 1,
        shed_policy: ShedPolicy::Degrade,
    };
    let baseline_config = ServeConfig::builder().admission(admission).build();
    let mut baseline_engine = ServeEngine::new(w.clone(), model(), baseline_config);
    let baseline = baseline_engine
        .process_trace(&trace, 2)
        .expect("valid trace")
        .deterministic_view()
        .to_json()
        .to_string();
    for cap in [0.0, -5.0, f64::INFINITY, f64::NAN] {
        let config = ServeConfig::builder()
            .admission(admission)
            .governor(GovernorConfig {
                power_cap_w: cap,
                ..GovernorConfig::default()
            })
            .build();
        let mut engine = ServeEngine::new(w.clone(), model(), config);
        let report = engine
            .process_trace(&trace, 2)
            .expect("valid trace")
            .deterministic_view()
            .to_json()
            .to_string();
        assert_eq!(baseline, report, "cap={cap}");
    }
}

/// Queue waits bill the device's idle draw into per-request joules:
/// the same requests replayed under congestion cost exactly
/// `idle_power_w × queue wait` more than under a relaxed arrival rate.
#[test]
fn queue_wait_bills_idle_draw_into_request_joules() {
    let (w, trace) = bfcl_trace(80, 3, 24);
    // Unbounded-in-practice queue: both replays admit everything, so
    // the executed sets (and their execution joules) are identical and
    // only the waits differ.
    let admission = AdmissionConfig {
        queue_depth: 10_000,
        servers: 1,
        shed_policy: ShedPolicy::Reject,
    };
    let config = ServeConfig::builder().admission(admission).build();
    let run = |rate_rps: f64| -> ServeReport {
        let trace = trace
            .clone()
            .with_arrivals(ArrivalProcess::Poisson { rate_rps });
        let mut engine = ServeEngine::new(w.clone(), model(), config);
        engine.process_trace(&trace, 2).expect("valid trace")
    };
    let congested = run(30.0);
    let relaxed = run(0.001);
    assert_eq!(congested.admission.shed, 0);
    assert_eq!(relaxed.admission.shed, 0);
    assert_eq!(congested.admission.degraded, 0);
    assert!(
        congested.admission.queue_wait.mean_s > relaxed.admission.queue_wait.mean_s,
        "30 rps into one executor must queue"
    );

    let idle_w = config.device.profile().idle_power_w();
    let expected = relaxed.energy.joules_per_request.mean_s
        + idle_w * (congested.admission.queue_wait.mean_s - relaxed.admission.queue_wait.mean_s);
    let actual = congested.energy.joules_per_request.mean_s;
    assert!(
        (actual - expected).abs() <= 1e-9 * expected.max(1.0),
        "mean joules {actual:.9} must equal execution + idle×wait = {expected:.9}"
    );
}

/// Splits a trace at a global request index like [`split_trace`], but
/// preserves the arrival timestamps — governed replays live on the
/// virtual arrival clock, so the suffix must keep its stamps.
fn split_trace_with_arrivals(trace: &SessionTrace, index: usize) -> (SessionTrace, SessionTrace) {
    let mut prefix = SessionTrace {
        sessions: Vec::new(),
        ..trace.clone()
    };
    let mut suffix = prefix.clone();
    let mut remaining = index;
    for session in &trace.sessions {
        let n = session.query_indices.len();
        let take = remaining.min(n);
        remaining -= take;
        if take > 0 {
            prefix.sessions.push(TraceSession {
                id: session.id,
                tenant: session.tenant,
                query_indices: session.query_indices[..take].to_vec(),
                arrival_us: session.arrival_us[..take].to_vec(),
            });
        }
        if take < n {
            suffix.sessions.push(TraceSession {
                id: session.id,
                tenant: session.tenant,
                query_indices: session.query_indices[take..].to_vec(),
                arrival_us: session.arrival_us[take..].to_vec(),
            });
        }
    }
    (prefix, suffix)
}

/// Governed checkpoint determinism: checkpointing a capped storm after
/// any prefix and restoring into a fresh process replays the suffix to
/// the byte — the governor's rung, clock and window survive the
/// restart.
#[test]
fn governed_checkpoint_restore_replays_suffix_bit_identically() {
    let (w, levels) = fixture();
    let trace = storm_trace();
    let uncapped = storm_replay(0.0, 4);
    let config = storm_config(0.95 * uncapped.energy.sustained_watts_max);
    for split_index in [1, 57, 130, trace.requests() - 1] {
        let (prefix, suffix) = split_trace_with_arrivals(&trace, split_index);
        let mut continuous = ServeEngine::with_levels(w.clone(), levels.clone(), model(), config);
        let mut interrupted = ServeEngine::with_levels(w.clone(), levels.clone(), model(), config);
        if !prefix.sessions.is_empty() {
            continuous.process_trace(&prefix, 4).expect("prefix");
            interrupted.process_trace(&prefix, 4).expect("prefix");
        }
        let bytes = interrupted.checkpoint();
        assert_eq!(bytes, interrupted.checkpoint());
        let snapshot = Snapshot::parse(&bytes).expect("valid checkpoint");
        let mut restored = ServeEngine::from_checkpoint(&snapshot, w.clone(), model(), config)
            .expect("restore succeeds");
        let expected = continuous.process_trace(&suffix, 4).expect("suffix");
        let actual = restored.process_trace(&suffix, 4).expect("suffix");
        assert_eq!(
            expected.deterministic_view(),
            actual.deterministic_view(),
            "split={split_index}"
        );
    }
}

/// A governed 3-tenant fleet storm is bit-identical across worker
/// counts, and the overall report's transition count is the sum of the
/// per-tenant governors'.
#[test]
fn governed_fleet_storm_is_bit_identical_and_sums_tenant_transitions() {
    let trace = fleet_trace(3, 1.0, 23, 18, ArrivalProcess::Poisson { rate_rps: 40.0 });
    let run = |workers: usize| {
        let base = ServeConfig::builder()
            .quant(Quant::Q8_0)
            .admission(AdmissionConfig {
                queue_depth: 6,
                servers: 2,
                shed_policy: ShedPolicy::Degrade,
            })
            .governor(GovernorConfig {
                power_cap_w: 18.0,
                window_s: 20.0,
                ..GovernorConfig::default()
            })
            .build();
        let mut fleet = fleet_for(3, base);
        fleet.process_trace(&trace, workers).expect("fleet replay")
    };
    let baseline = run(1);
    for workers in [4, 8] {
        let other = run(workers);
        assert_eq!(
            baseline.deterministic_view(),
            other.deterministic_view(),
            "workers={workers}"
        );
    }
    let tenant_sum: u64 = baseline
        .tenants
        .iter()
        .map(|t| t.report.energy.governor_transitions)
        .sum();
    assert_eq!(baseline.overall.energy.governor_transitions, tenant_sum);
    // The overall report and the tenant cells fold the same records.
    let sum =
        |f: fn(&ServeReport) -> u64| -> u64 { baseline.tenants.iter().map(|t| f(&t.report)).sum() };
    let overall = &baseline.overall;
    assert_eq!(sum(|r| r.requests as u64), overall.requests as u64);
    assert_eq!(sum(|r| r.admission.admitted), overall.admission.admitted);
    assert_eq!(sum(|r| r.admission.degraded), overall.admission.degraded);
    assert_eq!(sum(|r| r.admission.shed), overall.admission.shed);
    assert!(baseline
        .tenants
        .iter()
        .all(|t| t.report.admission.max_queue_depth <= overall.admission.max_queue_depth));
    // The overall report shows the fleet-wide knobs, not a tenant slice.
    assert_eq!(baseline.overall.energy.power_cap_w, 18.0);
    let slice_sum: f64 = baseline
        .tenants
        .iter()
        .map(|t| t.report.energy.power_cap_w)
        .sum();
    assert!(
        (slice_sum - 18.0).abs() < 1e-6,
        "apportioned tenant cap slices {slice_sum} must sum to the fleet cap"
    );
}

proptest! {
    /// Governed determinism: for random power caps (including off),
    /// carbon seeds and carbon budgets, replays agree bit for bit
    /// across worker counts.
    #[test]
    fn governed_replay_deterministic_for_any_worker_count(
        seed in 0u64..100,
        workers in 2usize..9,
        cap_deciwatts in 0u32..300,
        carbon_seed in 0u64..8,
        budget_centigrams in 0u32..200,
    ) {
        let (w, levels) = fixture();
        let trace = zipf_trace(w, &TraceConfig {
            seed,
            sessions: 6,
            requests_per_session: 5,
            arrivals: ArrivalProcess::Poisson { rate_rps: 40.0 },
            ..TraceConfig::default()
        });
        let config = ServeConfig::builder()
            .quant(Quant::Q8_0)
            .admission(AdmissionConfig {
                queue_depth: 6,
                servers: 2,
                shed_policy: ShedPolicy::Degrade,
            })
            .governor(GovernorConfig {
                power_cap_w: cap_deciwatts as f64 / 10.0,
                window_s: 20.0,
                carbon_seed,
                carbon_budget_g_per_h: budget_centigrams as f64 / 100.0,
            })
            .build();
        let mut sequential =
            ServeEngine::with_levels(w.clone(), levels.clone(), model(), config);
        let mut parallel = ServeEngine::with_levels(w.clone(), levels.clone(), model(), config);
        let a = sequential.process_trace(&trace, 1).expect("valid trace");
        let b = parallel.process_trace(&trace, workers).expect("valid trace");
        prop_assert_eq!(a.deterministic_view(), b.deterministic_view());
    }
}

/// A closed-loop stream has no arrival clock, so nothing would ever
/// leave a sustained-watts window: neither a tenant governor nor the
/// fleet-wide estimator observes it. However long the stream, every
/// window stays empty, the checkpointed governor state is the same
/// bytes, and the report's sustained watts read 0.
#[test]
fn closed_loop_streams_leave_every_governor_window_empty() {
    use crate::snapshot::SECTION_GOVERNOR;
    let (w, levels) = fixture();
    let governor_section = |requests: usize| {
        let mut engine =
            ServeEngine::with_levels(w.clone(), levels.clone(), model(), ServeConfig::default());
        let mut stream = engine.begin_stream(
            StreamMeta {
                trace_seed: 5,
                zipf_s: 1.0,
                arrivals: ArrivalProcess::BackToBack,
                sessions: None,
            },
            2,
        );
        for i in 0..requests {
            stream
                .submit(StreamRequest {
                    session: (i % 64) as u64,
                    query_index: (i * 7) % w.queries.len(),
                    arrival_s: None,
                })
                .expect("valid request");
            if i % 256 == 255 {
                stream.drain();
            }
        }
        let report = stream.finish();
        assert_eq!(report.requests, requests);
        assert_eq!(report.energy.sustained_watts_max, 0.0);
        assert!(engine.governor.window().is_empty(), "requests={requests}");
        Snapshot::parse(&engine.checkpoint())
            .expect("valid checkpoint")
            .section(SECTION_GOVERNOR)
            .expect("governor section decodes")
            .to_string()
    };
    assert_eq!(governor_section(512), governor_section(4096));

    let mut fleet = fleet_for(2, ServeConfig::default());
    let report = fleet
        .process_trace(&fleet_trace(2, 1.0, 5, 64, ArrivalProcess::BackToBack), 2)
        .expect("valid trace");
    assert!(fleet.estimator.window().is_empty());
    for engine in &fleet.engines {
        assert!(engine.governor.window().is_empty());
    }
    assert_eq!(report.overall.energy.sustained_watts_max, 0.0);
    assert_eq!(report.tenants.len(), 2);
    for tenant in &report.tenants {
        assert_eq!(tenant.report.energy.sustained_watts_max, 0.0);
    }
}
