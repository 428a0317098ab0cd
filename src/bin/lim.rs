//! `lim` — command-line front end to the Less-is-More reproduction.
//!
//! ```text
//! lim models                                     list model profiles
//! lim evaluate [options]                         run a policy over a benchmark
//! lim bench    [options] [--out FILE]            parallel policy sweep + BENCH_*.json
//! lim trace    [options] --query I               JSON execution trace of one query
//! lim levels   [options]                         build search levels, print their shape
//! lim snapshot build [options] --out FILE        write a lim/snapshot-v1 boot snapshot
//! lim snapshot inspect --snapshot FILE           print header + section table (no decode)
//! lim loadgen  [options] [--out FILE]            Zipf trace -> serving engine replay
//! lim serve    --trace FILE [options]            replay a saved session trace
//! lim serve    --stdin | --listen SOCKET         ingest a live lim/wire-v1 stream
//! lim wire     --trace FILE [--out FILE]         encode a trace as a wire stream
//! lim compare  --baseline A --current B          CI bench-regression gate
//!
//! common options:
//!   --benchmark bfcl|geoengine   (default bfcl)
//!   --model NAME                 (default llama3.1-8b)
//!   --quant f16|q4_0|q4_1|q4_K_M|q8_0   (default q4_K_M)
//!   --policy default|gorilla:K|lim:K    (default lim:3)
//!   --queries N                  (default 230)
//!   --seed S                     (default 20250331)
//!   --index flat|ivf|hnsw        Level-1 vector-index backend (default flat)
//!   --hnsw-m N --ef-construction N --ef-search N    HNSW graph knobs
//!
//! bench options:
//!   --threads N                  worker threads; 0 = all cores (default 0)
//!   --models a,b,c               models to sweep (default: the --model value)
//!   --quants q4_K_M,q8_0         quants to sweep (default: the --quant value)
//!   --policies default,lim:3     policies to sweep (default all four paper policies)
//!   --ann                        index-backend latency curve instead of the grid
//!   --catalogs 1000,10000        catalog sizes for the --ann sweep
//!   --out FILE                   write the BENCH_*.json document
//!
//! loadgen / serve options:
//!   --workers N                  serving workers; 0 = all cores (default 0)
//!   --zipf S                     Zipf exponent (default 1.0; loadgen only)
//!   --sessions N                 sessions to generate (default 64; loadgen only)
//!   --requests N                 mean requests per session (default 8; loadgen only)
//!   --arrivals SPEC              back-to-back | poisson:RATE | burst:RATE:SIZE
//!   --queue-depth N              bounded admission queue (0 = disabled; default 0)
//!   --shed-policy reject|degrade what to do when the queue fills (default reject)
//!   --servers N                  simulated executors draining the queue (default 1)
//!   --save-trace FILE            write the generated trace JSON (loadgen only)
//!   --trace FILE                 replay this trace JSON (serve/wire)
//!   --stdin                      serve: lim/wire-v1 frames on stdin/stdout
//!   --listen SOCKET              serve: lim/wire-v1 over a unix socket
//!   --out FILE                   write the BENCH_serve_*.json report
//!
//! compare options:
//!   --baseline FILE --current FILE   documents of the same schema
//!   --tolerance F                relative regression budget (default 0.10)
//! ```

use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use lessismore::cli::{self, Options};
use lessismore::core::{evaluate, normalize_against, LevelsConfig, Pipeline, Policy, SearchLevels};
use lessismore::llm::{profiles, ModelProfile, Quant};
use lessismore::workloads::trace::ArrivalProcess;
use lessismore::workloads::{bfcl, geoengine, Workload};

/// Set once stdout's reader has gone away or a write to it failed;
/// later output is dropped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);
/// Set when a write to stdout failed for a reason other than its reader
/// going away; `main` then exits 1 once the command has finished.
static STDOUT_FAILED: AtomicBool = AtomicBool::new(false);

/// The one stdout writer behind `out!` and `outln!`. No write error ends
/// the command early: the rest of the output is dropped, and the command
/// still finishes its work, so every file it was asked to write gets
/// written. A reader that closes early (`lim … | head`) is not a failure
/// and changes no exit code. Any other error is reported once, and `main`
/// exits 1 after the command.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        stdout_failed(e);
    }
}

/// Records a failed stdout write: output stops, and anything but a
/// closed reader makes the process exit 1 at the end.
fn stdout_failed(e: std::io::Error) {
    STDOUT_CLOSED.store(true, Ordering::Relaxed);
    if e.kind() != ErrorKind::BrokenPipe {
        eprintln!("error: cannot write to stdout: {e}");
        STDOUT_FAILED.store(true, Ordering::Relaxed);
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let code = run();
    if !STDOUT_CLOSED.load(Ordering::Relaxed) {
        if let Err(e) = std::io::stdout().lock().flush() {
            stdout_failed(e);
        }
    }
    if STDOUT_FAILED.load(Ordering::Relaxed) {
        return ExitCode::FAILURE;
    }
    code
}

fn run() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("usage: lim <models|evaluate|trace|levels> [options] (see --help)");
        return ExitCode::FAILURE;
    };
    if command == "--help" || command == "-h" || command == "help" {
        print_help();
        return ExitCode::SUCCESS;
    }
    // `snapshot` takes a verb (`build`/`inspect`) before its options, so
    // it dispatches before the flat flag parse.
    if command == "snapshot" {
        return cmd_snapshot(&args[1..]);
    }
    let options = match cli::parse(&args[1..]) {
        Ok(o) => o,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    match command.as_str() {
        "models" => cmd_models(),
        "evaluate" => cmd_evaluate(&options),
        "bench" => cmd_bench(&options),
        "trace" => cmd_trace(&options),
        "levels" => cmd_levels(&options),
        "loadgen" => cmd_loadgen(&options),
        "serve" => cmd_serve(&options),
        "wire" => cmd_wire(&options),
        "compare" => cmd_compare(&options),
        other => {
            eprintln!("unknown command {other:?}; try --help");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    outln!("{}", cli::help_text());
}

/// Builds the search levels on the backend selected by `--index`.
fn build_levels(options: &Options, workload: &Workload) -> SearchLevels {
    let config = LevelsConfig {
        index: options.index.spec(),
        ..LevelsConfig::default()
    };
    SearchLevels::build_with(workload, &config)
}

fn build_workload(options: &Options) -> Result<Workload, String> {
    build_workload_with(&options.benchmark, options.seed, options.queries)
}

fn build_workload_with(benchmark: &str, seed: u64, queries: usize) -> Result<Workload, String> {
    match benchmark {
        "bfcl" => Ok(bfcl(seed, queries)),
        "geoengine" | "geo" => Ok(geoengine(seed, queries)),
        other => Err(format!("unknown benchmark {other:?} (bfcl|geoengine)")),
    }
}

fn resolve_model(options: &Options) -> Result<ModelProfile, String> {
    ModelProfile::by_name(&options.model)
        .ok_or_else(|| format!("unknown model {:?}; run `lim models`", options.model))
}

fn cmd_models() -> ExitCode {
    outln!(
        "{:<16} {:>7} {:>9} {:>10} {:>12}",
        "name",
        "params",
        "tool-base",
        "arg-fid",
        "rec-quality"
    );
    for m in profiles::catalog() {
        outln!(
            "{:<16} {:>6.1}B {:>9.3} {:>10.3} {:>12.2}",
            m.name,
            m.arch.params_b,
            m.base_tool_competence,
            m.arg_fidelity,
            m.recommender_quality
        );
    }
    ExitCode::SUCCESS
}

fn cmd_evaluate(options: &Options) -> ExitCode {
    let (workload, model) = match (build_workload(options), resolve_model(options)) {
        (Ok(w), Ok(m)) => (w, m),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let levels = build_levels(options, &workload);
    let pipeline = Pipeline::new(&workload, &levels, &model, options.quant)
        .with_seed(options.seed)
        .with_device(options.energy.device.profile());
    let baseline = evaluate(&pipeline, Policy::Default);
    let metrics = evaluate(&pipeline, options.policy);
    let (time, power) = normalize_against(&baseline, &metrics);
    outln!(
        "benchmark={} model={} quant={} policy={} queries={}",
        workload.name,
        model.name,
        options.quant,
        options.policy.label(),
        metrics.queries
    );
    outln!("success rate       {:>8.2}%", 100.0 * metrics.success_rate);
    outln!("tool accuracy      {:>8.2}%", 100.0 * metrics.tool_accuracy);
    outln!(
        "avg exec time      {:>8.2} s (norm {:.2}x)",
        metrics.avg_seconds,
        time
    );
    outln!(
        "avg power          {:>8.2} W (norm {:.2}x)",
        metrics.avg_power_w,
        power
    );
    outln!("avg offered tools  {:>8.1}", metrics.avg_offered_tools);
    outln!(
        "level shares       L1 {:.0}% / L2 {:.0}% / L3 {:.0}%  fallback {:.0}%",
        100.0 * metrics.level1_share,
        100.0 * metrics.level2_share,
        100.0 * metrics.level3_share,
        100.0 * metrics.fallback_rate
    );
    ExitCode::SUCCESS
}

fn cmd_bench(options: &Options) -> ExitCode {
    use lessismore::bench::experiments::{model_set, run_grid_device};
    use lessismore::bench::report::{grid_to_json, pct, ratio, secs, watts, Table};
    use lessismore::core::resolve_threads;

    if options.ann {
        return cmd_bench_ann(options);
    }
    let workload = match build_workload(options) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model_names: Vec<&str> = if options.models.is_empty() {
        vec![options.model.as_str()]
    } else {
        options.models.iter().map(String::as_str).collect()
    };
    for name in &model_names {
        if ModelProfile::by_name(name).is_none() {
            eprintln!("error: unknown model {name:?}; run `lim models`");
            return ExitCode::FAILURE;
        }
    }
    let models = model_set(&model_names);
    let quants: Vec<Quant> = if options.quants.is_empty() {
        vec![options.quant]
    } else {
        options.quants.clone()
    };
    // All four paper policies unless the sweep was narrowed with
    // `--policies` or a single `--policy`.
    let policies: Vec<Policy> = if !options.policies.is_empty() {
        options.policies.clone()
    } else if options.policy_set {
        vec![options.policy]
    } else {
        vec![
            Policy::Default,
            Policy::Gorilla { k: 3 },
            Policy::less_is_more(3),
            Policy::less_is_more(5),
        ]
    };

    let threads = resolve_threads(options.threads);
    let started = std::time::Instant::now();
    let levels = build_levels(options, &workload);
    let cells = run_grid_device(
        &workload,
        &levels,
        &models,
        &quants,
        &policies,
        options.seed,
        threads,
        options.energy.device.profile(),
    );
    let elapsed = started.elapsed();

    let mut table = Table::new(
        &format!(
            "lim bench — {} ({} queries, seed {}, {} threads)",
            workload.name, options.queries, options.seed, threads
        ),
        &[
            "model", "quant", "policy", "success", "tool acc", "time", "power", "norm t", "norm p",
        ],
    );
    for c in &cells {
        table.row(&[
            c.model.clone(),
            c.quant.to_string(),
            c.policy.clone(),
            pct(c.metrics.success_rate),
            pct(c.metrics.tool_accuracy),
            secs(c.metrics.avg_seconds),
            watts(c.metrics.avg_power_w),
            ratio(c.norm_time),
            ratio(c.norm_power),
        ]);
    }
    out!("{}", table.render());
    outln!(
        "swept {} cells x {} queries in {:.2}s wall-clock",
        cells.len(),
        options.queries,
        elapsed.as_secs_f64()
    );

    if let Some(path) = &options.out {
        let doc = grid_to_json(
            &cells,
            workload.name,
            options.queries,
            options.seed,
            threads,
        );
        if let Err(e) = std::fs::write(path, doc.to_pretty_string()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        outln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

/// `lim bench --ann`: the index-backend latency-vs-catalog-size curve
/// (`lim-bench/ann-v1`) instead of the policy grid.
fn cmd_bench_ann(options: &Options) -> ExitCode {
    use lessismore::bench::ann::{ann_to_json, run_ann, AnnConfig, ANN_K, ANN_QUERIES};
    use lessismore::bench::report::Table;

    let mut config = AnnConfig {
        seed: options.seed,
        hnsw: options.index.hnsw(),
        ..AnnConfig::default()
    };
    if !options.catalogs.is_empty() {
        config.catalogs = options.catalogs.clone();
    }

    let started = std::time::Instant::now();
    let cells = run_ann(&config);
    let elapsed = started.elapsed();

    let mut table = Table::new(
        &format!(
            "lim bench --ann — {} queries/cell, recall@{}, seed {}",
            ANN_QUERIES, ANN_K, config.seed
        ),
        &[
            "backend",
            "catalog",
            "build",
            "query",
            "dist evals",
            "recall@10",
        ],
    );
    for c in &cells {
        table.row(&[
            c.backend.to_owned(),
            c.catalog.to_string(),
            format!("{:.3}s", c.build_seconds),
            format!("{:.1}us", c.query_seconds_mean * 1e6),
            format!("{:.1}", c.avg_dist_evals),
            format!("{:.3}", c.recall_at_10),
        ]);
    }
    out!("{}", table.render());
    outln!(
        "swept {} cells in {:.2}s wall-clock (tracked metrics are seeded; \
         wall-clock columns are informational)",
        cells.len(),
        elapsed.as_secs_f64()
    );

    if let Some(path) = &options.out {
        let doc = ann_to_json(&config, &cells);
        if let Err(e) = std::fs::write(path, doc.to_pretty_string()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        outln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn cmd_trace(options: &Options) -> ExitCode {
    let (workload, model) = match (build_workload(options), resolve_model(options)) {
        (Ok(w), Ok(m)) => (w, m),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if options.query_index >= workload.queries.len() {
        eprintln!(
            "error: --query {} out of range (0..{})",
            options.query_index,
            workload.queries.len()
        );
        return ExitCode::FAILURE;
    }
    let levels = build_levels(options, &workload);
    let pipeline = Pipeline::new(&workload, &levels, &model, options.quant)
        .with_seed(options.seed)
        .with_device(options.energy.device.profile());
    let query = &workload.queries[options.query_index];
    let (result, trace) = pipeline.run_query_traced(query, options.policy);
    let mut doc = trace.to_json();
    doc.insert(
        "query_text",
        lessismore::json::Value::from(query.text.as_str()),
    );
    doc.insert("success", lessismore::json::Value::from(result.success));
    doc.insert(
        "seconds",
        lessismore::json::Value::from(result.cost.seconds),
    );
    outln!("{}", doc.to_pretty_string());
    ExitCode::SUCCESS
}

fn print_serve_report(report: &lessismore::serve::ServeReport) {
    use lessismore::bench::report::{pct, secs, Table};
    let mut table = Table::new(
        &format!(
            "lim serve — {} {} {} policy {} ({} sessions, {} requests, {} workers)",
            report.benchmark,
            report.model,
            report.quant,
            report.policy,
            report.sessions,
            report.requests,
            report.workers
        ),
        &[
            "success",
            "tool acc",
            "p50",
            "p95",
            "p99",
            "embed hit",
            "memo hit",
            "rps",
        ],
    );
    table.row(&[
        pct(report.success_rate),
        pct(report.tool_accuracy),
        secs(report.latency.p50_s),
        secs(report.latency.p95_s),
        secs(report.latency.p99_s),
        pct(report.embed_cache.hit_rate()),
        pct(report.selection_memo.hit_rate()),
        format!("{:.0}", report.requests_per_second),
    ]);
    out!("{}", table.render());
    outln!(
        "unique queries {} | session fast hits {} | embed {}h/{}m/{}e | memo {}h/{}m/{}e | wall {:.2}s",
        report.unique_queries,
        report.session_fast_hits,
        report.embed_cache.hits,
        report.embed_cache.misses,
        report.embed_cache.evictions,
        report.selection_memo.hits,
        report.selection_memo.misses,
        report.selection_memo.evictions,
        report.wall_seconds
    );
    let b = &report.boot;
    outln!(
        "boot: {} | level build {} | prewarm {} | sim boot {:.4}s | warm entries embed {} / memo {}",
        b.mode,
        if b.build_skipped { "skipped" } else { "ran" },
        if b.prewarm_skipped { "skipped" } else { "ran" },
        b.sim_boot_seconds,
        b.warm_embed_entries,
        b.warm_memo_entries
    );
    let c = &report.catalog;
    if c.epoch > 0 {
        outln!(
            "catalog: epoch {} | +{} tools / -{} tools | tombstones {} | compactions {} | \
             cluster refreshes {} | memo strandings {}",
            c.epoch,
            c.registered,
            c.retired,
            c.tombstones,
            c.compactions,
            c.cluster_refreshes,
            c.memo_invalidations
        );
    }
    let e = &report.energy;
    outln!(
        "energy: {} | J/req p50 {:.2} p95 {:.2} | sustained {:.2} W max{} | \
         {:.1} gCO2/1k req | governor transitions {}",
        e.device,
        e.joules_per_request.p50_s,
        e.joules_per_request.p95_s,
        e.sustained_watts_max,
        if e.power_cap_w > 0.0 {
            format!(" (cap {:.1} W)", e.power_cap_w)
        } else {
            String::new()
        },
        e.gco2_per_1k_requests,
        e.governor_transitions
    );
    let a = &report.admission;
    if a.queue_depth > 0 {
        outln!(
            "admission: {} | queue {} x{} srv | wait p50 {:.2}s p95 {:.2}s p99 {:.2}s | \
             max depth {} | degraded {} | shed {} ({})",
            a.arrivals,
            a.queue_depth,
            a.servers,
            a.queue_wait.p50_s,
            a.queue_wait.p95_s,
            a.queue_wait.p99_s,
            a.max_queue_depth,
            a.degraded,
            a.shed,
            a.shed_policy
        );
    }
}

/// Reads and header-parses a `lim/snapshot-v1` file, checking the
/// recorded workload-build seed against the one the replay uses (the
/// engine itself validates benchmark, catalog and pool sizes — the seed
/// is a CLI-level concern because only the CLI knows it).
fn open_snapshot(path: &str, workload_seed: u64) -> Result<lessismore::core::Snapshot, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let snapshot = lessismore::core::Snapshot::parse(&bytes).map_err(|e| format!("{path}: {e}"))?;
    if let Some(seed) = snapshot
        .header_field("seed")
        .and_then(lessismore::json::Value::as_i64)
    {
        if seed as u64 != workload_seed {
            return Err(format!(
                "{path}: snapshot was built from workload seed {seed} but this replay \
                 uses seed {workload_seed}"
            ));
        }
    }
    Ok(snapshot)
}

/// Builds the serving engine the flags describe for `tenants` catalogs:
/// checkpoint boot wins over snapshot boot wins over a cold level build.
/// The tenant count comes from the trace (or hello frame), never a flag
/// — a saved trace records how many catalogs it was generated over, so
/// a replay cannot silently pair it with a differently-sized engine. A
/// single catalog is a one-tenant fleet that boots from (and, see
/// [`checkpoint_bytes`], writes) the single-engine checkpoint format.
fn build_engine(
    options: &Options,
    workload: Workload,
    tenants: usize,
    engine_seed: u64,
) -> Result<lessismore::serve::FleetEngine, String> {
    use lessismore::serve::{FleetConfig, FleetEngine, ServeConfig, ServeEngine};
    use std::sync::Arc;

    let model = resolve_model(options)?;
    let base = ServeConfig::builder()
        .policy(options.policy)
        .quant(options.quant)
        .seed(engine_seed)
        .admission(options.admission.config())
        .device(options.energy.device)
        .governor(options.energy.governor())
        .build();
    let config = FleetConfig::new(tenants.max(1), base);
    // Boot order: a checkpoint is a self-contained superset of a levels
    // snapshot (it carries the level sections plus the warm state), so
    // it wins when both flags are passed.
    if let Some(path) = &options.snapshots.checkpoint {
        if options.snapshots.snapshot.is_some() {
            eprintln!("note: --checkpoint is self-contained; ignoring --snapshot");
        }
        let snapshot = open_snapshot(path, engine_seed)?;
        let booted = if tenants > 1 {
            FleetEngine::from_checkpoint(&snapshot, workload, model, config)
        } else {
            ServeEngine::from_checkpoint(&snapshot, workload, model, base).map(FleetEngine::from)
        };
        return booted.map_err(|e| format!("{path}: {e}"));
    }
    let levels = match &options.snapshots.snapshot {
        Some(path) => {
            let snapshot = open_snapshot(path, engine_seed)?;
            if tenants <= 1 {
                return ServeEngine::from_snapshot(&snapshot, workload, model, base)
                    .map(FleetEngine::from)
                    .map_err(|e| format!("{path}: {e}"));
            }
            // A levels snapshot holds no per-tenant state, so one decoded
            // copy seeds the whole fleet copy-on-write.
            if let Some(benchmark) = snapshot
                .header_field("benchmark")
                .and_then(lessismore::json::Value::as_str)
            {
                if benchmark != workload.name {
                    return Err(format!(
                        "{path}: snapshot was built for {benchmark:?} but the fleet serves {:?}",
                        workload.name
                    ));
                }
            }
            lessismore::core::levels_from_snapshot(&snapshot).map_err(|e| format!("{path}: {e}"))?
        }
        // Cold boot on the backend selected by `--index` (snapshots and
        // checkpoints carry their own index kind and ignore the flag).
        None => build_levels(options, &workload),
    };
    FleetEngine::with_shared(Arc::new(workload), Arc::new(levels), model, config)
}

/// The engine's checkpoint in the format its tenant count boots from:
/// the single-engine checkpoint for one catalog, the fleet checkpoint
/// for more.
fn checkpoint_bytes(engine: &lessismore::serve::FleetEngine) -> Vec<u8> {
    if engine.tenants() > 1 {
        engine.checkpoint()
    } else {
        engine.tenant_engine(0).checkpoint()
    }
}

/// The report document for the engine's tenant count:
/// `lim-serve/report-v5` for one catalog, `report-v6` (with per-tenant
/// breakdowns) for more.
fn report_json(report: &lessismore::serve::FleetReport) -> lessismore::json::Value {
    if report.tenants.len() > 1 {
        report.to_json()
    } else {
        report.overall.to_json()
    }
}

/// Replays a session trace on the engine its tenant count calls for,
/// printing the overall table (plus a per-tenant breakdown for a fleet)
/// and writing the report document and the checkpoint.
fn run_serve(
    options: &Options,
    workload: Workload,
    trace: &lessismore::workloads::trace::SessionTrace,
    engine_seed: u64,
) -> ExitCode {
    let mut engine = match build_engine(options, workload, trace.tenants, engine_seed) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match engine.process_trace(trace, options.workers) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_serve_report(&report.overall);
    if report.tenants.len() > 1 {
        print_fleet_tenants(&report);
    }
    if let Some(path) = &options.out {
        if let Err(e) = std::fs::write(path, report_json(&report).to_pretty_string()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        outln!("wrote {path}");
    }
    if let Some(path) = &options.snapshots.save_checkpoint {
        if let Err(e) = std::fs::write(path, checkpoint_bytes(&engine)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        outln!("wrote checkpoint {path}");
    }
    ExitCode::SUCCESS
}

/// One line per tenant under the overall table: traffic, success, shed
/// and the current cache grants against their QoS floors — the numbers
/// the isolation guarantee is stated in.
fn print_fleet_tenants(report: &lessismore::serve::FleetReport) {
    outln!("tenants ({}):", report.tenants.len());
    for t in &report.tenants {
        let r = &t.report;
        outln!(
            "  t{}: {} req / {} sessions | success {:.1}% | shed {} | embed {}h/{}m/{}e \
             cap {} (floor {}) | memo cap {} (floor {})",
            t.tenant,
            r.requests,
            r.sessions,
            100.0 * r.success_rate,
            r.admission.shed,
            r.embed_cache.hits,
            r.embed_cache.misses,
            r.embed_cache.evictions,
            t.embed_capacity,
            t.embed_floor,
            t.memo_capacity,
            t.memo_floor
        );
    }
}

/// `lim snapshot build --out FILE` / `lim snapshot inspect --snapshot F`.
fn cmd_snapshot(args: &[String]) -> ExitCode {
    let Some(verb) = args.first() else {
        eprintln!("error: snapshot needs a verb: build | inspect");
        return ExitCode::FAILURE;
    };
    let options = match cli::parse(&args[1..]) {
        Ok(o) => o,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    match verb.as_str() {
        "build" => cmd_snapshot_build(&options),
        "inspect" => cmd_snapshot_inspect(&options),
        other => {
            eprintln!("error: unknown snapshot verb {other:?} (build | inspect)");
            ExitCode::FAILURE
        }
    }
}

fn cmd_snapshot_build(options: &Options) -> ExitCode {
    let Some(out) = &options.out else {
        eprintln!("error: snapshot build needs --out FILE");
        return ExitCode::FAILURE;
    };
    let workload = match build_workload(options) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let levels = build_levels(options, &workload);
    let bytes = lessismore::core::write_levels_snapshot(
        &levels,
        workload.name,
        options.seed,
        workload.queries.len(),
    );
    if let Err(e) = std::fs::write(out, &bytes) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    outln!(
        "wrote {out}: {} ({} tools, {} clusters, {} bytes)",
        lessismore::core::SNAPSHOT_FORMAT,
        levels.tool_count(),
        levels.clusters().len(),
        bytes.len()
    );
    ExitCode::SUCCESS
}

/// Prints the header and section table. Only the Level-1 index section
/// is decoded (to report its backend kind and vector count); everything
/// else stays undecoded — the cheap half of the lazy-loading contract.
fn cmd_snapshot_inspect(options: &Options) -> ExitCode {
    let Some(path) = &options.snapshots.snapshot else {
        eprintln!("error: snapshot inspect needs --snapshot FILE");
        return ExitCode::FAILURE;
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let snapshot = match lessismore::core::Snapshot::parse(&bytes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    outln!(
        "{path}: {} kind {} ({} payload bytes)",
        lessismore::core::SNAPSHOT_FORMAT,
        snapshot.kind(),
        snapshot.payload_len()
    );
    for key in [
        "benchmark",
        "seed",
        "pool_size",
        "tool_count",
        "train_size",
        "dim",
    ] {
        if let Some(v) = snapshot.header_field(key) {
            outln!("  {key}: {v}");
        }
    }
    // Decode the index section (only) so the operator can see which
    // backend this snapshot boots and how many vectors it carries.
    let index_note = snapshot
        .section(lessismore::core::SECTION_TOOL_INDEX)
        .ok()
        .map(|doc| {
            let kind = doc
                .get("kind")
                .and_then(lessismore::json::Value::as_str)
                .unwrap_or("flat")
                .to_owned();
            let vectors = doc
                .get("postings")
                .and_then(lessismore::json::Value::as_array)
                .map_or(0, <[lessismore::json::Value]>::len);
            (kind, vectors)
        });
    if let Some((kind, vectors)) = &index_note {
        outln!("  index: {kind} ({vectors} vectors)");
    }
    outln!(
        "  sections ({} of {} decoded):",
        snapshot.decoded_sections().len(),
        snapshot.section_names().len()
    );
    for name in snapshot.section_names() {
        let annotation = match &index_note {
            Some((kind, _)) if name == lessismore::core::SECTION_TOOL_INDEX => {
                format!("  ({kind})")
            }
            _ => String::new(),
        };
        outln!(
            "    {name:<12} {:>9} bytes{annotation}",
            snapshot.section_len(name).unwrap_or(0)
        );
    }
    ExitCode::SUCCESS
}

fn cmd_loadgen(options: &Options) -> ExitCode {
    use lessismore::workloads::trace::{zipf_trace, TraceConfig};

    let arrivals = options
        .admission
        .arrivals
        .unwrap_or(ArrivalProcess::BackToBack);
    if let Err(e) = options.energy.governor().check_arrivals(arrivals) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let workload = match build_workload(options) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = zipf_trace(
        &workload,
        &TraceConfig {
            seed: options.seed,
            sessions: options.sessions,
            requests_per_session: options.requests,
            zipf_s: options.zipf,
            arrivals,
            tenants: options.tenants,
            tenant_skew: options.tenant_skew,
        },
    );
    let trace = if options.churn > 0 {
        let churn_config = lessismore::workloads::churn::ChurnConfig {
            seed: options.churn_seed,
            registers: options.churn,
            retires: options.churn,
        };
        // A fleet trace churns every tenant's catalog independently (the
        // per-tenant schedule derives its own seed), a single-tenant one
        // keeps the classic schedule bit-for-bit.
        if trace.tenants > 1 {
            lessismore::workloads::churn::with_tenant_churn(&workload, trace, &churn_config)
        } else {
            lessismore::workloads::churn::with_churn(&workload, trace, &churn_config)
        }
    } else {
        trace
    };
    outln!(
        "generated trace: {} sessions, {} requests, {} unique queries (zipf {:.2}, pool {}, arrivals {})",
        trace.sessions.len(),
        trace.requests(),
        trace.unique_queries(),
        trace.zipf_s,
        trace.pool_size,
        trace.arrivals.label()
    );
    if trace.tenants > 1 {
        outln!(
            "fleet: {} tenants, traffic skew {:.2} (tenant 0 hottest)",
            trace.tenants,
            options.tenant_skew
        );
    }
    if !trace.churn.is_empty() {
        outln!(
            "stamped {} catalog mutations (churn seed {})",
            trace.churn.len(),
            options.churn_seed
        );
    }
    if let Some(path) = &options.save_trace {
        let mut doc = trace.to_json();
        // Advisory generation-time engine config: `lim serve` warns when
        // its flags diverge, so replayed reports are never silently
        // non-comparable with the generation run.
        doc.insert(
            "generator",
            lessismore::json::Value::object([
                (
                    "policy",
                    lessismore::json::Value::from(options.policy.label()),
                ),
                (
                    "model",
                    lessismore::json::Value::from(options.model.as_str()),
                ),
                (
                    "quant",
                    lessismore::json::Value::from(options.quant.label()),
                ),
            ]),
        );
        if let Err(e) = std::fs::write(path, doc.to_pretty_string()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        outln!("wrote {path}");
    }
    run_serve(options, workload, &trace, options.seed)
}

fn cmd_serve(options: &Options) -> ExitCode {
    use lessismore::workloads::trace::SessionTrace;

    if options.stdin || options.listen.is_some() {
        return cmd_serve_wire(options);
    }
    let Some(path) = &options.trace else {
        eprintln!(
            "error: serve needs --trace FILE (generate one with lim loadgen --save-trace) \
             or a wire stream (--stdin | --listen SOCKET)"
        );
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match lessismore::json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match SessionTrace::from_json(&doc) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `--arrivals` re-stamps the loaded trace deterministically (from
    // the trace's own seed), so a v1 document without timestamps can
    // still drive the admission layer.
    let trace = match options.admission.arrivals {
        Some(process) => trace.with_arrivals(process),
        None => trace,
    };
    if let Err(e) = options.energy.governor().check_arrivals(trace.arrivals) {
        eprintln!("error: {path}: {e}");
        return ExitCode::FAILURE;
    }
    // The engine config (policy/model/quant) still comes from flags; if
    // the document carries the generation-time config, flag divergence is
    // called out so reports are never silently non-comparable.
    if let Some(generator) = doc.get("generator") {
        let get = |field: &str| {
            generator
                .get(field)
                .and_then(lessismore::json::Value::as_str)
        };
        let current = [
            ("policy", options.policy.label()),
            ("model", options.model.clone()),
            ("quant", options.quant.label().to_owned()),
        ];
        for (field, now) in &current {
            if let Some(generated) = get(field) {
                if generated != now {
                    eprintln!(
                        "warning: trace was generated with {field} {generated} but replaying \
                         with {now}; pass --{field} {generated} to reproduce the original run"
                    );
                }
            }
        }
    }

    // The trace document records the benchmark, seed and pool size it was
    // generated over (loadgen uses one seed for both the workload and the
    // draws), so the replay rebuilds exactly that workload — no way to
    // silently pair the trace with a different query pool via flags.
    let workload = match build_workload_with(&trace.benchmark, trace.seed, trace.pool_size) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    run_serve(options, workload, &trace, trace.seed)
}

// ---------------------------------------------------------------------
// lim/wire-v1 ingestion front-end. The protocol codec is pure and lives
// in `lessismore::serve::wire`; only the I/O shell — stdin/stdout, unix
// sockets, signals, batching — is here, and batching is the one thing
// this loop decides: by the engine's batching-invariance guarantee it
// cannot change a single reported number.
// ---------------------------------------------------------------------

/// Set by the SIGTERM handler; the wire loops poll it and drain
/// gracefully — finish the session, emit the final report frame, write
/// the `--save-checkpoint` — instead of dying mid-stream.
static TERMINATED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    TERMINATED.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Installs the SIGTERM handler. No external crates: the C `signal`
/// entry point is declared directly.
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
    }
}

fn terminated() -> bool {
    TERMINATED.load(std::sync::atomic::Ordering::SeqCst)
}

/// The most lines a wire stream's reader holds ahead of the stream loop;
/// past that it stops reading until the loop catches up.
const WIRE_QUEUED_LINES: usize = 4096;

/// The most lines one drain of a wire stream takes. Any chopping of a
/// stream into drains reports identically, so this bounds only how much
/// is served before the loop next notices SIGTERM or a closed reader.
const WIRE_BATCH_LINES: usize = 4096;

/// Forwards lines from `reader` into a bounded channel on a thread, so
/// the main loop can batch what has already arrived without blocking on
/// I/O (and keeps noticing SIGTERM between polls), while a client that
/// runs ahead of the engine waits in its own pipe, not in our memory.
fn spawn_line_reader<R: std::io::Read + Send + 'static>(
    reader: R,
) -> std::sync::mpsc::Receiver<String> {
    use std::io::BufRead;
    let (tx, rx) = std::sync::mpsc::sync_channel(WIRE_QUEUED_LINES);
    std::thread::spawn(move || {
        for line in std::io::BufReader::new(reader).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    rx
}

/// Speaks one `lim/wire-v1` stream end to end: waits for the `hello`,
/// builds the engine from its recorded workload (or checks a warm one
/// still matches), then repeatedly submits the `request` frames that
/// have arrived (at most [`WIRE_BATCH_LINES`] lines a drain) and answers
/// with `disposition`/`latency` frames, ending
/// with the final `report` frame on EOF or SIGTERM. A frame reader that
/// goes away also ends the stream: what was submitted is drained, and the
/// caller still writes the report and checkpoint files.
///
/// A request naming a tenant the engine does not serve is the one
/// protocol error that does NOT abandon the stream: it is answered with
/// a typed `error` frame and every other tenant keeps serving.
fn serve_wire_stream<W: std::io::Write>(
    options: &Options,
    lines: &std::sync::mpsc::Receiver<String>,
    writer: &mut W,
    engine_slot: &mut Option<(
        lessismore::serve::wire::Hello,
        lessismore::serve::FleetEngine,
    )>,
) -> Result<lessismore::serve::FleetReport, String> {
    use lessismore::serve::wire;
    use lessismore::serve::{FleetSubmitError, StreamMeta, StreamRequest};
    use lessismore::workloads::trace::arrival_us_to_seconds;
    use std::sync::mpsc::RecvTimeoutError;

    let poll = std::time::Duration::from_millis(25);
    let mut frames = FrameWriter {
        writer,
        closed: false,
    };
    // A protocol violation is answered with an error frame before the
    // stream is abandoned, so the peer learns why.
    macro_rules! bail {
        ($msg:expr) => {{
            let message: String = $msg;
            let _ = frames.emit(&wire::error_frame(&message));
            return Err(message);
        }};
    }

    // The stream must open with a hello frame.
    let hello = loop {
        if terminated() {
            return Err("terminated before the hello frame".to_owned());
        }
        match lines.recv_timeout(poll) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => match wire::parse_client_frame(&line) {
                Ok(wire::ClientFrame::Hello(h)) => break h,
                Ok(_) => bail!("first frame must be hello".to_owned()),
                Err(e) => bail!(e),
            },
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                return Err("stream closed before the hello frame".to_owned());
            }
        }
    };
    // A governed engine cannot act on a back-to-back stream: refuse it
    // rather than serve it ungoverned.
    if let Err(e) = options.energy.governor().check_arrivals(hello.arrivals) {
        bail!(e.to_string());
    }

    // The hello's recorded workload drives the engine build — exactly
    // like `lim serve --trace` rebuilds the generation-time workload
    // from the trace document. A warm engine (socket mode serves many
    // streams on one engine) must have been built for the same workload.
    match engine_slot {
        Some((first, _)) => {
            if first.benchmark != hello.benchmark
                || first.pool_size != hello.pool_size
                || first.trace_seed != hello.trace_seed
                || first.tenants != hello.tenants
            {
                bail!(format!(
                    "hello declares workload {}/{} seed {} tenants {} but this engine serves \
                     {}/{} seed {} tenants {}",
                    hello.benchmark,
                    hello.pool_size,
                    hello.trace_seed,
                    hello.tenants,
                    first.benchmark,
                    first.pool_size,
                    first.trace_seed,
                    first.tenants
                ));
            }
        }
        None => {
            let workload =
                match build_workload_with(&hello.benchmark, hello.trace_seed, hello.pool_size) {
                    Ok(w) => w,
                    Err(e) => bail!(e),
                };
            match build_engine(options, workload, hello.tenants, hello.trace_seed) {
                Ok(engine) => *engine_slot = Some((hello.clone(), engine)),
                Err(e) => bail!(e),
            }
        }
    }
    let (_, engine) = engine_slot.as_mut().expect("engine built above");

    let meta = StreamMeta {
        trace_seed: hello.trace_seed,
        zipf_s: hello.zipf_s,
        arrivals: hello.arrivals,
        sessions: hello.sessions,
    };
    // Every tenant-carrying frame is range-checked first: an
    // out-of-range id answers with a typed `error` frame and the stream
    // keeps serving.
    let tenants = hello.tenants;
    let served = engine.tenants() as u64;
    let unknown_tenant = |tenant: u64| {
        wire::error_frame(&FleetSubmitError::UnknownTenant { tenant, tenants }.to_string())
    };

    let mut session = engine.begin_stream(meta, options.workers);
    frames.emit(&wire::ready_frame())?;
    loop {
        // A frame reader that has gone away ends the stream the way
        // SIGTERM does: what was submitted is drained and reported.
        if frames.closed {
            eprintln!("the frame reader closed: draining the stream");
            break;
        }
        let mut batch = Vec::new();
        match lines.recv_timeout(poll) {
            Ok(line) => {
                batch.push(line);
                while batch.len() < WIRE_BATCH_LINES {
                    let Ok(line) = lines.try_recv() else { break };
                    batch.push(line);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if terminated() {
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
        for line in batch {
            if line.trim().is_empty() {
                continue;
            }
            match wire::parse_client_frame(&line) {
                Ok(wire::ClientFrame::Request {
                    tenant,
                    session: id,
                    query,
                    arrival_us,
                }) => {
                    if tenant >= served {
                        frames.emit(&unknown_tenant(tenant))?;
                        continue;
                    }
                    let request = StreamRequest {
                        session: id,
                        query_index: query,
                        arrival_s: arrival_us.map(arrival_us_to_seconds),
                    };
                    // The tenant id was range-checked above; any residual
                    // error is a real protocol violation.
                    if let Err(e) = session.submit(tenant, request) {
                        bail!(e.to_string());
                    }
                }
                // Catalog mutations drain the pending batch first (the
                // engine's drain-boundary rule), so the events they force
                // out are owed to the client before the acknowledgement.
                Ok(wire::ClientFrame::Register { tenant, tool }) => {
                    if tenant >= served {
                        frames.emit(&unknown_tenant(tenant))?;
                        continue;
                    }
                    match session.register_tool(tenant, &tool) {
                        Ok((index, events)) => {
                            frames.emit_events(events)?;
                            let epoch = session.epoch(tenant).unwrap_or(0);
                            frames.emit(&wire::catalog_frame("register", index, epoch))?;
                        }
                        Err(e) => bail!(e),
                    }
                }
                Ok(wire::ClientFrame::Retire { tenant, id }) => {
                    if tenant >= served {
                        frames.emit(&unknown_tenant(tenant))?;
                        continue;
                    }
                    match session.retire_tool(tenant, id) {
                        Ok(events) => {
                            frames.emit_events(events)?;
                            let epoch = session.epoch(tenant).unwrap_or(0);
                            frames.emit(&wire::catalog_frame("retire", id, epoch))?;
                        }
                        Err(e) => bail!(e),
                    }
                }
                Ok(wire::ClientFrame::Hello(_)) => bail!("duplicate hello frame".to_owned()),
                Err(e) => bail!(e),
            }
        }
        frames.emit_events(session.drain())?;
    }
    // Graceful drain: resolve everything still queued, then report. The
    // final frame is the report document under an additive
    // `"frame": "report"` tag.
    let (report, tail) = session.finish_with_events();
    frames.emit_events(tail)?;
    let mut frame = report_json(&report);
    frame.insert("frame", lessismore::json::Value::from("report"));
    frames.emit(&frame)?;
    Ok(report)
}

/// The frame side of one `lim/wire-v1` stream. A reader that has gone
/// away (a broken pipe or a reset connection) is not an error: `closed`
/// is set, every later frame is dropped, and the stream drains.
struct FrameWriter<'w, W> {
    writer: &'w mut W,
    closed: bool,
}

impl<W: std::io::Write> FrameWriter<'_, W> {
    /// Writes and flushes one frame line.
    fn emit(&mut self, frame: &lessismore::json::Value) -> Result<(), String> {
        if self.closed {
            return Ok(());
        }
        match writeln!(self.writer, "{frame}").and_then(|()| self.writer.flush()) {
            Ok(()) => Ok(()),
            Err(e) if matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset) => {
                self.closed = true;
                Ok(())
            }
            Err(e) => Err(format!("cannot write frame: {e}")),
        }
    }

    /// Writes the frames announcing each resolved request.
    fn emit_events(&mut self, events: Vec<lessismore::serve::RequestEvent>) -> Result<(), String> {
        for event in events {
            for frame in lessismore::serve::wire::event_frames(&event) {
                self.emit(&frame)?;
            }
        }
        Ok(())
    }
}

/// Post-stream bookkeeping shared by the stdin and socket front-ends:
/// a one-line summary on stderr (stdout carries protocol frames), the
/// `--out` report document and the `--save-checkpoint` warm state.
fn finish_wire_stream(
    options: &Options,
    report: &lessismore::serve::FleetReport,
    engine: Option<&lessismore::serve::FleetEngine>,
) -> Result<(), String> {
    let overall = &report.overall;
    eprintln!(
        "served {} requests ({} sessions): success {:.2}%, shed {}, degraded {}",
        overall.requests,
        overall.sessions,
        100.0 * overall.success_rate,
        overall.admission.shed,
        overall.admission.degraded
    );
    if report.tenants.len() > 1 {
        for t in &report.tenants {
            eprintln!(
                "  t{}: {} req | shed {} | embed cap {} (floor {})",
                t.tenant,
                t.report.requests,
                t.report.admission.shed,
                t.embed_capacity,
                t.embed_floor
            );
        }
    }
    if let Some(path) = &options.out {
        std::fs::write(path, report_json(report).to_pretty_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let (Some(path), Some(engine)) = (&options.snapshots.save_checkpoint, engine) {
        std::fs::write(path, checkpoint_bytes(engine))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote checkpoint {path}");
    }
    Ok(())
}

/// `lim serve --stdin` / `lim serve --listen SOCKET`.
fn cmd_serve_wire(options: &Options) -> ExitCode {
    if options.stdin && options.listen.is_some() {
        eprintln!("error: --stdin and --listen are mutually exclusive");
        return ExitCode::FAILURE;
    }
    if options.trace.is_some() {
        eprintln!("error: --trace replays offline; drop it to ingest a wire stream");
        return ExitCode::FAILURE;
    }
    // Arrival re-stamping is an offline-replay affordance; a live stream's
    // recorded timestamps are always honored.
    if options.admission.arrivals.is_some() {
        eprintln!(
            "error: --arrivals re-stamps a loaded trace; a wire stream carries its own \
             timestamps (re-stamp at encode time: lim wire --trace FILE --arrivals SPEC)"
        );
        return ExitCode::FAILURE;
    }
    install_sigterm_handler();
    let result = match &options.listen {
        None => {
            let lines = spawn_line_reader(std::io::stdin());
            let mut stdout = std::io::stdout();
            let mut engine_slot = None;
            serve_wire_stream(options, &lines, &mut stdout, &mut engine_slot).and_then(|report| {
                finish_wire_stream(options, &report, engine_slot.as_ref().map(|(_, e)| e))
            })
        }
        Some(path) => serve_wire_listen(options, path),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Accepts `lim/wire-v1` connections on a unix socket, one stream at a
/// time, all on the same warm engine — successive streams see warm
/// caches exactly like successive traces through one `ServeEngine`.
/// SIGTERM stops accepting, removes the socket file and writes the
/// final `--save-checkpoint`.
fn serve_wire_listen(options: &Options, path: &str) -> Result<(), String> {
    use std::os::unix::net::UnixListener;

    // A stale socket file from a previous run would fail the bind.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("cannot bind {path}: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot poll {path}: {e}"))?;
    eprintln!(
        "listening on {path} ({})",
        lessismore::serve::wire::WIRE_PROTO
    );
    let mut engine_slot = None;
    while !terminated() {
        match listener.accept() {
            Ok((stream, _)) => {
                let reader = match stream.try_clone() {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("warning: cannot clone connection: {e}");
                        continue;
                    }
                };
                let lines = spawn_line_reader(reader);
                let mut writer = stream;
                match serve_wire_stream(options, &lines, &mut writer, &mut engine_slot) {
                    // The checkpoint is written once at shutdown, not per
                    // stream: pass no engine here.
                    Ok(report) => {
                        if let Err(e) = finish_wire_stream(options, &report, None) {
                            eprintln!("warning: {e}");
                        }
                    }
                    Err(e) => eprintln!("warning: stream failed: {e}"),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            Err(e) => {
                let _ = std::fs::remove_file(path);
                return Err(format!("accept on {path}: {e}"));
            }
        }
    }
    let _ = std::fs::remove_file(path);
    if let (Some(ck), Some((_, engine))) = (&options.snapshots.save_checkpoint, &engine_slot) {
        std::fs::write(ck, checkpoint_bytes(engine))
            .map_err(|e| format!("cannot write {ck}: {e}"))?;
        eprintln!("wrote checkpoint {ck}");
    }
    Ok(())
}

/// `lim wire --trace FILE [--out FILE]`: encode a `trace-v1` document as
/// a `lim/wire-v1` client stream — the hello frame plus one request
/// frame per request in canonical order. `--arrivals` re-stamps before
/// encoding under the same opt-in rule as `lim serve --trace`, so
/// `lim wire --trace F | lim serve --stdin` reproduces
/// `lim serve --trace F` frame-for-frame.
fn cmd_wire(options: &Options) -> ExitCode {
    use lessismore::serve::wire::trace_to_wire;
    use lessismore::workloads::trace::SessionTrace;

    let Some(path) = &options.trace else {
        eprintln!("error: wire needs --trace FILE (generate one with lim loadgen --save-trace)");
        return ExitCode::FAILURE;
    };
    let trace = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| lessismore::json::parse(&text).map_err(|e| format!("{path}: {e}")))
        .and_then(|doc| SessionTrace::from_json(&doc).map_err(|e| format!("{path}: {e}")));
    let trace = match trace {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match options.admission.arrivals {
        Some(process) => trace.with_arrivals(process),
        None => trace,
    };
    let stream = trace_to_wire(&trace);
    match &options.out {
        Some(out) => {
            if let Err(e) = std::fs::write(out, &stream) {
                eprintln!("error: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote {out}: {} frames ({} requests, {} catalog mutations)",
                1 + trace.requests() + trace.churn.len(),
                trace.requests(),
                trace.churn.len()
            );
        }
        None => out!("{stream}"),
    }
    ExitCode::SUCCESS
}

fn cmd_compare(options: &Options) -> ExitCode {
    use lessismore::bench::compare::compare_documents;

    let (Some(baseline_path), Some(current_path)) = (&options.baseline, &options.current) else {
        eprintln!("error: compare needs --baseline FILE and --current FILE");
        return ExitCode::FAILURE;
    };
    let read = |path: &str| -> Result<lessismore::json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        lessismore::json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, current) = match (read(baseline_path), read(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match compare_documents(&baseline, &current, options.tolerance) {
        Ok(regressions) if regressions.is_empty() => {
            outln!(
                "ok: {current_path} within {:.0}% of {baseline_path}",
                100.0 * options.tolerance
            );
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            eprintln!(
                "FAIL: {} tracked metric(s) regressed more than {:.0}%:",
                regressions.len(),
                100.0 * options.tolerance
            );
            for r in &regressions {
                eprintln!("  {r}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_levels(options: &Options) -> ExitCode {
    let workload = match build_workload(options) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let levels = build_levels(options, &workload);
    outln!(
        "built levels for {} ({} index): {} tools, {} clusters",
        workload.name,
        levels.tool_index().kind(),
        levels.tool_count(),
        levels.clusters().len()
    );
    ExitCode::SUCCESS
}
