//! Command-line parsing for the `lim` binary.
//!
//! The binary used to hand-roll one flat `Options` struct and a single
//! `parse` loop inline; every subcommand read the same bag of fields.
//! This module keeps the zero-dependency flag loop but groups the flags
//! into typed blocks — [`IndexFlags`], [`AdmissionFlags`],
//! [`SnapshotFlags`] — so a subcommand's signature says which knobs it
//! actually consumes, and the resolution helpers (flag → `IndexSpec`,
//! flag → `AdmissionConfig`) live next to the flags they read.
//!
//! The `--help` text is hand-maintained; [`help_text`] is asserted
//! against the parser's own source by a unit test here, so a new flag
//! cannot land undocumented.

use crate::core::{IndexSpec, Policy};
use crate::device::DeviceKind;
use crate::llm::Quant;
use crate::serve::{AdmissionConfig, GovernorConfig, ShedPolicy};
use crate::vecstore::{HnswParams, IvfParams};
use crate::workloads::trace::ArrivalProcess;

/// Level-1 vector-index backend selection (`--index` plus the HNSW
/// knobs). Meaningful wherever levels are built: `evaluate`, `bench`,
/// `trace`, `levels`, `snapshot build`, and cold-boot `loadgen`/`serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexFlags {
    /// Backend name: `"flat"`, `"ivf"` or `"hnsw"`.
    pub index: String,
    /// HNSW per-layer degree override (`--hnsw-m`).
    pub hnsw_m: Option<usize>,
    /// HNSW construction beam width override (`--ef-construction`).
    pub ef_construction: Option<usize>,
    /// HNSW query-time beam width override (`--ef-search`).
    pub ef_search: Option<usize>,
}

impl Default for IndexFlags {
    fn default() -> Self {
        Self {
            index: "flat".into(),
            hnsw_m: None,
            ef_construction: None,
            ef_search: None,
        }
    }
}

impl IndexFlags {
    /// Resolves the flags into the backend spec the level build uses.
    /// The HNSW knobs are meaningful for `hnsw` only; on the other
    /// backends they are ignored (the ann curve applies them to its HNSW
    /// cell regardless of `--index`).
    pub fn spec(&self) -> IndexSpec {
        match self.index.as_str() {
            "ivf" => IndexSpec::Ivf(IvfParams::default()),
            "hnsw" => IndexSpec::Hnsw(self.hnsw()),
            _ => IndexSpec::Flat,
        }
    }

    /// The HNSW parameter block with any CLI overrides applied.
    pub fn hnsw(&self) -> HnswParams {
        let mut params = HnswParams::default();
        if let Some(m) = self.hnsw_m {
            params.m = m;
        }
        if let Some(ef) = self.ef_construction {
            params.ef_construction = ef;
        }
        if let Some(ef) = self.ef_search {
            params.ef_search = ef;
        }
        params
    }
}

/// Energy flags: the device profile every simulated request is costed
/// on (`--device`, honored uniformly by `evaluate`, `bench`, `loadgen`
/// and `serve`) and the power-budget governor knobs for `loadgen` /
/// `serve` (`--power-cap-w`, `--carbon-trace`, `--carbon-budget`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyFlags {
    /// Device profile the energy model bills phase costs on.
    pub device: DeviceKind,
    /// Sustained-watts cap the governor enforces (0 = ungoverned).
    pub power_cap_w: f64,
    /// Seed for the deterministic carbon-intensity trace.
    pub carbon_trace: u64,
    /// Carbon budget in grams CO₂ per hour (0 = no carbon cap).
    pub carbon_budget_g_per_h: f64,
}

impl EnergyFlags {
    /// The engine-side governor configuration these flags select.
    pub fn governor(&self) -> GovernorConfig {
        GovernorConfig {
            power_cap_w: self.power_cap_w,
            carbon_seed: self.carbon_trace,
            carbon_budget_g_per_h: self.carbon_budget_g_per_h,
            ..GovernorConfig::default()
        }
    }
}

/// Admission-control and arrival-process flags for `loadgen` / `serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionFlags {
    /// Arrival process for `loadgen` (trace generation) and `serve`
    /// (deterministic re-stamp of the loaded trace). `None` keeps the
    /// trace's own process (back-to-back for `loadgen`) — re-stamping is
    /// strictly opt-in, so a trace's recorded timestamps are honored
    /// unless the operator explicitly asks otherwise.
    pub arrivals: Option<ArrivalProcess>,
    /// Bounded admission-queue capacity (0 = admission disabled).
    pub queue_depth: usize,
    /// Shed policy once the queue fills.
    pub shed_policy: ShedPolicy,
    /// Simulated executors draining the admission queue.
    pub servers: usize,
}

impl Default for AdmissionFlags {
    fn default() -> Self {
        Self {
            arrivals: None,
            queue_depth: 0,
            shed_policy: ShedPolicy::Reject,
            servers: 1,
        }
    }
}

impl AdmissionFlags {
    /// The engine-side admission configuration these flags select.
    pub fn config(&self) -> AdmissionConfig {
        AdmissionConfig {
            queue_depth: self.queue_depth,
            servers: self.servers,
            shed_policy: self.shed_policy,
        }
    }
}

/// Snapshot / checkpoint boot flags for `loadgen` / `serve` (and the
/// file argument of `snapshot inspect`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotFlags {
    /// Boot snapshot: skip the level build, or the file to inspect
    /// (`snapshot inspect`).
    pub snapshot: Option<String>,
    /// Checkpoint to restore warm caches and session state from.
    pub checkpoint: Option<String>,
    /// Where to write a checkpoint after the replay (or on graceful
    /// drain of a wire stream).
    pub save_checkpoint: Option<String>,
}

/// Everything the `lim` flag parser can produce. Subcommands read the
/// scalar fields plus the typed groups they care about.
pub struct Options {
    /// Benchmark name (`bfcl` / `geoengine`).
    pub benchmark: String,
    /// Model profile name.
    pub model: String,
    /// Quantization level.
    pub quant: Quant,
    /// Tool-selection policy.
    pub policy: Policy,
    /// Evaluation-pool size.
    pub queries: usize,
    /// Seed for workload build and draws.
    pub seed: u64,
    /// Query index for `trace`.
    pub query_index: usize,
    /// Whether `--policy` was passed explicitly (so `bench` can honour
    /// it as a single-policy sweep).
    pub policy_set: bool,
    /// Worker threads for `bench`; 0 = available parallelism.
    pub threads: usize,
    /// Sweep dimensions for `bench`; empty = derive from the singular
    /// `--model` / `--quant` options.
    pub models: Vec<String>,
    /// Quant sweep for `bench`.
    pub quants: Vec<Quant>,
    /// Policy sweep for `bench`.
    pub policies: Vec<Policy>,
    /// Output document path.
    pub out: Option<String>,
    /// Serving workers for `loadgen`/`serve`; 0 = available parallelism.
    pub workers: usize,
    /// Zipf exponent for `loadgen`.
    pub zipf: f64,
    /// Sessions to generate for `loadgen`.
    pub sessions: usize,
    /// Mean requests per session for `loadgen`.
    pub requests: usize,
    /// Tenants sharing the engine for `loadgen` (1 = single-tenant).
    pub tenants: usize,
    /// Zipf exponent skewing traffic across tenants for `loadgen`.
    pub tenant_skew: f64,
    /// Admission-control flags for `loadgen`/`serve`.
    pub admission: AdmissionFlags,
    /// Device-profile and power-governor flags.
    pub energy: EnergyFlags,
    /// Trace JSON to replay (`serve`) or encode (`wire`).
    pub trace: Option<String>,
    /// Where `loadgen` writes the generated trace JSON.
    pub save_trace: Option<String>,
    /// `loadgen --churn N`: stamp N live registrations and N retirements
    /// onto the generated trace (0 = static catalog).
    pub churn: usize,
    /// Seed for the churn schedule (positions, synthetic tools, retire
    /// picks); independent of the trace seed.
    pub churn_seed: u64,
    /// Snapshot / checkpoint boot flags.
    pub snapshots: SnapshotFlags,
    /// Level-1 vector-index flags.
    pub index: IndexFlags,
    /// `lim bench --ann`: run the index-backend latency curve instead of
    /// the policy grid.
    pub ann: bool,
    /// Catalog sizes for the ann curve (`--catalogs 1000,10000`).
    pub catalogs: Vec<usize>,
    /// Baseline document for `compare`.
    pub baseline: Option<String>,
    /// Current document for `compare`.
    pub current: Option<String>,
    /// Relative regression tolerance for `compare`.
    pub tolerance: f64,
    /// `serve --stdin`: speak `lim/wire-v1` over stdin/stdout instead of
    /// replaying a trace file.
    pub stdin: bool,
    /// `serve --listen SOCKET`: speak `lim/wire-v1` over a unix socket.
    pub listen: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            benchmark: "bfcl".into(),
            model: "llama3.1-8b".into(),
            quant: Quant::Q4KM,
            policy: Policy::less_is_more(3),
            queries: 230,
            seed: 20_250_331,
            query_index: 0,
            policy_set: false,
            threads: 0,
            models: Vec::new(),
            quants: Vec::new(),
            policies: Vec::new(),
            out: None,
            workers: 0,
            zipf: 1.0,
            sessions: 64,
            requests: 8,
            tenants: 1,
            tenant_skew: 1.0,
            admission: AdmissionFlags::default(),
            energy: EnergyFlags::default(),
            trace: None,
            save_trace: None,
            churn: 0,
            churn_seed: crate::workloads::churn::ChurnConfig::default().seed,
            snapshots: SnapshotFlags::default(),
            index: IndexFlags::default(),
            ann: false,
            catalogs: Vec::new(),
            baseline: None,
            current: None,
            tolerance: 0.10,
            stdin: false,
            listen: None,
        }
    }
}

/// Parses a policy spec: `default`, `gorilla:K` or `lim:K`.
///
/// # Errors
///
/// Returns a description of the malformed spec.
pub fn parse_policy(text: &str) -> Result<Policy, String> {
    if text == "default" {
        return Ok(Policy::Default);
    }
    if let Some(k) = text.strip_prefix("gorilla:") {
        let k = k.parse().map_err(|_| format!("bad k in {text:?}"))?;
        return Ok(Policy::Gorilla { k });
    }
    if let Some(k) = text.strip_prefix("lim:") {
        let k = k.parse().map_err(|_| format!("bad k in {text:?}"))?;
        return Ok(Policy::less_is_more(k));
    }
    Err(format!("unknown policy {text:?}"))
}

/// Parses the flag list that follows a `lim` subcommand.
///
/// # Errors
///
/// Returns a description of the first unknown flag, missing value or
/// malformed argument.
pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--benchmark" => options.benchmark = value("--benchmark")?,
            "--model" => options.model = value("--model")?,
            "--quant" => {
                let v = value("--quant")?;
                options.quant = Quant::ALL
                    .into_iter()
                    .find(|q| q.label() == v)
                    .ok_or_else(|| format!("unknown quant {v:?}"))?;
            }
            "--policy" => {
                let v = value("--policy")?;
                options.policy = parse_policy(&v)?;
                options.policy_set = true;
            }
            "--queries" => {
                options.queries = value("--queries")?
                    .parse()
                    .map_err(|_| "--queries needs an integer".to_owned())?;
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_owned())?;
            }
            "--query" => {
                options.query_index = value("--query")?
                    .parse()
                    .map_err(|_| "--query needs an index".to_owned())?;
            }
            "--threads" => {
                options.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads needs an integer (0 = all cores)".to_owned())?;
            }
            "--models" => {
                options.models = value("--models")?.split(',').map(str::to_owned).collect();
            }
            "--quants" => {
                options.quants = value("--quants")?
                    .split(',')
                    .map(|v| {
                        Quant::ALL
                            .into_iter()
                            .find(|q| q.label() == v)
                            .ok_or_else(|| format!("unknown quant {v:?}"))
                    })
                    .collect::<Result<Vec<Quant>, String>>()?;
            }
            "--policies" => {
                options.policies = value("--policies")?
                    .split(',')
                    .map(parse_policy)
                    .collect::<Result<Vec<Policy>, String>>()?;
            }
            "--out" => options.out = Some(value("--out")?),
            "--workers" => {
                options.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs an integer (0 = all cores)".to_owned())?;
            }
            "--zipf" => {
                options.zipf = value("--zipf")?
                    .parse()
                    .map_err(|_| "--zipf needs a number".to_owned())?;
            }
            "--sessions" => {
                options.sessions = value("--sessions")?
                    .parse()
                    .map_err(|_| "--sessions needs an integer".to_owned())?;
            }
            "--requests" => {
                options.requests = value("--requests")?
                    .parse()
                    .map_err(|_| "--requests needs an integer".to_owned())?;
            }
            "--tenants" => {
                options.tenants = value("--tenants")?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| "--tenants needs a positive integer".to_owned())?;
            }
            "--tenant-skew" => {
                options.tenant_skew = value("--tenant-skew")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| "--tenant-skew needs a non-negative number".to_owned())?;
            }
            "--arrivals" => {
                options.admission.arrivals = Some(ArrivalProcess::parse(&value("--arrivals")?)?);
            }
            "--queue-depth" => {
                options.admission.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth needs an integer (0 = disabled)".to_owned())?;
            }
            "--shed-policy" => {
                options.admission.shed_policy = ShedPolicy::parse(&value("--shed-policy")?)?;
            }
            "--servers" => {
                options.admission.servers = value("--servers")?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| "--servers needs a positive integer".to_owned())?;
            }
            "--device" => {
                options.energy.device = value("--device")?
                    .parse()
                    .map_err(|e: crate::device::ParseDeviceError| e.to_string())?;
            }
            "--power-cap-w" => {
                options.energy.power_cap_w = value("--power-cap-w")?
                    .parse()
                    .ok()
                    .filter(|w: &f64| w.is_finite() && *w >= 0.0)
                    .ok_or_else(|| {
                        "--power-cap-w needs a non-negative number (0 = ungoverned)".to_owned()
                    })?;
            }
            "--carbon-trace" => {
                options.energy.carbon_trace = value("--carbon-trace")?
                    .parse()
                    .map_err(|_| "--carbon-trace needs an integer seed".to_owned())?;
            }
            "--carbon-budget" => {
                options.energy.carbon_budget_g_per_h = value("--carbon-budget")?
                    .parse()
                    .ok()
                    .filter(|g: &f64| g.is_finite() && *g >= 0.0)
                    .ok_or_else(|| {
                        "--carbon-budget needs a non-negative number in gCO2/h (0 = uncapped)"
                            .to_owned()
                    })?;
            }
            "--index" => {
                let v = value("--index")?;
                if !["flat", "ivf", "hnsw"].contains(&v.as_str()) {
                    return Err(format!("unknown index backend {v:?} (flat|ivf|hnsw)"));
                }
                options.index.index = v;
            }
            "--ef-search" => {
                options.index.ef_search = Some(
                    value("--ef-search")?
                        .parse()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| "--ef-search needs a positive integer".to_owned())?,
                );
            }
            "--ef-construction" => {
                options.index.ef_construction = Some(
                    value("--ef-construction")?
                        .parse()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| "--ef-construction needs a positive integer".to_owned())?,
                );
            }
            "--hnsw-m" => {
                options.index.hnsw_m = Some(
                    value("--hnsw-m")?
                        .parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or_else(|| "--hnsw-m needs an integer >= 2".to_owned())?,
                );
            }
            "--ann" => options.ann = true,
            "--catalogs" => {
                options.catalogs = value("--catalogs")?
                    .split(',')
                    .map(|v| {
                        v.parse()
                            .ok()
                            .filter(|n| *n > 0)
                            .ok_or_else(|| format!("bad catalog size {v:?}"))
                    })
                    .collect::<Result<Vec<usize>, String>>()?;
            }
            "--trace" => options.trace = Some(value("--trace")?),
            "--save-trace" => options.save_trace = Some(value("--save-trace")?),
            "--churn" => {
                options.churn = value("--churn")?
                    .parse()
                    .map_err(|_| "--churn needs an integer (0 = static catalog)".to_owned())?;
            }
            "--churn-seed" => {
                options.churn_seed = value("--churn-seed")?
                    .parse()
                    .map_err(|_| "--churn-seed needs an integer".to_owned())?;
            }
            "--snapshot" => options.snapshots.snapshot = Some(value("--snapshot")?),
            "--checkpoint" => options.snapshots.checkpoint = Some(value("--checkpoint")?),
            "--save-checkpoint" => {
                options.snapshots.save_checkpoint = Some(value("--save-checkpoint")?);
            }
            "--baseline" => options.baseline = Some(value("--baseline")?),
            "--current" => options.current = Some(value("--current")?),
            "--tolerance" => {
                options.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|_| "--tolerance needs a number".to_owned())?;
            }
            "--stdin" => options.stdin = true,
            "--listen" => options.listen = Some(value("--listen")?),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(options)
}

/// The `--help` text. Hand-maintained, but a unit test asserts every
/// `--flag` the parser accepts appears here, so new options cannot land
/// without their documentation.
pub fn help_text() -> String {
    "lim — Less-is-More tool-selection reproduction\n\n\
     commands:\n  \
     models     list the six calibrated model profiles\n  \
     evaluate   run a policy over a benchmark and print the paper's four metrics\n  \
     bench      sharded parallel policy sweep; prints the grid, optionally --out FILE\n  \
     trace      print the JSON execution trace of one query\n  \
     levels     build the offline search levels and print their shape\n  \
     snapshot   build: write a lim/snapshot-v1 boot snapshot (--out FILE);\n             \
     inspect: print its header and section table without decoding sections\n  \
     loadgen    generate a Zipf session trace and replay it on the serving engine\n  \
     serve      replay a saved trace JSON on the serving engine (--trace FILE),\n             \
     or ingest a live lim/wire-v1 stream (--stdin | --listen SOCKET)\n  \
     wire       encode a trace JSON as a lim/wire-v1 request stream (--trace FILE)\n  \
     compare    gate a BENCH_*.json against a committed baseline (CI)\n\n\
     options:\n  \
     --benchmark bfcl|geoengine   --model NAME          --quant f16|q4_0|q4_1|q4_K_M|q8_0\n  \
     --policy default|gorilla:K|lim:K                   --queries N    --seed S\n  \
     --query I (trace only)\n  \
     --index flat|ivf|hnsw        Level-1 vector-index backend (default flat;\n  \
     snapshots and checkpoints carry their own index kind and ignore the flag)\n  \
     --hnsw-m N  --ef-construction N  --ef-search N    HNSW graph knobs\n  \
     --device agx-orin|agx-orin-30w|orin-nano   device profile the energy model\n  \
     bills phase costs on (evaluate/bench/loadgen/serve; default agx-orin)\n\n\
     bench options:\n  \
     --threads N (0 = all cores)  --models a,b,c        --quants q4_K_M,q8_0\n  \
     --policies default,gorilla:3,lim:3,lim:5           --out BENCH_2.json\n  \
     --ann  (index-backend latency-vs-catalog-size curve, lim-bench/ann-v1,\n  \
     instead of the policy grid)   --catalogs 1000,10000  (sizes for --ann)\n\n\
     loadgen / serve options:\n  \
     --workers N (0 = all cores)  --zipf S  --sessions N  --requests N (mean/session)\n  \
     --tenants N (loadgen: share the engine across N isolated catalogs; 1 = classic\n  \
     single-tenant path, byte-identical to the pre-tenancy engine)\n  \
     --tenant-skew S (loadgen: Zipf exponent skewing traffic across tenants;\n  \
     0 = uniform, larger = hotter tenant 0)\n  \
     --arrivals back-to-back|poisson:RATE|burst:RATE:SIZE   (loadgen stamps the trace;\n  \
     serve/wire deterministically re-stamp a loaded trace — strictly opt-in, a\n  \
     replayed or streamed trace's own timestamps are honored unless the flag is given)\n  \
     --queue-depth N (0 = no admission control)  --shed-policy reject|degrade\n  \
     --servers N (simulated executors draining the admission queue)\n  \
     --power-cap-w W (sustained-watts cap for the energy governor; the engine\n  \
     steps service down to an economy quantization when the sliding window\n  \
     would breach the cap and back up with hysteresis; 0 = ungoverned; needs an\n  \
     open-loop stream: a back-to-back one is rejected)\n  \
     --carbon-trace SEED (seed for the deterministic grid carbon-intensity trace)\n  \
     --carbon-budget G (grams CO2 per hour the governor holds the window under;\n  \
     0 = no carbon cap; open-loop streams only, like --power-cap-w)\n  \
     --save-trace FILE (loadgen)  --trace FILE (serve/wire)  --out BENCH_serve_1.json\n  \
     --churn N (loadgen: stamp N live tool registrations + N retirements onto the\n  \
     trace at seeded positions; retires never touch tools the gold labels need)\n  \
     --churn-seed S (seed for the churn schedule, independent of --seed)\n  \
     --stdin (serve: read lim/wire-v1 frames from stdin, answer on stdout;\n  \
     EOF or SIGTERM drains gracefully and emits the final report frame)\n  \
     --listen SOCKET (serve: accept lim/wire-v1 connections on a unix socket,\n  \
     one stream at a time on the same warm engine; SIGTERM stops accepting)\n  \
     --snapshot FILE (boot from a lim/snapshot-v1 snapshot: skip the level build;\n  \
     also the file argument of `snapshot inspect`)\n  \
     --checkpoint FILE (restore warm caches + session state from a checkpoint:\n  \
     skip the level build AND the cold-cache ramp)\n  \
     --save-checkpoint FILE (write the engine's warm state after the replay\n  \
     or on graceful wire-stream drain)\n  \
     (serve rebuilds the exact generation-time workload from the trace document\n  \
     itself — benchmark, seed and pool size are recorded in the JSON; a wire\n  \
     stream's hello frame carries the same fields)\n\n\
     compare options:\n  \
     --baseline FILE  --current FILE  --tolerance 0.10"
        .to_owned()
}

#[cfg(test)]
mod tests {
    /// The usage block is hand-maintained and has drifted before: this
    /// scans the parser's own source for `"--flag" =>` match arms and
    /// asserts each flag appears in the `--help` output, so a new option
    /// cannot land undocumented.
    #[test]
    fn every_parsed_flag_appears_in_help() {
        let source = include_str!("cli.rs");
        let help = super::help_text();
        let mut flags = Vec::new();
        for line in source.lines() {
            let trimmed = line.trim();
            let Some(rest) = trimmed.strip_prefix("\"--") else {
                continue;
            };
            let Some((flag, after)) = rest.split_once('"') else {
                continue;
            };
            if !after.trim_start().starts_with("=>") {
                continue;
            }
            flags.push(format!("--{flag}"));
        }
        assert!(
            flags.len() >= 39,
            "flag scan looks broken: only found {flags:?}"
        );
        for required in [
            "--index",
            "--ef-search",
            "--ef-construction",
            "--hnsw-m",
            "--stdin",
            "--listen",
            "--device",
            "--power-cap-w",
            "--carbon-trace",
            "--carbon-budget",
        ] {
            assert!(
                flags.iter().any(|f| f == required),
                "{required} is not parsed anywhere"
            );
        }
        for flag in &flags {
            assert!(
                help.contains(flag.as_str()),
                "{flag} is parsed but missing from the --help text"
            );
        }
    }

    /// The snapshot/checkpoint flags parse into the options they set.
    #[test]
    fn snapshot_flags_parse() {
        let args: Vec<String> = [
            "--snapshot",
            "levels.limsnap",
            "--checkpoint",
            "warm.limsnap",
            "--save-checkpoint",
            "next.limsnap",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let options = super::parse(&args).expect("valid flags");
        assert_eq!(
            options.snapshots.snapshot.as_deref(),
            Some("levels.limsnap")
        );
        assert_eq!(
            options.snapshots.checkpoint.as_deref(),
            Some("warm.limsnap")
        );
        assert_eq!(
            options.snapshots.save_checkpoint.as_deref(),
            Some("next.limsnap")
        );
        assert!(super::parse(&["--snapshot".to_owned()]).is_err());
    }

    /// The index-backend flags parse into the spec the level build uses,
    /// regardless of flag order.
    #[test]
    fn index_flags_parse() {
        let args: Vec<String> = [
            "--ef-search",
            "96",
            "--index",
            "hnsw",
            "--hnsw-m",
            "24",
            "--ef-construction",
            "200",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let options = super::parse(&args).expect("valid flags");
        let super::IndexSpec::Hnsw(params) = options.index.spec() else {
            panic!("--index hnsw must resolve to an HNSW spec");
        };
        assert_eq!(params.m, 24);
        assert_eq!(params.ef_construction, 200);
        assert_eq!(params.ef_search, 96);

        let flat = super::parse(&[]).expect("defaults");
        assert!(matches!(flat.index.spec(), super::IndexSpec::Flat));
        let ivf = super::parse(&["--index".to_owned(), "ivf".to_owned()]).expect("ivf");
        assert!(matches!(ivf.index.spec(), super::IndexSpec::Ivf(_)));

        assert!(super::parse(&["--index".to_owned(), "pq".to_owned()]).is_err());
        assert!(super::parse(&["--hnsw-m".to_owned(), "1".to_owned()]).is_err());
        assert!(super::parse(&["--ef-search".to_owned(), "0".to_owned()]).is_err());
    }

    /// The ann-curve flags parse: `--ann` is a bare switch and
    /// `--catalogs` is a positive-integer list.
    #[test]
    fn ann_flags_parse() {
        let args: Vec<String> = ["--ann", "--catalogs", "500,2000"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let options = super::parse(&args).expect("valid flags");
        assert!(options.ann);
        assert_eq!(options.catalogs, vec![500, 2000]);
        assert!(super::parse(&["--catalogs".to_owned(), "10,x".to_owned()]).is_err());
        assert!(super::parse(&["--catalogs".to_owned(), "0".to_owned()]).is_err());
    }

    /// The admission flags parse into the options they claim to set, and
    /// resolve into the engine-side configuration.
    #[test]
    fn admission_flags_parse() {
        let args: Vec<String> = [
            "--arrivals",
            "poisson:2.5",
            "--queue-depth",
            "16",
            "--shed-policy",
            "degrade",
            "--servers",
            "2",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let options = super::parse(&args).expect("valid flags");
        assert_eq!(
            options.admission.arrivals,
            Some(super::ArrivalProcess::Poisson { rate_rps: 2.5 })
        );
        assert_eq!(options.admission.queue_depth, 16);
        assert_eq!(options.admission.shed_policy, super::ShedPolicy::Degrade);
        assert_eq!(options.admission.servers, 2);
        let config = options.admission.config();
        assert_eq!(config.queue_depth, 16);
        assert_eq!(config.servers, 2);
        assert_eq!(config.shed_policy, super::ShedPolicy::Degrade);
        assert!(super::parse(&["--arrivals".to_owned(), "warp:9".to_owned()]).is_err());
        assert!(super::parse(&["--shed-policy".to_owned(), "panic".to_owned()]).is_err());
    }

    /// Arrival re-stamping stays strictly opt-in: the default parse
    /// leaves `arrivals` unset, so a loaded or streamed trace's recorded
    /// timestamps are honored unless `--arrivals` is explicitly given.
    #[test]
    fn arrival_restamp_is_opt_in() {
        let defaults = super::parse(&[]).expect("defaults");
        assert_eq!(defaults.admission.arrivals, None);
        let explicit = super::parse(&["--arrivals".to_owned(), "back-to-back".to_owned()])
            .expect("explicit back-to-back");
        assert_eq!(
            explicit.admission.arrivals,
            Some(super::ArrivalProcess::BackToBack),
            "even the default process counts as an explicit re-stamp request"
        );
    }

    /// The tenancy flags parse and reject the degenerate values the
    /// fleet layer cannot represent (zero tenants, negative skew).
    #[test]
    fn tenancy_flags_parse() {
        let args: Vec<String> = ["--tenants", "8", "--tenant-skew", "1.2"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let options = super::parse(&args).expect("valid flags");
        assert_eq!(options.tenants, 8);
        assert!((options.tenant_skew - 1.2).abs() < 1e-12);
        let defaults = super::parse(&[]).expect("defaults");
        assert_eq!(defaults.tenants, 1);
        assert!((defaults.tenant_skew - 1.0).abs() < 1e-12);
        assert!(super::parse(&["--tenants".to_owned(), "0".to_owned()]).is_err());
        assert!(super::parse(&["--tenant-skew".to_owned(), "-1".to_owned()]).is_err());
    }

    /// The energy flags parse into the device kind and governor
    /// configuration, uniform across subcommands, and reject negative
    /// or non-finite budgets.
    #[test]
    fn energy_flags_parse() {
        let args: Vec<String> = [
            "--device",
            "orin-nano",
            "--power-cap-w",
            "18.5",
            "--carbon-trace",
            "7",
            "--carbon-budget",
            "120",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let options = super::parse(&args).expect("valid flags");
        assert_eq!(options.energy.device, super::DeviceKind::OrinNano);
        let governor = options.energy.governor();
        assert!((governor.power_cap_w - 18.5).abs() < 1e-12);
        assert_eq!(governor.carbon_seed, 7);
        assert!((governor.carbon_budget_g_per_h - 120.0).abs() < 1e-12);
        assert!(governor.active());

        let defaults = super::parse(&[]).expect("defaults");
        assert_eq!(defaults.energy.device, super::DeviceKind::AgxOrin);
        assert!(!defaults.energy.governor().active());

        assert!(super::parse(&["--device".to_owned(), "threadripper".to_owned()]).is_err());
        assert!(super::parse(&["--power-cap-w".to_owned(), "-5".to_owned()]).is_err());
        assert!(super::parse(&["--power-cap-w".to_owned(), "inf".to_owned()]).is_err());
        assert!(super::parse(&["--carbon-budget".to_owned(), "nan".to_owned()]).is_err());
    }

    /// The wire-ingestion flags parse: `--stdin` is a bare switch and
    /// `--listen` takes a socket path.
    #[test]
    fn wire_flags_parse() {
        let options = super::parse(&["--stdin".to_owned()]).expect("valid flags");
        assert!(options.stdin);
        assert_eq!(options.listen, None);
        let options = super::parse(&["--listen".to_owned(), "/tmp/lim.sock".to_owned()])
            .expect("valid flags");
        assert!(!options.stdin);
        assert_eq!(options.listen.as_deref(), Some("/tmp/lim.sock"));
        assert!(super::parse(&["--listen".to_owned()]).is_err());
    }
}
