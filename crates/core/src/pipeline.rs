//! Per-query execution under a tool-presentation policy.

use lim_device::{DeviceProfile, EnergyMeter, QueryCost};
use lim_llm::{
    agent::CallAttempt,
    recommender::recommend_descriptions,
    timing::{phases, InferenceRequest},
    tokens, ModelProfile, Quant, TaskKind,
};
use lim_vecstore::VectorIndex;
use lim_workloads::{Query, Workload, WorkloadKind};

use crate::controller::{ControllerConfig, SearchLevel, ToolController, ToolSelection};
use crate::levels::SearchLevels;

/// Context window (tokens) for the default all-tools policy (§IV: 16k).
pub const DEFAULT_CONTEXT: u32 = 16_384;
/// Context window for Gorilla and Less-is-More (§IV: reduced to 8k).
pub const REDUCED_CONTEXT: u32 = 8_192;
/// Simulated length (characters) of one upstream step result appended to
/// the prompt of later chain steps.
const HISTORY_CHARS_PER_STEP: usize = 320;

/// A tool-presentation policy under evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Vanilla function calling: all tools, 16k context.
    Default,
    /// Gorilla-style retrieval: top-k tools by *query* embedding against
    /// the whole tool ontology, once per query, 8k context. This "closely
    /// resembles running only Level 1" (§III-C) and cannot adapt to later
    /// chain steps.
    Gorilla {
        /// Number of tools retrieved.
        k: usize,
    },
    /// The paper's method: recommender + controller + fallbacks, 8k
    /// context (16k on Level-3 fallback).
    LessIsMore {
        /// Controller configuration (k, confidence threshold).
        config: ControllerConfig,
    },
}

impl Policy {
    /// Less-is-More with the default confidence threshold and given `k`.
    pub fn less_is_more(k: usize) -> Policy {
        Policy::LessIsMore {
            config: ControllerConfig::with_k(k),
        }
    }

    /// Short display label (`"default"`, `"gorilla"`, `"lim-k3"`, …).
    pub fn label(&self) -> String {
        match self {
            Policy::Default => "default".into(),
            Policy::Gorilla { k } => format!("gorilla-k{k}"),
            Policy::LessIsMore { config } => format!("lim-k{}", config.k),
        }
    }

    fn context_tokens(&self) -> u32 {
        match self {
            Policy::Default => DEFAULT_CONTEXT,
            _ => REDUCED_CONTEXT,
        }
    }

    fn tag(&self) -> u64 {
        match self {
            Policy::Default => 1,
            Policy::Gorilla { .. } => 2,
            Policy::LessIsMore { .. } => 3,
        }
    }
}

/// Outcome and cost of one query under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Id of the executed query.
    pub query_id: u64,
    /// All steps selected the correct tool *and* passed argument
    /// validation (the paper's Success Rate).
    pub success: bool,
    /// All steps selected the correct tool (the paper's Tool Accuracy).
    pub tool_correct: bool,
    /// Total latency and energy.
    pub cost: QueryCost,
    /// Seconds spent in the recommender step (zero for non-LiM policies).
    pub recommender_seconds: f64,
    /// Search level the controller committed to (None for Default).
    pub level: Option<SearchLevel>,
    /// Number of tools offered to the agent.
    pub offered_tools: usize,
    /// Whether the runtime error fallback to Level 3 fired.
    pub fell_back: bool,
}

/// Executes queries of one workload for one (model, quant) pair.
#[derive(Debug, Clone)]
pub struct Pipeline<'a> {
    workload: &'a Workload,
    levels: &'a SearchLevels,
    model: &'a ModelProfile,
    quant: Quant,
    device: DeviceProfile,
    seed: u64,
    /// Rendered full-catalog payload; fallback retries are sized by its
    /// length.
    full_json: String,
}

impl<'a> Pipeline<'a> {
    /// Creates a pipeline on the default device (Jetson AGX Orin).
    pub fn new(
        workload: &'a Workload,
        levels: &'a SearchLevels,
        model: &'a ModelProfile,
        quant: Quant,
    ) -> Self {
        Self {
            workload,
            levels,
            model,
            quant,
            device: DeviceProfile::jetson_agx_orin(),
            seed: 0x1E55_1530, // "less is more"
            full_json: workload.registry.render_all().to_string(),
        }
    }

    /// Replaces the device profile.
    pub fn with_device(mut self, device: DeviceProfile) -> Self {
        self.device = device;
        self
    }

    /// Replaces the base seed (experiments vary it across repetitions).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// This pipeline at another quantization: the same workload, levels,
    /// model, device, seed and rendered catalog, without rendering the
    /// catalog again.
    pub fn at_quant(&self, quant: Quant) -> Self {
        Self {
            quant,
            ..self.clone()
        }
    }

    /// The workload this pipeline evaluates.
    pub fn workload(&self) -> &'a Workload {
        self.workload
    }

    /// The task regime of the underlying workload.
    pub fn task_kind(&self) -> TaskKind {
        match self.workload.kind {
            WorkloadKind::SingleCall => TaskKind::SingleCall,
            WorkloadKind::Sequential => TaskKind::Sequential,
        }
    }

    /// Runs every evaluation query under `policy`.
    pub fn run_all(&self, policy: Policy) -> Vec<QueryResult> {
        self.workload
            .queries
            .iter()
            .map(|q| self.run_query(q, policy))
            .collect()
    }

    /// Runs one query under `policy`.
    pub fn run_query(&self, query: &Query, policy: Policy) -> QueryResult {
        self.run_query_inner(query, policy, &mut None).0
    }

    /// Runs one query and captures a full [`QueryTrace`] — recommender
    /// output, controller decision, per-step attempt records and the
    /// device phase breakdown. Tracing does not change outcomes: the same
    /// seeds drive the same draws as [`Pipeline::run_query`].
    pub fn run_query_traced(&self, query: &Query, policy: Policy) -> (QueryResult, QueryTrace) {
        let mut trace = Some(QueryTrace::new(query.id, policy.label()));
        let (result, _) = self.run_query_inner(query, policy, &mut trace);
        (result, trace.expect("trace was installed"))
    }

    fn run_query_inner(
        &self,
        query: &Query,
        policy: Policy,
        trace: &mut Option<QueryTrace>,
    ) -> (QueryResult, ()) {
        let mut meter = EnergyMeter::new();
        let mut recommender_seconds = 0.0;
        let task = self.task_kind();

        // ---- Tool selection.
        let (selection, level) = match policy {
            Policy::Default => (None, None),
            Policy::Gorilla { k } => {
                let embedding = self.levels.embedder().embed(&query.text);
                let hits = self.levels.tool_index().search(embedding.as_slice(), k);
                let tools: Vec<usize> = hits.iter().map(|h| h.id as usize).collect();
                (
                    Some(ToolSelection {
                        level: SearchLevel::Individual,
                        tool_indices: tools,
                        level1_score: 0.0,
                        level2_score: 0.0,
                    }),
                    Some(SearchLevel::Individual),
                )
            }
            Policy::LessIsMore { config } => {
                // Recommender inference (no tools attached — §III-B).
                let rec_request = self.recommender_request(&query.text);
                for phase in phases(self.model, self.quant, &rec_request) {
                    let cost = self.device.run_phase(&phase);
                    recommender_seconds += cost.seconds;
                    meter.record(cost);
                }
                let gold_descriptions: Vec<String> = query
                    .steps
                    .iter()
                    .filter_map(|s| self.workload.registry.get_by_name(&s.tool))
                    .map(|t| t.description().to_owned())
                    .collect();
                let gold_refs: Vec<&str> = gold_descriptions.iter().map(String::as_str).collect();
                let recs = recommend_descriptions(
                    self.model,
                    self.quant,
                    &query.text,
                    &gold_refs,
                    self.attempt_seed(query.id, 0xEC, 0, policy.tag()),
                );
                if let Some(t) = trace.as_mut() {
                    t.recommendations = recs.clone();
                }
                let controller = ToolController::new(self.levels, config);
                let selection = controller.select(&query.text, &recs);
                let level = selection.level;
                (Some(selection), Some(level))
            }
        };
        if let Some(t) = trace.as_mut() {
            t.selection = selection.clone();
        }

        let offered: Vec<usize> = match &selection {
            Some(s) => s.tool_indices.clone(),
            None => self.levels.full_level(),
        };
        let tools_chars = self.workload.registry.prompt_chars(&offered);
        let context = match &selection {
            // Confidence fallback to Level 3 runs like vanilla calling.
            Some(s) if s.level == SearchLevel::Full => DEFAULT_CONTEXT,
            _ => policy.context_tokens(),
        };

        // ---- Execute the gold chain step by step.
        let mut success = true;
        let mut tool_correct = true;
        let mut fell_back = false;

        for (step_index, step) in query.steps.iter().enumerate() {
            let gold_index = self
                .workload
                .registry
                .index_of(&step.tool)
                .expect("gold tool exists in registry");
            let history_chars = step_index * HISTORY_CHARS_PER_STEP;
            let prompt_tokens =
                tokens::agent_prompt_tokens(query.text.len(), tools_chars, history_chars);
            let fits = prompt_tokens <= context;
            let gold_offered = offered.contains(&gold_index) && fits;

            let attempt = CallAttempt {
                model: self.model,
                quant: self.quant,
                task,
                offered: offered.len(),
                gold_offered,
                seed: self.attempt_seed(query.id, step_index as u64, 0, policy.tag()),
            };
            let mut outcome = attempt.resolve();
            self.record_call(
                &mut meter,
                prompt_tokens,
                attempt.decode_tokens(outcome),
                context,
            );
            let mut retried = false;

            // Runtime error fallback (§III-C): on a signalled error,
            // Less-is-More retries the step with all tools at the default
            // context ("vanilla" function calling).
            if outcome == lim_llm::AgentOutcome::ErrorSignaled {
                if let Policy::LessIsMore { .. } = policy {
                    fell_back = true;
                    retried = true;
                    let retry = CallAttempt {
                        model: self.model,
                        quant: self.quant,
                        task,
                        offered: self.levels.tool_count(),
                        gold_offered: true,
                        seed: self.attempt_seed(query.id, step_index as u64, 1, policy.tag()),
                    };
                    outcome = retry.resolve();
                    let retry_prompt = tokens::agent_prompt_tokens(
                        query.text.len(),
                        self.full_json.len(),
                        history_chars,
                    );
                    self.record_call(
                        &mut meter,
                        retry_prompt,
                        retry.decode_tokens(outcome),
                        DEFAULT_CONTEXT,
                    );
                }
            }

            if let Some(t) = trace.as_mut() {
                t.steps.push(StepTrace {
                    expected_tool: step.tool.clone(),
                    outcome,
                    offered: offered.len(),
                    prompt_tokens,
                    gold_offered,
                    retried,
                });
            }

            tool_correct &= outcome.tool_correct();
            success &= outcome.is_success();

            if outcome == lim_llm::AgentOutcome::ErrorSignaled {
                // The agent gave up; the chain cannot continue.
                break;
            }
        }

        if let Some(t) = trace.as_mut() {
            t.phases = meter.phases().to_vec();
        }

        let result = QueryResult {
            query_id: query.id,
            success,
            tool_correct,
            cost: meter.total(),
            recommender_seconds,
            level,
            offered_tools: offered.len(),
            fell_back,
        };
        (result, ())
    }

    /// Runs one query with a *manually fixed* tool subset and context
    /// window — the paper's Table II protocol, where 46 vs 19 tools and
    /// 16k vs 8k contexts are compared without any selection machinery.
    ///
    /// This is also the serving engine's per-request path, so it builds
    /// no prompt: the tools payload is sized by the registry's
    /// `prompt_chars` and the history by arithmetic, giving the same
    /// token counts as rendering them.
    pub fn run_query_offered(
        &self,
        query: &Query,
        offered: &[usize],
        context_tokens: u32,
    ) -> QueryResult {
        let mut meter = EnergyMeter::new();
        let task = self.task_kind();
        let tools_chars = self.workload.registry.prompt_chars(offered);
        let mut success = true;
        let mut tool_correct = true;

        for (step_index, step) in query.steps.iter().enumerate() {
            let gold_index = self
                .workload
                .registry
                .index_of(&step.tool)
                .expect("gold tool exists in registry");
            let prompt_tokens = tokens::agent_prompt_tokens(
                query.text.len(),
                tools_chars,
                step_index * HISTORY_CHARS_PER_STEP,
            );
            let gold_offered = offered.contains(&gold_index) && prompt_tokens <= context_tokens;
            let attempt = CallAttempt {
                model: self.model,
                quant: self.quant,
                task,
                offered: offered.len(),
                gold_offered,
                seed: self.attempt_seed(query.id, step_index as u64, 0, 7),
            };
            let outcome = attempt.resolve();
            self.record_call(
                &mut meter,
                prompt_tokens,
                attempt.decode_tokens(outcome),
                context_tokens,
            );
            tool_correct &= outcome.tool_correct();
            success &= outcome.is_success();
            if outcome == lim_llm::AgentOutcome::ErrorSignaled {
                break;
            }
        }

        QueryResult {
            query_id: query.id,
            success,
            tool_correct,
            cost: meter.total(),
            recommender_seconds: 0.0,
            level: None,
            offered_tools: offered.len(),
            fell_back: false,
        }
    }

    /// The inference request one recommender call issues for `query_text`
    /// (no tools attached, reduced context — §III-B).
    fn recommender_request(&self, query_text: &str) -> InferenceRequest {
        InferenceRequest {
            prompt_tokens: tokens::recommender_prompt_tokens(query_text),
            decode_tokens: self.model.recommend_tokens,
            context_tokens: REDUCED_CONTEXT,
        }
    }

    /// Device cost of one recommender inference for `query_text` — what a
    /// Less-is-More selection pays *before* any agent call. Serving-layer
    /// callers (see `lim-serve`) bill this on tool-selection cache misses.
    pub fn recommender_cost(&self, query_text: &str) -> QueryCost {
        let mut meter = EnergyMeter::new();
        let request = self.recommender_request(query_text);
        for phase in phases(self.model, self.quant, &request) {
            meter.record(self.device.run_phase(&phase));
        }
        meter.total()
    }

    /// See [`Pipeline::run_query_traced`]; this is the helper that builds
    /// the per-call device phases.
    fn record_call(&self, meter: &mut EnergyMeter, prompt: u32, decode: u32, context: u32) {
        let request = InferenceRequest {
            prompt_tokens: prompt,
            decode_tokens: decode,
            context_tokens: context,
        };
        for phase in phases(self.model, self.quant, &request) {
            meter.record(self.device.run_phase(&phase));
        }
    }

    fn attempt_seed(&self, query_id: u64, step: u64, attempt: u64, policy_tag: u64) -> u64 {
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(query_id.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(step.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
            .wrapping_add(attempt.wrapping_mul(0x2545_F491_4F6C_DD1D))
            .wrapping_add(policy_tag.wrapping_mul(0x9E6D_62D0_6F6A_9A9B))
            // The model/quant identity must decorrelate draws too.
            .wrapping_add(self.model.name.len() as u64 * 0x0001_0000_01b3)
            .wrapping_add(self.model.name.as_bytes()[0] as u64)
            .wrapping_add(self.quant.bits_per_weight().to_bits());
        // SplitMix64 finaliser.
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// One agent call recorded by [`Pipeline::run_query_traced`].
#[derive(Debug, Clone, PartialEq)]
pub struct StepTrace {
    /// Gold tool the step was supposed to call.
    pub expected_tool: String,
    /// How the attempt resolved (after any fallback retry).
    pub outcome: lim_llm::AgentOutcome,
    /// Number of tools in the prompt.
    pub offered: usize,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Whether the gold tool was among the offered ones.
    pub gold_offered: bool,
    /// Whether the Level-3 error fallback re-ran this step.
    pub retried: bool,
}

/// Full execution record of one query: what the recommender said, what the
/// controller picked, what each step did and what the device billed.
///
/// Serializable via [`QueryTrace::to_json`] for offline analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Query id.
    pub query_id: u64,
    /// Policy label the query ran under.
    pub policy: String,
    /// Recommender output (empty for non-LiM policies).
    pub recommendations: Vec<String>,
    /// Controller decision (None for the default policy).
    pub selection: Option<ToolSelection>,
    /// Per-step attempt records.
    pub steps: Vec<StepTrace>,
    /// Device phase breakdown, in execution order.
    pub phases: Vec<lim_device::PhaseCost>,
}

impl QueryTrace {
    fn new(query_id: u64, policy: String) -> Self {
        Self {
            query_id,
            policy,
            recommendations: Vec::new(),
            selection: None,
            steps: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Serializes the trace to JSON for logging or offline analysis.
    pub fn to_json(&self) -> lim_json::Value {
        use lim_json::Value;
        let steps: Value = self
            .steps
            .iter()
            .map(|s| {
                Value::object([
                    ("expected_tool", Value::from(s.expected_tool.as_str())),
                    ("outcome", Value::from(format!("{:?}", s.outcome))),
                    ("offered", Value::from(s.offered)),
                    ("prompt_tokens", Value::from(i64::from(s.prompt_tokens))),
                    ("gold_offered", Value::from(s.gold_offered)),
                    ("retried", Value::from(s.retried)),
                ])
            })
            .collect();
        let phases: Value = self
            .phases
            .iter()
            .map(|p| {
                Value::object([
                    ("label", Value::from(p.label.as_str())),
                    ("seconds", Value::from(p.seconds)),
                    ("watts", Value::from(p.watts)),
                    ("joules", Value::from(p.joules)),
                ])
            })
            .collect();
        let mut doc = lim_json::Value::object([
            ("query_id", Value::from(self.query_id as i64)),
            ("policy", Value::from(self.policy.as_str())),
            (
                "recommendations",
                self.recommendations
                    .iter()
                    .map(|r| Value::from(r.as_str()))
                    .collect(),
            ),
            ("steps", steps),
            ("phases", phases),
        ]);
        if let Some(sel) = &self.selection {
            doc.insert(
                "selection",
                Value::object([
                    ("level", Value::from(sel.level.to_string())),
                    (
                        "tools",
                        sel.tool_indices.iter().map(|t| Value::from(*t)).collect(),
                    ),
                    ("level1_score", Value::from(f64::from(sel.level1_score))),
                    ("level2_score", Value::from(f64::from(sel.level2_score))),
                ]),
            );
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::SearchLevels;
    use lim_workloads::{bfcl, geoengine};

    fn setup(geo: bool) -> (lim_workloads::Workload, SearchLevels, ModelProfile) {
        let w = if geo { geoengine(11, 40) } else { bfcl(11, 40) };
        let levels = SearchLevels::build(&w);
        let model = ModelProfile::by_name("llama3.1-8b").unwrap();
        (w, levels, model)
    }

    #[test]
    fn default_policy_offers_all_tools() {
        let (w, levels, model) = setup(false);
        let p = Pipeline::new(&w, &levels, &model, Quant::Q4KM);
        let r = p.run_query(&w.queries[0], Policy::Default);
        assert_eq!(r.offered_tools, 51);
        assert_eq!(r.level, None);
        assert_eq!(r.recommender_seconds, 0.0);
        assert!(!r.fell_back);
    }

    #[test]
    fn lim_policy_offers_fewer_tools_most_of_the_time() {
        let (w, levels, model) = setup(false);
        let p = Pipeline::new(&w, &levels, &model, Quant::Q4KM);
        let results = p.run_all(Policy::less_is_more(3));
        let avg_offered: f64 =
            results.iter().map(|r| r.offered_tools as f64).sum::<f64>() / results.len() as f64;
        assert!(
            avg_offered < 20.0,
            "LiM offered {avg_offered:.1} tools on average"
        );
    }

    #[test]
    fn lim_is_faster_than_default_on_bfcl() {
        let (w, levels, model) = setup(false);
        let p = Pipeline::new(&w, &levels, &model, Quant::Q4KM);
        let t_default: f64 = p
            .run_all(Policy::Default)
            .iter()
            .map(|r| r.cost.seconds)
            .sum();
        let t_lim: f64 = p
            .run_all(Policy::less_is_more(3))
            .iter()
            .map(|r| r.cost.seconds)
            .sum();
        assert!(
            t_lim < 0.7 * t_default,
            "LiM {t_lim:.1}s vs default {t_default:.1}s"
        );
    }

    #[test]
    fn results_are_deterministic() {
        let (w, levels, model) = setup(true);
        let p = Pipeline::new(&w, &levels, &model, Quant::Q4KM);
        let a = p.run_all(Policy::less_is_more(3));
        let b = p.run_all(Policy::less_is_more(3));
        assert_eq!(a, b);
    }

    #[test]
    fn at_quant_equals_a_fresh_pipeline_at_that_quant() {
        let (w, levels, model) = setup(true);
        let base = Pipeline::new(&w, &levels, &model, Quant::Q8_0).with_seed(9);
        let fresh = Pipeline::new(&w, &levels, &model, Quant::Q4_0).with_seed(9);
        let derived = base.at_quant(Quant::Q4_0);
        for policy in [Policy::Default, Policy::less_is_more(3)] {
            assert_eq!(derived.run_all(policy), fresh.run_all(policy));
        }
        assert_ne!(
            base.run_all(Policy::Default),
            fresh.run_all(Policy::Default),
            "the quant must matter for this check to mean anything"
        );
    }

    #[test]
    fn different_seeds_change_outcomes() {
        let (w, levels, model) = setup(false);
        let a = Pipeline::new(&w, &levels, &model, Quant::Q4KM)
            .with_seed(1)
            .run_all(Policy::Default);
        let b = Pipeline::new(&w, &levels, &model, Quant::Q4KM)
            .with_seed(2)
            .run_all(Policy::Default);
        let succ = |rs: &[QueryResult]| rs.iter().filter(|r| r.success).count();
        // Statistically near-certain to differ on 40 Bernoulli draws.
        assert_ne!(
            (succ(&a), a[0].cost.seconds.to_bits()),
            (succ(&b), b[0].cost.seconds.to_bits())
        );
    }

    #[test]
    fn recommender_time_is_small_fraction_of_default_query() {
        let (w, levels, model) = setup(false);
        let p = Pipeline::new(&w, &levels, &model, Quant::Q4KM);
        let default_avg: f64 = p
            .run_all(Policy::Default)
            .iter()
            .map(|r| r.cost.seconds)
            .sum::<f64>()
            / 40.0;
        let lim = p.run_all(Policy::less_is_more(3));
        let rec_avg: f64 = lim.iter().map(|r| r.recommender_seconds).sum::<f64>() / 40.0;
        assert!(
            rec_avg < 0.5 * default_avg,
            "recommender {rec_avg:.2}s vs default query {default_avg:.2}s"
        );
    }

    #[test]
    fn recommender_cost_matches_pipeline_accounting() {
        let (w, levels, model) = setup(false);
        let p = Pipeline::new(&w, &levels, &model, Quant::Q4KM);
        let q = &w.queries[0];
        let r = p.run_query(q, Policy::less_is_more(3));
        let cost = p.recommender_cost(&q.text);
        assert!((cost.seconds - r.recommender_seconds).abs() < 1e-12);
        assert!(cost.joules > 0.0);
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(Policy::Default.label(), "default");
        assert_eq!(Policy::Gorilla { k: 5 }.label(), "gorilla-k5");
        assert_eq!(Policy::less_is_more(3).label(), "lim-k3");
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let (w, levels, model) = setup(true);
        let p = Pipeline::new(&w, &levels, &model, Quant::Q4KM);
        for policy in [Policy::Default, Policy::less_is_more(3)] {
            let plain = p.run_query(&w.queries[1], policy);
            let (traced, trace) = p.run_query_traced(&w.queries[1], policy);
            assert_eq!(plain, traced, "tracing must not perturb outcomes");
            assert!(!trace.steps.is_empty());
            assert!(!trace.phases.is_empty());
            let total: f64 = trace.phases.iter().map(|ph| ph.seconds).sum();
            assert!((total - traced.cost.seconds).abs() < 1e-9);
        }
    }

    #[test]
    fn trace_serializes_to_parseable_json() {
        let (w, levels, model) = setup(false);
        let p = Pipeline::new(&w, &levels, &model, Quant::Q8_0);
        let (_, trace) = p.run_query_traced(&w.queries[0], Policy::less_is_more(3));
        let text = trace.to_json().to_string();
        let doc = lim_json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("policy").and_then(lim_json::Value::as_str),
            Some("lim-k3")
        );
        assert!(doc.get("selection").is_some());
        assert!(doc
            .get("steps")
            .and_then(lim_json::Value::as_array)
            .is_some());
    }

    #[test]
    fn geo_chains_execute_multiple_steps() {
        let (w, levels, model) = setup(true);
        let p = Pipeline::new(&w, &levels, &model, Quant::Q4KM);
        let r = p.run_query(&w.queries[0], Policy::Default);
        // A multi-step default-policy geo query on an 8B q4 model takes
        // tens of seconds (Table II regime).
        assert!(
            r.cost.seconds > 8.0 && r.cost.seconds < 90.0,
            "geo query took {:.1}s",
            r.cost.seconds
        );
    }
}
