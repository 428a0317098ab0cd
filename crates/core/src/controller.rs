//! The online Tool Controller (§III-C).

use crate::levels::SearchLevels;

/// Which Search Level the controller committed to for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchLevel {
    /// Level 1 — individual tools.
    Individual,
    /// Level 2 — tool clusters.
    Cluster,
    /// Level 3 — the entire tool set (vanilla function calling).
    Full,
}

impl std::fmt::Display for SearchLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SearchLevel::Individual => "level-1",
            SearchLevel::Cluster => "level-2",
            SearchLevel::Full => "level-3",
        };
        f.write_str(name)
    }
}

/// Controller tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Top-k retrieved per recommendation against each level (the paper
    /// evaluates k = 3 and k = 5).
    pub k: usize,
    /// Confidence floor below which the controller falls back to Level 3.
    /// Compared against the mean (over recommendations) of each level's
    /// *best-match* similarity. The paper uses 0.5 with MPNet embeddings;
    /// the default here is calibrated to this workspace's hashed encoder,
    /// whose cosine scale for related-but-differently-worded text sits
    /// lower.
    pub fallback_threshold: f32,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            k: 3,
            fallback_threshold: 0.30,
        }
    }
}

impl ControllerConfig {
    /// Config with a given `k` and the default threshold.
    pub fn with_k(k: usize) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }
}

/// The controller's decision for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolSelection {
    /// Level the controller committed to.
    pub level: SearchLevel,
    /// Registry indices of the tools to offer the agent.
    pub tool_indices: Vec<usize>,
    /// Mean top-k similarity against Level 1.
    pub level1_score: f32,
    /// Mean top-k similarity against Level 2.
    pub level2_score: f32,
}

/// Runs k-NN arbitration between the search levels.
#[derive(Debug, Clone)]
pub struct ToolController<'a> {
    levels: &'a SearchLevels,
    config: ControllerConfig,
}

impl<'a> ToolController<'a> {
    /// Creates a controller over prebuilt levels.
    pub fn new(levels: &'a SearchLevels, config: ControllerConfig) -> Self {
        Self { levels, config }
    }

    /// The active configuration.
    pub fn config(&self) -> ControllerConfig {
        self.config
    }

    /// Selects the tools for a query given the recommender's "ideal tool"
    /// descriptions.
    ///
    /// Each recommendation (embedded together with the user task, as the
    /// paper's `Ẽ` construction prescribes) is searched against both
    /// levels; the level with the higher mean top-k similarity wins. If
    /// both means fall below the confidence threshold the controller
    /// defaults to presenting all tools (Level 3).
    pub fn select(&self, query: &str, recommendations: &[String]) -> ToolSelection {
        let embedder = self.levels.embedder();
        let contexts: Vec<lim_embed::Embedding> = recommendations
            .iter()
            .map(|rec| embedder.embed_with_context(query, rec))
            .collect();
        self.select_embedded(&contexts)
    }

    /// [`ToolController::select`] with the `Ẽ` context embeddings already
    /// computed — the entry point for callers that cache them (the serving
    /// engine's query-embedding cache feeds this directly, skipping the
    /// encoder on a hit).
    ///
    /// Each context is prepared once (its norm and nonzero support) and
    /// that one prepared query searches both levels.
    pub fn select_embedded(&self, contexts: &[lim_embed::Embedding]) -> ToolSelection {
        if contexts.is_empty() {
            return self.full_selection(0.0, 0.0);
        }
        let k = self.config.k.max(1);

        let mut l1_best = Vec::new();
        let mut l1_tools: Vec<usize> = Vec::new();
        let mut l2_best = Vec::new();
        let mut l2_clusters: Vec<(usize, f32)> = Vec::new();

        let metric = self.levels.tool_index().metric();
        for embedding in contexts {
            let query = metric.prepare(embedding.as_slice());
            let l1_hits = self.levels.tool_index().search_prepared(&query, k);
            if let Some(top) = l1_hits.first() {
                l1_best.push(top.score);
            }
            for hit in l1_hits {
                l1_tools.push(hit.id as usize);
            }
            let l2_hits = self.levels.cluster_index().search_prepared(&query, k);
            if let Some(top) = l2_hits.first() {
                l2_best.push(top.score);
            }
            for hit in l2_hits {
                l2_clusters.push((hit.id as usize, hit.score));
            }
        }

        // Arbitration uses each level's best match per recommendation —
        // robust to the long similarity tail of unrelated catalog entries
        // that a plain mean over all k hits would drag down.
        let level1_score = mean(&l1_best);
        let level2_score = mean(&l2_best);

        if level1_score < self.config.fallback_threshold
            && level2_score < self.config.fallback_threshold
        {
            return self.full_selection(level1_score, level2_score);
        }

        if level1_score >= level2_score {
            let mut tools = l1_tools;
            tools.sort_unstable();
            tools.dedup();
            ToolSelection {
                level: SearchLevel::Individual,
                tool_indices: tools,
                level1_score,
                level2_score,
            }
        } else {
            // Union the members of the best k clusters across all
            // recommendations (deduplicated, best score kept).
            l2_clusters.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cmp(&b.0))
            });
            let mut picked = Vec::new();
            for (cluster_id, _) in l2_clusters {
                if !picked.contains(&cluster_id) {
                    picked.push(cluster_id);
                }
                if picked.len() == k {
                    break;
                }
            }
            // Stale clusters may still list tools retired since the last
            // refresh; a retired tool is never offered.
            let mut tools: Vec<usize> = picked
                .iter()
                .flat_map(|c| self.levels.clusters()[*c].tool_indices.iter().copied())
                .filter(|t| self.levels.is_live(*t))
                .collect();
            tools.sort_unstable();
            tools.dedup();
            ToolSelection {
                level: SearchLevel::Cluster,
                tool_indices: tools,
                level1_score,
                level2_score,
            }
        }
    }

    /// The floor rung's selection: every catalog tool, scoreless — the
    /// Level-3 downgrade, reached through
    /// [`ServicePolicy::actuate`](crate::ServicePolicy::actuate) with
    /// `ServiceLevel::Floor`.
    pub(crate) fn floor_selection(&self) -> ToolSelection {
        self.full_selection(0.0, 0.0)
    }

    fn full_selection(&self, level1_score: f32, level2_score: f32) -> ToolSelection {
        ToolSelection {
            level: SearchLevel::Full,
            tool_indices: self.levels.full_level(),
            level1_score,
            level2_score,
        }
    }
}

fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f32>() / values.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::SearchLevels;
    use lim_workloads::{bfcl, geoengine};

    #[test]
    fn empty_recommendations_fall_back_to_full() {
        let w = bfcl(1, 30);
        let levels = SearchLevels::build(&w);
        let c = ToolController::new(&levels, ControllerConfig::default());
        let s = c.select("anything", &[]);
        assert_eq!(s.level, SearchLevel::Full);
        assert_eq!(s.tool_indices.len(), 51);
    }

    #[test]
    fn gibberish_recommendations_trigger_confidence_fallback() {
        let w = bfcl(1, 30);
        let levels = SearchLevels::build(&w);
        let c = ToolController::new(&levels, ControllerConfig::default());
        let s = c.select(
            "zzz qqq xxx",
            &["wqxyz plomf grunk vexqi".into(), "blorp znarf quux".into()],
        );
        assert_eq!(
            s.level,
            SearchLevel::Full,
            "scores l1={} l2={}",
            s.level1_score,
            s.level2_score
        );
    }

    #[test]
    fn weather_recommendation_selects_few_relevant_tools() {
        let w = bfcl(2, 30);
        let levels = SearchLevels::build(&w);
        let c = ToolController::new(&levels, ControllerConfig::with_k(3));
        let s = c.select(
            "What's the weather like in Paris right now?",
            &["fetches the current weather conditions for a city".into()],
        );
        assert_ne!(s.level, SearchLevel::Full);
        assert!(s.tool_indices.len() <= 3 * 3);
        let gold = w.registry.index_of("current_weather").unwrap();
        assert!(s.tool_indices.contains(&gold), "gold tool not retrieved");
    }

    #[test]
    fn selection_k_bounds_level1_size() {
        let w = bfcl(2, 30);
        let levels = SearchLevels::build(&w);
        for k in [1, 3, 5] {
            let c = ToolController::new(&levels, ControllerConfig::with_k(k));
            let s = c.select(
                "Convert 100 USD to EUR",
                &["converts money between two currencies".into()],
            );
            if s.level == SearchLevel::Individual {
                assert!(s.tool_indices.len() <= k);
            }
        }
    }

    #[test]
    fn geo_multi_step_recommendations_prefer_clusters() {
        // §IV: "in BFCL Search Level 1 yields higher tool-matching scores,
        // whereas for GeoEngine it is Search Level 2". Use the actual
        // recommender output for a vqa-mapping query, as the pipeline does.
        let w = geoengine(3, 60);
        let levels = SearchLevels::build(&w);
        let c = ToolController::new(&levels, ControllerConfig::with_k(3));
        let model = lim_llm::ModelProfile::by_name("hermes2-pro-8b").unwrap();
        let query = w
            .queries
            .iter()
            .find(|q| q.category == "vqa-mapping")
            .expect("vqa-mapping query exists");
        let gold_descs: Vec<String> = query
            .steps
            .iter()
            .map(|s| {
                w.registry
                    .get_by_name(&s.tool)
                    .unwrap()
                    .description()
                    .to_owned()
            })
            .collect();
        let gold_refs: Vec<&str> = gold_descs.iter().map(String::as_str).collect();

        // Aggregate over seeds: Level 2 must win for the clear majority of
        // recommender noise draws, and cover the gold chain when it does.
        let mut cluster_wins = 0;
        let mut covered = 0;
        let runs = 20;
        for seed in 0..runs {
            let recs = lim_llm::recommender::recommend_descriptions(
                &model,
                lim_llm::Quant::Q8_0,
                &query.text,
                &gold_refs,
                seed,
            );
            let s = c.select(&query.text, &recs);
            if s.level == SearchLevel::Cluster {
                cluster_wins += 1;
                let all_covered = query.steps.iter().all(|step| {
                    let idx = w.registry.index_of(&step.tool).unwrap();
                    s.tool_indices.contains(&idx)
                });
                if all_covered {
                    covered += 1;
                }
                assert!(
                    s.tool_indices.len() < 35,
                    "{} tools selected",
                    s.tool_indices.len()
                );
            }
        }
        assert!(
            cluster_wins * 2 > runs,
            "Level 2 won only {cluster_wins}/{runs}"
        );
        assert!(
            covered * 4 >= cluster_wins * 3,
            "chain covered {covered}/{cluster_wins}"
        );
    }

    #[test]
    fn selection_is_deterministic() {
        let w = geoengine(4, 40);
        let levels = SearchLevels::build(&w);
        let c = ToolController::new(&levels, ControllerConfig::default());
        let recs = vec!["detects ships in maritime imagery".to_string()];
        assert_eq!(c.select("find ships", &recs), c.select("find ships", &recs));
    }

    #[test]
    fn select_embedded_matches_select() {
        // The serving engine caches the `Ẽ` embeddings and calls
        // `select_embedded` directly; the two entry points must agree.
        let w = bfcl(5, 30);
        let levels = SearchLevels::build(&w);
        let c = ToolController::new(&levels, ControllerConfig::with_k(3));
        let query = "What's the weather like in Paris right now?";
        let recs = vec!["fetches the current weather conditions for a city".to_string()];
        let contexts: Vec<lim_embed::Embedding> = recs
            .iter()
            .map(|r| levels.embedder().embed_with_context(query, r))
            .collect();
        assert_eq!(c.select(query, &recs), c.select_embedded(&contexts));
    }
}
