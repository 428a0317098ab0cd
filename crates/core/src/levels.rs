//! Offline construction of the three Search Levels (§III-A).

use lim_cluster::{agglomerative, cosine_distance, distance_matrix, silhouette_score, Linkage};
use lim_embed::{Embedder, Embedding, IdfModel};
use lim_vecstore::{
    FlatIndex, HnswIndex, HnswParams, IvfIndex, IvfParams, Metric, Neighbor, PreparedQuery,
    VectorIndex,
};
use lim_workloads::augment::{augment, AugmentConfig};
use lim_workloads::Workload;

/// Which vector-index backend Level 1 is built over.
///
/// Flat is exact and the right default at paper scale (51 / 46 tools);
/// IVF and HNSW trade a bounded recall loss for sub-linear scans, which
/// is what keeps dispatch fast at 10k–100k-tool catalog scale.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum IndexSpec {
    /// Exhaustive exact scan ([`FlatIndex`]).
    #[default]
    Flat,
    /// Inverted-file probed scan ([`IvfIndex`]).
    Ivf(IvfParams),
    /// Navigable small-world graph ([`HnswIndex`]).
    Hnsw(HnswParams),
}

impl IndexSpec {
    /// The serialization kind tag this spec builds (`"flat"` / `"ivf"` /
    /// `"hnsw"`, matching `lim_vecstore::serial`).
    pub fn kind(&self) -> &'static str {
        match self {
            IndexSpec::Flat => "flat",
            IndexSpec::Ivf(_) => "ivf",
            IndexSpec::Hnsw(_) => "hnsw",
        }
    }
}

/// The Level-1 index, whichever backend it was built with.
///
/// Dispatches [`VectorIndex`] statically over the three backends so the
/// controller's hot k-NN path stays monomorphic (no `Box<dyn>` per query).
#[derive(Debug, Clone)]
pub enum ToolIndex {
    /// Exhaustive exact scan.
    Flat(FlatIndex),
    /// Inverted-file probed scan.
    Ivf(IvfIndex),
    /// Navigable small-world graph.
    Hnsw(HnswIndex),
}

impl ToolIndex {
    /// The serialization kind tag (`"flat"` / `"ivf"` / `"hnsw"`).
    pub fn kind(&self) -> &'static str {
        match self {
            ToolIndex::Flat(_) => "flat",
            ToolIndex::Ivf(_) => "ivf",
            ToolIndex::Hnsw(_) => "hnsw",
        }
    }

    /// The metric the index scores with.
    pub fn metric(&self) -> Metric {
        match self {
            ToolIndex::Flat(index) => index.metric(),
            ToolIndex::Ivf(index) => index.metric(),
            ToolIndex::Hnsw(index) => index.metric(),
        }
    }

    /// [`VectorIndex::search`] with a query already prepared, so one
    /// preparation serves both search levels; a query prepared for
    /// another metric is prepared again (see
    /// [`FlatIndex::search_prepared`]).
    pub fn search_prepared(&self, query: &PreparedQuery<'_>, k: usize) -> Vec<Neighbor> {
        match self {
            ToolIndex::Flat(index) => index.search_prepared(query, k),
            ToolIndex::Ivf(index) => index.search_prepared(query, k),
            ToolIndex::Hnsw(index) => index.search_prepared(query, k),
        }
    }

    /// Iterates over *live* `(id, vector)` pairs (tombstoned entries are
    /// skipped). Flat and HNSW yield insertion order; IVF yields cell
    /// order (its on-disk order).
    pub fn iter(&self) -> Box<dyn Iterator<Item = (u64, &[f32])> + '_> {
        match self {
            ToolIndex::Flat(index) => Box::new(index.iter()),
            ToolIndex::Ivf(index) => Box::new(
                index
                    .cells()
                    .iter()
                    .flat_map(|cell| cell.iter())
                    .filter(|(id, _)| !index.tombstones().contains(id)),
            ),
            ToolIndex::Hnsw(index) => Box::new(index.iter()),
        }
    }

    /// Inserts one vector, whichever backend: Flat appends, IVF assigns to
    /// its nearest trained centroid, HNSW wires the node into the graph
    /// exactly as a batch build would have.
    pub fn add(&mut self, id: u64, vector: &[f32]) -> Result<(), lim_vecstore::IndexError> {
        match self {
            ToolIndex::Flat(index) => index.add(id, vector),
            ToolIndex::Ivf(index) => index.add(id, vector),
            ToolIndex::Hnsw(index) => index.add(id, vector),
        }
    }

    /// Tombstones one live id. Returns `true` when the removal tripped the
    /// backend's compaction threshold (see `lim_vecstore::compaction_due`).
    pub fn remove(&mut self, id: u64) -> Result<bool, lim_vecstore::IndexError> {
        match self {
            ToolIndex::Flat(index) => index.remove(id),
            ToolIndex::Ivf(index) => index.remove(id),
            ToolIndex::Hnsw(index) => index.remove(id),
        }
    }

    /// Currently tombstoned ids, in removal order.
    pub fn tombstones(&self) -> &[u64] {
        match self {
            ToolIndex::Flat(index) => index.tombstones(),
            ToolIndex::Ivf(index) => index.tombstones(),
            ToolIndex::Hnsw(index) => index.tombstones(),
        }
    }

    /// Searches and also reports how many vector-distance evaluations the
    /// query cost — the machine-independent latency proxy the ann bench
    /// gates on.
    pub fn search_with_stats(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, usize) {
        match self {
            ToolIndex::Flat(index) => index.search_with_stats(query, k),
            ToolIndex::Ivf(index) => index.search_with_stats(query, k),
            ToolIndex::Hnsw(index) => index.search_with_stats(query, k),
        }
    }
}

impl VectorIndex for ToolIndex {
    fn len(&self) -> usize {
        match self {
            ToolIndex::Flat(index) => index.len(),
            ToolIndex::Ivf(index) => index.len(),
            ToolIndex::Hnsw(index) => index.len(),
        }
    }

    fn dim(&self) -> usize {
        match self {
            ToolIndex::Flat(index) => index.dim(),
            ToolIndex::Ivf(index) => index.dim(),
            ToolIndex::Hnsw(index) => index.dim(),
        }
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        match self {
            ToolIndex::Flat(index) => index.search(query, k),
            ToolIndex::Ivf(index) => index.search(query, k),
            ToolIndex::Hnsw(index) => index.search(query, k),
        }
    }
}

/// One Level-2 tool cluster: a centroid in the augmented latent space `Ã`
/// plus the indices of the tools its member queries co-use.
#[derive(Debug, Clone)]
pub struct ToolCluster {
    /// Cluster id (the vector-store id of its centroid).
    pub id: usize,
    /// Registry indices of the cluster's tools.
    pub tool_indices: Vec<usize>,
    /// Centroid embedding of the member queries.
    pub centroid: Embedding,
}

/// Tunables for the offline build.
#[derive(Debug, Clone)]
pub struct LevelsConfig {
    /// Augmentation settings (GPT-4-substitute; paper samples 10 queries
    /// per category).
    pub augment: AugmentConfig,
    /// Candidate cluster counts evaluated by silhouette score.
    pub min_clusters: usize,
    /// Upper bound of the candidate range.
    pub max_clusters: usize,
    /// Linkage criterion for the agglomerative pass.
    pub linkage: Linkage,
    /// Vector-index backend for Level 1.
    pub index: IndexSpec,
}

impl Default for LevelsConfig {
    fn default() -> Self {
        Self {
            augment: AugmentConfig::default(),
            min_clusters: 4,
            max_clusters: 24,
            linkage: Linkage::Average,
            index: IndexSpec::Flat,
        }
    }
}

/// The offline artifact consumed by the online controller: both latent
/// spaces plus the embedder that built them (the same encoder must embed
/// the recommender output at runtime — §III-B).
#[derive(Debug, Clone)]
pub struct SearchLevels {
    embedder: Embedder,
    tool_index: ToolIndex,
    cluster_index: FlatIndex,
    clusters: Vec<ToolCluster>,
    tool_count: usize,
    /// Registry indices retired by live catalog mutation, in retirement
    /// order. Retired indices stay allocated (the registry never reuses
    /// them) but are excluded from every level's offer.
    retired: Vec<usize>,
}

impl SearchLevels {
    /// Builds all levels for a workload with default settings.
    pub fn build(workload: &Workload) -> Self {
        Self::build_with(workload, &LevelsConfig::default())
    }

    /// Builds all levels with explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the workload has no tools (no meaningful levels exist).
    pub fn build_with(workload: &Workload, config: &LevelsConfig) -> Self {
        assert!(!workload.registry.is_empty(), "workload has no tools");

        // One IDF model over the tool corpus; shared by both levels and by
        // the runtime embedding of recommendations.
        let corpus: Vec<String> = workload
            .registry
            .iter()
            .map(|t| t.embedding_text())
            .collect();
        let embedder = Embedder::builder()
            .idf(IdfModel::fit(corpus.iter()))
            .build();

        // ---- Level 1: individual tools, on the configured backend.
        let embeddings: Vec<Embedding> = corpus.iter().map(|text| embedder.embed(text)).collect();
        let items: Vec<(u64, &[f32])> = embeddings
            .iter()
            .enumerate()
            .map(|(i, e)| (i as u64, e.as_slice()))
            .collect();
        let tool_index = match config.index {
            IndexSpec::Flat => {
                let mut index = FlatIndex::new(embedder.dim(), Metric::Cosine);
                index
                    .add_batch(items.iter().copied())
                    .expect("registry indices are unique");
                ToolIndex::Flat(index)
            }
            IndexSpec::Ivf(params) => ToolIndex::Ivf(
                IvfIndex::train(embedder.dim(), Metric::Cosine, params, &items)
                    .expect("registry embeddings are valid training data"),
            ),
            IndexSpec::Hnsw(params) => ToolIndex::Hnsw(
                HnswIndex::train(embedder.dim(), Metric::Cosine, params, &items)
                    .expect("registry embeddings are valid training data"),
            ),
        };

        // ---- Level 2: tool clusters from augmented queries.
        let augmented = augment(workload, &config.augment);
        let (clusters, cluster_index) = build_clusters(workload, &embedder, &augmented, config);

        Self {
            embedder,
            tool_index,
            cluster_index,
            clusters,
            tool_count: workload.registry.len(),
            retired: Vec::new(),
        }
    }

    /// Reassembles levels from previously persisted parts (see
    /// [`crate::persist`]).
    ///
    /// # Panics
    ///
    /// Panics if the index dimensions disagree with the embedder.
    pub fn from_parts(
        embedder: Embedder,
        tool_index: ToolIndex,
        cluster_index: FlatIndex,
        clusters: Vec<ToolCluster>,
        tool_count: usize,
    ) -> Self {
        assert_eq!(
            embedder.dim(),
            tool_index.dim(),
            "tool index dimension mismatch"
        );
        assert_eq!(
            embedder.dim(),
            cluster_index.dim(),
            "cluster index dimension mismatch"
        );
        Self {
            embedder,
            tool_index,
            cluster_index,
            clusters,
            tool_count,
            retired: Vec::new(),
        }
    }

    /// The shared sentence encoder.
    pub fn embedder(&self) -> &Embedder {
        &self.embedder
    }

    /// Level-1 latent space `T̃` (ids = registry indices).
    pub fn tool_index(&self) -> &ToolIndex {
        &self.tool_index
    }

    /// Level-2 centroid index (ids = cluster ids).
    pub fn cluster_index(&self) -> &FlatIndex {
        &self.cluster_index
    }

    /// The Level-2 clusters.
    pub fn clusters(&self) -> &[ToolCluster] {
        &self.clusters
    }

    /// Number of tool indices ever allocated (live + retired). Level 3's
    /// size is [`SearchLevels::live_count`].
    pub fn tool_count(&self) -> usize {
        self.tool_count
    }

    /// Number of live (non-retired) tools.
    pub fn live_count(&self) -> usize {
        self.tool_count - self.retired.len()
    }

    /// Registry indices retired so far, in retirement order.
    pub fn retired(&self) -> &[usize] {
        &self.retired
    }

    /// Whether a registry index refers to a live tool.
    pub fn is_live(&self, tool_index: usize) -> bool {
        tool_index < self.tool_count && !self.retired.contains(&tool_index)
    }

    /// All live tool indices — Search Level 3.
    pub fn full_level(&self) -> Vec<usize> {
        (0..self.tool_count)
            .filter(|i| !self.retired.contains(i))
            .collect()
    }

    /// Inserts a newly registered tool into Level 1.
    ///
    /// `tool_index` must be the index the registry just allocated — the
    /// next unallocated one — so vector-store ids keep mirroring registry
    /// indices. The tool joins Level 2 at the next cluster refresh; until
    /// then it is reachable via Level 1 and Level 3.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`lim_vecstore::IndexError`] (dimension
    /// mismatch, duplicate id).
    ///
    /// # Panics
    ///
    /// Panics if `tool_index` is not the next unallocated index.
    pub fn register_embedded(
        &mut self,
        tool_index: usize,
        embedding: &Embedding,
    ) -> Result<(), lim_vecstore::IndexError> {
        assert_eq!(
            tool_index, self.tool_count,
            "registry indices are allocated densely and never reused"
        );
        self.tool_index
            .add(tool_index as u64, embedding.as_slice())?;
        self.tool_count += 1;
        Ok(())
    }

    /// Retires a live tool: tombstones it in Level 1 and excludes it from
    /// Level-2 offers and Level 3. The registry entry stays (old reports
    /// and logs keep resolving); the index is never reused.
    ///
    /// Returns `true` when the tombstone tripped Level 1's compaction.
    ///
    /// # Errors
    ///
    /// Returns [`lim_vecstore::IndexError::UnknownId`] if the tool is
    /// unknown or already retired.
    pub fn retire(&mut self, tool_index: usize) -> Result<bool, lim_vecstore::IndexError> {
        let compacted = self.tool_index.remove(tool_index as u64)?;
        self.retired.push(tool_index);
        Ok(compacted)
    }

    /// Restores the retired set when booting from a snapshot whose index
    /// sections already carry the mutated vector state (the catalog log
    /// is the source of truth for *which* indices are retired; the index
    /// tombstones only cover retirements since the last compaction).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or repeated — snapshot decode
    /// validates these before calling.
    pub fn restore_retired(&mut self, retired: Vec<usize>) {
        for (i, t) in retired.iter().enumerate() {
            assert!(*t < self.tool_count, "retired index {t} out of range");
            assert!(!retired[..i].contains(t), "retired index {t} repeated");
        }
        self.retired = retired;
    }

    /// Rebuilds Level 2 against the current live catalog — the
    /// staleness-bounded refresh that runs once churn exceeds the serving
    /// layer's configured fraction.
    ///
    /// Deterministic given the same mutation history: retired members are
    /// dropped from each cluster, live tools in no cluster (i.e. tools
    /// registered since the offline build) are adopted by the cluster
    /// with the nearest stale centroid in ascending tool-id order, empty
    /// clusters are dropped, and each surviving cluster's centroid is
    /// recomputed as the mean of its members' Level-1 embeddings.
    pub fn refresh_clusters(&mut self) {
        let mut vectors: Vec<Option<Embedding>> = vec![None; self.tool_count];
        for (id, v) in self.tool_index.iter() {
            // Index vectors were normalised when embedded; wrap without
            // re-normalising so refresh maths match the live build's.
            vectors[id as usize] = Some(Embedding::from_normalized(v.to_vec()));
        }

        for c in &mut self.clusters {
            c.tool_indices.retain(|t| vectors[*t].is_some());
        }

        if !self.clusters.is_empty() {
            for (t, slot) in vectors.iter().enumerate().take(self.tool_count) {
                let Some(embedding) = slot else {
                    continue;
                };
                if self.clusters.iter().any(|c| c.tool_indices.contains(&t)) {
                    continue;
                }
                let mut best = 0usize;
                let mut best_score = f32::NEG_INFINITY;
                for (i, c) in self.clusters.iter().enumerate() {
                    let score = c.centroid.cosine(embedding);
                    if score > best_score {
                        best = i;
                        best_score = score;
                    }
                }
                self.clusters[best].tool_indices.push(t);
            }
        }

        self.clusters.retain(|c| !c.tool_indices.is_empty());
        let mut cluster_index = FlatIndex::new(self.embedder.dim(), Metric::Cosine);
        for c in &mut self.clusters {
            c.tool_indices.sort_unstable();
            c.centroid = Embedding::mean(
                c.tool_indices
                    .iter()
                    .map(|t| vectors[*t].as_ref().expect("cluster members are live")),
            )
            .expect("cluster is non-empty");
            cluster_index
                .add(c.id as u64, c.centroid.as_slice())
                .expect("cluster ids are unique");
        }
        self.cluster_index = cluster_index;
    }

    /// Builds the *lexical* strawman clustering the paper dismisses in
    /// §III-A: clusters of tools grouped by the similarity of their own
    /// descriptions, with no query augmentation.
    ///
    /// "A clustering algorithm based on tool (text) descriptions would
    /// produce groups that poorly capture tool-usage patterns" — e.g. a
    /// translate-then-display workflow needs document *and* UI tools,
    /// which lexical clustering separates. This method exists so the
    /// claim can be measured (see the `ablation_clustering` bench):
    /// compare gold-chain coverage of these clusters against
    /// [`SearchLevels::clusters`].
    pub fn lexical_clusters(workload: &Workload, cluster_count: usize) -> Vec<ToolCluster> {
        let corpus: Vec<String> = workload
            .registry
            .iter()
            .map(|t| t.embedding_text())
            .collect();
        let embedder = Embedder::builder()
            .idf(IdfModel::fit(corpus.iter()))
            .build();
        let embeddings: Vec<Embedding> = corpus.iter().map(|t| embedder.embed(t)).collect();
        if embeddings.is_empty() {
            return Vec::new();
        }
        let distances = distance_matrix(&embeddings, cosine_distance);
        let labels = agglomerative(&distances, Linkage::Average).cut(cluster_count.max(1));
        let count = labels.iter().copied().max().map_or(0, |m| m + 1);
        (0..count)
            .map(|id| {
                let tool_indices: Vec<usize> = labels
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| **l == id)
                    .map(|(i, _)| i)
                    .collect();
                let centroid = Embedding::mean(tool_indices.iter().map(|i| &embeddings[*i]))
                    .expect("clusters are non-empty");
                ToolCluster {
                    id,
                    tool_indices,
                    centroid,
                }
            })
            .collect()
    }
}

/// Fraction of queries whose *entire* gold chain is contained in a single
/// cluster — the property Level 2 needs so one cluster selection can carry
/// a whole sequential workflow.
pub fn chain_coverage(workload: &Workload, clusters: &[ToolCluster]) -> f64 {
    if workload.queries.is_empty() {
        return 0.0;
    }
    let covered = workload
        .queries
        .iter()
        .filter(|q| {
            let gold: Vec<usize> = q
                .steps
                .iter()
                .filter_map(|s| workload.registry.index_of(&s.tool))
                .collect();
            clusters
                .iter()
                .any(|c| gold.iter().all(|g| c.tool_indices.contains(g)))
        })
        .count();
    covered as f64 / workload.queries.len() as f64
}

fn build_clusters(
    workload: &Workload,
    embedder: &Embedder,
    augmented: &[lim_workloads::augment::AugmentedQuery],
    config: &LevelsConfig,
) -> (Vec<ToolCluster>, FlatIndex) {
    // Augmented pool = generated variants plus the training queries
    // themselves (the paper augments the existing pool, not replaces it).
    let mut texts: Vec<String> = Vec::new();
    let mut tool_lists: Vec<Vec<usize>> = Vec::new();
    for q in &workload.train_queries {
        texts.push(q.text.clone());
        tool_lists.push(resolve_tools(
            workload,
            q.steps.iter().map(|s| s.tool.as_str()),
        ));
    }
    for a in augmented {
        texts.push(a.text.clone());
        tool_lists.push(resolve_tools(workload, a.tools.iter().map(String::as_str)));
    }

    let mut cluster_index = FlatIndex::new(embedder.dim(), Metric::Cosine);
    if texts.is_empty() {
        return (Vec::new(), cluster_index);
    }

    // One distance matrix feeds both the dendrogram and every cut the
    // silhouette sweep scores.
    let embeddings: Vec<Embedding> = texts.iter().map(|t| embedder.embed(t)).collect();
    let distances = distance_matrix(&embeddings, cosine_distance);
    let dendrogram = agglomerative(&distances, config.linkage);

    // Silhouette-guided cut over the configured candidate range.
    let lo = config.min_clusters.max(2).min(embeddings.len());
    let hi = config.max_clusters.max(lo).min(embeddings.len());
    let mut best = (lo, f32::NEG_INFINITY);
    for k in lo..=hi {
        let labels = dendrogram.cut(k);
        let score = silhouette_score(&distances, &labels);
        if score > best.1 {
            best = (k, score);
        }
    }
    let labels = dendrogram.cut(best.0);
    let cluster_count = labels.iter().copied().max().map_or(0, |m| m + 1);

    let mut clusters = Vec::with_capacity(cluster_count);
    for cluster_id in 0..cluster_count {
        let members: Vec<usize> = labels
            .iter()
            .enumerate()
            .filter(|(_, l)| **l == cluster_id)
            .map(|(i, _)| i)
            .collect();
        let mut tools: Vec<usize> = members
            .iter()
            .flat_map(|m| tool_lists[*m].iter().copied())
            .collect();
        tools.sort_unstable();
        tools.dedup();
        let centroid = Embedding::mean(members.iter().map(|m| &embeddings[*m]))
            .expect("clusters are non-empty");
        cluster_index
            .add(cluster_id as u64, centroid.as_slice())
            .expect("cluster ids are unique");
        clusters.push(ToolCluster {
            id: cluster_id,
            tool_indices: tools,
            centroid,
        });
    }
    (clusters, cluster_index)
}

fn resolve_tools<'a, I: IntoIterator<Item = &'a str>>(workload: &Workload, names: I) -> Vec<usize> {
    names
        .into_iter()
        .filter_map(|n| workload.registry.index_of(n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lim_workloads::{bfcl, geoengine};

    #[test]
    fn level1_indexes_every_tool() {
        let w = bfcl(1, 40);
        let levels = SearchLevels::build(&w);
        assert_eq!(levels.tool_index().len(), 51);
        assert_eq!(levels.tool_count(), 51);
        assert_eq!(levels.full_level().len(), 51);
    }

    #[test]
    fn level2_clusters_are_nonempty_and_cover_tools() {
        let w = geoengine(1, 40);
        let levels = SearchLevels::build(&w);
        assert!(!levels.clusters().is_empty());
        for c in levels.clusters() {
            assert!(!c.tool_indices.is_empty(), "cluster {} has no tools", c.id);
            assert!(c.tool_indices.iter().all(|i| *i < 46));
        }
    }

    #[test]
    fn geo_clusters_capture_co_usage_not_lexical_similarity() {
        // The paper's motivating example: tools co-used by a workflow
        // (load → filter → caption → plot) must share a cluster even
        // though their descriptions are lexically unrelated.
        let w = geoengine(2, 60);
        let levels = SearchLevels::build(&w);
        let load = w.registry.index_of("load_fmow_scene").unwrap();
        let plot = w.registry.index_of("plot_captions").unwrap();
        let together = levels
            .clusters()
            .iter()
            .any(|c| c.tool_indices.contains(&load) && c.tool_indices.contains(&plot));
        assert!(together, "co-used tools not clustered together");
    }

    #[test]
    fn level1_nearest_tool_matches_description_query() {
        let w = bfcl(3, 40);
        let levels = SearchLevels::build(&w);
        let query = levels
            .embedder()
            .embed("a tool that fetches current weather conditions for a city");
        let hits = levels.tool_index().search(query.as_slice(), 1);
        let name = w.registry.get(hits[0].id as usize).unwrap().name();
        assert_eq!(name, "current_weather");
    }

    #[test]
    fn build_is_deterministic() {
        let w = geoengine(4, 40);
        let a = SearchLevels::build(&w);
        let b = SearchLevels::build(&w);
        assert_eq!(a.clusters().len(), b.clusters().len());
        for (x, y) in a.clusters().iter().zip(b.clusters()) {
            assert_eq!(x.tool_indices, y.tool_indices);
        }
    }

    #[test]
    fn co_usage_clusters_cover_chains_better_than_lexical() {
        // The §III-A claim, measured: augmented-query clustering keeps
        // whole workflows together; description clustering does not.
        let w = geoengine(8, 60);
        let levels = SearchLevels::build(&w);
        let lexical = SearchLevels::lexical_clusters(&w, levels.clusters().len());
        let co_usage = chain_coverage(&w, levels.clusters());
        let lex = chain_coverage(&w, &lexical);
        assert!(
            co_usage > lex + 0.3,
            "co-usage coverage {co_usage:.2} vs lexical {lex:.2}"
        );
        assert!(co_usage > 0.8, "co-usage coverage {co_usage:.2}");
    }

    #[test]
    fn alternative_backends_index_every_tool_and_agree_on_top1() {
        let w = bfcl(1, 40);
        let flat = SearchLevels::build(&w);
        let query = flat
            .embedder()
            .embed("a tool that fetches current weather conditions for a city");
        let expected = flat.tool_index().search(query.as_slice(), 1)[0].id;
        for index in [
            IndexSpec::Ivf(lim_vecstore::IvfParams::default()),
            IndexSpec::Hnsw(lim_vecstore::HnswParams::default()),
        ] {
            let config = LevelsConfig {
                index,
                ..LevelsConfig::default()
            };
            let levels = SearchLevels::build_with(&w, &config);
            assert_eq!(levels.tool_index().kind(), index.kind());
            assert_eq!(levels.tool_index().len(), 51);
            // At 51 tools both approximate backends see most of the
            // catalog per query; the top hit must match exact search.
            if matches!(index, IndexSpec::Hnsw(_)) {
                let hits = levels.tool_index().search(query.as_slice(), 1);
                assert_eq!(hits[0].id, expected);
            }
        }
    }

    #[test]
    fn hnsw_backend_build_is_deterministic() {
        let w = bfcl(6, 40);
        let config = LevelsConfig {
            index: IndexSpec::Hnsw(lim_vecstore::HnswParams::default()),
            ..LevelsConfig::default()
        };
        let a = SearchLevels::build_with(&w, &config);
        let b = SearchLevels::build_with(&w, &config);
        let q = a.embedder().embed("translate a document and plot it");
        let ha = a.tool_index().search(q.as_slice(), 5);
        let hb = b.tool_index().search(q.as_slice(), 5);
        for (x, y) in ha.iter().zip(&hb) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn registered_tool_joins_level1_and_level3() {
        let w = bfcl(1, 40);
        let mut levels = SearchLevels::build(&w);
        let embedding = levels
            .embedder()
            .embed("tide_forecast: Predicts tide heights for a coastal station");
        levels.register_embedded(51, &embedding).unwrap();
        assert_eq!(levels.tool_count(), 52);
        assert_eq!(levels.live_count(), 52);
        assert!(levels.full_level().contains(&51));
        let hits = levels.tool_index().search(embedding.as_slice(), 1);
        assert_eq!(hits[0].id, 51, "new tool must be its own nearest neighbor");
    }

    #[test]
    fn register_out_of_order_panics() {
        let w = bfcl(1, 40);
        let mut levels = SearchLevels::build(&w);
        let e = levels.embedder().embed("anything");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = levels.register_embedded(53, &e);
        }));
        assert!(result.is_err(), "index 53 skips 51 and 52");
    }

    #[test]
    fn retired_tool_leaves_every_level() {
        let w = bfcl(1, 40);
        let mut levels = SearchLevels::build(&w);
        let victim = w.registry.index_of("current_weather").unwrap();
        levels.retire(victim).unwrap();
        assert!(!levels.is_live(victim));
        assert_eq!(levels.live_count(), 50);
        assert!(!levels.full_level().contains(&victim));
        let query = levels
            .embedder()
            .embed("a tool that fetches current weather conditions for a city");
        let hits = levels.tool_index().search(query.as_slice(), 51);
        assert!(hits.iter().all(|h| h.id != victim as u64));
        // Double retirement is an error; the retired list is unchanged.
        assert!(levels.retire(victim).is_err());
        assert_eq!(levels.retired(), &[victim]);
    }

    #[test]
    fn refresh_clusters_drops_retired_and_adopts_registered_tools() {
        let w = geoengine(1, 60);
        let mut levels = SearchLevels::build(&w);
        let victim = levels.clusters()[0].tool_indices[0];
        levels.retire(victim).unwrap();
        let embedding = levels
            .embedder()
            .embed("cloud_mask: Masks cloudy pixels in a satellite scene");
        levels.register_embedded(46, &embedding).unwrap();

        levels.refresh_clusters();

        assert!(!levels.clusters().is_empty());
        for c in levels.clusters() {
            assert!(!c.tool_indices.contains(&victim), "retired member kept");
            assert!(!c.tool_indices.is_empty(), "empty cluster kept");
        }
        let adopted = levels
            .clusters()
            .iter()
            .filter(|c| c.tool_indices.contains(&46))
            .count();
        assert_eq!(adopted, 1, "new tool adopted by exactly one cluster");
        // Cluster index mirrors the surviving clusters.
        assert_eq!(levels.cluster_index().len(), levels.clusters().len());
    }

    #[test]
    fn refresh_is_deterministic_across_identical_histories() {
        let w = geoengine(2, 60);
        let run = || {
            let mut levels = SearchLevels::build(&w);
            levels.retire(3).unwrap();
            levels.retire(17).unwrap();
            let e = levels.embedder().embed("band_math: Computes band ratios");
            levels.register_embedded(46, &e).unwrap();
            levels.refresh_clusters();
            levels
        };
        let a = run();
        let b = run();
        assert_eq!(a.clusters().len(), b.clusters().len());
        for (x, y) in a.clusters().iter().zip(b.clusters()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.tool_indices, y.tool_indices);
            for (p, q) in x.centroid.as_slice().iter().zip(y.centroid.as_slice()) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    #[test]
    fn mutation_works_on_every_backend() {
        let w = bfcl(7, 40);
        for index in [
            IndexSpec::Flat,
            IndexSpec::Ivf(lim_vecstore::IvfParams::default()),
            IndexSpec::Hnsw(lim_vecstore::HnswParams::default()),
        ] {
            let config = LevelsConfig {
                index,
                ..LevelsConfig::default()
            };
            let mut levels = SearchLevels::build_with(&w, &config);
            let e = levels.embedder().embed("brand new capability");
            levels.register_embedded(51, &e).unwrap();
            levels.retire(0).unwrap();
            assert_eq!(levels.live_count(), 51, "{} backend", index.kind());
            let live: Vec<u64> = levels.tool_index().iter().map(|(id, _)| id).collect();
            assert!(live.contains(&51));
            assert!(!live.contains(&0), "{} iter leaks tombstone", index.kind());
            levels.refresh_clusters();
            assert!(levels
                .clusters()
                .iter()
                .all(|c| !c.tool_indices.contains(&0)));
        }
    }

    #[test]
    fn cluster_count_is_in_configured_range() {
        let w = geoengine(5, 60);
        let config = LevelsConfig {
            min_clusters: 6,
            max_clusters: 14,
            ..LevelsConfig::default()
        };
        let levels = SearchLevels::build_with(&w, &config);
        let n = levels.clusters().len();
        assert!((6..=14).contains(&n), "cluster count {n}");
    }
}
