//! Hierarchical Navigable Small World (HNSW) approximate index.
//!
//! HNSW is the sub-linear graph index behind FAISS `IndexHNSWFlat`; it is
//! what makes nearest-neighbour tool dispatch hold up at 100k-tool
//! marketplace scale, where [`crate::FlatIndex`]'s exhaustive scan and
//! [`crate::IvfIndex`]'s probed scan both degenerate to linear work.
//!
//! This implementation is **seeded-deterministic**: node layers are drawn
//! from a splitmix64 hash of `(seed, insertion sequence)` rather than a
//! shared-state RNG, and every internal ordering (candidate heaps, greedy
//! descent, link pruning) breaks score ties by ascending node index under
//! [`f32::total_cmp`]. The same `(seed, insertion order)` therefore yields
//! a bit-identical graph — and bit-identical search results — regardless
//! of worker count or whether the graph was built cold or restored from a
//! snapshot (see [`crate::serial::hnsw_to_json`]).
//!
//! When `ef_search >= len` the search degrades gracefully to an exact
//! exhaustive scan, so cranking `ef_search` to the catalog size recovers
//! [`crate::FlatIndex`] semantics exactly.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::neighbor::top_k;
use crate::{IndexError, Metric, Neighbor, Postings, PreparedQuery, VectorIndex};

/// Hard cap on node layers; `ml = 1/ln(m)` makes layers above this
/// astronomically unlikely for any practical catalog size.
const MAX_LAYER: usize = 16;

/// Construction and search parameters for [`HnswIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HnswParams {
    /// Maximum out-links per node on layers above 0 (layer 0 keeps `2*m`).
    pub m: usize,
    /// Candidate-list width while building the graph (larger = better
    /// graph, slower build).
    pub ef_construction: usize,
    /// Candidate-list width while searching (larger = better recall,
    /// slower query). Values `>= len` trigger an exact exhaustive scan.
    pub ef_search: usize,
    /// Seed for the deterministic layer assignment.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 128,
            ef_search: 64,
            seed: 0x9E37_11F5,
        }
    }
}

/// A scored graph node; the ordering used by every internal heap.
///
/// `Ord` ranks higher scores first and breaks ties by *ascending* node
/// index, mirroring [`Neighbor::ranking_cmp`] so internal traversal order
/// and final result order can never disagree on ties.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    score: f32,
    node: u32,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Epoch-stamped visited set, reused across layers (and across inserts
/// during construction) so a visit check never costs an `O(n)` clear.
struct Visited {
    epoch: u32,
    stamp: Vec<u32>,
}

impl Visited {
    fn new(capacity: usize) -> Self {
        Self {
            epoch: 0,
            stamp: vec![0; capacity],
        }
    }

    /// Starts a fresh visit generation over `n` nodes.
    fn reset(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.stamp.fill(0);
                1
            }
        };
    }

    /// Marks `node` visited; returns `true` if it was not yet visited.
    fn insert(&mut self, node: u32) -> bool {
        let slot = &mut self.stamp[node as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

/// Draws the layer for insertion `sequence` from a splitmix64 hash of the
/// seed — a pure function of `(seed, sequence)`, so graphs rebuilt in the
/// same insertion order are identical with no RNG state to thread through.
fn assigned_layer(seed: u64, sequence: u64, m: usize) -> usize {
    let mut z = seed ^ sequence.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Upper 53 bits → uniform in (0, 1), never exactly 0 or 1.
    let unit = ((z >> 11) as f64 + 1.0) / ((1u64 << 53) as f64 + 2.0);
    let ml = 1.0 / (m.max(2) as f64).ln();
    (((-unit.ln()) * ml).floor() as usize).min(MAX_LAYER)
}

/// Approximate k-NN index over a navigable small-world layer hierarchy.
///
/// Mirrors FAISS `IndexHNSWFlat`: greedy descent through sparse upper
/// layers finds a good entry point, then a best-first beam of width
/// `ef_search` explores layer 0. Query cost grows roughly with
/// `ef_search * m * log(n)` rather than `n`.
///
/// # Examples
///
/// ```
/// use lim_vecstore::{HnswIndex, HnswParams, Metric, VectorIndex};
///
/// # fn main() -> Result<(), lim_vecstore::IndexError> {
/// let data: Vec<(u64, Vec<f32>)> = (0..64)
///     .map(|i| (i, vec![(i % 8) as f32, (i / 8) as f32]))
///     .collect();
/// let refs: Vec<(u64, &[f32])> = data.iter().map(|(i, v)| (*i, v.as_slice())).collect();
/// let index = HnswIndex::train(2, Metric::Euclidean, HnswParams::default(), &refs)?;
/// let hits = index.search(&[0.1, 0.1], 1);
/// assert_eq!(hits[0].id, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HnswIndex {
    dim: usize,
    metric: Metric,
    params: HnswParams,
    /// Node `i`'s id and vector are slot `i` of the postings.
    postings: Postings,
    /// `links[node][layer]` → out-neighbours of `node` on `layer`; a node
    /// occupies layers `0..links[node].len()`.
    links: Vec<Vec<Vec<u32>>>,
    /// Node index of the top-layer entry point (`None` iff empty).
    entry: Option<u32>,
    /// Tombstoned ids in removal order; their nodes stay in the graph
    /// (and keep routing traversals) until compaction rebuilds it.
    deleted: Vec<u64>,
}

impl HnswIndex {
    /// Builds the graph by inserting `items` sequentially.
    ///
    /// Construction order is part of the index identity: the same items in
    /// the same order under the same params always produce the same graph.
    ///
    /// # Errors
    ///
    /// * [`IndexError::DimMismatch`] if any vector disagrees with `dim`.
    /// * [`IndexError::DuplicateId`] on repeated ids.
    /// * [`IndexError::InsufficientTrainingData`] if `items` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or `params.m < 2`.
    pub fn train(
        dim: usize,
        metric: Metric,
        params: HnswParams,
        items: &[(u64, &[f32])],
    ) -> Result<Self, IndexError> {
        assert!(dim > 0, "index dimension must be positive");
        assert!(params.m >= 2, "HNSW m must be at least 2");
        if items.is_empty() {
            return Err(IndexError::InsufficientTrainingData {
                supplied: 0,
                clusters: 1,
            });
        }
        for (_, v) in items {
            if v.len() != dim {
                return Err(IndexError::DimMismatch {
                    expected: dim,
                    got: v.len(),
                });
            }
        }
        let mut seen: Vec<u64> = items.iter().map(|(id, _)| *id).collect();
        seen.sort_unstable();
        if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(IndexError::DuplicateId(w[0]));
        }

        let mut index = Self {
            dim,
            metric,
            params,
            postings: Postings::with_capacity(dim, items.len()),
            links: Vec::with_capacity(items.len()),
            entry: None,
            deleted: Vec::new(),
        };
        let mut visited = Visited::new(items.len());
        for (sequence, (id, vector)) in items.iter().enumerate() {
            index.postings.push(*id, vector);
            let layer = assigned_layer(params.seed, sequence as u64, params.m);
            index.links.push(vec![Vec::new(); layer + 1]);
            index.connect(sequence as u32, layer, &mut visited);
        }
        Ok(index)
    }

    /// Reassembles an index from previously persisted parts (see
    /// [`crate::serial`]) without rebuilding the graph, so a restored
    /// index traverses exactly like the one that was saved.
    ///
    /// # Errors
    ///
    /// * [`IndexError::DimMismatch`] if any vector disagrees with `dim`.
    /// * [`IndexError::DuplicateId`] on repeated ids.
    /// * [`IndexError::NotTrained`] if the graph is structurally invalid:
    ///   `links` does not pair up with the postings, a node has no layers,
    ///   a link points out of bounds or to a node absent from that layer,
    ///   or the entry point is missing / not on the top layer.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or `params.m < 2`.
    pub fn from_parts(
        dim: usize,
        metric: Metric,
        params: HnswParams,
        postings: Vec<(u64, Vec<f32>)>,
        links: Vec<Vec<Vec<u32>>>,
        entry: Option<u32>,
    ) -> Result<Self, IndexError> {
        assert!(dim > 0, "index dimension must be positive");
        assert!(params.m >= 2, "HNSW m must be at least 2");
        for (_, v) in &postings {
            if v.len() != dim {
                return Err(IndexError::DimMismatch {
                    expected: dim,
                    got: v.len(),
                });
            }
        }
        let mut seen: Vec<u64> = postings.iter().map(|(id, _)| *id).collect();
        seen.sort_unstable();
        if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(IndexError::DuplicateId(w[0]));
        }
        let n = postings.len();
        if links.len() != n {
            return Err(IndexError::NotTrained);
        }
        let top = links.iter().map(Vec::len).max().unwrap_or(0);
        for layers in &links {
            if layers.is_empty() || layers.len() > MAX_LAYER + 1 {
                return Err(IndexError::NotTrained);
            }
            for (layer, neighbors) in layers.iter().enumerate() {
                for &peer in neighbors {
                    // A link must land on a node that occupies that layer.
                    if links.get(peer as usize).map(Vec::len).unwrap_or(0) <= layer {
                        return Err(IndexError::NotTrained);
                    }
                }
            }
        }
        match entry {
            Some(e) if links.get(e as usize).map(Vec::len) == Some(top) => {}
            None if n == 0 => {}
            _ => return Err(IndexError::NotTrained),
        }
        let mut stored = Postings::with_capacity(dim, n);
        for (id, v) in &postings {
            stored.push(*id, v);
        }
        Ok(Self {
            dim,
            metric,
            params,
            postings: stored,
            links,
            entry,
            deleted: Vec::new(),
        })
    }

    /// Inserts one more vector natively into the graph, exactly as if it
    /// had been the next item of [`HnswIndex::train`]'s sequence: its
    /// layer is drawn from `(seed, node index)` and it is wired in with
    /// the same beam search and selection heuristic. The same mutation
    /// sequence therefore always yields a bit-identical graph.
    ///
    /// # Errors
    ///
    /// * [`IndexError::DimMismatch`] on wrong dimensionality.
    /// * [`IndexError::DuplicateId`] on a repeated id — including ids that
    ///   are tombstoned but not yet compacted away.
    pub fn add(&mut self, id: u64, vector: &[f32]) -> Result<(), IndexError> {
        if vector.len() != self.dim {
            return Err(IndexError::DimMismatch {
                expected: self.dim,
                got: vector.len(),
            });
        }
        if self.postings.contains(id) {
            return Err(IndexError::DuplicateId(id));
        }
        let sequence = self.postings.len() as u64;
        self.postings.push(id, vector);
        let layer = assigned_layer(self.params.seed, sequence, self.params.m);
        self.links.push(vec![Vec::new(); layer + 1]);
        let mut visited = Visited::new(self.postings.len());
        self.connect(sequence as u32, layer, &mut visited);
        Ok(())
    }

    /// Tombstones `id`: it disappears from every search result, but its
    /// node stays in the graph — still routing traversals and still
    /// costing distance evaluations — until compaction rebuilds the graph
    /// from the live postings (in their insertion order, same params).
    ///
    /// Returns `true` when the removal tripped [`crate::compaction_due`]
    /// and the graph was rebuilt.
    ///
    /// # Errors
    ///
    /// [`IndexError::UnknownId`] if `id` was never added or is already
    /// tombstoned.
    pub fn remove(&mut self, id: u64) -> Result<bool, IndexError> {
        if !self.postings.contains(id) || self.deleted.contains(&id) {
            return Err(IndexError::UnknownId(id));
        }
        self.deleted.push(id);
        if crate::compaction_due(self.deleted.len(), self.postings.len()) {
            self.compact();
            return Ok(true);
        }
        Ok(false)
    }

    /// Tombstoned ids in removal order (empty right after a compaction).
    pub fn tombstones(&self) -> &[u64] {
        &self.deleted
    }

    /// Rebuilds the graph from the live postings in insertion order under
    /// the same params — deterministic, so engines replaying the same
    /// mutation log compact into bit-identical graphs.
    fn compact(&mut self) {
        let live: Vec<(u64, Vec<f32>)> = self.iter().map(|(id, v)| (id, v.to_vec())).collect();
        if live.is_empty() {
            self.postings = Postings::with_capacity(self.dim, 0);
            self.links.clear();
            self.entry = None;
            self.deleted.clear();
            return;
        }
        let refs: Vec<(u64, &[f32])> = live.iter().map(|(id, v)| (*id, v.as_slice())).collect();
        *self = Self::train(self.dim, self.metric, self.params, &refs)
            .expect("live postings form a valid training set");
    }

    /// The construction parameters.
    pub fn params(&self) -> HnswParams {
        self.params
    }

    /// The metric this index scores with.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Iterates over live `(id, vector)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[f32])> + '_ {
        self.iter_all()
            .filter(move |(id, _)| !self.deleted.contains(id))
    }

    /// Iterates over every stored `(id, vector)` pair in insertion order,
    /// including tombstoned entries — the persistence view (see
    /// [`crate::serial`]): node indices in [`HnswIndex::links`] refer to
    /// this full sequence, so dead nodes must be persisted too.
    pub fn iter_all(&self) -> impl Iterator<Item = (u64, &[f32])> + '_ {
        self.postings.iter()
    }

    /// The adjacency lists: `links()[node][layer]` → neighbours on `layer`.
    pub fn links(&self) -> &[Vec<Vec<u32>>] {
        &self.links
    }

    /// Node index of the top-layer entry point (`None` iff empty).
    pub fn entry(&self) -> Option<u32> {
        self.entry
    }

    /// Highest occupied layer (0 for a single-layer graph).
    pub fn max_layer(&self) -> usize {
        self.entry
            .map(|e| self.links[e as usize].len() - 1)
            .unwrap_or(0)
    }

    /// Searches and also reports how many vector-distance evaluations the
    /// query cost — the machine-independent latency proxy the ann bench
    /// gates on (wall-clock is not comparable across CI machines).
    pub fn search_with_stats(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, usize) {
        self.search_prepared_with_stats(&self.metric.prepare(query), k)
    }

    /// [`VectorIndex::search`] with a query already prepared (see
    /// [`crate::FlatIndex::search_prepared`]).
    pub fn search_prepared(&self, query: &PreparedQuery<'_>, k: usize) -> Vec<Neighbor> {
        self.search_prepared_with_stats(query, k).0
    }

    fn search_prepared_with_stats(
        &self,
        query: &PreparedQuery<'_>,
        k: usize,
    ) -> (Vec<Neighbor>, usize) {
        assert_eq!(query.values().len(), self.dim, "query dimension mismatch");
        let n = self.postings.len();
        if n == self.deleted.len() || k == 0 {
            return (Vec::new(), 0);
        }
        let query = query.for_metric(self.metric);
        // Widen the beam by the tombstone count so dead nodes — which
        // still route and occupy beam slots — cannot crowd live answers
        // out of the ef window.
        let ef = self.params.ef_search.max(k) + self.deleted.len();
        if ef >= n {
            // Exact exhaustive fallback: with the beam as wide as the
            // catalog the graph can't prune anything, so answer exactly —
            // this is what makes max-ef_search agree with FlatIndex. Only
            // live vectors are scanned (and counted as evaluations).
            let candidates: Vec<Neighbor> = self.postings.scan(&query, &self.deleted).collect();
            let evals = candidates.len();
            return (top_k(candidates, k), evals);
        }
        let mut evals = 0usize;
        let mut visited = Visited::new(n);
        let mut ep = Scored {
            score: self.score_node(&query, self.entry.expect("non-empty"), &mut evals),
            node: self.entry.expect("non-empty"),
        };
        for layer in (1..=self.max_layer()).rev() {
            ep = self.greedy_step(&query, ep, layer, &mut evals);
        }
        let found = self.search_layer(&query, ep, ef, 0, &mut visited, &mut evals);
        let candidates = found
            .into_iter()
            .map(|s| Neighbor::new(self.postings.id(s.node as usize), s.score))
            .filter(|nb| !self.deleted.contains(&nb.id))
            .collect();
        (top_k(candidates, k), evals)
    }

    fn score_node(&self, query: &PreparedQuery<'_>, node: u32, evals: &mut usize) -> f32 {
        *evals += 1;
        self.postings.score(query, node as usize)
    }

    /// Greedy hill-climb on one layer: moves to the best-scoring neighbour
    /// until no neighbour strictly improves. Ties never move (strict
    /// improvement under `total_cmp`), so the walk is deterministic.
    fn greedy_step(
        &self,
        query: &PreparedQuery<'_>,
        mut current: Scored,
        layer: usize,
        evals: &mut usize,
    ) -> Scored {
        loop {
            let mut best = current;
            for &peer in &self.links[current.node as usize][layer] {
                let cand = Scored {
                    score: self.score_node(query, peer, evals),
                    node: peer,
                };
                if cand > best {
                    best = cand;
                }
            }
            if best.node == current.node {
                return current;
            }
            current = best;
        }
    }

    /// Best-first beam search on one layer, returning up to `ef` scored
    /// nodes (unordered; callers rank them).
    fn search_layer(
        &self,
        query: &PreparedQuery<'_>,
        entry: Scored,
        ef: usize,
        layer: usize,
        visited: &mut Visited,
        evals: &mut usize,
    ) -> Vec<Scored> {
        visited.reset(self.postings.len());
        visited.insert(entry.node);
        // `frontier` pops best-first; `results` pops worst-first so the
        // beam can evict its weakest member in O(log ef).
        let mut frontier = BinaryHeap::from([entry]);
        let mut results = BinaryHeap::from([std::cmp::Reverse(entry)]);
        while let Some(candidate) = frontier.pop() {
            let worst = results.peek().expect("beam is never empty").0;
            if results.len() >= ef && candidate < worst {
                break;
            }
            for &peer in &self.links[candidate.node as usize][layer] {
                if !visited.insert(peer) {
                    continue;
                }
                let scored = Scored {
                    score: self.score_node(query, peer, evals),
                    node: peer,
                };
                let worst = results.peek().expect("beam is never empty").0;
                if results.len() < ef || scored > worst {
                    frontier.push(scored);
                    results.push(std::cmp::Reverse(scored));
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        results.into_iter().map(|r| r.0).collect()
    }

    /// Wires a freshly appended `node` (occupying layers `0..=layer`) into
    /// the graph — the sequential-insertion core of HNSW construction.
    fn connect(&mut self, node: u32, layer: usize, visited: &mut Visited) {
        let Some(entry) = self.entry else {
            self.entry = Some(node);
            return;
        };
        let query = self.postings.query(self.metric, node as usize);
        let mut evals = 0usize;
        let top = self.links[entry as usize].len() - 1;
        let mut ep = Scored {
            score: self.score_node(&query, entry, &mut evals),
            node: entry,
        };
        // Descend through layers above the node's top layer greedily.
        for l in ((layer + 1)..=top).rev() {
            ep = self.greedy_step(&query, ep, l, &mut evals);
        }
        // On each shared layer, beam-search then link via the selection
        // heuristic.
        for l in (0..=layer.min(top)).rev() {
            let mut found = self.search_layer(
                &query,
                ep,
                self.params.ef_construction,
                l,
                visited,
                &mut evals,
            );
            found.sort_by(|a, b| b.cmp(a));
            ep = found[0];
            let cap = self.layer_cap(l);
            let chosen = self.select_heuristic(&found, self.params.m);
            self.links[node as usize][l] = chosen.clone();
            for peer in chosen {
                let peers = &mut self.links[peer as usize][l];
                peers.push(node);
                if peers.len() > cap {
                    let pruned = self.pruned(peer, l, cap);
                    self.links[peer as usize][l] = pruned;
                }
            }
        }
        if layer > top {
            self.entry = Some(node);
        }
    }

    /// Out-link budget for a layer (layer 0 keeps twice as many, as in
    /// the reference algorithm).
    fn layer_cap(&self, layer: usize) -> usize {
        if layer == 0 {
            self.params.m * 2
        } else {
            self.params.m
        }
    }

    /// The reference "select neighbours by heuristic": walk `candidates`
    /// best-first and keep one only if it is closer to the anchor than to
    /// any already-kept neighbour. Plain top-M selection points every
    /// link into the anchor's own cluster and disconnects the graph on
    /// clustered data; this pruning rule preserves the long-range edges
    /// recall depends on. Fully deterministic: candidates arrive in
    /// (score desc, node asc) order and ties reject under `total_cmp`.
    fn select_heuristic(&self, candidates: &[Scored], cap: usize) -> Vec<u32> {
        let mut chosen: Vec<Scored> = Vec::with_capacity(cap);
        for &candidate in candidates {
            if chosen.len() >= cap {
                break;
            }
            let query = self.postings.query(self.metric, candidate.node as usize);
            let diverse = chosen.iter().all(|kept| {
                let to_kept = self.postings.score(&query, kept.node as usize);
                to_kept.total_cmp(&candidate.score).is_lt()
            });
            if diverse {
                chosen.push(candidate);
            }
        }
        chosen.into_iter().map(|s| s.node).collect()
    }

    /// `node`'s layer-`layer` links shrunk back to `cap` with the same
    /// selection heuristic, anchored at the node's own vector.
    fn pruned(&self, node: u32, layer: usize, cap: usize) -> Vec<u32> {
        let anchor = self.postings.query(self.metric, node as usize);
        let mut scored: Vec<Scored> = self.links[node as usize][layer]
            .iter()
            .map(|&peer| Scored {
                score: self.postings.score(&anchor, peer as usize),
                node: peer,
            })
            .collect();
        scored.sort_by(|a, b| b.cmp(a));
        self.select_heuristic(&scored, cap)
    }
}

impl VectorIndex for HnswIndex {
    /// Number of **live** vectors; tombstoned entries do not count.
    fn len(&self) -> usize {
        self.postings.len() - self.deleted.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_with_stats(query, k).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;

    fn grid_items(n: u64) -> Vec<(u64, Vec<f32>)> {
        (0..n)
            .map(|i| (i, vec![(i % 10) as f32, (i / 10) as f32]))
            .collect()
    }

    fn build(items: &[(u64, Vec<f32>)], params: HnswParams) -> HnswIndex {
        let refs: Vec<(u64, &[f32])> = items.iter().map(|(i, v)| (*i, v.as_slice())).collect();
        HnswIndex::train(2, Metric::Euclidean, params, &refs).unwrap()
    }

    #[test]
    fn finds_exact_nearest_on_small_grid() {
        let idx = build(&grid_items(100), HnswParams::default());
        let hits = idx.search(&[3.0, 4.0], 1);
        assert_eq!(hits[0].id, 43); // x=3, y=4 → 4*10+3
    }

    #[test]
    fn construction_is_bit_deterministic() {
        let items = grid_items(100);
        let a = build(&items, HnswParams::default());
        let b = build(&items, HnswParams::default());
        assert_eq!(a.links(), b.links());
        assert_eq!(a.entry(), b.entry());
        let hits_a = a.search(&[4.2, 7.7], 10);
        let hits_b = b.search(&[4.2, 7.7], 10);
        for (x, y) in hits_a.iter().zip(&hits_b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn different_seed_changes_the_graph() {
        let items = grid_items(100);
        let a = build(&items, HnswParams::default());
        let b = build(
            &items,
            HnswParams {
                seed: 1234,
                ..HnswParams::default()
            },
        );
        assert_ne!(a.links(), b.links(), "seed must drive layer assignment");
    }

    #[test]
    fn max_ef_search_agrees_with_flat_exactly() {
        let items = grid_items(100);
        let idx = build(
            &items,
            HnswParams {
                ef_search: 100,
                ..HnswParams::default()
            },
        );
        let mut flat = FlatIndex::new(2, Metric::Euclidean);
        for (id, v) in &items {
            flat.add(*id, v).unwrap();
        }
        for q in [[0.0f32, 0.0], [3.3, 8.1], [9.0, 9.0]] {
            let a = idx.search(&q, 10);
            let b = flat.search(&q, 10);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id, "query {q:?}");
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }

    #[test]
    fn graph_search_costs_fewer_evals_than_exhaustive() {
        let items = grid_items(100);
        let idx = build(
            &items,
            HnswParams {
                ef_search: 8,
                ..HnswParams::default()
            },
        );
        let (hits, evals) = idx.search_with_stats(&[5.0, 5.0], 3);
        assert_eq!(hits.len(), 3);
        assert!(evals < 100, "beam search must not scan everything");
        assert!(evals > 0);
    }

    #[test]
    fn from_parts_roundtrip_searches_identically() {
        let items = grid_items(100);
        let idx = build(&items, HnswParams::default());
        let postings: Vec<(u64, Vec<f32>)> = idx.iter().map(|(id, v)| (id, v.to_vec())).collect();
        let restored = HnswIndex::from_parts(
            2,
            Metric::Euclidean,
            idx.params(),
            postings,
            idx.links().to_vec(),
            idx.entry(),
        )
        .unwrap();
        for q in [[0.0f32, 0.0], [6.5, 2.5]] {
            let a = idx.search(&q, 5);
            let b = restored.search(&q, 5);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_graphs() {
        let items = grid_items(10);
        let idx = build(&items, HnswParams::default());
        let postings: Vec<(u64, Vec<f32>)> = idx.iter().map(|(id, v)| (id, v.to_vec())).collect();
        // Link pointing out of bounds.
        let mut bad = idx.links().to_vec();
        bad[0][0].push(99);
        assert!(matches!(
            HnswIndex::from_parts(
                2,
                Metric::Euclidean,
                idx.params(),
                postings.clone(),
                bad,
                idx.entry()
            ),
            Err(IndexError::NotTrained)
        ));
        // Entry not on the top layer.
        let not_top =
            (0..idx.len() as u32).find(|&i| idx.links()[i as usize].len() < idx.max_layer() + 1);
        if let Some(wrong) = not_top {
            assert!(matches!(
                HnswIndex::from_parts(
                    2,
                    Metric::Euclidean,
                    idx.params(),
                    postings.clone(),
                    idx.links().to_vec(),
                    Some(wrong)
                ),
                Err(IndexError::NotTrained)
            ));
        }
        // Mismatched lengths.
        assert!(matches!(
            HnswIndex::from_parts(
                2,
                Metric::Euclidean,
                idx.params(),
                postings,
                Vec::new(),
                idx.entry()
            ),
            Err(IndexError::NotTrained)
        ));
    }

    #[test]
    fn empty_training_set_is_an_error() {
        let r = HnswIndex::train(2, Metric::Cosine, HnswParams::default(), &[]);
        assert!(matches!(
            r,
            Err(IndexError::InsufficientTrainingData { .. })
        ));
    }

    #[test]
    fn duplicate_ids_and_dim_mismatch_rejected() {
        let a: &[f32] = &[1.0, 0.0];
        let bad: &[f32] = &[1.0];
        assert!(matches!(
            HnswIndex::train(2, Metric::Cosine, HnswParams::default(), &[(1, a), (1, a)]),
            Err(IndexError::DuplicateId(1))
        ));
        assert!(matches!(
            HnswIndex::train(2, Metric::Cosine, HnswParams::default(), &[(1, bad)]),
            Err(IndexError::DimMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn single_item_index_works() {
        let v: &[f32] = &[1.0, 2.0];
        let idx = HnswIndex::train(2, Metric::Cosine, HnswParams::default(), &[(7, v)]).unwrap();
        let hits = idx.search(&[1.0, 2.0], 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 7);
        assert_eq!(
            idx.max_layer(),
            idx.links()[idx.entry().unwrap() as usize].len() - 1
        );
    }

    #[test]
    fn layer_assignment_is_geometric_and_capped() {
        let mut top = 0;
        for i in 0..10_000u64 {
            let l = assigned_layer(42, i, 16);
            assert!(l <= MAX_LAYER);
            top = top.max(l);
        }
        // With m=16 and 10k draws, at least one node should leave layer 0
        // and none should get anywhere near the cap.
        assert!(top >= 1);
        assert!(top < 8);
    }

    #[test]
    fn search_with_k_zero_or_empty_query_set() {
        let items = grid_items(10);
        let idx = build(&items, HnswParams::default());
        assert!(idx.search(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn incremental_add_matches_batch_train_exactly() {
        let items = grid_items(100);
        let all_at_once = build(&items, HnswParams::default());
        let mut grown = build(&items[..60], HnswParams::default());
        for (id, v) in &items[60..] {
            grown.add(*id, v).unwrap();
        }
        assert_eq!(grown.links(), all_at_once.links());
        assert_eq!(grown.entry(), all_at_once.entry());
        let a = grown.search(&[4.2, 7.7], 10);
        let b = all_at_once.search(&[4.2, 7.7], 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn removed_id_never_surfaces_but_still_routes() {
        let mut idx = build(
            &grid_items(100),
            HnswParams {
                ef_search: 8,
                ..HnswParams::default()
            },
        );
        assert!(!idx.remove(43).unwrap());
        assert_eq!(idx.len(), 99);
        assert_eq!(idx.tombstones(), &[43]);
        assert_eq!(idx.iter_all().count(), 100, "dead node stays in graph");
        let hits = idx.search(&[3.0, 4.0], 5);
        assert!(hits.iter().all(|h| h.id != 43));
        assert_eq!(hits.len(), 5, "live neighbours fill the k window");
    }

    #[test]
    fn remove_unknown_or_dead_id_is_an_error_and_id_stays_reserved() {
        let mut idx = build(&grid_items(20), HnswParams::default());
        assert_eq!(idx.remove(999).unwrap_err(), IndexError::UnknownId(999));
        idx.remove(7).unwrap();
        assert_eq!(idx.remove(7).unwrap_err(), IndexError::UnknownId(7));
        assert_eq!(
            idx.add(7, &[0.0, 0.0]).unwrap_err(),
            IndexError::DuplicateId(7)
        );
    }

    #[test]
    fn compaction_rebuilds_and_mutation_sequences_are_deterministic() {
        let items = grid_items(32);
        let run = || {
            let mut idx = build(&items, HnswParams::default());
            let mut compacted = false;
            for id in 0..8u64 {
                compacted |= idx.remove(id).unwrap();
            }
            (idx, compacted)
        };
        let (a, compacted) = run();
        let (b, _) = run();
        assert!(compacted, "8 of 32 tombstones must trip compaction");
        assert!(a.tombstones().is_empty());
        assert_eq!(a.len(), 24);
        assert_eq!(a.iter_all().count(), 24, "rebuild drops dead nodes");
        assert_eq!(a.links(), b.links());
        assert_eq!(a.entry(), b.entry());
        // The compacted graph is exactly a fresh train over the survivors.
        let survivors: Vec<(u64, Vec<f32>)> = items[8..].to_vec();
        let fresh = build(&survivors, HnswParams::default());
        assert_eq!(a.links(), fresh.links());
        // Compacted ids are free again.
        let mut a = a;
        a.add(0, &[50.0, 50.0]).unwrap();
        assert_eq!(a.search(&[50.0, 50.0], 1)[0].id, 0);
    }

    #[test]
    fn exhaustive_fallback_scans_live_only() {
        let items = grid_items(20);
        let mut idx = build(
            &items,
            HnswParams {
                ef_search: 64,
                ..HnswParams::default()
            },
        );
        idx.remove(3).unwrap();
        let (hits, evals) = idx.search_with_stats(&[3.0, 0.0], 20);
        assert_eq!(evals, 19, "dead vectors are not scored in the fallback");
        assert_eq!(hits.len(), 19);
        assert!(hits.iter().all(|h| h.id != 3));
    }
}
