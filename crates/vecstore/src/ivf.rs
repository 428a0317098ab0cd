//! Inverted-file (IVF) approximate index.

use crate::kmeans::{kmeans, nearest};
use crate::neighbor::top_k;
use crate::{IndexError, Metric, Neighbor, Postings, PreparedQuery, VectorIndex};

/// Construction parameters for [`IvfIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfParams {
    /// Number of coarse cells (k-means clusters).
    pub nlist: usize,
    /// Number of cells probed per query.
    pub nprobe: usize,
    /// Seed for the deterministic coarse quantizer.
    pub seed: u64,
}

impl Default for IvfParams {
    fn default() -> Self {
        Self {
            nlist: 16,
            nprobe: 4,
            seed: 0x11F_5EED,
        }
    }
}

/// Approximate k-NN index that probes only the most promising cells.
///
/// Mirrors FAISS `IndexIVFFlat`: a k-means coarse quantizer partitions the
/// collection; a query scores only the vectors stored in its `nprobe`
/// nearest cells. With `nprobe == nlist` the search is exact.
///
/// # Examples
///
/// ```
/// use lim_vecstore::{IvfIndex, IvfParams, Metric, VectorIndex};
///
/// # fn main() -> Result<(), lim_vecstore::IndexError> {
/// let data: Vec<(u64, Vec<f32>)> = (0..64)
///     .map(|i| (i, vec![(i % 8) as f32, (i / 8) as f32]))
///     .collect();
/// let refs: Vec<(u64, &[f32])> = data.iter().map(|(i, v)| (*i, v.as_slice())).collect();
/// let index = IvfIndex::train(2, Metric::Euclidean, IvfParams::default(), &refs)?;
/// let hits = index.search(&[0.0, 0.0], 1);
/// assert_eq!(hits[0].id, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IvfIndex {
    dim: usize,
    metric: Metric,
    params: IvfParams,
    centroids: Vec<Vec<f32>>,
    /// Per-cell postings, parallel to `centroids`.
    cells: Vec<Postings>,
    /// Total stored entries, live and tombstoned.
    len: usize,
    /// Tombstoned ids in removal order; their postings stay in `cells`
    /// until compaction rewrites them.
    deleted: Vec<u64>,
}

impl IvfIndex {
    /// Trains the coarse quantizer on `items` and adds all of them.
    ///
    /// # Errors
    ///
    /// * [`IndexError::DimMismatch`] if any vector disagrees with `dim`.
    /// * [`IndexError::DuplicateId`] on repeated ids.
    /// * [`IndexError::InsufficientTrainingData`] if `items` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `params.nlist` is zero.
    pub fn train(
        dim: usize,
        metric: Metric,
        params: IvfParams,
        items: &[(u64, &[f32])],
    ) -> Result<Self, IndexError> {
        assert!(dim > 0, "index dimension must be positive");
        assert!(params.nlist > 0, "nlist must be positive");
        if items.is_empty() {
            return Err(IndexError::InsufficientTrainingData {
                supplied: 0,
                clusters: params.nlist,
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

        let vectors: Vec<Vec<f32>> = items.iter().map(|(_, v)| v.to_vec()).collect();
        let result = kmeans(&vectors, params.nlist, params.seed, 25);
        let nlist = result.centroids.len();
        let mut cells = vec![Postings::with_capacity(dim, 0); nlist];
        for ((id, v), cell) in items.iter().zip(&result.assignments) {
            cells[*cell].push(*id, v);
        }
        Ok(Self {
            dim,
            metric,
            params,
            centroids: result.centroids,
            cells,
            len: items.len(),
            deleted: Vec::new(),
        })
    }

    /// Adds one more vector after training (assigned to its nearest cell).
    ///
    /// # Errors
    ///
    /// * [`IndexError::DimMismatch`] on wrong dimensionality.
    /// * [`IndexError::DuplicateId`] on a repeated id.
    pub fn add(&mut self, id: u64, vector: &[f32]) -> Result<(), IndexError> {
        if vector.len() != self.dim {
            return Err(IndexError::DimMismatch {
                expected: self.dim,
                got: vector.len(),
            });
        }
        if self.stores(id) {
            return Err(IndexError::DuplicateId(id));
        }
        let cell = nearest(vector, &self.centroids).0;
        self.cells[cell].push(id, vector);
        self.len += 1;
        Ok(())
    }

    /// Tombstones `id`: its posting is skipped by every probe (without
    /// counting as a distance evaluation) until compaction drops it.
    ///
    /// Returns `true` when the removal tripped [`crate::compaction_due`]
    /// and the cells were rewritten in place. Centroids are untouched, so
    /// probing order is unchanged.
    ///
    /// # Errors
    ///
    /// [`IndexError::UnknownId`] if `id` was never added or is already
    /// tombstoned.
    pub fn remove(&mut self, id: u64) -> Result<bool, IndexError> {
        if !self.stores(id) || self.deleted.contains(&id) {
            return Err(IndexError::UnknownId(id));
        }
        self.deleted.push(id);
        if crate::compaction_due(self.deleted.len(), self.len) {
            self.compact();
            return Ok(true);
        }
        Ok(false)
    }

    /// Returns `true` if any cell stores `id`, live or tombstoned.
    fn stores(&self, id: u64) -> bool {
        self.cells.iter().any(|cell| cell.contains(id))
    }

    /// Tombstoned ids in removal order (empty right after a compaction).
    pub fn tombstones(&self) -> &[u64] {
        &self.deleted
    }

    /// Drops every tombstoned posting from its cell (surviving postings
    /// keep their within-cell order) and clears the tombstone list.
    fn compact(&mut self) {
        for cell in &mut self.cells {
            cell.remove_all(&self.deleted);
        }
        self.len -= self.deleted.len();
        self.deleted.clear();
    }

    /// Number of coarse cells actually trained (≤ `nlist`).
    pub fn cell_count(&self) -> usize {
        self.centroids.len()
    }

    /// The construction parameters.
    pub fn params(&self) -> IvfParams {
        self.params
    }

    /// The metric this index scores with.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The trained coarse centroids, one per cell.
    pub fn centroids(&self) -> &[Vec<f32>] {
        &self.centroids
    }

    /// Per-cell postings, parallel to [`IvfIndex::centroids`].
    ///
    /// This is the persistence view: it includes tombstoned postings, which
    /// [`crate::serial`] captures alongside the tombstone list.
    pub fn cells(&self) -> &[Postings] {
        &self.cells
    }

    /// Reassembles an index from previously persisted parts (see
    /// [`crate::serial`]) without re-running k-means, so a restored index
    /// probes exactly like the one that was saved.
    ///
    /// # Errors
    ///
    /// * [`IndexError::NotTrained`] if `centroids` is empty or the cell
    ///   list does not pair up with the centroids.
    /// * [`IndexError::DimMismatch`] if any centroid or stored vector
    ///   disagrees with `dim`.
    /// * [`IndexError::DuplicateId`] on repeated ids.
    pub fn from_parts(
        dim: usize,
        metric: Metric,
        params: IvfParams,
        centroids: Vec<Vec<f32>>,
        cells: Vec<Vec<(u64, Vec<f32>)>>,
    ) -> Result<Self, IndexError> {
        if centroids.is_empty() || centroids.len() != cells.len() {
            return Err(IndexError::NotTrained);
        }
        for v in centroids
            .iter()
            .chain(cells.iter().flatten().map(|(_, v)| v))
        {
            if v.len() != dim {
                return Err(IndexError::DimMismatch {
                    expected: dim,
                    got: v.len(),
                });
            }
        }
        let mut seen: Vec<u64> = cells.iter().flatten().map(|(id, _)| *id).collect();
        let len = seen.len();
        seen.sort_unstable();
        if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(IndexError::DuplicateId(w[0]));
        }
        let cells = cells
            .iter()
            .map(|cell| {
                let mut postings = Postings::with_capacity(dim, cell.len());
                for (id, v) in cell {
                    postings.push(*id, v);
                }
                postings
            })
            .collect();
        Ok(Self {
            dim,
            metric,
            params,
            centroids,
            cells,
            len,
            deleted: Vec::new(),
        })
    }
}

impl IvfIndex {
    /// Searches and also reports how many vector-distance evaluations the
    /// query cost (coarse centroid rankings plus every probed posting) —
    /// the machine-independent latency proxy the ann bench gates on.
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
        let query = query.for_metric(self.metric);
        // Rank cells by centroid distance, probe the best nprobe.
        let mut cell_order: Vec<(usize, f32)> = self
            .centroids
            .iter()
            .enumerate()
            .map(|(i, c)| (i, lim_embed::similarity::euclidean_sq(query.values(), c)))
            .collect();
        cell_order.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let probes = self.params.nprobe.max(1).min(cell_order.len());

        // Tombstoned postings are skipped without a distance evaluation,
        // so every candidate cost exactly one.
        let mut candidates = Vec::new();
        for (cell, _) in cell_order.into_iter().take(probes) {
            candidates.extend(self.cells[cell].scan(&query, &self.deleted));
        }
        let evals = self.centroids.len() + candidates.len();
        (top_k(candidates, k), evals)
    }
}

impl VectorIndex for IvfIndex {
    /// Number of **live** vectors; tombstoned entries do not count.
    fn len(&self) -> usize {
        self.len - self.deleted.len()
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

    fn grid_items() -> Vec<(u64, Vec<f32>)> {
        (0..100u64)
            .map(|i| (i, vec![(i % 10) as f32, (i / 10) as f32]))
            .collect()
    }

    fn build(params: IvfParams) -> IvfIndex {
        let data = grid_items();
        let refs: Vec<(u64, &[f32])> = data.iter().map(|(i, v)| (*i, v.as_slice())).collect();
        IvfIndex::train(2, Metric::Euclidean, params, &refs).unwrap()
    }

    #[test]
    fn exact_when_probing_all_cells() {
        let idx = build(IvfParams {
            nlist: 8,
            nprobe: 8,
            seed: 3,
        });
        let hits = idx.search(&[3.0, 4.0], 1);
        assert_eq!(hits[0].id, 43); // x=3, y=4 → 4*10+3
    }

    #[test]
    fn approximate_search_finds_local_neighbors() {
        let idx = build(IvfParams {
            nlist: 10,
            nprobe: 3,
            seed: 3,
        });
        let hits = idx.search(&[0.0, 0.0], 4);
        // The true nearest (id 0) must be in the probed region.
        assert!(hits.iter().any(|h| h.id == 0));
    }

    #[test]
    fn add_after_training_is_searchable() {
        let mut idx = build(IvfParams::default());
        idx.add(1000, &[50.0, 50.0]).unwrap();
        let hits = idx.search(&[50.0, 50.0], 1);
        assert_eq!(hits[0].id, 1000);
        assert_eq!(idx.len(), 101);
    }

    #[test]
    fn duplicate_ids_rejected_everywhere() {
        let data = grid_items();
        let refs: Vec<(u64, &[f32])> = data.iter().map(|(i, v)| (*i, v.as_slice())).collect();
        let mut dup = refs.clone();
        dup.push((5, dup[0].1));
        assert!(matches!(
            IvfIndex::train(2, Metric::Euclidean, IvfParams::default(), &dup),
            Err(IndexError::DuplicateId(5))
        ));
        let mut idx = build(IvfParams::default());
        assert!(matches!(
            idx.add(5, &[0.0, 0.0]),
            Err(IndexError::DuplicateId(5))
        ));
    }

    #[test]
    fn empty_training_set_is_an_error() {
        let r = IvfIndex::train(2, Metric::Cosine, IvfParams::default(), &[]);
        assert!(matches!(
            r,
            Err(IndexError::InsufficientTrainingData { .. })
        ));
    }

    #[test]
    fn training_rejects_dim_mismatch() {
        let bad: &[f32] = &[1.0];
        let r = IvfIndex::train(2, Metric::Cosine, IvfParams::default(), &[(0, bad)]);
        assert!(matches!(
            r,
            Err(IndexError::DimMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn removed_id_is_skipped_without_distance_evals() {
        let mut idx = build(IvfParams {
            nlist: 8,
            nprobe: 8,
            seed: 3,
        });
        let (_, evals_before) = idx.search_with_stats(&[3.0, 4.0], 1);
        assert!(!idx.remove(43).unwrap());
        let (hits, evals_after) = idx.search_with_stats(&[3.0, 4.0], 1);
        assert_ne!(hits[0].id, 43);
        assert_eq!(evals_after, evals_before - 1);
        assert_eq!(idx.len(), 99);
        assert_eq!(idx.tombstones(), &[43]);
    }

    #[test]
    fn remove_unknown_or_dead_id_is_an_error() {
        let mut idx = build(IvfParams::default());
        assert_eq!(idx.remove(999).unwrap_err(), IndexError::UnknownId(999));
        idx.remove(5).unwrap();
        assert_eq!(idx.remove(5).unwrap_err(), IndexError::UnknownId(5));
        assert_eq!(
            idx.add(5, &[0.0, 0.0]).unwrap_err(),
            IndexError::DuplicateId(5)
        );
    }

    #[test]
    fn compaction_drops_tombstones_and_keeps_centroids() {
        let mut idx = build(IvfParams::default());
        let centroids_before = idx.centroids().to_vec();
        let mut compacted = false;
        for i in 0..25u64 {
            compacted |= idx.remove(i).unwrap();
        }
        assert!(compacted);
        assert!(idx.tombstones().is_empty());
        assert_eq!(idx.centroids(), centroids_before.as_slice());
        let stored: usize = idx.cells().iter().map(Postings::len).sum();
        assert_eq!(stored, idx.len());
        // A compacted id is free again, assigned to its nearest cell.
        idx.add(0, &[0.0, 0.0]).unwrap();
        assert!(idx.search(&[0.0, 0.0], 1)[0].id == 0);
    }

    #[test]
    fn cell_count_bounded_by_nlist() {
        let idx = build(IvfParams {
            nlist: 7,
            nprobe: 2,
            seed: 1,
        });
        assert!(idx.cell_count() <= 7);
        assert!(idx.cell_count() >= 1);
    }
}
