//! Brute-force exact index.

use crate::neighbor::top_k;
use crate::{IndexError, Metric, Neighbor, Postings, PreparedQuery, VectorIndex};

/// Exact k-NN index that scans every stored vector.
///
/// This is what FAISS's `IndexFlat` does, and at tool-catalog scale it is
/// both the fastest and the simplest correct choice. Vectors are stored in
/// one contiguous buffer for cache-friendly scans, each with its norm
/// (see [`Postings`]).
///
/// # Examples
///
/// ```
/// use lim_vecstore::{FlatIndex, Metric, VectorIndex};
///
/// # fn main() -> Result<(), lim_vecstore::IndexError> {
/// let mut index = FlatIndex::new(2, Metric::Cosine);
/// index.add(0, &[1.0, 0.0])?;
/// index.add(1, &[0.0, 1.0])?;
/// assert_eq!(index.len(), 2);
/// assert_eq!(index.search(&[1.0, 0.1], 1)[0].id, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FlatIndex {
    dim: usize,
    metric: Metric,
    postings: Postings,
    /// Tombstoned ids in removal order; still present in `postings`
    /// until compaction rewrites them.
    deleted: Vec<u64>,
}

impl FlatIndex {
    /// Creates an empty index for `dim`-dimensional vectors.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize, metric: Metric) -> Self {
        assert!(dim > 0, "index dimension must be positive");
        Self {
            dim,
            metric,
            postings: Postings::with_capacity(dim, 0),
            deleted: Vec::new(),
        }
    }

    /// The metric this index scores with.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Adds a vector under `id`.
    ///
    /// # Errors
    ///
    /// * [`IndexError::DimMismatch`] if `vector.len() != dim`.
    /// * [`IndexError::DuplicateId`] if `id` was already added — including
    ///   ids that are tombstoned but not yet compacted away.
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
        self.postings.push(id, vector);
        Ok(())
    }

    /// Tombstones `id`: it disappears from every search, iteration, and
    /// `get` immediately, but its slot stays reserved until compaction.
    ///
    /// Returns `true` when the removal tripped [`crate::compaction_due`]
    /// and the buffers were rewritten in place (dropping every tombstone).
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
            self.postings.remove_all(&self.deleted);
            self.deleted.clear();
            return Ok(true);
        }
        Ok(false)
    }

    /// Tombstoned ids in removal order (empty right after a compaction).
    pub fn tombstones(&self) -> &[u64] {
        &self.deleted
    }

    /// Adds a batch of `(id, vector)` pairs.
    ///
    /// # Errors
    ///
    /// Stops at — and returns — the first failing insertion; earlier pairs
    /// remain added.
    pub fn add_batch<'a, I>(&mut self, items: I) -> Result<(), IndexError>
    where
        I: IntoIterator<Item = (u64, &'a [f32])>,
    {
        for (id, v) in items {
            self.add(id, v)?;
        }
        Ok(())
    }

    /// Iterates over live `(id, vector)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[f32])> + '_ {
        self.iter_all()
            .filter(move |(id, _)| !self.deleted.contains(id))
    }

    /// Iterates over every stored `(id, vector)` pair in insertion order,
    /// including tombstoned entries — the persistence view (see
    /// [`crate::serial`]), which must capture tombstones exactly.
    pub fn iter_all(&self) -> impl Iterator<Item = (u64, &[f32])> + '_ {
        self.postings.iter()
    }

    /// Returns the stored vector for `id`, if present and live.
    pub fn get(&self, id: u64) -> Option<&[f32]> {
        if self.deleted.contains(&id) {
            return None;
        }
        Some(self.postings.vector(self.postings.position(id)?))
    }

    /// Searches and also reports how many vector-distance evaluations the
    /// query cost (always `len()` for an exhaustive scan) — the
    /// machine-independent latency proxy the ann bench gates on.
    pub fn search_with_stats(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, usize) {
        (self.search(query, k), self.len())
    }

    /// [`VectorIndex::search`] with a query already prepared, so one
    /// preparation can serve several indexes. A query prepared for
    /// another metric is prepared again for this index's.
    ///
    /// # Panics
    ///
    /// Panics if the query's dimension differs from the index's.
    pub fn search_prepared(&self, query: &PreparedQuery<'_>, k: usize) -> Vec<Neighbor> {
        assert_eq!(query.values().len(), self.dim, "query dimension mismatch");
        let query = query.for_metric(self.metric);
        top_k(self.postings.scan(&query, &self.deleted).collect(), k)
    }
}

impl VectorIndex for FlatIndex {
    /// Number of **live** vectors; tombstoned entries do not count.
    fn len(&self) -> usize {
        self.postings.len() - self.deleted.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_prepared(&self.metric.prepare(query), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FlatIndex {
        let mut idx = FlatIndex::new(3, Metric::Cosine);
        idx.add(10, &[1.0, 0.0, 0.0]).unwrap();
        idx.add(20, &[0.0, 1.0, 0.0]).unwrap();
        idx.add(30, &[0.0, 0.0, 1.0]).unwrap();
        idx
    }

    #[test]
    fn search_returns_exact_nearest() {
        let idx = sample();
        let hits = idx.search(&[0.8, 0.6, 0.0], 2);
        assert_eq!(hits[0].id, 10);
        assert_eq!(hits[1].id, 20);
    }

    #[test]
    fn search_caps_at_len() {
        let idx = sample();
        assert_eq!(idx.search(&[1.0, 0.0, 0.0], 10).len(), 3);
    }

    #[test]
    fn empty_index_returns_no_hits() {
        let idx = FlatIndex::new(3, Metric::Cosine);
        assert!(idx.search(&[1.0, 0.0, 0.0], 5).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn dim_mismatch_is_rejected() {
        let mut idx = FlatIndex::new(3, Metric::Cosine);
        let err = idx.add(1, &[1.0]).unwrap_err();
        assert_eq!(
            err,
            IndexError::DimMismatch {
                expected: 3,
                got: 1
            }
        );
    }

    #[test]
    fn duplicate_id_is_rejected() {
        let mut idx = sample();
        assert_eq!(
            idx.add(10, &[1.0, 1.0, 1.0]).unwrap_err(),
            IndexError::DuplicateId(10)
        );
    }

    #[test]
    fn get_retrieves_stored_vector() {
        let idx = sample();
        assert_eq!(idx.get(20), Some(&[0.0, 1.0, 0.0][..]));
        assert_eq!(idx.get(99), None);
    }

    #[test]
    fn batch_add_propagates_errors() {
        let mut idx = FlatIndex::new(2, Metric::Cosine);
        let a: &[f32] = &[1.0, 0.0];
        let bad: &[f32] = &[1.0];
        let result = idx.add_batch([(1, a), (2, bad)]);
        assert!(result.is_err());
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn euclidean_metric_ranks_by_distance() {
        let mut idx = FlatIndex::new(2, Metric::Euclidean);
        idx.add(1, &[0.0, 0.0]).unwrap();
        idx.add(2, &[5.0, 5.0]).unwrap();
        let hits = idx.search(&[1.0, 1.0], 2);
        assert_eq!(hits[0].id, 1);
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn search_panics_on_bad_query_dim() {
        let idx = sample();
        let _ = idx.search(&[1.0], 1);
    }

    #[test]
    fn removed_id_vanishes_from_search_len_get_iter() {
        let mut idx = sample();
        assert!(!idx.remove(10).unwrap());
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.get(10), None);
        assert!(idx.iter().all(|(id, _)| id != 10));
        assert!(idx.search(&[1.0, 0.0, 0.0], 3).iter().all(|h| h.id != 10));
        assert_eq!(idx.tombstones(), &[10]);
        // The full (persistence) view still holds the tombstoned entry.
        assert_eq!(idx.iter_all().count(), 3);
    }

    #[test]
    fn remove_unknown_or_dead_id_is_an_error() {
        let mut idx = sample();
        assert_eq!(idx.remove(99).unwrap_err(), IndexError::UnknownId(99));
        idx.remove(10).unwrap();
        assert_eq!(idx.remove(10).unwrap_err(), IndexError::UnknownId(10));
    }

    #[test]
    fn tombstoned_id_stays_reserved_until_compaction() {
        let mut idx = sample();
        idx.remove(10).unwrap();
        assert_eq!(
            idx.add(10, &[1.0, 1.0, 1.0]).unwrap_err(),
            IndexError::DuplicateId(10)
        );
    }

    #[test]
    fn compaction_trips_at_threshold_and_frees_ids() {
        let mut idx = FlatIndex::new(1, Metric::Euclidean);
        for i in 0..32u64 {
            idx.add(i, &[i as f32]).unwrap();
        }
        for i in 0..7u64 {
            assert!(!idx.remove(i).unwrap(), "below threshold at {i}");
        }
        // 8th tombstone: 8 >= 8 and 8*4 >= 32 → compaction.
        assert!(idx.remove(7).unwrap());
        assert!(idx.tombstones().is_empty());
        assert_eq!(idx.len(), 24);
        assert_eq!(idx.iter_all().count(), 24);
        // Compacted ids are free again.
        idx.add(0, &[100.0]).unwrap();
        assert_eq!(idx.get(0), Some(&[100.0][..]));
    }

    #[test]
    fn compaction_preserves_insertion_order_of_survivors() {
        let mut idx = FlatIndex::new(1, Metric::Euclidean);
        for i in 0..32u64 {
            idx.add(i, &[i as f32]).unwrap();
        }
        for i in (0..16u64).step_by(2) {
            idx.remove(i).unwrap();
        }
        let ids: Vec<u64> = idx.iter().map(|(id, _)| id).collect();
        let expected: Vec<u64> = (0..32u64).filter(|i| i % 2 == 1 || *i >= 16).collect();
        assert_eq!(ids, expected);
    }
}
