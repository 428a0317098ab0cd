//! Stored vectors: the one buffer layout every index scans.

use lim_embed::similarity;

use crate::metric::Query;
use crate::{Metric, Neighbor};

/// Vectors stored in one contiguous buffer, each with its caller-assigned
/// id and its L2 norm.
///
/// The norm is computed once, when the vector is added, so no search
/// recomputes it. Norms are derived data: they are never persisted, and a
/// decoded index recomputes them from its postings (see [`crate::serial`]).
///
/// [`crate::FlatIndex`] and [`crate::HnswIndex`] keep one `Postings`;
/// [`crate::IvfIndex`] keeps one per coarse cell.
#[derive(Debug, Clone)]
pub struct Postings {
    dim: usize,
    ids: Vec<u64>,
    data: Vec<f32>,
    norms: Vec<f32>,
}

impl Postings {
    /// Empty postings for `dim`-dimensional vectors, with room for
    /// `capacity` of them.
    pub(crate) fn with_capacity(dim: usize, capacity: usize) -> Self {
        Self {
            dim,
            ids: Vec::with_capacity(capacity),
            data: Vec::with_capacity(capacity * dim),
            norms: Vec::with_capacity(capacity),
        }
    }

    /// Appends `vector` under `id` and records its norm. The caller has
    /// checked the dimension and that `id` is new.
    pub(crate) fn push(&mut self, id: u64, vector: &[f32]) {
        debug_assert_eq!(vector.len(), self.dim);
        self.ids.push(id);
        self.data.extend_from_slice(vector);
        self.norms.push(similarity::norm(vector));
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates over every stored `(id, vector)` pair in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[f32])> + '_ {
        (0..self.len()).map(move |i| (self.ids[i], self.vector(i)))
    }

    /// Returns `true` if `id` is stored.
    pub(crate) fn contains(&self, id: u64) -> bool {
        self.ids.contains(&id)
    }

    /// Slot of `id`, if stored.
    pub(crate) fn position(&self, id: u64) -> Option<usize> {
        self.ids.iter().position(|x| *x == id)
    }

    /// The id in slot `i`.
    pub(crate) fn id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// The vector in slot `i`.
    pub(crate) fn vector(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The vector in slot `i`, prepared as a query with its stored norm.
    pub(crate) fn query(&self, metric: Metric, i: usize) -> Query<'_> {
        Query::new(metric, self.vector(i), self.norms[i])
    }

    /// Scores the vector in slot `i` against `query`.
    pub(crate) fn score(&self, query: &Query<'_>, i: usize) -> f32 {
        query.score(self.vector(i), self.norms[i])
    }

    /// Scores every stored vector whose id is not in `deleted`, in
    /// insertion order.
    pub(crate) fn scan<'a>(
        &'a self,
        query: &'a Query<'_>,
        deleted: &'a [u64],
    ) -> impl Iterator<Item = Neighbor> + 'a {
        (0..self.len())
            .filter(move |&i| !deleted.contains(&self.ids[i]))
            .map(move |i| Neighbor::new(self.ids[i], self.score(query, i)))
    }

    /// Drops every vector whose id is in `deleted`; survivors keep their
    /// order and their norms.
    pub(crate) fn remove_all(&mut self, deleted: &[u64]) {
        let dim = self.dim;
        let mut kept = 0;
        for i in 0..self.ids.len() {
            if deleted.contains(&self.ids[i]) {
                continue;
            }
            self.ids[kept] = self.ids[i];
            self.norms[kept] = self.norms[i];
            self.data.copy_within(i * dim..(i + 1) * dim, kept * dim);
            kept += 1;
        }
        self.ids.truncate(kept);
        self.norms.truncate(kept);
        self.data.truncate(kept * dim);
    }
}
