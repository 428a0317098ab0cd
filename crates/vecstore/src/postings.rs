//! Stored vectors: the one buffer layout every index scans.

use std::sync::OnceLock;

use lim_embed::similarity;

use crate::{Metric, Neighbor, PreparedQuery};

/// Vectors stored in one contiguous buffer, each with its caller-assigned
/// id and its L2 norm.
///
/// The norm is computed once, when the vector is added, so no search
/// recomputes it. Next to the rows, a per-dimension view holds every
/// stored vector's nonzero components grouped by dimension, which is
/// what [`Postings::scan`] reads. It is built on the first scan after a
/// vector is added or removed. Norms and the view are derived data: they
/// are never persisted, and a decoded index recomputes them from its
/// postings (see [`crate::serial`]).
///
/// [`crate::FlatIndex`] and [`crate::HnswIndex`] keep one `Postings`;
/// [`crate::IvfIndex`] keeps one per coarse cell.
#[derive(Debug, Clone)]
pub struct Postings {
    dim: usize,
    ids: Vec<u64>,
    data: Vec<f32>,
    norms: Vec<f32>,
    columns: OnceLock<Columns>,
}

/// The stored vectors' nonzero components grouped by dimension, in one
/// contiguous array.
#[derive(Debug, Clone)]
struct Columns {
    /// Number of stored vectors the view was built from.
    slots: usize,
    /// `entries[starts[j]..starts[j + 1]]` holds dimension `j`'s nonzero
    /// components as `(slot, value)`, in slot order.
    starts: Vec<u32>,
    entries: Vec<(u32, f32)>,
}

impl Columns {
    fn build(dim: usize, data: &[f32]) -> Self {
        let mut starts = vec![0u32; dim + 1];
        for row in data.chunks_exact(dim) {
            for (j, &x) in row.iter().enumerate() {
                starts[j + 1] += u32::from(x != 0.0);
            }
        }
        for j in 0..dim {
            starts[j + 1] += starts[j];
        }
        let mut entries = vec![(0, 0.0); starts[dim] as usize];
        let mut next = starts[..dim].to_vec();
        for (slot, row) in data.chunks_exact(dim).enumerate() {
            for (j, &x) in row.iter().enumerate() {
                if x != 0.0 {
                    entries[next[j] as usize] = (slot as u32, x);
                    next[j] += 1;
                }
            }
        }
        Self {
            slots: data.len() / dim,
            starts,
            entries,
        }
    }

    /// The sum of `x * v[j]` over every `(j, x)` of `support` with a
    /// nonzero `v[j]`, for every stored `v`, term at a time: one pass
    /// over the support's per-dimension runs. Each sum starts at `-0.0`
    /// and adds its products in dimension order, as the per-candidate
    /// fold does.
    fn sparse_dots(&self, support: &[(u32, f32)]) -> Vec<f32> {
        let mut sums = vec![-0.0f32; self.slots];
        for &(j, x) in support {
            let run = self.starts[j as usize] as usize..self.starts[j as usize + 1] as usize;
            for &(slot, v) in &self.entries[run] {
                sums[slot as usize] += x * v;
            }
        }
        sums
    }
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
            columns: OnceLock::new(),
        }
    }

    /// Appends `vector` under `id` and records its norm. The caller has
    /// checked the dimension and that `id` is new.
    pub(crate) fn push(&mut self, id: u64, vector: &[f32]) {
        debug_assert_eq!(vector.len(), self.dim);
        self.ids.push(id);
        self.data.extend_from_slice(vector);
        self.norms.push(similarity::norm(vector));
        self.columns.take();
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
    pub(crate) fn query(&self, metric: Metric, i: usize) -> PreparedQuery<'_> {
        PreparedQuery::new(metric, self.vector(i), self.norms[i])
    }

    /// Scores the vector in slot `i` against `query`, one candidate at a
    /// time (the HNSW graph walk).
    pub(crate) fn score(&self, query: &PreparedQuery<'_>, i: usize) -> f32 {
        query.score(self.vector(i), self.norms[i])
    }

    /// Scores every stored vector whose id is not in `deleted`, in
    /// insertion order.
    ///
    /// A sparse query is scored term at a time over the per-dimension
    /// view, which is rebuilt here if a vector was added or removed since
    /// the last scan. Each sum then takes the same finish step as
    /// [`Postings::score`], so both give the same bits.
    ///
    /// # Panics
    ///
    /// Panics if the query's dimension differs from the stored vectors'.
    pub(crate) fn scan<'a>(
        &'a self,
        query: &'a PreparedQuery<'_>,
        deleted: &'a [u64],
    ) -> impl Iterator<Item = Neighbor> + 'a {
        assert_eq!(query.values().len(), self.dim, "dimension mismatch");
        let sums = query.sparse_support().map(|support| {
            self.columns
                .get_or_init(|| Columns::build(self.dim, &self.data))
                .sparse_dots(support)
        });
        (0..self.len())
            .filter(move |&i| !deleted.contains(&self.ids[i]))
            .map(move |i| {
                let sparse = sums.as_ref().map(|sums| sums[i]);
                let score = query.finish(sparse, self.vector(i), self.norms[i]);
                Neighbor::new(self.ids[i], score)
            })
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
        self.columns.take();
    }
}
