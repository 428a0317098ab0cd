//! In-memory vector store with exact and inverted-file k-NN — the FAISS
//! substitute.
//!
//! The paper's Tool Controller "runs a k-Nearest Neighbors (k-NN) search
//! using FAISS similarity against both Search Level 1 and Level 2". At tool
//! catalog scale (tens to hundreds of vectors) FAISS answers exactly; this
//! crate provides the same interface and semantics:
//!
//! * [`FlatIndex`] — brute-force exact top-k, the default for both levels;
//! * [`IvfIndex`] — an inverted-file index with a deterministic k-means++
//!   coarse quantizer, for the scalability experiments (micro benches sweep
//!   catalog sizes up to 4096);
//! * [`HnswIndex`] — a seeded-deterministic HNSW graph index for 100k-tool
//!   catalog scale, where both exhaustive and probed scans degenerate to
//!   linear work;
//! * [`Metric`] — cosine / inner-product / Euclidean scoring with a uniform
//!   "higher score is better" convention;
//! * [`Postings`] — the storage all three share: ids, one contiguous
//!   vector buffer and each vector's norm, computed once at insert.
//!
//! Every index scores through one kernel: the query's norm and nonzero
//! components are computed once per search, each candidate's dot product
//! folds over those components only, and the result is bit-identical to
//! the dense definitions in `lim_embed::similarity` (see
//! [`Metric::score`], which runs the same kernel).
//!
//! All three indexes support **live mutation**: incremental `add`
//! (Flat appends, IVF assigns to the nearest coarse centroid, HNSW
//! inserts natively into the graph) and `remove`-as-tombstone.
//! Tombstoned entries are filtered out of every search result and
//! compacted away once they pass the shared [`compaction_due`]
//! threshold; until then the id stays reserved (re-adding it is a
//! [`IndexError::DuplicateId`]). Mutation is deterministic: the same
//! sequence of operations on the same starting index always produces
//! bit-identical search results, which is what lets a serving engine
//! replay a catalog mutation log and converge exactly.
//!
//! # Examples
//!
//! ```
//! use lim_vecstore::{FlatIndex, Metric, VectorIndex};
//!
//! # fn main() -> Result<(), lim_vecstore::IndexError> {
//! let mut index = FlatIndex::new(4, Metric::Cosine);
//! index.add(7, &[1.0, 0.0, 0.0, 0.0])?;
//! index.add(9, &[0.0, 1.0, 0.0, 0.0])?;
//! let hits = index.search(&[0.9, 0.1, 0.0, 0.0], 1);
//! assert_eq!(hits[0].id, 7);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
mod flat;
mod hnsw;
mod ivf;
mod kmeans;
mod metric;
mod neighbor;
mod postings;
pub mod serial;

pub use error::IndexError;
pub use flat::FlatIndex;
pub use hnsw::{HnswIndex, HnswParams};
pub use ivf::{IvfIndex, IvfParams};
pub use kmeans::{kmeans, KmeansResult};
pub use metric::{Metric, PreparedQuery};
pub use neighbor::Neighbor;
pub use postings::Postings;
pub use serial::{
    flat_from_json, flat_to_json, floats_from_json, floats_to_json, hnsw_from_json, hnsw_to_json,
    ivf_from_json, ivf_to_json, DecodeIndexError,
};

/// Shared compaction threshold for tombstoned entries.
///
/// Returns `true` once an index holding `total` entries (live + dead) has
/// accumulated enough `tombstones` to be worth rewriting: at least 8
/// tombstones **and** at least a quarter of the stored entries dead. Every
/// index checks this after each `remove` and compacts immediately when it
/// trips, so a persisted index is always strictly below the threshold —
/// which is what makes replaying a serialized removal list side-effect-free.
pub fn compaction_due(tombstones: usize, total: usize) -> bool {
    tombstones >= 8 && tombstones * 4 >= total
}

/// Common behaviour of the vector indexes in this crate.
///
/// Object-safe so pipelines can hold `Box<dyn VectorIndex>` and switch
/// between exact and approximate search.
pub trait VectorIndex {
    /// Number of stored vectors.
    fn len(&self) -> usize;

    /// Returns `true` if the index holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality the index accepts.
    fn dim(&self) -> usize;

    /// Returns the `k` nearest neighbours of `query`, best first.
    ///
    /// Returns fewer than `k` entries when the index is smaller than `k`,
    /// and an empty vector on an empty index.
    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor>;
}

/// Shared references search like the index they point to, so a built
/// index can be handed to generic consumers without moving it.
impl<I: VectorIndex + ?Sized> VectorIndex for &I {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        (**self).search(query, k)
    }
}

/// `Arc<I>` searches like `I`: a read-only index built once can be shared
/// across serving workers without cloning its vectors (see `lim-serve`).
impl<I: VectorIndex + ?Sized> VectorIndex for std::sync::Arc<I> {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        (**self).search(query, k)
    }
}

#[cfg(test)]
mod tests;
