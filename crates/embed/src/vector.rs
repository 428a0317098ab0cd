//! The dense embedding vector type.

use std::fmt;

/// A dense latent-space vector produced by [`crate::Embedder`].
///
/// Non-empty embeddings are L2-normalised at construction, and
/// [`Embedding::cosine`] takes their dot product as the cosine, which
/// holds up to rounding. The controller's k-NN search does not rely on
/// the normalisation: `lim-vecstore`'s cosine metric divides the dot
/// product by both vectors' norms, exactly as [`crate::similarity::cosine`]
/// does.
#[derive(Clone, PartialEq)]
pub struct Embedding {
    values: Vec<f32>,
}

impl Embedding {
    /// Wraps raw values, normalising to unit L2 norm when non-zero.
    ///
    /// A zero vector (e.g. the embedding of an empty string) is preserved
    /// as-is, and its cosine with anything is defined to be 0.
    pub fn new(values: Vec<f32>) -> Self {
        let norm = values.iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm > 0.0 {
            Self {
                values: values.iter().map(|v| v / norm).collect(),
            }
        } else {
            Self { values }
        }
    }

    /// Wraps values that are already unit-norm (or intentionally zero)
    /// without re-normalising.
    ///
    /// Dividing an already-normalised vector by its ≈1.0 norm perturbs
    /// every component by an ulp, so decoding a serialised embedding
    /// through [`Embedding::new`] would not be bit-identical to the
    /// vector that was written. Snapshot and checkpoint loaders use this
    /// constructor so persisted state round-trips to the exact bytes.
    pub fn from_normalized(values: Vec<f32>) -> Self {
        Self { values }
    }

    /// Creates an all-zero embedding of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self {
            values: vec![0.0; dim],
        }
    }

    /// Dimensionality of the vector.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Borrows the raw components.
    pub fn as_slice(&self) -> &[f32] {
        &self.values
    }

    /// Returns `true` if every component is zero.
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|v| *v == 0.0)
    }

    /// Dot product with another embedding.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn dot(&self, other: &Embedding) -> f32 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Cosine similarity in `[-1, 1]`; 0 when either vector is zero.
    ///
    /// Because embeddings are unit-norm this is just [`Embedding::dot`],
    /// clamped against floating-point drift.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn cosine(&self, other: &Embedding) -> f32 {
        if self.is_zero() || other.is_zero() {
            return 0.0;
        }
        self.dot(other).clamp(-1.0, 1.0)
    }

    /// Euclidean distance to another embedding.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn euclidean(&self, other: &Embedding) -> f32 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt()
    }

    /// Arithmetic mean of a non-empty set of embeddings, re-normalised.
    ///
    /// Used to build cluster centroids for Search Level 2.
    ///
    /// Returns `None` for an empty input.
    pub fn mean<'a, I: IntoIterator<Item = &'a Embedding>>(items: I) -> Option<Embedding> {
        let mut iter = items.into_iter();
        let first = iter.next()?;
        let mut acc: Vec<f32> = first.values.clone();
        let mut count = 1usize;
        for e in iter {
            assert_eq!(e.dim(), acc.len(), "dimension mismatch");
            for (a, b) in acc.iter_mut().zip(&e.values) {
                *a += b;
            }
            count += 1;
        }
        for a in &mut acc {
            *a /= count as f32;
        }
        Some(Embedding::new(acc))
    }
}

impl fmt::Debug for Embedding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Full 768-element dumps are useless in assertions; show a summary.
        write!(
            f,
            "Embedding(dim={}, norm={:.3}, head={:?})",
            self.dim(),
            self.values.iter().map(|v| v * v).sum::<f32>().sqrt(),
            &self.values[..self.values.len().min(4)]
        )
    }
}

impl AsRef<[f32]> for Embedding {
    fn as_ref(&self) -> &[f32] {
        &self.values
    }
}

impl From<Vec<f32>> for Embedding {
    fn from(values: Vec<f32>) -> Self {
        Embedding::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalises() {
        let e = Embedding::new(vec![3.0, 4.0]);
        assert!((e.as_slice()[0] - 0.6).abs() < 1e-6);
        assert!((e.as_slice()[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn zero_vector_is_preserved() {
        let e = Embedding::zeros(4);
        assert!(e.is_zero());
        assert_eq!(e.dim(), 4);
    }

    #[test]
    fn cosine_of_self_is_one() {
        let e = Embedding::new(vec![1.0, 2.0, 3.0]);
        assert!((e.cosine(&e) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_with_zero_is_zero() {
        let e = Embedding::new(vec![1.0, 0.0]);
        let z = Embedding::zeros(2);
        assert_eq!(e.cosine(&z), 0.0);
        assert_eq!(z.cosine(&z), 0.0);
    }

    #[test]
    fn cosine_of_orthogonal_is_zero() {
        let a = Embedding::new(vec![1.0, 0.0]);
        let b = Embedding::new(vec![0.0, 1.0]);
        assert!(a.cosine(&b).abs() < 1e-6);
    }

    #[test]
    fn euclidean_matches_manual() {
        let a = Embedding::zeros(2);
        let b = Embedding::new(vec![0.0, 1.0]);
        assert!((a.euclidean(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn mean_of_identical_vectors_is_same() {
        let a = Embedding::new(vec![1.0, 1.0]);
        let m = Embedding::mean([&a, &a]).unwrap();
        assert!((m.cosine(&a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn mean_of_empty_is_none() {
        assert!(Embedding::mean([]).is_none());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_panics_on_dim_mismatch() {
        let a = Embedding::zeros(2);
        let b = Embedding::zeros(3);
        let _ = a.dot(&b);
    }
}
