//! Scoring metrics with a uniform "higher is better" convention.

use std::borrow::Cow;

use lim_embed::similarity;

/// Similarity metric used to score candidates during search.
///
/// All metrics are exposed as *scores* where **larger means more similar**,
/// so Euclidean distance is negated. This keeps top-k selection identical
/// across metrics and matches how the controller consumes similarity values
/// (mean top-k score thresholded at 0.5 — meaningful for [`Metric::Cosine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// Cosine similarity in `[-1, 1]`. The paper's choice.
    #[default]
    Cosine,
    /// Raw inner product (use when vectors are pre-normalised).
    InnerProduct,
    /// Negated Euclidean distance, in `(-inf, 0]`.
    Euclidean,
}

impl Metric {
    /// Scores `query` against `candidate`; higher is more similar.
    ///
    /// This prepares `query` and runs the same kernel every index search
    /// runs, so a one-off score and a search can never disagree.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn score(self, query: &[f32], candidate: &[f32]) -> f32 {
        self.prepare(query)
            .score(candidate, similarity::norm(candidate))
    }

    /// Prepares `query` for scoring against many candidates: its norm and
    /// its nonzero support are computed once, not once per candidate.
    ///
    /// A prepared query can search several indexes (see
    /// [`crate::FlatIndex::search_prepared`]); an index whose metric is
    /// not `self` prepares the values again for its own.
    ///
    /// For [`Metric::Cosine`] and [`Metric::InnerProduct`] the norm sums
    /// the squares over the support only, in index order. That equals
    /// [`similarity::norm`] bit for bit: every skipped square is `+0.0`,
    /// and adding `+0.0` changes no sum but `-0.0`, which a sum of
    /// squares never holds once it has one addend. An empty or dense
    /// support takes the dense norm.
    pub fn prepare(self, query: &[f32]) -> PreparedQuery<'_> {
        let support = PreparedQuery::support(self, query);
        let norm = match &support {
            Some(support) if !support.is_empty() => {
                support.iter().map(|&(_, x)| x * x).sum::<f32>().sqrt()
            }
            _ => similarity::norm(query),
        };
        PreparedQuery {
            metric: self,
            values: query,
            norm,
            support,
        }
    }
}

/// A query prepared for searching: the scoring kernel every index uses.
///
/// Each candidate is scored with its norm, which the indexes store once
/// when the vector is added (see [`crate::Postings`]). Every score is
/// bit-identical to the dense definitions in [`lim_embed::similarity`]:
///
/// * [`Metric::Cosine`] and [`Metric::InnerProduct`] sum `q[j] * v[j]`
///   over the query's nonzero components only, in index order, starting
///   from `-0.0` like the dense fold's `Sum`. Every skipped product is
///   `±0` when `v` is finite, and adding `±0` to a nonzero sum leaves it
///   unchanged, while `±0 + p == p`. So the sparse sum equals the dense
///   one bit for bit whenever it is nonzero. The same holds when the
///   products with `v[j] == 0` are skipped as well, which is how
///   [`crate::Postings`] scans term at a time. A query that is more
///   than half nonzero folds densely: skipping so few zeros saves less
///   than the indexing costs.
/// * One finish step serves both ways of summing. Two cases take the
///   dense fold there: a `±0` sparse sum, whose sign the skipped products
///   may flip (and [`crate::Neighbor::ranking_cmp`] tells `-0.0` from
///   `0.0`), and a non-finite norm on either side, which is how a NaN or
///   infinite component shows (`NaN * 0` is NaN, not `±0`). A zero norm
///   on either side scores [`Metric::Cosine`] as `0`.
/// * [`Metric::Euclidean`] is always dense.
#[derive(Debug, Clone)]
pub struct PreparedQuery<'a> {
    metric: Metric,
    values: &'a [f32],
    norm: f32,
    /// The nonzero components as `(index, value)`, ascending; `None`
    /// when dot products fold densely.
    support: Option<Vec<(u32, f32)>>,
}

impl<'a> PreparedQuery<'a> {
    /// Prepares `values`, whose L2 norm the caller already holds.
    pub(crate) fn new(metric: Metric, values: &'a [f32], norm: f32) -> Self {
        Self {
            metric,
            values,
            norm,
            support: Self::support(metric, values),
        }
    }

    /// The metric this query was prepared for.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The query's components.
    pub fn values(&self) -> &'a [f32] {
        self.values
    }

    /// This query prepared for `metric`: itself when it already is, else
    /// its values prepared again, so an index never scores a query
    /// prepared for another metric.
    pub(crate) fn for_metric(&self, metric: Metric) -> Cow<'_, PreparedQuery<'a>> {
        if self.metric == metric {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(metric.prepare(self.values))
        }
    }

    /// The nonzero components as `(index, value)`, ascending, or `None`
    /// when dot products fold densely.
    pub(crate) fn sparse_support(&self) -> Option<&[(u32, f32)]> {
        self.support.as_deref()
    }

    /// The nonzero components of `values`, sized to their count, or
    /// `None` when `metric` folds densely: Euclidean, or more than half
    /// of the components nonzero.
    fn support(metric: Metric, values: &[f32]) -> Option<Vec<(u32, f32)>> {
        if metric == Metric::Euclidean {
            return None;
        }
        let nonzeros = values.iter().filter(|&&x| x != 0.0).count();
        if nonzeros * 2 > values.len() {
            return None;
        }
        let mut support = Vec::with_capacity(nonzeros);
        for (j, &x) in values.iter().enumerate() {
            if x != 0.0 {
                support.push((j as u32, x));
            }
        }
        Some(support)
    }

    /// Scores `candidate`, whose L2 norm is `candidate_norm`; higher is
    /// more similar.
    ///
    /// # Panics
    ///
    /// Panics if `candidate` and the query differ in length.
    pub(crate) fn score(&self, candidate: &[f32], candidate_norm: f32) -> f32 {
        assert_eq!(self.values.len(), candidate.len(), "dimension mismatch");
        let sparse = self.support.as_ref().map(|support| {
            support
                .iter()
                .map(|&(j, x)| x * candidate[j as usize])
                .sum::<f32>()
        });
        self.finish(sparse, candidate, candidate_norm)
    }

    /// Turns `sparse`, the sum of `q[j] * v[j]` over the support (`None`
    /// when the query folds densely), into the score of `candidate`,
    /// whose L2 norm is `candidate_norm`.
    pub(crate) fn finish(
        &self,
        sparse: Option<f32>,
        candidate: &[f32],
        candidate_norm: f32,
    ) -> f32 {
        match self.metric {
            Metric::Cosine => {
                if self.norm == 0.0 || candidate_norm == 0.0 {
                    return 0.0;
                }
                let dot = self.dot(sparse, candidate, candidate_norm);
                (dot / (self.norm * candidate_norm)).clamp(-1.0, 1.0)
            }
            Metric::InnerProduct => self.dot(sparse, candidate, candidate_norm),
            Metric::Euclidean => -similarity::euclidean(self.values, candidate),
        }
    }

    /// `similarity::dot(query, candidate)`: the sparse sum when that is
    /// exact, else the dense fold.
    fn dot(&self, sparse: Option<f32>, candidate: &[f32], candidate_norm: f32) -> f32 {
        match sparse {
            Some(sum) if sum != 0.0 && self.norm.is_finite() && candidate_norm.is_finite() => sum,
            _ => similarity::dot(self.values, candidate),
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Metric::Cosine => "cosine",
            Metric::InnerProduct => "inner-product",
            Metric::Euclidean => "euclidean",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_scores_higher_for_aligned() {
        let q = [1.0, 0.0];
        assert!(Metric::Cosine.score(&q, &[1.0, 0.0]) > Metric::Cosine.score(&q, &[0.0, 1.0]));
    }

    #[test]
    fn euclidean_score_is_negated_distance() {
        let s = Metric::Euclidean.score(&[0.0, 0.0], &[3.0, 4.0]);
        assert!((s + 5.0).abs() < 1e-6);
    }

    #[test]
    fn identical_vectors_are_best_under_all_metrics() {
        let q = [0.6, 0.8];
        let far = [0.0, -1.0];
        for m in [Metric::Cosine, Metric::InnerProduct, Metric::Euclidean] {
            assert!(m.score(&q, &q) >= m.score(&q, &far), "metric {m}");
        }
    }

    #[test]
    fn prepared_norm_is_the_dense_norm() {
        let tiny = f32::from_bits(1);
        let vectors: [&[f32]; 8] = [
            &[],
            &[0.0, -0.0, 0.0, -0.0],
            &[0.0, 3.0, 0.0, -0.0],
            &[0.25, -0.0, -4.0, 0.0],
            &[0.25, 1.0, -4.0, 0.0],
            &[tiny, 0.0, -tiny, 0.0],
            &[0.0, f32::NAN, 0.0, 0.0],
            &[f32::INFINITY, 0.0, 0.0, 1e30],
        ];
        for values in vectors {
            for metric in [Metric::Cosine, Metric::InnerProduct, Metric::Euclidean] {
                assert_eq!(
                    metric.prepare(values).norm.to_bits(),
                    similarity::norm(values).to_bits(),
                    "{metric} {values:?}"
                );
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Metric::Cosine.to_string(), "cosine");
        assert_eq!(Metric::default(), Metric::Cosine);
    }
}
