//! Inverse-document-frequency weighting for the embedder.

use std::collections::HashMap;

use crate::tokenizer::tokens_with_bigrams;

/// Smoothed IDF statistics fit over a corpus of documents.
///
/// Fitting over the tool catalog makes boilerplate shared by every tool
/// description ("returns", "data", "tool") nearly weightless, so similarity
/// is driven by the discriminative terms — the same effect sentence encoders
/// learn implicitly.
///
/// # Examples
///
/// ```
/// use lim_embed::IdfModel;
///
/// let idf = IdfModel::fit(["translate text", "translate documents", "plot charts"]);
/// // "translate" appears in 2/3 docs, "plot" in 1/3 — plot is rarer, so heavier.
/// assert!(idf.weight("plot") > idf.weight("translate"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdfModel {
    doc_count: usize,
    doc_freq: HashMap<String, usize>,
}

impl IdfModel {
    /// Creates an empty model where every term has weight 1.0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fits the model on an iterator of documents.
    pub fn fit<I, S>(corpus: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut model = Self::new();
        for doc in corpus {
            model.add_document(doc.as_ref());
        }
        model
    }

    /// Incorporates one more document into the statistics.
    pub fn add_document(&mut self, doc: &str) {
        self.doc_count += 1;
        let mut terms = tokens_with_bigrams(doc);
        terms.sort();
        terms.dedup();
        for term in terms {
            *self.doc_freq.entry(term).or_insert(0) += 1;
        }
    }

    /// Number of documents the model has seen.
    pub fn len(&self) -> usize {
        self.doc_count
    }

    /// Iterates over `(term, document frequency)` pairs in unspecified
    /// order. Together with [`IdfModel::from_parts`] this allows offline
    /// artifacts to be persisted.
    pub fn entries(&self) -> impl Iterator<Item = (&str, usize)> + '_ {
        self.doc_freq.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Reconstructs a model from a document count and `(term, df)` pairs
    /// previously obtained via [`IdfModel::entries`].
    pub fn from_parts<I, S>(doc_count: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (S, usize)>,
        S: Into<String>,
    {
        Self {
            doc_count,
            doc_freq: entries.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        }
    }

    /// Returns `true` if no documents have been added.
    pub fn is_empty(&self) -> bool {
        self.doc_count == 0
    }

    /// Smoothed IDF weight for `term`.
    ///
    /// Uses `ln(1 + (N + 1) / (df + 1))`, which stays positive and gives
    /// unseen terms the maximum weight — an LLM-recommended description may
    /// legitimately contain words absent from the catalog.
    pub fn weight(&self, term: &str) -> f32 {
        if self.doc_count == 0 {
            return 1.0;
        }
        self.weight_of_df(self.doc_freq.get(term).copied().unwrap_or(0))
    }

    /// The weight of a term seen in `df` documents, for a fitted model.
    pub(crate) fn weight_of_df(&self, df: usize) -> f32 {
        (1.0 + (self.doc_count as f32 + 1.0) / (df as f32 + 1.0)).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_model_weights_everything_one() {
        let idf = IdfModel::new();
        assert_eq!(idf.weight("anything"), 1.0);
        assert!(idf.is_empty());
    }

    #[test]
    fn rarer_terms_weigh_more() {
        let idf = IdfModel::fit(["alpha beta", "alpha gamma", "alpha delta"]);
        assert!(idf.weight("beta") > idf.weight("alpha"));
        assert_eq!(idf.len(), 3);
    }

    #[test]
    fn unseen_terms_get_max_weight() {
        let idf = IdfModel::fit(["alpha beta", "alpha gamma"]);
        assert!(idf.weight("zeta") >= idf.weight("beta"));
    }

    #[test]
    fn duplicate_terms_in_one_doc_count_once() {
        let idf = IdfModel::fit(["echo echo echo", "other words"]);
        let other = IdfModel::fit(["echo", "other words"]);
        assert_eq!(idf.weight("echo"), other.weight("echo"));
    }

    #[test]
    fn weights_are_positive() {
        // Even a term present in every document keeps a positive weight.
        let idf = IdfModel::fit(["same", "same", "same", "same"]);
        assert!(idf.weight("same") > 0.0);
    }
}
