//! Crate-level behaviour and property tests.

use crate::{Embedder, Embedding, IdfModel, EMBED_DIM};
use proptest::prelude::*;

#[test]
fn default_dim_is_768() {
    assert_eq!(EMBED_DIM, 768);
    assert_eq!(Embedder::new().dim(), 768);
}

#[test]
fn tool_description_matching_scenario() {
    // End-to-end sanity check of the scenario the controller relies on:
    // an LLM-recommended "ideal tool" description should rank the right
    // real tool first among a realistic catalog.
    let catalog = [
        (
            "weather_information",
            "Fetches current weather data and forecast for a given city",
        ),
        (
            "text_translation",
            "Translates text between natural languages such as French",
        ),
        (
            "currency_converter",
            "Converts an amount between two currencies using live rates",
        ),
        (
            "calendar_event",
            "Creates a calendar event with title, date and attendees",
        ),
        (
            "web_search",
            "Searches the web and returns the most relevant page snippets",
        ),
    ];
    let idf = IdfModel::fit(catalog.iter().map(|(_, d)| *d));
    let embedder = Embedder::builder().idf(idf).build();
    let tool_vecs: Vec<Embedding> = catalog
        .iter()
        .map(|(name, desc)| embedder.embed(&format!("{name} {desc}")))
        .collect();

    let recommendation = "a tool that retrieves weather conditions and forecast for a city";
    let rec_vec = embedder.embed(recommendation);
    let best = tool_vecs
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| rec_vec.cosine(a).partial_cmp(&rec_vec.cosine(b)).unwrap())
        .map(|(i, _)| i)
        .unwrap();
    assert_eq!(catalog[best].0, "weather_information");
}

proptest! {
    /// Every non-degenerate embedding is unit-norm.
    #[test]
    fn embeddings_are_unit_norm(text in "[a-z]{3,10}( [a-z]{3,10}){0,8}") {
        let e = Embedder::new();
        let v = e.embed(&text);
        if !v.is_zero() {
            let norm: f32 = v.as_slice().iter().map(|x| x * x).sum::<f32>().sqrt();
            prop_assert!((norm - 1.0).abs() < 1e-4);
        }
    }

    /// Cosine similarity is symmetric.
    #[test]
    fn cosine_symmetric(a in "[a-z]{3,8}( [a-z]{3,8}){0,5}", b in "[a-z]{3,8}( [a-z]{3,8}){0,5}") {
        let e = Embedder::new();
        let va = e.embed(&a);
        let vb = e.embed(&b);
        prop_assert!((va.cosine(&vb) - vb.cosine(&va)).abs() < 1e-6);
    }

    /// Adding shared suffix text never produces wildly different vectors for
    /// the same base text (stability under concatenation determinism).
    #[test]
    fn deterministic_across_calls(text in "[a-z ]{0,64}") {
        let e = Embedder::new();
        prop_assert_eq!(e.embed(&text), e.embed(&text));
    }

    /// Cosine stays within [-1, 1] for arbitrary token soups.
    #[test]
    fn cosine_bounded(a in "[a-z0-9 _,.]{0,64}", b in "[a-z0-9 _,.]{0,64}") {
        let e = Embedder::builder().dim(32).build();
        let c = e.embed(&a).cosine(&e.embed(&b));
        prop_assert!((-1.0..=1.0).contains(&c));
    }

    /// IDF fitting never makes self-similarity degenerate.
    #[test]
    fn idf_preserves_self_similarity(docs in prop::collection::vec("[a-z]{3,8}( [a-z]{3,8}){1,5}", 1..8)) {
        let idf = IdfModel::fit(docs.iter().map(String::as_str));
        let e = Embedder::builder().idf(idf).build();
        let v = e.embed(&docs[0]);
        if !v.is_zero() {
            prop_assert!((v.cosine(&v) - 1.0).abs() < 1e-5);
        }
    }
}

/// The encoder as it was first written, kept as the bit-for-bit
/// reference for [`Embedder::embed`]: every term is a fresh `String`, a
/// bigram is `format!`ed, stopwords are a linear scan, weights come from
/// a string-keyed map, and the norm sums all dimensions.
mod reference {
    use std::collections::HashMap;

    use crate::Embedding;

    const STOPWORDS: &[&str] = &[
        "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "in", "into", "is", "it",
        "its", "of", "on", "or", "that", "the", "this", "to", "with", "will", "you", "your", "can",
        "given", "using", "use", "any", "all",
    ];

    fn stem(w: &str) -> String {
        if w.len() > 4 && w.ends_with("ies") {
            return format!("{}y", &w[..w.len() - 3]);
        }
        if w.len() > 5 && w.ends_with("ing") {
            return w[..w.len() - 3].to_string();
        }
        if w.len() > 4 && w.ends_with("ed") {
            return w[..w.len() - 2].to_string();
        }
        if w.len() > 4
            && (w.ends_with("ches")
                || w.ends_with("shes")
                || w.ends_with("xes")
                || w.ends_with("zes"))
        {
            return w[..w.len() - 2].to_string();
        }
        if w.len() > 3 && w.ends_with("es") && !w.ends_with("ses") {
            return w[..w.len() - 1].to_string();
        }
        if w.len() > 3 && w.ends_with('s') && !w.ends_with("ss") {
            return w[..w.len() - 1].to_string();
        }
        w.to_string()
    }

    pub fn terms(text: &str) -> Vec<String> {
        let tokens: Vec<String> = text
            .split(|c: char| !c.is_alphanumeric())
            .filter(|w| !w.is_empty())
            .map(|w| w.to_lowercase())
            .filter(|w| !STOPWORDS.contains(&w.as_str()))
            .map(|w| stem(&w))
            .filter(|w| !w.is_empty())
            .collect();
        let mut all = tokens.clone();
        for pair in tokens.windows(2) {
            all.push(format!("{} {}", pair[0], pair[1]));
        }
        all
    }

    /// Document count and per-term document frequencies of `corpus`.
    pub struct Idf {
        docs: usize,
        df: HashMap<String, usize>,
    }

    impl Idf {
        pub fn fit(corpus: &[String]) -> Self {
            let mut df = HashMap::new();
            for doc in corpus {
                let mut t = terms(doc);
                t.sort();
                t.dedup();
                for term in t {
                    *df.entry(term).or_insert(0) += 1;
                }
            }
            Self {
                docs: corpus.len(),
                df,
            }
        }

        fn weight(&self, term: &str) -> f32 {
            if self.docs == 0 {
                return 1.0;
            }
            let df = self.df.get(term).copied().unwrap_or(0);
            (1.0 + (self.docs as f32 + 1.0) / (df as f32 + 1.0)).ln()
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }

    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    pub fn embed(idf: &Idf, dim: usize, text: &str) -> Embedding {
        let mut values = vec![0.0f32; dim];
        for term in terms(text) {
            let weight = idf.weight(&term);
            let base = fnv1a(term.as_bytes());
            for slot in 0..4u64 {
                let h = splitmix(base ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let index = (h % dim as u64) as usize;
                let sign = if (h >> 63) & 1 == 1 { -1.0 } else { 1.0 };
                values[index] += sign * weight;
            }
        }
        Embedding::new(values)
    }
}

/// Words that exercise every stopword and every stemming rule, the
/// length guards around them, and mixed and non-ASCII case.
const SOUP: &str = "the The THE a an and are as at be by for from in into is it its of on \
    or that this to with will you your can given Using use any all ies ties queries QUERIES ing \
    sing bring mapping Translating ed bed seed tested es yes goes cases boxes matches wishes \
    buzzes s gas maps pass class ss 2009 x86_64 ΟΔΟΣ Σίσυφος straße STRASSE İstanbul \u{212A}eys \
    ÉTÉS naïve 中文 emoji😀s Ǆemal ǅed";

fn soup() -> impl Strategy<Value = String> {
    let words: Vec<&str> = SOUP.split_whitespace().collect();
    let separators = [" ", " ", " ", "_", ", ", ".", "-", "\t", "😀"];
    prop::collection::vec((0..words.len(), 0..separators.len()), 0..24).prop_map(move |picks| {
        let mut text = String::new();
        for (word, sep) in picks {
            text.push_str(words[word]);
            text.push_str(separators[sep]);
        }
        text
    })
}

fn text() -> BoxedStrategy<String> {
    prop_oneof![
        "\\PC{0,80}",
        "[a-zA-Z0-9 _]{0,60}",
        "[a-zA-Zα-ωΑ-ΩΣςàéîõüÀÉÎÕÜßİ\u{212A} ]{0,40}",
        soup(),
    ]
    .boxed()
}

fn assert_bit_identical(got: &Embedding, want: &Embedding) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.dim(), want.dim());
    for (j, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits(),
            "dimension {}: {:#010x} != reference {:#010x}",
            j,
            g.to_bits(),
            w.to_bits()
        );
    }
    Ok(())
}

proptest! {
    /// The term stream, IDF fit and encoder equal the reference bit for
    /// bit: arbitrary text, stopword- and suffix-heavy soup, mixed case
    /// and non-ASCII words, under an IDF model fit on a random corpus
    /// (which sees some of the probed terms and not others), an empty
    /// model, and custom dimensions.
    #[test]
    fn encoder_is_bit_identical_to_the_reference(
        probes in prop::collection::vec(text(), 1..6),
        corpus in prop::collection::vec(text(), 0..10),
        fit_on_probes in any::<bool>(),
        dim_ix in 0usize..4,
    ) {
        let dim = [EMBED_DIM, 1, 64, 100][dim_ix];
        let mut corpus = corpus;
        if fit_on_probes {
            corpus.extend(probes.iter().cloned());
        }
        let idf = IdfModel::fit(&corpus);
        let embedder = Embedder::builder().dim(dim).idf(idf).build();
        let reference_idf = reference::Idf::fit(&corpus);
        for probe in &probes {
            prop_assert_eq!(
                crate::tokenizer::tokens_with_bigrams(probe),
                reference::terms(probe)
            );
            let want = reference::embed(&reference_idf, dim, probe);
            assert_bit_identical(&embedder.embed(probe), &want)?;
            for description in &corpus {
                let want = reference::embed(
                    &reference_idf,
                    dim,
                    &format!("{probe} {description}"),
                );
                assert_bit_identical(&embedder.embed_with_context(probe, description), &want)?;
            }
        }
    }
}
