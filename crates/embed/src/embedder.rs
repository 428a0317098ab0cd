//! The hashed random-projection sentence encoder.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::idf::IdfModel;
use crate::tokenizer::Terms;
use crate::vector::Embedding;
use crate::EMBED_DIM;

/// Number of latent dimensions each hashed term contributes to.
///
/// Scattering every term into several signed dimensions (a "Bloom
/// embedding") makes accidental full collisions between unrelated terms
/// vanishingly unlikely while keeping the encoder dependency-free and
/// deterministic.
const SCATTER: usize = 4;

/// Deterministic 768-d sentence encoder (MPNet substitute).
///
/// The encoder carries the optional [`IdfModel`] and, built from it once,
/// every term's weight. Encoding is pure and deterministic: the same text
/// always yields the same vector, across runs and platforms.
///
/// # Examples
///
/// ```
/// use lim_embed::{Embedder, IdfModel};
///
/// let idf = IdfModel::fit(["translate text", "plot captions on a map"]);
/// let embedder = Embedder::builder().idf(idf).build();
/// let v = embedder.embed("translate this document");
/// assert_eq!(v.dim(), lim_embed::EMBED_DIM);
/// ```
#[derive(Debug, Clone)]
pub struct Embedder {
    dim: usize,
    idf: IdfModel,
    weights: WeightTable,
}

impl Default for Embedder {
    fn default() -> Self {
        Self::new()
    }
}

/// Builder for [`Embedder`], allowing a custom dimension or IDF model.
#[derive(Debug, Clone)]
pub struct EmbedderBuilder {
    dim: usize,
    idf: IdfModel,
}

impl Default for EmbedderBuilder {
    fn default() -> Self {
        Self {
            dim: EMBED_DIM,
            idf: IdfModel::new(),
        }
    }
}

impl EmbedderBuilder {
    /// Sets the latent dimension (default [`EMBED_DIM`]).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn dim(mut self, dim: usize) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        self.dim = dim;
        self
    }

    /// Installs an IDF model fit on the tool corpus.
    pub fn idf(mut self, idf: IdfModel) -> Self {
        self.idf = idf;
        self
    }

    /// Finalises the encoder, computing every term's IDF weight once.
    pub fn build(self) -> Embedder {
        Embedder {
            dim: self.dim,
            weights: WeightTable::new(&self.idf),
            idf: self.idf,
        }
    }
}

/// Per-thread buffers of the encoder, so an ASCII text is encoded
/// without allocating anything but its vector.
#[derive(Default)]
struct Scratch {
    terms: Terms,
    /// One bit per dimension: set once a term scattered into it.
    touched: Vec<u64>,
    /// The text of a context embedding, `"{query} {description}"`.
    text: String,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl Embedder {
    /// Creates an encoder with the default dimension and no IDF weighting.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Returns a [`EmbedderBuilder`] for customisation.
    pub fn builder() -> EmbedderBuilder {
        EmbedderBuilder::default()
    }

    /// Latent dimensionality of produced vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The IDF model in use (for persistence of offline artifacts).
    pub fn idf(&self) -> &IdfModel {
        &self.idf
    }

    /// Encodes `text` into a unit-norm [`Embedding`].
    ///
    /// Every term of `text` (see [`Terms`]: its unigrams in text order,
    /// then its bigrams in text order) adds its IDF weight, with a hashed
    /// sign, to four hashed dimensions. That order is part of the
    /// output: each dimension is an `f32` sum, and reordering its addends
    /// can change its last bit. The vector is then divided by its L2 norm,
    /// which sums the squares of the dimensions some term touched, in
    /// ascending index order. That equals the sum over all dimensions bit
    /// for bit: every other square is `+0.0`, and adding `+0.0` changes no
    /// sum but `-0.0`, which a sum of squares never holds once it has one
    /// addend.
    ///
    /// Empty or all-stopword text produces the zero vector, whose cosine
    /// with anything is 0 — callers treat that as "no signal".
    pub fn embed(&self, text: &str) -> Embedding {
        SCRATCH.with(|scratch| {
            let Scratch { terms, touched, .. } = &mut *scratch.borrow_mut();
            self.encode(terms, touched, text)
        })
    }

    /// Encodes a batch of texts.
    pub fn embed_batch<I, S>(&self, texts: I) -> Vec<Embedding>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        texts.into_iter().map(|t| self.embed(t.as_ref())).collect()
    }

    /// Encodes a query together with recommended tool descriptions, the way
    /// the paper forms the `Ẽ` latent points (§III-B): each recommendation
    /// is embedded alongside the user task so the match sees both.
    ///
    /// This is [`Embedder::embed`] of `"{query} {description}"`.
    pub fn embed_with_context(&self, query: &str, description: &str) -> Embedding {
        SCRATCH.with(|scratch| {
            let Scratch {
                terms,
                touched,
                text,
            } = &mut *scratch.borrow_mut();
            text.clear();
            text.push_str(query);
            text.push(' ');
            text.push_str(description);
            self.encode(terms, touched, text)
        })
    }

    /// The encoder behind [`Embedder::embed`], over the caller's buffers.
    fn encode(&self, terms: &mut Terms, touched: &mut Vec<u64>, text: &str) -> Embedding {
        let dim = self.dim;
        let mut values = vec![0.0f32; dim];
        touched.clear();
        touched.resize(dim.div_ceil(64), 0);
        terms.for_each(text, |term| {
            let base = fnv1a(term.as_bytes());
            let weight = self.weights.get(&self.idf, base, term);
            for slot in 0..SCATTER {
                // Derive an independent hash per scatter slot.
                let h = splitmix(base ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let index = (h % dim as u64) as usize;
                let sign = if (h >> 63) & 1 == 1 { -1.0 } else { 1.0 };
                values[index] += sign * weight;
                touched[index / 64] |= 1 << (index % 64);
            }
        });
        let mut squares = 0.0f32;
        for_each_set_bit(touched, |j| squares += values[j] * values[j]);
        let norm = squares.sqrt();
        if norm > 0.0 {
            for_each_set_bit(touched, |j| values[j] /= norm);
        }
        Embedding::from_normalized(values)
    }
}

/// Calls `f` with the index of every set bit of `bits`, ascending.
fn for_each_set_bit(bits: &[u64], mut f: impl FnMut(usize)) {
    for (word, &set) in bits.iter().enumerate() {
        let mut set = set;
        while set != 0 {
            f(word * 64 + set.trailing_zeros() as usize);
            set &= set - 1;
        }
    }
}

/// Every term's IDF weight, computed once from an [`IdfModel`] and keyed
/// by the term's FNV-1a hash, the hash the encoder computes anyway to
/// scatter the term.
#[derive(Debug, Clone)]
struct WeightTable {
    /// The term and weight stored under each hash. Of two terms whose
    /// hashes collide, one is stored; a lookup checks the term's bytes, so
    /// the other is looked up in the [`IdfModel`] and never shares a
    /// weight.
    by_hash: HashMap<u64, (Box<str>, f32), BuildHasherDefault<PreHashed>>,
    /// The weight of a term the model has not seen: that of a fitted term
    /// of document frequency 0, or 1.0 under an empty model.
    unseen: f32,
}

impl WeightTable {
    fn new(idf: &IdfModel) -> Self {
        let mut by_hash = HashMap::default();
        if idf.is_empty() {
            return Self {
                by_hash,
                unseen: 1.0,
            };
        }
        for (term, df) in idf.entries() {
            by_hash
                .entry(fnv1a(term.as_bytes()))
                .or_insert_with(|| (term.into(), idf.weight_of_df(df)));
        }
        Self {
            by_hash,
            unseen: idf.weight_of_df(0),
        }
    }

    /// The weight of `term`, whose FNV-1a hash is `hash`.
    fn get(&self, idf: &IdfModel, hash: u64, term: &str) -> f32 {
        match self.by_hash.get(&hash) {
            Some((key, weight)) if **key == *term => *weight,
            Some(_) => idf.weight(term),
            None => self.unseen,
        }
    }
}

/// The hasher of a [`WeightTable`], whose keys are already FNV-1a hashes.
/// It folds their well-mixed high bits into the low bits a table indexes
/// by (FNV-1a's low bits depend only on the bytes' low bits).
#[derive(Debug, Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("weight tables are keyed by u64 hashes");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// 64-bit FNV-1a hash — stable across runs, platforms and Rust versions
/// (unlike `DefaultHasher`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// SplitMix64 finaliser used to decorrelate the per-slot hashes.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedding_is_deterministic() {
        let e = Embedder::new();
        let a = e.embed("plot vqa captions on the map");
        let b = e.embed("plot vqa captions on the map");
        assert_eq!(a, b);
    }

    #[test]
    fn embedding_has_requested_dim() {
        let e = Embedder::builder().dim(64).build();
        assert_eq!(e.embed("hello world").dim(), 64);
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = Embedder::new();
        assert!(e.embed("").is_zero());
        assert!(e.embed("the of and").is_zero());
    }

    #[test]
    fn similar_texts_closer_than_dissimilar() {
        let e = Embedder::new();
        let weather1 = e.embed("fetch the current weather report for a city");
        let weather2 = e.embed("get weather conditions of the city today");
        let math = e.embed("compute the determinant of a square matrix");
        assert!(weather1.cosine(&weather2) > weather1.cosine(&math) + 0.1);
    }

    #[test]
    fn identical_texts_have_cosine_one() {
        let e = Embedder::new();
        let v = e.embed("translate text to french");
        assert!((v.cosine(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn idf_downweights_common_terms() {
        // Corpus where "tool" is ubiquitous; two docs share only "tool",
        // two others share the rare word "orbit".
        let corpus = [
            "tool alpha orbit",
            "tool beta orbit",
            "tool gamma street",
            "tool delta road",
        ];
        let plain = Embedder::new();
        let weighted = Embedder::builder().idf(IdfModel::fit(corpus)).build();
        let a = "tool orbit";
        let b = "tool street";
        // With IDF, the match driven by rare "orbit" should strengthen
        // relative to the boilerplate-driven one.
        let plain_gap = plain.embed(a).cosine(&plain.embed("alpha tool orbit"))
            - plain.embed(b).cosine(&plain.embed("alpha tool orbit"));
        let weighted_gap = weighted
            .embed(a)
            .cosine(&weighted.embed("alpha tool orbit"))
            - weighted
                .embed(b)
                .cosine(&weighted.embed("alpha tool orbit"));
        assert!(weighted_gap > plain_gap);
    }

    #[test]
    fn batch_matches_single() {
        let e = Embedder::new();
        let batch = e.embed_batch(["a b c", "d e f"]);
        assert_eq!(batch[0], e.embed("a b c"));
        assert_eq!(batch[1], e.embed("d e f"));
    }

    #[test]
    fn context_embedding_mixes_query_and_description() {
        let e = Embedder::new();
        let with_ctx = e.embed_with_context("weather in paris", "temperature lookup");
        let plain = e.embed("weather in paris temperature lookup");
        assert_eq!(with_ctx, plain);
    }

    #[test]
    fn a_hash_collision_never_shares_a_weight() {
        let idf = IdfModel::fit(["alpha beta", "alpha gamma", "delta"]);
        let mut table = WeightTable::new(&idf);
        assert_eq!(table.get(&idf, fnv1a(b"beta"), "beta"), idf.weight("beta"));
        assert_eq!(table.get(&idf, fnv1a(b"zeta"), "zeta"), idf.weight("zeta"));
        // Store "beta" under the hash of "alpha", as a collision would.
        table
            .by_hash
            .insert(fnv1a(b"alpha"), ("beta".into(), idf.weight("beta")));
        assert_ne!(idf.weight("alpha"), idf.weight("beta"));
        assert_eq!(
            table.get(&idf, fnv1a(b"alpha"), "alpha"),
            idf.weight("alpha")
        );
    }

    #[test]
    fn fnv_is_stable() {
        // Pin a reference value so accidental algorithm changes are caught:
        // the whole workspace's reproducibility hangs on this hash.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"weather"), fnv1a(b"weathe"));
    }
}
