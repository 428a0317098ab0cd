//! Deterministic sentence embeddings — the MPNet substitute.
//!
//! The paper encodes tool descriptions and LLM-recommended "ideal tool"
//! descriptions with a pretrained MPNet model into a 768-dimensional latent
//! space, then relies on **one property**: *semantically close descriptions
//! have high cosine similarity*. This crate reproduces that property without
//! model weights, using classic sparse-text machinery:
//!
//! 1. [`tokenizer`] — lowercasing, punctuation splitting, stopword removal
//!    and a light suffix stemmer, so that "translates documents" and
//!    "document translation" share tokens. [`tokenizer::Terms`] is the one
//!    definition of a term (unigrams, then adjacent-pair bigrams) that the
//!    IDF fit and the encoder both read;
//! 2. [`idf`] — inverse-document-frequency weighting fit on the tool corpus,
//!    so that discriminative words dominate boilerplate;
//! 3. [`Embedder`] — hashed unigram+bigram features scattered into
//!    [`EMBED_DIM`] dimensions by a seeded signed hash (a random-projection
//!    equivalent), then L2-normalised. The encoder looks weights up in a
//!    table built once from the IDF model and encodes an ASCII text
//!    without allocating anything but its vector; its output is part of the
//!    workspace's bit-for-bit replay contract (see [`Embedder::embed`]).
//!
//! The result is a drop-in [`Embedding`] with the same shape (768-d, unit
//! norm, cosine interface) the paper's controller consumes.
//!
//! # Examples
//!
//! ```
//! use lim_embed::Embedder;
//!
//! let embedder = Embedder::new();
//! let a = embedder.embed("fetch current weather conditions for a city");
//! let b = embedder.embed("get the weather forecast of a given city");
//! let c = embedder.embed("integrate a polynomial over an interval");
//! assert!(a.cosine(&b) > a.cosine(&c));
//! ```

pub mod idf;
pub mod similarity;
pub mod tokenizer;

mod embedder;
mod vector;

pub use embedder::{Embedder, EmbedderBuilder};
pub use idf::IdfModel;
pub use vector::Embedding;

/// Dimensionality of the latent space, matching the paper's MPNet encoder.
pub const EMBED_DIM: usize = 768;

#[cfg(test)]
mod tests;
