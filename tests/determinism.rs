//! Reproducibility: every layer of the stack is a pure function of its
//! seeds, so full experiment tables can be regenerated bit-for-bit.

use lessismore::core::{evaluate, Pipeline, Policy, SearchLevels};
use lessismore::embed::Embedding;
use lessismore::llm::recommender::{recommend_descriptions, stable_text_seed};
use lessismore::llm::{ModelProfile, Quant};
use lessismore::serve::normalize_query;
use lessismore::workloads::{augment::augment, augment::AugmentConfig, bfcl, geoengine};

/// FNV-1a over the bits of every embedding the serving path computes on
/// both benchmarks: each tool's indexed text, each evaluation query (raw,
/// as the offline pipeline embeds it, and normalized, as the engine
/// does) and each of its `Ẽ` contexts (the normalized query with one
/// recommended description). The encoder promises bit-identical output,
/// so one flipped bit anywhere changes this value.
const EMBEDDING_FINGERPRINT: u64 = 0x0f29_53d9_7d16_ff2b;

#[test]
fn embeddings_match_their_pinned_fingerprint() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |embedding: &Embedding| {
        let bits = embedding.as_slice().iter().map(|x| x.to_bits());
        for byte in bits.flat_map(u32::to_le_bytes) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    let model = ModelProfile::by_name("llama3.1-8b").expect("model exists");
    let mut embeddings = 0;
    for workload in [bfcl(42, 120), geoengine(42, 120)] {
        let levels = SearchLevels::build(&workload);
        let embedder = levels.embedder();
        for tool in workload.registry.iter() {
            fold(&embedder.embed(&tool.embedding_text()));
            embeddings += 1;
        }
        for query in &workload.queries {
            let normalized = normalize_query(&query.text);
            fold(&embedder.embed(&query.text));
            fold(&embedder.embed(&normalized));
            let gold: Vec<&str> = query
                .steps
                .iter()
                .filter_map(|s| workload.registry.get_by_name(&s.tool))
                .map(|t| t.description())
                .collect();
            let seed = stable_text_seed(&normalized);
            for rec in recommend_descriptions(&model, Quant::Q8_0, &normalized, &gold, seed) {
                fold(&embedder.embed_with_context(&normalized, &rec));
                embeddings += 1;
            }
            embeddings += 2;
        }
    }
    assert!(embeddings > 1_000, "only {embeddings} embeddings");
    assert_eq!(
        hash, EMBEDDING_FINGERPRINT,
        "the fingerprint of {embeddings} embeddings is {hash:#018x}"
    );
}

#[test]
fn workloads_are_pure_functions_of_seed() {
    let a = bfcl(77, 50);
    let b = bfcl(77, 50);
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.train_queries, b.train_queries);
    let g1 = geoengine(77, 50);
    let g2 = geoengine(77, 50);
    assert_eq!(g1.queries, g2.queries);
}

#[test]
fn augmentation_and_levels_are_deterministic() {
    let w = geoengine(12, 40);
    let cfg = AugmentConfig::default();
    assert_eq!(augment(&w, &cfg), augment(&w, &cfg));
    let l1 = SearchLevels::build(&w);
    let l2 = SearchLevels::build(&w);
    assert_eq!(l1.clusters().len(), l2.clusters().len());
    for (a, b) in l1.clusters().iter().zip(l2.clusters()) {
        assert_eq!(a.tool_indices, b.tool_indices);
        assert_eq!(a.centroid, b.centroid);
    }
}

#[test]
fn full_evaluations_are_bit_identical() {
    let w = bfcl(13, 40);
    let levels = SearchLevels::build(&w);
    let model = ModelProfile::by_name("phi3-8b").expect("model exists");
    for policy in [
        Policy::Default,
        Policy::Gorilla { k: 3 },
        Policy::less_is_more(5),
    ] {
        let p1 = Pipeline::new(&w, &levels, &model, Quant::Q4_1).with_seed(5);
        let p2 = Pipeline::new(&w, &levels, &model, Quant::Q4_1).with_seed(5);
        let m1 = evaluate(&p1, policy);
        let m2 = evaluate(&p2, policy);
        assert_eq!(m1, m2, "policy {}", policy.label());
    }
}

#[test]
fn distinct_policies_draw_decorrelated_outcomes() {
    // The per-attempt seed derivation must not alias across policies,
    // models or quants — otherwise comparisons would be artificially
    // correlated.
    let w = bfcl(14, 60);
    let levels = SearchLevels::build(&w);
    let model = ModelProfile::by_name("llama3.1-8b").expect("model exists");
    let pipeline = Pipeline::new(&w, &levels, &model, Quant::Q4KM);

    let default: Vec<bool> = pipeline
        .run_all(Policy::Default)
        .iter()
        .map(|r| r.success)
        .collect();
    let gorilla: Vec<bool> = pipeline
        .run_all(Policy::Gorilla { k: 51 })
        .iter()
        .map(|r| r.success)
        .collect();
    // Same offered-tool count (Gorilla with k = catalog size ⇒ all tools)
    // but a different policy tag ⇒ different draws.
    assert_ne!(default, gorilla);
}

#[test]
fn changing_the_seed_changes_outcomes_but_not_structure() {
    let w = geoengine(15, 40);
    let levels = SearchLevels::build(&w);
    let model = ModelProfile::by_name("qwen2-7b").expect("model exists");
    let m1 = evaluate(
        &Pipeline::new(&w, &levels, &model, Quant::Q8_0).with_seed(1),
        Policy::less_is_more(3),
    );
    let m2 = evaluate(
        &Pipeline::new(&w, &levels, &model, Quant::Q8_0).with_seed(2),
        Policy::less_is_more(3),
    );
    // Outcome rates move (different draws)…
    assert_ne!(
        (m1.success_rate, m1.avg_seconds),
        (m2.success_rate, m2.avg_seconds)
    );
    // …but the averages stay in the same statistical neighbourhood.
    assert!((m1.success_rate - m2.success_rate).abs() < 0.25);
}
