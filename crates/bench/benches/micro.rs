//! **M1** — Criterion micro-benchmarks backing the paper's claim that the
//! similarity machinery is "an inexpensive, pretrained embedding
//! tokenizer" path: embedding (an IDF-less tool description, and the
//! serving path's IDF-weighted query and `Ẽ` context), k-NN search (at catalog sizes from 46 to
//! 4096, flat, IVF and HNSW), HNSW graph construction, clustering, level
//! construction and the full controller
//! decision (and its arbitration alone, over precomputed `Ẽ` contexts),
//! all of which must be negligible next to a single LLM decode
//! step (~50 ms on the Orin). Also the serving engine's per-request
//! execution (`Pipeline::run_query_offered`), timed on a k=3 subset and
//! on the full catalog: it sizes prompts by arithmetic, so its cost no
//! longer tracks the rendered size of the offered tools.
//!
//! ```sh
//! cargo bench -p lim-bench --bench micro
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lim_core::{
    ControllerConfig, Pipeline, SearchLevels, ToolController, DEFAULT_CONTEXT, REDUCED_CONTEXT,
};
use lim_embed::Embedder;
use lim_llm::recommender::{recommend_descriptions, stable_text_seed};
use lim_llm::{ModelProfile, Quant};
use lim_vecstore::{FlatIndex, HnswIndex, HnswParams, IvfIndex, IvfParams, Metric, VectorIndex};

fn bench_embedding(c: &mut Criterion) {
    let embedder = Embedder::new();
    c.bench_function("embed/tool-description", |b| {
        b.iter(|| {
            embedder.embed(black_box(
                "Fetches current weather data and forecast for a given city and date range",
            ))
        })
    });

    // The serving path's encoder: the bfcl levels' IDF-weighted embedder
    // on a normalized query, and on the query with one recommended
    // description (an `Ẽ` context), as `ServeEngine` embeds them.
    let workload = lim_workloads::bfcl(42, 120);
    let levels = SearchLevels::build(&workload);
    let query = &workload.queries[0];
    let normalized = lim_serve::normalize_query(&query.text);
    let gold: Vec<&str> = query
        .steps
        .iter()
        .filter_map(|s| workload.registry.get_by_name(&s.tool))
        .map(|t| t.description())
        .collect();
    let model = ModelProfile::by_name("llama3.1-8b").expect("model exists");
    let seed = stable_text_seed(&normalized);
    let recs = recommend_descriptions(&model, Quant::Q8_0, &normalized, &gold, seed);
    let embedder = levels.embedder();
    c.bench_function("embed/bfcl/query", |b| {
        b.iter(|| embedder.embed(black_box(&normalized)))
    });
    c.bench_function("embed/bfcl/context", |b| {
        b.iter(|| embedder.embed_with_context(black_box(&normalized), black_box(&recs[0])))
    });
}

fn bench_knn(c: &mut Criterion) {
    let embedder = Embedder::new();
    let query = embedder.embed("plot the vqa captions of the region on a map");
    let mut group = c.benchmark_group("knn/top3");
    for &size in &[46usize, 256, 1024, 4096] {
        let mut flat = FlatIndex::new(embedder.dim(), Metric::Cosine);
        for i in 0..size {
            let v = embedder.embed(&format!("synthetic tool number {i} doing task {}", i % 17));
            flat.add(i as u64, v.as_slice()).expect("unique ids");
        }
        group.bench_with_input(BenchmarkId::new("flat", size), &flat, |b, idx| {
            b.iter(|| idx.search(black_box(query.as_slice()), 3))
        });
        if size >= 256 {
            let data: Vec<(u64, Vec<f32>)> = flat.iter().map(|(id, v)| (id, v.to_vec())).collect();
            let refs: Vec<(u64, &[f32])> = data.iter().map(|(i, v)| (*i, v.as_slice())).collect();
            let ivf = IvfIndex::train(
                embedder.dim(),
                Metric::Cosine,
                IvfParams {
                    nlist: 16,
                    nprobe: 4,
                    seed: 7,
                },
                &refs,
            )
            .expect("training data is valid");
            group.bench_with_input(BenchmarkId::new("ivf", size), &ivf, |b, idx| {
                b.iter(|| idx.search(black_box(query.as_slice()), 3))
            });
            let hnsw =
                HnswIndex::train(embedder.dim(), Metric::Cosine, HnswParams::default(), &refs)
                    .expect("training data is valid");
            group.bench_with_input(BenchmarkId::new("hnsw", size), &hnsw, |b, idx| {
                b.iter(|| idx.search(black_box(query.as_slice()), 3))
            });
        }
    }
    group.finish();

    // Graph construction scores every candidate link through the same
    // kernel, with both sides' norms stored.
    let data: Vec<(u64, Vec<f32>)> = (0..1024u64)
        .map(|i| {
            let text = format!("synthetic tool number {i} doing task {}", i % 17);
            (i, embedder.embed(&text).as_slice().to_vec())
        })
        .collect();
    let refs: Vec<(u64, &[f32])> = data.iter().map(|(i, v)| (*i, v.as_slice())).collect();
    c.bench_function("hnsw/build/1024", |b| {
        b.iter(|| {
            HnswIndex::train(
                embedder.dim(),
                Metric::Cosine,
                HnswParams::default(),
                black_box(&refs),
            )
        })
    });
}

fn bench_clustering(c: &mut Criterion) {
    let embedder = Embedder::builder().dim(128).build();
    let points: Vec<_> = (0..120)
        .map(|i| embedder.embed(&format!("query number {i} about topic {}", i % 9)))
        .collect();
    let distances = lim_cluster::distance_matrix(&points, lim_cluster::cosine_distance);
    c.bench_function("cluster/agglomerative-120", |b| {
        b.iter(|| lim_cluster::agglomerative(black_box(&distances), lim_cluster::Linkage::Average))
    });
}

fn bench_levels_and_controller(c: &mut Criterion) {
    let workload = lim_workloads::bfcl(1, 60);
    c.bench_function("levels/build-bfcl", |b| {
        b.iter(|| SearchLevels::build(black_box(&workload)))
    });

    let levels = SearchLevels::build(&workload);
    let controller = ToolController::new(&levels, ControllerConfig::with_k(3));
    let model = ModelProfile::by_name("llama3.1-8b").expect("model exists");
    let recs = vec![
        "converts a monetary amount between currencies".to_string(),
        "fetches the weather forecast of a city".to_string(),
    ];
    c.bench_function("controller/select", |b| {
        b.iter(|| controller.select(black_box("convert 100 USD to EUR"), black_box(&recs)))
    });

    // Arbitration alone, as a serving drain's stage 2 runs it: the `Ẽ`
    // contexts of every bfcl(42, 120) query, embedded up front as
    // `ServeEngine` embeds them, then one `select_embedded` per query.
    // One iteration is all 120 queries.
    let bfcl = lim_workloads::bfcl(42, 120);
    let bfcl_levels = SearchLevels::build(&bfcl);
    let bfcl_controller = ToolController::new(&bfcl_levels, ControllerConfig::with_k(3));
    let contexts: Vec<Vec<lim_embed::Embedding>> = bfcl
        .queries
        .iter()
        .map(|query| {
            let normalized = lim_serve::normalize_query(&query.text);
            let gold: Vec<&str> = query
                .steps
                .iter()
                .filter_map(|s| bfcl.registry.get_by_name(&s.tool))
                .map(|t| t.description())
                .collect();
            let seed = stable_text_seed(&normalized);
            recommend_descriptions(&model, Quant::Q8_0, &normalized, &gold, seed)
                .iter()
                .map(|rec| bfcl_levels.embedder().embed_with_context(&normalized, rec))
                .collect()
        })
        .collect();
    c.bench_function("controller/select_embedded/bfcl", |b| {
        b.iter(|| {
            for query_contexts in &contexts {
                black_box(bfcl_controller.select_embedded(black_box(query_contexts)));
            }
        })
    });

    let pipeline = Pipeline::new(&workload, &levels, &model, Quant::Q4KM);
    let query = &workload.queries[0];
    let k3 = controller.select(&query.text, &recs).tool_indices;
    let full = levels.full_level();
    c.bench_function("pipeline/run_query_offered/k3", |b| {
        b.iter(|| pipeline.run_query_offered(black_box(query), black_box(&k3), REDUCED_CONTEXT))
    });
    c.bench_function("pipeline/run_query_offered/full", |b| {
        b.iter(|| pipeline.run_query_offered(black_box(query), black_box(&full), DEFAULT_CONTEXT))
    });
}

criterion_group!(
    benches,
    bench_embedding,
    bench_knn,
    bench_clustering,
    bench_levels_and_controller
);
criterion_main!(benches);
