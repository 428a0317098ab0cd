//! Cross-module and property tests.

use crate::{
    FlatIndex, HnswIndex, HnswParams, IvfIndex, IvfParams, Metric, Neighbor, Postings, VectorIndex,
};
use lim_embed::similarity;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A clustered random catalog: `n` vectors in `dim`-d space scattered
/// around 8 well-separated centers — the regime IVF is designed for.
fn clustered_catalog(seed: u64, n: usize, dim: usize) -> Vec<(u64, Vec<f32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> = (0..8)
        .map(|_| (0..dim).map(|_| rng.random_range(-50.0f32..50.0)).collect())
        .collect();
    (0..n as u64)
        .map(|id| {
            let c = &centers[rng.random_range(0..centers.len())];
            let v = c
                .iter()
                .map(|x| x + rng.random_range(-1.5f32..1.5))
                .collect();
            (id, v)
        })
        .collect()
}

fn flat_from(dim: usize, metric: Metric, items: &[(u64, Vec<f32>)]) -> FlatIndex {
    let mut flat = FlatIndex::new(dim, metric);
    for (id, v) in items {
        flat.add(*id, v).unwrap();
    }
    flat
}

#[test]
fn flat_and_exhaustive_ivf_agree() {
    // With nprobe == nlist the IVF index must return exactly the flat result.
    let vectors: Vec<(u64, Vec<f32>)> = (0..40u64)
        .map(|i| {
            let x = (i as f32 * 0.37).sin();
            let y = (i as f32 * 0.73).cos();
            (i, vec![x, y, x * y])
        })
        .collect();
    let refs: Vec<(u64, &[f32])> = vectors.iter().map(|(i, v)| (*i, v.as_slice())).collect();

    let mut flat = FlatIndex::new(3, Metric::Cosine);
    for (id, v) in &refs {
        flat.add(*id, v).unwrap();
    }
    let ivf = IvfIndex::train(
        3,
        Metric::Cosine,
        IvfParams {
            nlist: 5,
            nprobe: 5,
            seed: 11,
        },
        &refs,
    )
    .unwrap();

    for q in [[0.1f32, 0.2, 0.3], [-0.5, 0.5, 0.0], [1.0, 0.0, 0.0]] {
        let f: Vec<u64> = flat.search(&q, 5).iter().map(|n| n.id).collect();
        let a: Vec<u64> = ivf.search(&q, 5).iter().map(|n| n.id).collect();
        assert_eq!(f, a, "query {q:?}");
    }
}

#[test]
fn ivf_recall_on_clustered_data() {
    // The regime IVF is built for: well-separated blobs. With a quarter of
    // the cells probed, recall@1 must stay high because queries land near
    // blob centroids.
    let mut data: Vec<(u64, Vec<f32>)> = Vec::new();
    for blob in 0..8u64 {
        let cx = (blob % 4) as f32 * 20.0;
        let cy = (blob / 4) as f32 * 20.0;
        for i in 0..25u64 {
            let id = blob * 25 + i;
            data.push((
                id,
                vec![cx + (i as f32 * 0.07).sin(), cy + (i as f32 * 0.13).cos()],
            ));
        }
    }
    let refs: Vec<(u64, &[f32])> = data.iter().map(|(i, v)| (*i, v.as_slice())).collect();
    let ivf = IvfIndex::train(
        2,
        Metric::Euclidean,
        IvfParams {
            nlist: 8,
            nprobe: 2,
            seed: 5,
        },
        &refs,
    )
    .unwrap();
    let mut flat = FlatIndex::new(2, Metric::Euclidean);
    for (id, v) in &refs {
        flat.add(*id, v).unwrap();
    }
    let mut agree = 0;
    let total = 40;
    for q in 0..total {
        let query = vec![(q % 4) as f32 * 20.0 + 0.3, (q % 2) as f32 * 20.0 + 0.2];
        let exact = flat.search(&query, 1)[0].id;
        let approx = ivf.search(&query, 1)[0].id;
        agree += u32::from(exact == approx);
    }
    assert!(
        agree as f64 / f64::from(total) > 0.9,
        "recall@1 = {agree}/{total}"
    );
}

#[test]
fn trait_object_usage() {
    let mut flat = FlatIndex::new(2, Metric::Cosine);
    flat.add(1, &[1.0, 0.0]).unwrap();
    let boxed: Box<dyn VectorIndex> = Box::new(flat);
    assert_eq!(boxed.len(), 1);
    assert_eq!(boxed.search(&[1.0, 0.0], 1)[0].id, 1);
}

#[test]
fn arc_shared_index_searches_across_threads() {
    // The serving engine's pattern: one read-only index built once,
    // Arc-shared by every worker. `Arc<FlatIndex>` is itself a
    // `VectorIndex`, so generic consumers take it without unwrapping.
    let data = clustered_catalog(9, 128, 4);
    let shared = std::sync::Arc::new(flat_from(4, Metric::Cosine, &data));
    fn top1(index: &impl VectorIndex, q: &[f32]) -> u64 {
        index.search(q, 1)[0].id
    }
    let baseline: Vec<u64> = data.iter().map(|(_, v)| top1(&&*shared, v)).collect();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let idx = std::sync::Arc::clone(&shared);
                let data = &data;
                scope.spawn(move || {
                    data.iter()
                        .map(|(_, v)| top1(&idx, v))
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    for worker in results {
        assert_eq!(worker, baseline);
    }
}

#[test]
fn tie_break_is_score_desc_then_id_asc_in_both_indexes() {
    // Eight identical vectors → every hit ties at the same score. The
    // flat index sees them in scrambled insertion order; the IVF index
    // scatters them across whatever cells k-means produced. Both must
    // return ascending ids (the canonical `Neighbor::ranking_cmp` order).
    let tied: Vec<(u64, Vec<f32>)> = [7u64, 3, 5, 0, 6, 1, 4, 2]
        .iter()
        .map(|id| (*id, vec![1.0f32, 1.0, 1.0]))
        .collect();
    // Distant decoys give the IVF quantizer distinct cells to build.
    let mut catalog = tied.clone();
    catalog.extend((100..116u64).map(|id| (id, vec![-40.0 + id as f32, 60.0, -25.0])));

    let flat = flat_from(3, Metric::Cosine, &catalog);
    let refs: Vec<(u64, &[f32])> = catalog.iter().map(|(i, v)| (*i, v.as_slice())).collect();
    let ivf = IvfIndex::train(
        3,
        Metric::Cosine,
        IvfParams {
            nlist: 6,
            nprobe: 6,
            seed: 42,
        },
        &refs,
    )
    .unwrap();

    let query = [1.0f32, 1.0, 1.0];
    let flat_ids: Vec<u64> = flat.search(&query, 8).iter().map(|n| n.id).collect();
    let ivf_ids: Vec<u64> = ivf.search(&query, 8).iter().map(|n| n.id).collect();
    assert_eq!(flat_ids, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(ivf_ids, flat_ids, "IVF must use the same tie-break");
}

proptest! {
    /// Flat search is exact: the top hit is always the argmax of the metric.
    #[test]
    fn flat_top1_is_argmax(
        vectors in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, 4), 1..20),
        query in prop::collection::vec(-1.0f32..1.0, 4),
    ) {
        let mut idx = FlatIndex::new(4, Metric::Euclidean);
        for (i, v) in vectors.iter().enumerate() {
            idx.add(i as u64, v).unwrap();
        }
        let hits = idx.search(&query, 1);
        let brute_best = vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, Metric::Euclidean.score(&query, v)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then_with(|| b.0.cmp(&a.0)))
            .unwrap();
        prop_assert_eq!(hits[0].id, brute_best.0);
    }

    /// Scores come back sorted, best first.
    #[test]
    fn search_results_sorted(
        vectors in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, 3), 2..24),
        k in 1usize..8,
    ) {
        let mut idx = FlatIndex::new(3, Metric::Cosine);
        for (i, v) in vectors.iter().enumerate() {
            idx.add(i as u64, v).unwrap();
        }
        let hits = idx.search(&[0.5, 0.5, 0.5], k);
        prop_assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
        prop_assert!(hits.len() <= k);
    }

    /// On clustered random catalogs up to 4096 vectors, probing half the
    /// cells keeps recall@10 against the exact flat scan at or above 0.9.
    #[test]
    fn ivf_recall_at_10_is_at_least_090(seed in 0u64..500, size_ix in 0usize..5) {
        let n = [64usize, 200, 512, 1024, 4096][size_ix];
        let dim = 8;
        let data = clustered_catalog(seed, n, dim);
        let refs: Vec<(u64, &[f32])> = data.iter().map(|(i, v)| (*i, v.as_slice())).collect();
        let flat = flat_from(dim, Metric::Euclidean, &data);
        let ivf = IvfIndex::train(
            dim,
            Metric::Euclidean,
            IvfParams { nlist: 16, nprobe: 8, seed },
            &refs,
        ).unwrap();

        let k = 10;
        let queries = 16;
        let mut found = 0usize;
        let mut wanted = 0usize;
        let mut probe_rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        for _ in 0..queries {
            let (_, base) = &data[probe_rng.random_range(0..data.len())];
            let query: Vec<f32> = base
                .iter()
                .map(|x| x + probe_rng.random_range(-0.5f32..0.5))
                .collect();
            let exact: Vec<u64> = flat.search(&query, k).iter().map(|h| h.id).collect();
            let approx: Vec<u64> = ivf.search(&query, k).iter().map(|h| h.id).collect();
            wanted += exact.len();
            found += exact.iter().filter(|id| approx.contains(id)).count();
        }
        let recall = found as f64 / wanted as f64;
        prop_assert!(recall >= 0.9, "recall@{} = {:.3} on n={}", k, recall, n);
    }

    /// With `nprobe == nlist` every cell is scanned, so the IVF result must
    /// agree with the flat index *exactly* — same ids, same scores, same
    /// order — on random catalogs up to 4096 vectors.
    #[test]
    fn ivf_exact_agreement_when_nprobe_equals_nlist(seed in 0u64..500, size_ix in 0usize..5) {
        let n = [64usize, 200, 512, 1024, 4096][size_ix];
        let dim = 8;
        let data = clustered_catalog(seed.wrapping_add(7_000), n, dim);
        let refs: Vec<(u64, &[f32])> = data.iter().map(|(i, v)| (*i, v.as_slice())).collect();
        let flat = flat_from(dim, Metric::Cosine, &data);
        let ivf = IvfIndex::train(
            dim,
            Metric::Cosine,
            IvfParams { nlist: 12, nprobe: 12, seed },
            &refs,
        ).unwrap();
        let mut probe_rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        for _ in 0..8 {
            let (_, base) = &data[probe_rng.random_range(0..data.len())];
            prop_assert_eq!(flat.search(base, 16), ivf.search(base, 16));
        }
    }

    /// On the same clustered catalogs, the HNSW graph with default
    /// construction parameters keeps recall@10 against the exact flat
    /// scan at or above 0.95 — the bar the ann bench curve gates on.
    #[test]
    fn hnsw_recall_at_10_is_at_least_095(seed in 0u64..500, size_ix in 0usize..5) {
        let n = [64usize, 200, 512, 1024, 4096][size_ix];
        let dim = 8;
        let data = clustered_catalog(seed.wrapping_add(13_000), n, dim);
        let refs: Vec<(u64, &[f32])> = data.iter().map(|(i, v)| (*i, v.as_slice())).collect();
        let flat = flat_from(dim, Metric::Euclidean, &data);
        let hnsw = HnswIndex::train(
            dim,
            Metric::Euclidean,
            HnswParams { seed, ..HnswParams::default() },
            &refs,
        ).unwrap();

        let k = 10;
        let queries = 16;
        let mut found = 0usize;
        let mut wanted = 0usize;
        let mut probe_rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        for _ in 0..queries {
            let (_, base) = &data[probe_rng.random_range(0..data.len())];
            let query: Vec<f32> = base
                .iter()
                .map(|x| x + probe_rng.random_range(-0.5f32..0.5))
                .collect();
            let exact: Vec<u64> = flat.search(&query, k).iter().map(|h| h.id).collect();
            let approx: Vec<u64> = hnsw.search(&query, k).iter().map(|h| h.id).collect();
            wanted += exact.len();
            found += exact.iter().filter(|id| approx.contains(id)).count();
        }
        let recall = found as f64 / wanted as f64;
        prop_assert!(recall >= 0.95, "recall@{} = {:.3} on n={}", k, recall, n);
    }

    /// With `ef_search >= len` the HNSW search falls back to an exact
    /// scan, so the result must agree with the flat index *exactly* —
    /// same ids, same scores, same order.
    #[test]
    fn hnsw_exact_agreement_at_max_ef_search(seed in 0u64..500, size_ix in 0usize..5) {
        let n = [64usize, 200, 512, 1024, 4096][size_ix];
        let dim = 8;
        let data = clustered_catalog(seed.wrapping_add(21_000), n, dim);
        let refs: Vec<(u64, &[f32])> = data.iter().map(|(i, v)| (*i, v.as_slice())).collect();
        let flat = flat_from(dim, Metric::Cosine, &data);
        let hnsw = HnswIndex::train(
            dim,
            Metric::Cosine,
            HnswParams { ef_search: n, seed, ..HnswParams::default() },
            &refs,
        ).unwrap();
        let mut probe_rng = StdRng::seed_from_u64(seed ^ 0xACE5);
        for _ in 0..8 {
            let (_, base) = &data[probe_rng.random_range(0..data.len())];
            prop_assert_eq!(flat.search(base, 16), hnsw.search(base, 16));
        }
    }

    /// Live mutation keeps the recall bars: after a seeded interleaving of
    /// removes and fresh inserts applied identically to all three kinds,
    /// every index returns only live ids, agrees on the live count, and
    /// IVF/HNSW recall@10 against an exact scan over the live set stays at
    /// the static-catalog floors (0.9 / 0.95).
    #[test]
    fn mutated_indexes_return_only_live_ids_and_keep_recall(
        seed in 0u64..200,
        churn in 8usize..48,
    ) {
        let n = 512usize;
        let dim = 8;
        let data = clustered_catalog(seed.wrapping_add(33_000), n, dim);
        let refs: Vec<(u64, &[f32])> = data.iter().map(|(i, v)| (*i, v.as_slice())).collect();
        let mut flat = flat_from(dim, Metric::Euclidean, &data);
        let mut ivf = IvfIndex::train(
            dim,
            Metric::Euclidean,
            IvfParams { nlist: 16, nprobe: 8, seed },
            &refs,
        ).unwrap();
        let mut hnsw = HnswIndex::train(
            dim,
            Metric::Euclidean,
            HnswParams { seed, ..HnswParams::default() },
            &refs,
        ).unwrap();

        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let mut live: Vec<(u64, Vec<f32>)> = data.clone();
        let mut next_id = n as u64;
        for _ in 0..churn {
            if rng.random_range(0..3u32) == 0 {
                let pos = rng.random_range(0..live.len());
                let (id, _) = live.swap_remove(pos);
                flat.remove(id).unwrap();
                ivf.remove(id).unwrap();
                hnsw.remove(id).unwrap();
            } else {
                // Stay in the clustered regime: new tools land near an
                // existing one, the way real catalog revisions do.
                let base = &data[rng.random_range(0..data.len())].1;
                let v: Vec<f32> = base
                    .iter()
                    .map(|x| x + rng.random_range(-1.5f32..1.5))
                    .collect();
                flat.add(next_id, &v).unwrap();
                ivf.add(next_id, &v).unwrap();
                hnsw.add(next_id, &v).unwrap();
                live.push((next_id, v));
                next_id += 1;
            }
        }

        let exact = flat_from(dim, Metric::Euclidean, &live);
        prop_assert_eq!(flat.len(), live.len());
        prop_assert_eq!(ivf.len(), live.len());
        prop_assert_eq!(hnsw.len(), live.len());

        let k = 10;
        let queries = 16;
        let mut ivf_found = 0usize;
        let mut hnsw_found = 0usize;
        let mut wanted = 0usize;
        let mut probe_rng = StdRng::seed_from_u64(seed ^ 0xFEED);
        let live_ids: Vec<u64> = live.iter().map(|(id, _)| *id).collect();
        for _ in 0..queries {
            let (_, base) = &live[probe_rng.random_range(0..live.len())];
            let query: Vec<f32> = base
                .iter()
                .map(|x| x + probe_rng.random_range(-0.5f32..0.5))
                .collect();
            let exact_ids: Vec<u64> = exact.search(&query, k).iter().map(|h| h.id).collect();
            let flat_ids: Vec<u64> = flat.search(&query, k).iter().map(|h| h.id).collect();
            // The mutated flat index must stay exact.
            prop_assert_eq!(&flat_ids, &exact_ids);
            let ivf_ids: Vec<u64> = ivf.search(&query, k).iter().map(|h| h.id).collect();
            let hnsw_ids: Vec<u64> = hnsw.search(&query, k).iter().map(|h| h.id).collect();
            for id in ivf_ids.iter().chain(&hnsw_ids) {
                prop_assert!(live_ids.contains(id), "tombstoned id {} surfaced", id);
            }
            wanted += exact_ids.len();
            ivf_found += exact_ids.iter().filter(|id| ivf_ids.contains(id)).count();
            hnsw_found += exact_ids.iter().filter(|id| hnsw_ids.contains(id)).count();
        }
        let ivf_recall = ivf_found as f64 / wanted as f64;
        let hnsw_recall = hnsw_found as f64 / wanted as f64;
        prop_assert!(ivf_recall >= 0.9, "ivf recall@10 = {:.3} after churn", ivf_recall);
        prop_assert!(hnsw_recall >= 0.95, "hnsw recall@10 = {:.3} after churn", hnsw_recall);
    }

    /// IVF recall@1 with half the cells probed stays reasonable on clustered
    /// data (the regime it is designed for) — and never errors or panics.
    #[test]
    fn ivf_search_is_well_formed(seed in 0u64..1000) {
        let data: Vec<(u64, Vec<f32>)> = (0..60u64)
            .map(|i| {
                let blob = (i % 3) as f32 * 10.0;
                (i, vec![blob + (i as f32 * 0.01), blob])
            })
            .collect();
        let refs: Vec<(u64, &[f32])> = data.iter().map(|(i, v)| (*i, v.as_slice())).collect();
        let idx = IvfIndex::train(
            2,
            Metric::Euclidean,
            IvfParams { nlist: 6, nprobe: 3, seed },
            &refs,
        ).unwrap();
        let hits = idx.search(&[0.0, 0.0], 5);
        prop_assert!(!hits.is_empty());
        prop_assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }
}

/// The dense definitions the scoring kernel must reproduce bit for bit.
fn dense_score(metric: Metric, query: &[f32], candidate: &[f32]) -> f32 {
    match metric {
        Metric::Cosine => similarity::cosine(query, candidate),
        Metric::InnerProduct => similarity::dot(query, candidate),
        Metric::Euclidean => -similarity::euclidean(query, candidate),
    }
}

const METRICS: [Metric; 3] = [Metric::Cosine, Metric::InnerProduct, Metric::Euclidean];

/// `0.0` or `-0.0`, at random.
fn signed_zero(rng: &mut StdRng) -> f32 {
    if rng.random_bool(0.5) {
        -0.0
    } else {
        0.0
    }
}

/// One nonzero component. With `specials`, about one in six is NaN,
/// ±infinity, a subnormal, or large enough that products overflow.
fn nonzero(rng: &mut StdRng, specials: bool) -> f32 {
    let sign = if rng.random_bool(0.5) { -1.0 } else { 1.0 };
    if specials && rng.random_range(0..6u32) == 0 {
        return match rng.random_range(0..4u32) {
            0 => f32::NAN,
            1 => sign * f32::INFINITY,
            2 => sign * f32::from_bits(rng.random_range(1..0x0080_0000u32)),
            _ => sign * rng.random_range(1e19f32..3e19),
        };
    }
    sign * rng.random_range(1e-3f32..1.0)
}

/// A vector in which each component is nonzero with probability
/// `density`; the rest are zeros of either sign.
fn sparse_vector(rng: &mut StdRng, dim: usize, density: f64, specials: bool) -> Vec<f32> {
    (0..dim)
        .map(|_| {
            if rng.random_bool(density) {
                nonzero(rng, specials)
            } else {
                signed_zero(rng)
            }
        })
        .collect()
}

/// A query/candidate pair of one of the five kinds the kernel must
/// score exactly: 0 random sparse, 1 disjoint supports (every product is
/// ±0), 2 products that cancel exactly to zero in pairs, 3 a zero vector
/// on either side or both, 4 a query at the edges of the sparse path
/// (all zero, one nonzero, or exactly half nonzero, the density cutoff,
/// or one more than that) against a random candidate.
fn kernel_pair(rng: &mut StdRng, kind: usize, dim: usize, specials: bool) -> (Vec<f32>, Vec<f32>) {
    match kind {
        0 => (
            sparse_vector(rng, dim, 0.3, specials),
            sparse_vector(rng, dim, 0.3, specials),
        ),
        1 => {
            let mut q = sparse_vector(rng, dim, 0.0, false);
            let mut v = sparse_vector(rng, dim, 0.0, false);
            for j in 0..dim {
                match rng.random_range(0..3u32) {
                    0 => q[j] = nonzero(rng, specials),
                    1 => v[j] = nonzero(rng, specials),
                    _ => {}
                }
            }
            (q, v)
        }
        2 => {
            // Adjacent pairs q = (a, a), v = (b, -b): the products are p
            // and -p, so each pair brings the running sum back to zero.
            let mut q = sparse_vector(rng, dim, 0.0, false);
            let mut v = sparse_vector(rng, dim, 0.0, false);
            for pair in 0..dim / 2 {
                if rng.random_bool(0.6) {
                    let (a, b) = (nonzero(rng, false), nonzero(rng, false));
                    q[2 * pair] = a;
                    q[2 * pair + 1] = a;
                    v[2 * pair] = b;
                    v[2 * pair + 1] = -b;
                } else if rng.random_bool(0.5) {
                    q[2 * pair] = nonzero(rng, false);
                } else {
                    v[2 * pair + 1] = nonzero(rng, false);
                }
            }
            (q, v)
        }
        3 => {
            let zero = sparse_vector(rng, dim, 0.0, false);
            let other = sparse_vector(rng, dim, 0.5, specials);
            match rng.random_range(0..3u32) {
                0 => (zero, other),
                1 => (other, zero),
                _ => (zero.clone(), zero),
            }
        }
        _ => {
            let nonzeros = match rng.random_range(0..4u32) {
                0 => 0,
                1 => 1,
                2 => dim / 2,
                _ => dim / 2 + 1,
            };
            let mut q = sparse_vector(rng, dim, 0.0, false);
            let mut slots: Vec<usize> = (0..dim).collect();
            for i in 0..nonzeros.min(dim) {
                let pick = rng.random_range(i..dim);
                slots.swap(i, pick);
                q[slots[i]] = nonzero(rng, specials);
            }
            (q, sparse_vector(rng, dim, 0.5, specials))
        }
    }
}

/// `(id, score bits)` of a top-`k` list, so `-0.0` and `0.0` (and NaN
/// payloads) compare as different scores.
fn hit_bits(hits: &[Neighbor]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
}

/// The reference: score every live vector with the dense definition and
/// rank with the crate's canonical order.
fn dense_top_k(
    metric: Metric,
    live: &[(u64, Vec<f32>)],
    query: &[f32],
    k: usize,
) -> Vec<(u64, u32)> {
    let mut hits: Vec<Neighbor> = live
        .iter()
        .map(|(id, v)| Neighbor::new(*id, dense_score(metric, query, v)))
        .collect();
    hits.sort_by(Neighbor::ranking_cmp);
    hits.truncate(k);
    hit_bits(&hits)
}

proptest! {
    /// The scoring kernel (stored norms, prepared query, sparse fold with
    /// its two dense fallbacks) returns the same bits as
    /// `lim_embed::similarity` for every metric: on random sparse pairs,
    /// disjoint supports, exactly cancelling sums, zero vectors and
    /// queries at the density cutoff, with NaN, ±infinity, subnormal and
    /// overflowing components mixed in.
    #[test]
    fn kernel_scores_bit_identically_to_the_dense_definitions(
        seed in 0u64..1_000_000,
        kind in 0usize..5,
        specials in 0u32..2,
    ) {
        let specials = specials == 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = rng.random_range(1..48usize);
        for _ in 0..16 {
            let (q, v) = kernel_pair(&mut rng, kind, dim, specials);
            let mut stored = Postings::with_capacity(dim, 2);
            stored.push(0, &q);
            stored.push(1, &v);
            for metric in METRICS {
                let want = dense_score(metric, &q, &v).to_bits();
                let reverse = dense_score(metric, &v, &q).to_bits();
                let got = [
                    stored.score(&metric.prepare(&q), 1).to_bits(),
                    metric.score(&q, &v).to_bits(),
                    // A stored vector prepared as the query, as the HNSW
                    // build scores its neighbours.
                    stored.score(&stored.query(metric, 1), 0).to_bits(),
                ];
                prop_assert!(
                    got == [want, want, reverse],
                    "{}: kernel {:08x?} dense {:08x?} q={:?} v={:?}",
                    metric, got, [want, want, reverse], q, v
                );
            }
        }
    }

    /// Flat, IVF probing every cell and HNSW at maximum `ef_search` each
    /// return the same `(id, score bits)` as a dense reference scan of the
    /// live vectors: before any removal, with tombstones, after the
    /// removals trip compaction, and after fresh vectors are added to
    /// indexes that have already been searched. One prepared query
    /// searched on every index, and on an index of another metric, gives
    /// the same bits as a plain search of each.
    #[test]
    fn indexes_rank_bit_identically_to_a_dense_scan(
        seed in 0u64..1_000_000,
        metric_ix in 0usize..3,
    ) {
        let metric = METRICS[metric_ix];
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = rng.random_range(2..24usize);
        let n = 40usize;
        let mut live: Vec<(u64, Vec<f32>)> = (0..n as u64)
            .map(|id| {
                let (v, _) = kernel_pair(&mut rng, (id % 4) as usize, dim, true);
                (id, v)
            })
            .collect();
        let refs: Vec<(u64, &[f32])> = live.iter().map(|(i, v)| (*i, v.as_slice())).collect();
        let mut flat = flat_from(dim, metric, &live);
        let mut ivf = IvfIndex::train(
            dim,
            metric,
            IvfParams { nlist: 4, nprobe: 4, seed },
            &refs,
        ).unwrap();
        let mut hnsw = HnswIndex::train(
            dim,
            metric,
            HnswParams { m: 4, ef_construction: 16, ef_search: n, seed },
            &refs,
        ).unwrap();
        let other_metric = METRICS[(metric_ix + 1) % 3];
        let other = flat_from(dim, other_metric, &live);
        let queries: Vec<Vec<f32>> = (0..8)
            .map(|i| kernel_pair(&mut rng, i % 4, dim, true).1)
            .chain(live.iter().take(4).map(|(_, v)| v.clone()))
            .collect();

        // 5 removals stay below the compaction threshold; 10 trip it;
        // then 6 fresh vectors arrive, as a live catalog registers tools.
        for (removals, added) in [(0usize, 0u64), (5, 0), (10, 0), (10, 6)] {
            while n - live.len() < removals {
                let (id, _) = live.remove(rng.random_range(0..live.len()));
                flat.remove(id).unwrap();
                ivf.remove(id).unwrap();
                hnsw.remove(id).unwrap();
            }
            for id in n as u64..n as u64 + added {
                let (v, _) = kernel_pair(&mut rng, (id % 4) as usize, dim, true);
                flat.add(id, &v).unwrap();
                ivf.add(id, &v).unwrap();
                hnsw.add(id, &v).unwrap();
                live.push((id, v));
            }
            let compacted = removals == 10;
            prop_assert_eq!(flat.tombstones().is_empty(), removals == 0 || compacted);
            prop_assert_eq!(ivf.tombstones().is_empty(), removals == 0 || compacted);
            prop_assert_eq!(hnsw.tombstones().is_empty(), removals == 0 || compacted);
            for q in &queries {
                let want = dense_top_k(metric, &live, q, 12);
                let prepared = metric.prepare(q);
                let got = [
                    hit_bits(&flat.search(q, 12)),
                    hit_bits(&ivf.search(q, 12)),
                    hit_bits(&hnsw.search(q, 12)),
                    hit_bits(&flat.search_prepared(&prepared, 12)),
                    hit_bits(&ivf.search_prepared(&prepared, 12)),
                    hit_bits(&hnsw.search_prepared(&prepared, 12)),
                ];
                let names = ["flat", "ivf", "hnsw", "flat prepared", "ivf prepared", "hnsw prepared"];
                for (name, hits) in names.iter().zip(&got) {
                    prop_assert!(
                        *hits == want,
                        "{} ({}, {} removed, {} added): {:?} != dense {:?}",
                        name, metric, removals, added, hits, want
                    );
                }
                prop_assert!(
                    hit_bits(&other.search_prepared(&prepared, 12)) == hit_bits(&other.search(q, 12)),
                    "a query prepared for {} searched on a {} index", metric, other_metric
                );
            }
        }
    }
}
