//! Integration proof of the sharded batch-evaluation engine: for every
//! policy, benchmark and thread count, the parallel path produces results
//! bit-identical to the sequential path through the public facade.

use std::sync::atomic::{AtomicUsize, Ordering};

use lessismore::core::{evaluate, evaluate_parallel, sharded_map, Pipeline, Policy, SearchLevels};
use lessismore::llm::{ModelProfile, Quant};
use lessismore::workloads::{bfcl, geoengine};

#[test]
fn parallel_evaluation_is_bit_identical_on_both_benchmarks() {
    for (workload, quant) in [(bfcl(9, 40), Quant::Q4KM), (geoengine(9, 40), Quant::Q8_0)] {
        let levels = SearchLevels::build(&workload);
        let model = ModelProfile::by_name("llama3.1-8b").expect("model exists");
        let pipeline = Pipeline::new(&workload, &levels, &model, quant).with_seed(5);
        for policy in [
            Policy::Default,
            Policy::Gorilla { k: 3 },
            Policy::less_is_more(3),
        ] {
            let sequential = evaluate(&pipeline, policy);
            for threads in [1, 2, 5, 8] {
                let parallel = evaluate_parallel(&pipeline, policy, threads);
                // PartialEq on f64 fields: equal means equal bits here,
                // since both sides are finite and non-zero by construction.
                assert_eq!(
                    sequential,
                    parallel,
                    "{} / {} / {threads} threads",
                    workload.name,
                    policy.label()
                );
            }
        }
    }
}

#[test]
fn parallel_per_query_results_match_in_order() {
    let workload = bfcl(31, 33);
    let levels = SearchLevels::build(&workload);
    let model = ModelProfile::by_name("qwen2-7b").expect("model exists");
    let pipeline = Pipeline::new(&workload, &levels, &model, Quant::Q4_1);
    let sequential = pipeline.run_all(Policy::less_is_more(3));
    let parallel = pipeline.run_all_parallel(Policy::less_is_more(3), 4);
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.query_id, p.query_id, "canonical order must be preserved");
        assert_eq!(s.cost.seconds.to_bits(), p.cost.seconds.to_bits());
        assert_eq!(s.cost.joules.to_bits(), p.cost.joules.to_bits());
        assert_eq!(s, p);
    }
}

#[test]
fn sharding_utilities_compose_through_the_facade() {
    // The generic executor is public API: downstream users can shard
    // their own embarrassingly parallel work with the same guarantees.
    let items: Vec<u64> = (0..57).collect();
    let out = sharded_map(&items, 0, |ix, &x| x * 3 + ix as u64);
    assert_eq!(out, items.iter().map(|&x| x * 4).collect::<Vec<u64>>());
}

#[test]
fn sharded_map_is_the_sequential_map_under_skewed_costs() {
    // A serving drain's selection jobs differ about 10x in cost; these
    // differ 200x, bunched at the front and scattered, so workers claim
    // uneven shares of the batch.
    let work = |ix: usize, x: u64| {
        let rounds = if ix < 9 || ix % 7 == 0 { 20_000 } else { 100 };
        (0..rounds).fold(x, |h, r| std::hint::black_box(h.rotate_left(5) ^ r))
    };
    for n in [0usize, 1, 4, 5, 97, 230] {
        let items: Vec<u64> = (0..n as u64).map(|x| x * 0x9e37_79b9).collect();
        let sequential: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(ix, &x)| work(ix, x))
            .collect();
        for threads in 1..=8 {
            let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = sharded_map(&items, threads, |ix, &x| {
                calls[ix].fetch_add(1, Ordering::Relaxed);
                work(ix, x)
            });
            assert_eq!(out, sequential, "n={n} threads={threads}");
            for (ix, count) in calls.iter().enumerate() {
                assert_eq!(
                    count.load(Ordering::Relaxed),
                    1,
                    "item {ix} of {n}, threads={threads}"
                );
            }
        }
    }
}
