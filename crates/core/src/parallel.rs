//! Sharded parallel batch evaluation.
//!
//! Production serving and benchmark sweeps are throughput-bound on query
//! batches, while [`Pipeline::run_query`] is a pure function of
//! `(query, policy, pipeline seed)` — every stochastic draw derives its
//! own seed from those inputs, never from execution order. That purity is
//! what this module exploits: a batch is split into **contiguous shards**,
//! one `std::thread` scope runs each shard, and the per-shard outputs are
//! stitched back together in canonical (input) order. The merged result is
//! therefore **bit-identical** to the sequential run for every thread
//! count — `tests/parallel.rs` and the property test below prove it.
//!
//! No runtime dependency is involved: plain [`std::thread::scope`].
//!
//! # Examples
//!
//! ```
//! use lim_core::{evaluate, evaluate_parallel, Pipeline, Policy, SearchLevels};
//! use lim_llm::{ModelProfile, Quant};
//!
//! let workload = lim_workloads::bfcl(7, 16);
//! let levels = SearchLevels::build(&workload);
//! let model = ModelProfile::by_name("qwen2-7b").expect("model exists");
//! let pipeline = Pipeline::new(&workload, &levels, &model, Quant::Q4KM);
//! let sequential = evaluate(&pipeline, Policy::less_is_more(3));
//! let parallel = evaluate_parallel(&pipeline, Policy::less_is_more(3), 4);
//! assert_eq!(sequential, parallel);
//! ```

use crate::metrics::BatchMetrics;
use crate::pipeline::{Pipeline, Policy, QueryResult};

/// Resolves a requested thread count: `0` means "use the machine's
/// available parallelism", anything else is taken as-is.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Splits `n` items into at most `threads` contiguous shards whose sizes
/// differ by at most one (the first `n % threads` shards are longer).
///
/// For nonzero `threads` the boundaries depend only on `(n, threads)`,
/// making shard assignment reproducible across runs and machines;
/// `threads == 0` resolves to the machine's parallelism first. Either
/// way [`sharded_map`] merges in canonical order, so outputs never
/// depend on the boundary placement.
pub fn shard_bounds(n: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let threads = resolve_threads(threads).min(n.max(1));
    let base = n / threads;
    let extra = n % threads;
    let mut bounds = Vec::with_capacity(threads);
    let mut start = 0;
    for shard in 0..threads {
        let len = base + usize::from(shard < extra);
        if len == 0 {
            break;
        }
        bounds.push(start..start + len);
        start += len;
    }
    bounds
}

/// Applies `f` to every item of `items` across `threads` worker threads
/// and returns the outputs **in input order**.
///
/// `f` receives the item's global index, so seeded work can key off the
/// canonical position rather than the executing thread. Shards are
/// contiguous [`shard_bounds`] slices; the output is the concatenation of
/// shard outputs in shard order, which equals the sequential map. The
/// calling thread runs the last shard itself, so `threads` shards cost
/// `threads - 1` spawns.
pub fn sharded_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let run = |range: std::ops::Range<usize>| -> Vec<U> {
        let offset = range.start;
        items[range]
            .iter()
            .enumerate()
            .map(|(i, x)| f(offset + i, x))
            .collect()
    };
    let mut bounds = shard_bounds(items.len(), threads);
    // One shard (or a trivial batch): run inline, no thread overhead.
    let Some(last) = bounds.pop() else {
        return Vec::new();
    };
    if bounds.is_empty() {
        return run(last);
    }
    let mut merged = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = bounds
            .into_iter()
            .map(|range| scope.spawn(move || run(range)))
            .collect();
        let tail = run(last);
        for handle in handles {
            merged.extend(handle.join().expect("shard worker panicked"));
        }
        merged.extend(tail);
    });
    merged
}

impl Pipeline<'_> {
    /// Runs every evaluation query under `policy` across `threads` worker
    /// threads (0 = available parallelism).
    ///
    /// Returns exactly what [`Pipeline::run_all`] returns, bit for bit:
    /// per-query outcomes depend only on the pipeline seed and the query,
    /// and shard outputs are merged in canonical order.
    pub fn run_all_parallel(&self, policy: Policy, threads: usize) -> Vec<QueryResult> {
        sharded_map(&self.workload().queries, threads, |_, query| {
            self.run_query(query, policy)
        })
    }
}

/// Parallel twin of [`crate::evaluate`]: runs the whole workload under
/// `policy` on `threads` threads (0 = available parallelism) and
/// aggregates. Bit-identical to the sequential evaluation.
pub fn evaluate_parallel(pipeline: &Pipeline<'_>, policy: Policy, threads: usize) -> BatchMetrics {
    BatchMetrics::from_results(&pipeline.run_all_parallel(policy, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::SearchLevels;
    use crate::metrics::evaluate;
    use lim_llm::{ModelProfile, Quant};
    use proptest::prelude::*;

    #[test]
    fn shard_bounds_partition_exactly() {
        for (n, t) in [(0, 4), (1, 4), (7, 3), (8, 3), (9, 3), (230, 8), (5, 16)] {
            let bounds = shard_bounds(n, t);
            let mut expected_start = 0;
            for b in &bounds {
                assert_eq!(b.start, expected_start, "n={n} t={t}");
                assert!(!b.is_empty(), "empty shard for n={n} t={t}");
                expected_start = b.end;
            }
            assert_eq!(expected_start, n, "n={n} t={t}");
            if n > 0 {
                let sizes: Vec<usize> = bounds.iter().map(std::ops::Range::len).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "unbalanced shards {sizes:?}");
            }
        }
    }

    #[test]
    fn sharded_map_preserves_order() {
        let items: Vec<usize> = (0..103).collect();
        let doubled = sharded_map(&items, 5, |ix, &x| {
            assert_eq!(ix, x, "global index must match item position");
            x * 2
        });
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_resolves_to_machine_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn parallel_results_are_bit_identical_across_thread_counts() {
        let w = lim_workloads::geoengine(21, 30);
        let levels = SearchLevels::build(&w);
        let model = ModelProfile::by_name("llama3.1-8b").expect("model exists");
        let pipeline = Pipeline::new(&w, &levels, &model, Quant::Q4KM).with_seed(77);
        for policy in [
            Policy::Default,
            Policy::Gorilla { k: 3 },
            Policy::less_is_more(3),
        ] {
            let sequential = pipeline.run_all(policy);
            for threads in [1, 2, 3, 8, 64] {
                let parallel = pipeline.run_all_parallel(policy, threads);
                assert_eq!(sequential, parallel, "threads={threads}");
            }
        }
    }

    /// Shared fixture: workload construction and level building dominate
    /// the property test's runtime, and the pipeline seed (not the
    /// workload seed) is what varies per case.
    fn fixture() -> &'static (lim_workloads::Workload, SearchLevels, ModelProfile) {
        use std::sync::OnceLock;
        static FIXTURE: OnceLock<(lim_workloads::Workload, SearchLevels, ModelProfile)> =
            OnceLock::new();
        FIXTURE.get_or_init(|| {
            let w = lim_workloads::bfcl(11, 24);
            let levels = SearchLevels::build(&w);
            let model = ModelProfile::by_name("qwen2-7b").expect("model exists");
            (w, levels, model)
        })
    }

    proptest! {
        /// For random pipeline seeds, policies and thread counts 1–8, the
        /// parallel evaluation equals the sequential one bit for bit.
        #[test]
        fn evaluate_parallel_equals_sequential(
            seed in 0u64..1_000,
            threads in 1usize..9,
            policy_ix in 0usize..3,
            quant_ix in 0usize..5,
        ) {
            let (w, levels, model) = fixture();
            let quant = Quant::ALL[quant_ix];
            let policy = [Policy::Default, Policy::Gorilla { k: 3 }, Policy::less_is_more(3)]
                [policy_ix];
            let pipeline = Pipeline::new(w, levels, model, quant).with_seed(seed);
            let sequential = evaluate(&pipeline, policy);
            let parallel = evaluate_parallel(&pipeline, policy, threads);
            prop_assert_eq!(sequential, parallel);
        }
    }
}
