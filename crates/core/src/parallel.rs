//! Sharded parallel batch evaluation.
//!
//! Production serving and benchmark sweeps are throughput-bound on query
//! batches, while [`Pipeline::run_query`] is a pure function of
//! `(query, policy, pipeline seed)` — every stochastic draw derives its
//! own seed from those inputs, never from execution order. That purity is
//! what this module exploits: worker threads in one `std::thread` scope
//! **claim small chunks** of consecutive items from a shared counter
//! until the batch is done, the calling thread among them, and every
//! output is placed back by its item's index. Which worker ran which
//! chunk depends on timing, but no output does, so the merged result is
//! **bit-identical** to the sequential run for every thread count —
//! `tests/parallel.rs` and the property test below prove it. Claiming
//! rather than fixed halves matters when item costs differ widely, as a
//! serving drain's cold, k-NN-only and refill selection jobs do (about
//! 10× apart): no worker idles while another holds the expensive ones.
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

use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Items a worker claims at a time in [`sharded_map`]: small enough that
/// workers finish together when item costs differ widely, large enough
/// that claiming stays cheap next to the work.
const CHUNK: usize = 4;

/// Applies `f` to every item of `items` across `threads` worker threads
/// (0 = available parallelism) and returns the outputs **in input
/// order**.
///
/// `f` receives the item's global index, so seeded work can key off the
/// canonical position rather than the executing thread. Workers claim
/// [`CHUNK`] consecutive items at a time from a shared counter until
/// none are left, so a worker that drew cheap items claims more and none
/// sits idle while another holds the expensive ones. The calling thread
/// works too, so `threads` workers cost `threads - 1` spawns, and a batch
/// of one chunk runs inline. Each output is placed by its item's index,
/// so the result equals the sequential map for every thread count and
/// every claiming order.
pub fn sharded_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = resolve_threads(threads).min(items.len().div_ceil(CHUNK));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let next = AtomicUsize::new(0);
    // One worker's claims: the start of each chunk it claimed (ascending,
    // since the counter only grows) and its outputs in claim order. The
    // outputs have room for an even share of the batch up front: growing
    // them by doubling instead left freed blocks in the worker's
    // allocator arena and raised the serving engine's peak memory.
    let work = || {
        let mut starts = Vec::new();
        let mut outputs = Vec::with_capacity(items.len().div_ceil(threads) + CHUNK);
        loop {
            let start = next.fetch_add(CHUNK, Ordering::Relaxed);
            if start >= items.len() {
                return (starts, outputs);
            }
            let end = (start + CHUNK).min(items.len());
            starts.push(start);
            outputs.extend((start..end).map(|i| f(i, &items[i])));
        }
    };
    let claims: Vec<(Vec<usize>, Vec<U>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut claims = vec![work()];
        claims.extend(
            handles
                .into_iter()
                .map(|handle| handle.join().expect("sharded_map worker panicked")),
        );
        claims
    });
    // Every chunk start was claimed by exactly one worker, and each
    // worker's claims ascend: walk the chunks in order, taking each from
    // the worker whose next claim it is.
    let mut workers: Vec<_> = claims
        .into_iter()
        .map(|(starts, outputs)| (starts.into_iter(), outputs.into_iter()))
        .collect();
    let mut merged = Vec::with_capacity(items.len());
    for start in (0..items.len()).step_by(CHUNK) {
        let (starts, outputs) = workers
            .iter_mut()
            .find(|(starts, _)| starts.as_slice().first() == Some(&start))
            .expect("every chunk is claimed once");
        starts.next();
        merged.extend(outputs.take(CHUNK.min(items.len() - start)));
    }
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
