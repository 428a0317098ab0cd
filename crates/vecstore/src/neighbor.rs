//! Search results.

/// One search hit: a stored id and its similarity score.
///
/// Scores follow the [`crate::Metric`] convention: higher is more similar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Caller-assigned identifier of the stored vector.
    pub id: u64,
    /// Similarity score of the hit (higher = closer).
    pub score: f32,
}

impl Neighbor {
    /// Creates a neighbour record.
    pub fn new(id: u64, score: f32) -> Self {
        Self { id, score }
    }

    /// The canonical result ordering shared by every index in this crate:
    /// score descending, ties broken by ascending id.
    ///
    /// Scores compare via [`f32::total_cmp`], so the order is total even
    /// in the presence of NaN and never depends on insertion order
    /// (`FlatIndex`) or cell layout (`IvfIndex`) — the same candidate set
    /// always ranks identically regardless of which index produced it.
    pub fn ranking_cmp(&self, other: &Neighbor) -> std::cmp::Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// Keeps the best `k` of a candidate stream, returning them best-first.
///
/// Ordering is [`Neighbor::ranking_cmp`] — (score desc, id asc) — so
/// results are fully deterministic for any candidate arrival order. The
/// best `k` are selected before they are sorted; since the order is
/// total, that is exactly the first `k` of a full sort.
pub(crate) fn top_k(mut candidates: Vec<Neighbor>, k: usize) -> Vec<Neighbor> {
    if k < candidates.len() {
        if k > 0 {
            candidates.select_nth_unstable_by(k - 1, Neighbor::ranking_cmp);
        }
        candidates.truncate(k);
    }
    candidates.sort_by(Neighbor::ranking_cmp);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_orders_best_first() {
        let hits = top_k(
            vec![
                Neighbor::new(1, 0.2),
                Neighbor::new(2, 0.9),
                Neighbor::new(3, 0.5),
            ],
            2,
        );
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 2);
        assert_eq!(hits[1].id, 3);
    }

    #[test]
    fn top_k_breaks_ties_by_id() {
        let hits = top_k(vec![Neighbor::new(9, 0.5), Neighbor::new(3, 0.5)], 2);
        assert_eq!(hits[0].id, 3);
        assert_eq!(hits[1].id, 9);
    }

    #[test]
    fn top_k_handles_small_inputs() {
        assert!(top_k(vec![], 5).is_empty());
        assert_eq!(top_k(vec![Neighbor::new(1, 1.0)], 5).len(), 1);
    }

    #[test]
    fn ranking_is_independent_of_arrival_order() {
        let tied = [
            Neighbor::new(7, 0.5),
            Neighbor::new(2, 0.5),
            Neighbor::new(5, 0.5),
            Neighbor::new(1, 0.9),
        ];
        let forward = top_k(tied.to_vec(), 4);
        let mut reversed = tied.to_vec();
        reversed.reverse();
        assert_eq!(forward, top_k(reversed, 4));
        let ids: Vec<u64> = forward.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 2, 5, 7]);
    }

    #[test]
    fn top_k_equals_the_first_k_of_a_full_sort() {
        // Tied scores, both zeros, NaN and infinities, in scrambled order.
        let scores = [
            0.5,
            -0.0,
            f32::NAN,
            0.5,
            0.0,
            f32::INFINITY,
            -1.0,
            0.5,
            f32::NEG_INFINITY,
        ];
        let candidates: Vec<Neighbor> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| Neighbor::new((i as u64 * 7) % 11, s))
            .collect();
        let mut sorted = candidates.clone();
        sorted.sort_by(Neighbor::ranking_cmp);
        for k in 0..=candidates.len() + 1 {
            let bits = |hits: &[Neighbor]| -> Vec<(u64, u32)> {
                hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
            };
            let want = &sorted[..k.min(sorted.len())];
            assert_eq!(bits(&top_k(candidates.clone(), k)), bits(want), "k={k}");
        }
    }

    #[test]
    fn ranking_cmp_totally_orders_nan_scores() {
        // total_cmp keeps the sort valid even with NaN candidates; NaN
        // compares greater than every real score, so it ranks first but
        // never panics or produces an inconsistent comparator.
        let hits = top_k(
            vec![
                Neighbor::new(1, f32::NAN),
                Neighbor::new(2, 1.0),
                Neighbor::new(3, f32::NAN),
            ],
            3,
        );
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].id, 1);
        assert_eq!(hits[1].id, 3);
        assert_eq!(hits[2].id, 2);
    }
}
