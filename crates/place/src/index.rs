//! The fleet-wide place index: latest descriptor per vehicle, ranked
//! candidate retrieval.
//!
//! The index holds one [`PlaceDescriptor`] per vehicle (upserted as new
//! frames arrive) and answers "which vehicles plausibly see the same
//! scene as this one?" with a deterministic top-k ranking. Scoring is
//! embarrassingly parallel — each candidate's cosine similarity is an
//! independent dot product — so the scan runs on the `bba-par` pool and
//! is bit-identical at every thread width; ties break on vehicle id so
//! the ranking is a total order.

use crate::descriptor::PlaceDescriptor;
use bba_obs::Recorder;

/// One ranked candidate from [`PlaceIndex::top_k`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceMatch {
    /// Candidate vehicle id.
    pub vehicle: u32,
    /// Cosine similarity to the query descriptor, in `[0, 1]`.
    pub similarity: f64,
}

/// Latest-descriptor-per-vehicle index (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct PlaceIndex {
    /// `(vehicle, descriptor)` sorted by vehicle id, so rankings and
    /// iteration order are independent of insertion order.
    entries: Vec<(u32, PlaceDescriptor)>,
    obs: Recorder,
}

impl PlaceIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        PlaceIndex { entries: Vec::new(), obs: Recorder::disabled() }
    }

    /// Installs an observability recorder: `place.query` spans and the
    /// `place.queries` / `place.updates` counters are recorded from then
    /// on.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.obs = recorder;
    }

    /// Inserts or replaces the descriptor for `vehicle`.
    pub fn update(&mut self, vehicle: u32, descriptor: PlaceDescriptor) {
        self.obs.incr("place.updates");
        match self.entries.binary_search_by_key(&vehicle, |(id, _)| *id) {
            Ok(i) => self.entries[i].1 = descriptor,
            Err(i) => self.entries.insert(i, (vehicle, descriptor)),
        }
    }

    /// The latest descriptor for `vehicle`, if one was ever inserted.
    pub fn get(&self, vehicle: u32) -> Option<&PlaceDescriptor> {
        self.entries.binary_search_by_key(&vehicle, |(id, _)| *id).ok().map(|i| &self.entries[i].1)
    }

    /// Number of vehicles currently indexed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no vehicle is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `k` most similar vehicles to `query`, excluding `exclude`
    /// (the querying vehicle itself), ranked by descending similarity
    /// with vehicle id as the deterministic tiebreak.
    ///
    /// Scoring runs on the `bba-par` pool; results are bit-identical at
    /// every thread width because each score is computed independently
    /// and the final sort is a total order.
    pub fn top_k(
        &self,
        query: &PlaceDescriptor,
        k: usize,
        exclude: Option<u32>,
    ) -> Vec<PlaceMatch> {
        let _span = self.obs.span("place.query");
        self.obs.incr("place.queries");
        let mut scored: Vec<PlaceMatch> = bba_par::par_map(&self.entries, |(id, d)| PlaceMatch {
            vehicle: *id,
            similarity: query.similarity(d),
        });
        if let Some(x) = exclude {
            scored.retain(|m| m.vehicle != x);
        }
        scored.sort_by(|a, b| {
            b.similarity.total_cmp(&a.similarity).then_with(|| a.vehicle.cmp(&b.vehicle))
        });
        scored.truncate(k);
        scored
    }

    /// Similarity between two indexed vehicles, when both have
    /// descriptors.
    pub fn pair_similarity(&self, a: u32, b: u32) -> Option<f64> {
        Some(self.get(a)?.similarity(self.get(b)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::PlaceConfig;
    use bba_signal::{Grid, MaxIndexMap};

    fn descriptor(seed: u64) -> PlaceDescriptor {
        let mut img = Grid::new(32, 32, 0.0);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        for _ in 0..25 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state as usize >> 3) % 32;
            let v = (state as usize >> 23) % 32;
            img[(u, v)] = 4.0;
        }
        let mim = MaxIndexMap::compute(&img);
        PlaceDescriptor::from_mim(&mim, &PlaceConfig::default())
    }

    #[test]
    fn update_replaces_and_get_retrieves() {
        let mut index = PlaceIndex::new();
        assert!(index.is_empty());
        index.update(3, descriptor(1));
        index.update(1, descriptor(2));
        index.update(3, descriptor(3));
        assert_eq!(index.len(), 2);
        assert_eq!(index.get(3), Some(&descriptor(3)));
        assert_eq!(index.get(9), None);
    }

    #[test]
    fn top_k_ranks_self_first_when_not_excluded() {
        let mut index = PlaceIndex::new();
        for id in 0..6u32 {
            index.update(id, descriptor(id as u64));
        }
        let q = descriptor(2);
        let ranked = index.top_k(&q, 3, None);
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0].vehicle, 2, "identical descriptor must rank first");
        assert!((ranked[0].similarity - 1.0).abs() < 1e-9);
        let excluded = index.top_k(&q, 10, Some(2));
        assert_eq!(excluded.len(), 5);
        assert!(excluded.iter().all(|m| m.vehicle != 2));
        // Descending similarity throughout.
        for w in excluded.windows(2) {
            assert!(w[0].similarity >= w[1].similarity);
        }
    }

    #[test]
    fn ranking_is_insertion_order_independent() {
        let mut fwd = PlaceIndex::new();
        let mut rev = PlaceIndex::new();
        for id in 0..8u32 {
            fwd.update(id, descriptor(id as u64));
            rev.update(7 - id, descriptor((7 - id) as u64));
        }
        let q = descriptor(100);
        assert_eq!(fwd.top_k(&q, 8, None), rev.top_k(&q, 8, None));
    }
}
