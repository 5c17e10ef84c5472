//! Index replay: the footprint table of [`crate::footprint`] re-run over
//! one processor's recorded intervals, with every distance precomputed.
//!
//! A footprint entry is an immutable copy of an earlier interval's
//! signature, so every distance a table replay evaluates is `d(i, j)`
//! between the query interval `i` and an earlier interval `j` of the same
//! processor. [`DistanceTriangle`] holds those values (`j < i`) for one
//! processor; [`IndexReplay`] then replays the table at any threshold by
//! lookups alone. Entries are interval indices plus a phase id and an LRU
//! stamp, and the replay keeps the table's rules exactly:
//!
//! * a candidate must lie strictly under the threshold (and pass the
//!   optional index gate, e.g. the BBV+DDV relative-DDS check);
//! * among candidates the first smallest distance in slot order wins;
//! * a miss allocates a fresh phase id, appending below capacity and
//!   otherwise overwriting the first least-recently-used slot.
//!
//! A threshold sweep builds one triangle per processor and replays it at
//! every threshold, instead of recomputing each signature distance at each
//! threshold. Memory is `n(n−1)/2 × 8` bytes for `n` intervals.

/// Lower triangle of one processor's pairwise interval distances:
/// `d(i, j)` for `j < i`, row `i` stored contiguously.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceTriangle {
    n: usize,
    d: Vec<f64>,
}

impl DistanceTriangle {
    /// Evaluate `dist(i, j)` once for every pair `j < i < n`. `dist` takes
    /// the query interval first, as the table does.
    pub fn build(n: usize, mut dist: impl FnMut(usize, usize) -> f64) -> Self {
        let mut d = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 1..n {
            for j in 0..i {
                d.push(dist(i, j));
            }
        }
        Self { n, d }
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distances from interval `i` to intervals `0..i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        let start = i * i.saturating_sub(1) / 2;
        &self.d[start..start + i]
    }
}

/// A footprint table over interval indices; reusable across replays.
#[derive(Debug, Clone)]
pub struct IndexReplay {
    capacity: usize,
    /// Per slot: the interval whose signature the entry holds.
    interval: Vec<u32>,
    /// Per slot: the phase id assigned at allocation.
    phase: Vec<u32>,
    /// Per slot: LRU stamp (the clock at the last hit or allocation).
    stamp: Vec<u64>,
}

impl IndexReplay {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            capacity,
            interval: Vec::with_capacity(capacity),
            phase: Vec::with_capacity(capacity),
            stamp: Vec::with_capacity(capacity),
        }
    }

    /// Classify intervals `0..tri.len()` in order against an initially
    /// empty table at `threshold`, writing one phase id per interval into
    /// `ids`. An entry holding interval `j` is a candidate for query `i`
    /// only if `gate(i, j)` holds; pass `|_, _| true` for no gate.
    pub fn run(
        &mut self,
        tri: &DistanceTriangle,
        threshold: f64,
        gate: impl Fn(usize, usize) -> bool,
        ids: &mut Vec<u32>,
    ) {
        self.interval.clear();
        self.phase.clear();
        self.stamp.clear();
        ids.clear();
        let mut next_phase = 0u32;
        for i in 0..tri.len() {
            let clock = i as u64 + 1;
            let row = tri.row(i);
            let mut best: Option<usize> = None;
            let mut best_d = threshold;
            for (slot, &j) in self.interval.iter().enumerate() {
                let d = row[j as usize];
                if d < best_d && gate(i, j as usize) {
                    best = Some(slot);
                    best_d = d;
                }
            }
            if let Some(slot) = best {
                self.stamp[slot] = clock;
                ids.push(self.phase[slot]);
                continue;
            }
            let id = next_phase;
            next_phase += 1;
            if self.interval.len() < self.capacity {
                self.interval.push(i as u32);
                self.phase.push(id);
                self.stamp.push(clock);
            } else {
                let lru = self
                    .stamp
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &t)| t)
                    .map(|(s, _)| s)
                    .expect("capacity > 0");
                self.interval[lru] = i as u32;
                self.phase[lru] = id;
                self.stamp[lru] = clock;
            }
            ids.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::manhattan;
    use crate::footprint::FootprintTable;

    fn table_ids(sigs: &[Vec<f64>], cap: usize, thr: f64) -> Vec<u32> {
        let mut t = FootprintTable::new(cap);
        sigs.iter().map(|s| t.classify(s, 0.0, thr, None).phase_id).collect()
    }

    fn replay_ids(sigs: &[Vec<f64>], cap: usize, thr: f64) -> Vec<u32> {
        let tri = DistanceTriangle::build(sigs.len(), |i, j| manhattan(&sigs[i], &sigs[j]));
        let mut ids = Vec::new();
        IndexReplay::new(cap).run(&tri, thr, |_, _| true, &mut ids);
        ids
    }

    #[test]
    fn triangle_rows_hold_earlier_intervals() {
        let tri = DistanceTriangle::build(4, |i, j| (10 * i + j) as f64);
        assert_eq!(tri.len(), 4);
        assert!(tri.row(0).is_empty());
        assert_eq!(tri.row(3), &[30.0, 31.0, 32.0]);
        assert_eq!(tri.row(2), &[20.0, 21.0]);
        assert!(DistanceTriangle::build(0, |_, _| 0.0).is_empty());
    }

    #[test]
    fn replay_matches_table_through_evictions() {
        let one_hot = |k: usize| {
            let mut v = vec![0.0; 3];
            v[k] = 1.0;
            v
        };
        let sigs: Vec<Vec<f64>> = [0, 1, 2, 0, 2, 1, 1, 0].iter().map(|&k| one_hot(k)).collect();
        for cap in [1, 2, 32] {
            for thr in [0.0, 0.1, 2.5] {
                assert_eq!(replay_ids(&sigs, cap, thr), table_ids(&sigs, cap, thr), "cap {cap} thr {thr}");
            }
        }
    }

    #[test]
    fn gate_blocks_candidates() {
        let tri = DistanceTriangle::build(3, |_, _| 0.0);
        let mut ids = Vec::new();
        IndexReplay::new(4).run(&tri, 1.0, |i, j| i != 2 || j != 0, &mut ids);
        // Interval 1 matches 0; interval 2 may only match a slot holding
        // interval 1, which was never allocated — so it is a new phase.
        assert_eq!(ids, vec![0, 0, 1]);
    }
}
