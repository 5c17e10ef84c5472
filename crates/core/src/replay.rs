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
//!
//! An ungated replay at threshold `t` also reports `next`, the smallest
//! distance `≥ t` it compared against `t` itself, i.e. before the query had
//! a candidate. Comparisons against an accepted candidate's distance do not
//! involve `t`, so every threshold in `[t, next]` takes the same path and
//! yields the same phase ids; [`IndexReplay::sweep`] skips those replays.

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
    #[inline]
    pub fn run(
        &mut self,
        tri: &DistanceTriangle,
        threshold: f64,
        gate: impl Fn(usize, usize) -> bool,
        ids: &mut Vec<u32>,
    ) {
        self.replay::<false>(tri, threshold, gate, ids);
    }

    /// An ungated [`IndexReplay::run`] that also returns `next`: the
    /// smallest distance `≥ threshold` compared while its query had no
    /// candidate yet (`+∞` if none). Every threshold in
    /// `[threshold, next]` writes the same `ids`.
    #[inline]
    pub fn run_ungated(
        &mut self,
        tri: &DistanceTriangle,
        threshold: f64,
        ids: &mut Vec<u32>,
    ) -> f64 {
        self.replay::<true>(tri, threshold, |_, _| true, ids)
    }

    /// The one replay loop; tracks `next` only when `NEXT` is set, so the
    /// gated replays pay nothing for it.
    #[inline]
    fn replay<const NEXT: bool>(
        &mut self,
        tri: &DistanceTriangle,
        threshold: f64,
        gate: impl Fn(usize, usize) -> bool,
        ids: &mut Vec<u32>,
    ) -> f64 {
        self.interval.clear();
        self.phase.clear();
        self.stamp.clear();
        ids.clear();
        let mut next_phase = 0u32;
        let mut next = f64::INFINITY;
        for i in 0..tri.len() {
            let clock = i as u64 + 1;
            let row = tri.row(i);
            let mut best: Option<usize> = None;
            let mut best_d = threshold;
            for (slot, &j) in self.interval.iter().enumerate() {
                let d = row[j as usize];
                if d < best_d {
                    if gate(i, j as usize) {
                        best = Some(slot);
                        best_d = d;
                    }
                } else if NEXT && best.is_none() && d < next {
                    // No candidate yet, so `d` was compared against
                    // `threshold` itself and `d ≥ threshold`.
                    next = d;
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
        next
    }

    /// An ungated sweep: `score(ids)` of the replay at each of
    /// `thresholds`, in order. A threshold inside `[t, next]` of the last
    /// replay (see [`IndexReplay::run_ungated`]) reuses that replay's score
    /// without replaying or scoring, so visiting thresholds in ascending
    /// order skips every replay that cannot change the ids.
    pub fn sweep<R: Copy>(
        &mut self,
        tri: &DistanceTriangle,
        thresholds: &[f64],
        mut score: impl FnMut(&[u32]) -> R,
    ) -> Vec<R> {
        let mut ids = Vec::new();
        let mut last: Option<(f64, f64, R)> = None;
        thresholds
            .iter()
            .map(|&t| match last {
                Some((at, next, r)) if at <= t && t <= next => r,
                _ => {
                    let next = self.run_ungated(tri, t, &mut ids);
                    let r = score(&ids);
                    last = Some((t, next, r));
                    r
                }
            })
            .collect()
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

    /// Per-threshold replays next to one skipping sweep over `thresholds`;
    /// returns how many replays the sweep ran.
    fn assert_sweep_matches_runs(tri: &DistanceTriangle, cap: usize, thresholds: &[f64]) -> usize {
        let mut table = IndexReplay::new(cap);
        let mut ids = Vec::new();
        let want: Vec<Vec<u32>> = thresholds
            .iter()
            .map(|&t| {
                let next = table.run_ungated(tri, t, &mut ids);
                assert!(next >= t, "next {next} below threshold {t}");
                table.run(tri, t, |_, _| true, &mut ids);
                ids.clone()
            })
            .collect();
        let mut replays = Vec::new();
        let got = table.sweep(tri, thresholds, |ids| {
            replays.push(ids.to_vec());
            replays.len() - 1
        });
        let got: Vec<Vec<u32>> = got.into_iter().map(|k| replays[k].clone()).collect();
        assert_eq!(got, want, "cap {cap}");
        replays.len()
    }

    #[test]
    fn run_reports_next_from_comparisons_before_a_candidate() {
        // Interval 1 misses interval 0 at distance 0.5. Interval 2 accepts
        // slot 0 at 0.1, then compares slot 1 (0.2) against that candidate,
        // not against the threshold: 0.2 must not bound the threshold.
        let tri = DistanceTriangle::build(3, |i, j| [[0.0; 2], [0.5, 0.0], [0.1, 0.2]][i][j]);
        let mut ids = Vec::new();
        assert_eq!(IndexReplay::new(4).run_ungated(&tri, 0.3, &mut ids), 0.5);
        assert_eq!(ids, vec![0, 1, 0]);
        // Past every distance: nothing bounds the threshold.
        assert_eq!(IndexReplay::new(4).run_ungated(&tri, 0.6, &mut ids), f64::INFINITY);
    }

    #[test]
    fn sweep_equals_per_threshold_replays() {
        let line = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0, 1.5];
        let dense: Vec<f64> = (0..400).map(|k| k as f64 / 250.0).collect();
        for seed in 1..=8u64 {
            let mut h = seed;
            // Distances drawn from the sweep thresholds themselves, so
            // replays land exactly on the `[t, next]` boundaries.
            let tri = DistanceTriangle::build(60, |_, _| {
                h = dsm_sim::util::splitmix64(h);
                line[(h % line.len() as u64) as usize]
            });
            for cap in [1, 2, 4, 32] {
                assert!(assert_sweep_matches_runs(&tri, cap, &line) <= line.len());
                let replays = assert_sweep_matches_runs(&tri, cap, &dense);
                assert!(replays < dense.len() / 4, "dense sweep skipped too little: {replays}");
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
