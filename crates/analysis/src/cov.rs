//! CoV of CPI and identifier CoV (paper §II).
//!
//! "For a given program phase, its CoV of CPI is the ratio of the standard
//! deviation to the mean of all the per-interval CPI values in that phase.
//! The identifier CoV is then defined as the average of all per-phase
//! CoVs, weighted by how many intervals belong to each phase."

use crate::stats;

/// Reusable buffers for grouping a classified stream by phase. Grouping is
/// stable: phases come out in ascending id order, each phase's CPIs in
/// stream order, so per-phase sums are accumulated exactly as a
/// `BTreeMap<u32, Vec<f64>>` grouping would accumulate them.
#[derive(Debug, Clone, Default)]
pub struct PhaseGroups {
    /// CPIs regrouped phase by phase.
    cpis: Vec<f64>,
    /// Exclusive end of each non-empty phase's run in `cpis`.
    ends: Vec<usize>,
    /// Counting-sort offsets (dense ids) or the sorted stream (sparse ids).
    counts: Vec<usize>,
    sorted: Vec<(u32, f64)>,
    /// Per-phase (CoV, interval count).
    weighted: Vec<(f64, f64)>,
}

impl PhaseGroups {
    /// The identifier CoV (per-phase CoV of CPI weighted by interval count)
    /// and the number of distinct phases of a classified stream.
    pub fn cov_and_phases(&mut self, pairs: &[(u32, f64)]) -> (f64, usize) {
        if pairs.is_empty() {
            return (0.0, 0);
        }
        self.group(pairs);
        self.weighted.clear();
        let mut start = 0;
        for &end in &self.ends {
            let cpis = &self.cpis[start..end];
            self.weighted.push((stats::cov(cpis), cpis.len() as f64));
            start = end;
        }
        (stats::weighted_mean(&self.weighted), self.weighted.len())
    }

    /// Fill `cpis` and `ends`: a counting sort when the ids are dense (as
    /// every detector's fresh-id numbering is), a stable sort otherwise.
    fn group(&mut self, pairs: &[(u32, f64)]) {
        let (lo, hi) = pairs
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &(p, _)| (lo.min(p), hi.max(p)));
        let span = (hi - lo) as usize + 1;
        self.cpis.clear();
        self.ends.clear();
        if span <= 4 * pairs.len() {
            self.counts.clear();
            self.counts.resize(span + 1, 0);
            for &(p, _) in pairs {
                self.counts[(p - lo) as usize + 1] += 1;
            }
            for k in 1..=span {
                self.counts[k] += self.counts[k - 1];
            }
            self.cpis.resize(pairs.len(), 0.0);
            for &(p, cpi) in pairs {
                let at = &mut self.counts[(p - lo) as usize];
                self.cpis[*at] = cpi;
                *at += 1;
            }
            // `counts[k]` is now the end of phase `lo + k`'s run.
            let mut prev = 0;
            for &end in &self.counts[..span] {
                if end > prev {
                    self.ends.push(end);
                    prev = end;
                }
            }
        } else {
            self.sorted.clear();
            self.sorted.extend_from_slice(pairs);
            self.sorted.sort_by_key(|&(p, _)| p);
            for (k, &(p, cpi)) in self.sorted.iter().enumerate() {
                if k > 0 && self.sorted[k - 1].0 != p {
                    self.ends.push(k);
                }
                self.cpis.push(cpi);
            }
            self.ends.push(self.sorted.len());
        }
    }
}

/// [`PhaseGroups::cov_and_phases`] with fresh buffers.
pub fn cov_and_phases(pairs: &[(u32, f64)]) -> (f64, usize) {
    PhaseGroups::default().cov_and_phases(pairs)
}

/// The identifier CoV over a classified interval stream: per-phase CoV of
/// CPI, weighted by interval count.
pub fn identifier_cov(pairs: &[(u32, f64)]) -> f64 {
    cov_and_phases(pairs).0
}

/// Number of distinct phases in a classified stream.
pub fn phase_count(pairs: &[(u32, f64)]) -> usize {
    cov_and_phases(pairs).1
}

/// Fraction of intervals spent tuning, the x-axis alternative for CoV
/// curves (paper §II: "a measure of tuning overhead (the fraction of
/// intervals that are spent in tuning)"). Each distinct phase must try
/// `trials_per_phase` configurations before settling.
pub fn tuning_fraction(phases: usize, trials_per_phase: usize, total_intervals: usize) -> f64 {
    if total_intervals == 0 {
        return 0.0;
    }
    ((phases * trials_per_phase) as f64 / total_intervals as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_homogeneous_phases_give_zero() {
        // Two phases, constant CPI within each.
        let pairs = [(0, 1.0), (0, 1.0), (1, 3.0), (1, 3.0)];
        assert_eq!(identifier_cov(&pairs), 0.0);
    }

    #[test]
    fn every_interval_its_own_phase_is_trivially_zero() {
        // The paper's degenerate extreme.
        let pairs: Vec<(u32, f64)> = (0..10).map(|i| (i, i as f64 + 1.0)).collect();
        assert_eq!(identifier_cov(&pairs), 0.0);
        assert_eq!(phase_count(&pairs), 10);
    }

    #[test]
    fn one_phase_for_everything_has_large_cov() {
        let pairs: Vec<(u32, f64)> = vec![(0, 1.0), (0, 1.0), (0, 10.0), (0, 10.0)];
        let c = identifier_cov(&pairs);
        assert!(c > 0.5, "heterogeneous single phase must score badly, got {c}");
    }

    #[test]
    fn weighting_by_interval_count() {
        // Phase 0: 8 intervals with CoV 0; phase 1: 2 intervals with known CoV.
        let mut pairs = vec![(0u32, 2.0); 8];
        pairs.push((1, 1.0));
        pairs.push((1, 3.0));
        let phase1_cov = crate::stats::cov(&[1.0, 3.0]);
        let expected = (8.0 * 0.0 + 2.0 * phase1_cov) / 10.0;
        assert!((identifier_cov(&pairs) - expected).abs() < 1e-12);
    }

    #[test]
    fn splitting_a_heterogeneous_phase_reduces_cov() {
        // The core trade-off the CoV curve captures.
        let merged = [(0, 1.0), (0, 1.0), (0, 4.0), (0, 4.0)];
        let split = [(0, 1.0), (0, 1.0), (1, 4.0), (1, 4.0)];
        assert!(identifier_cov(&split) < identifier_cov(&merged));
    }

    #[test]
    fn empty_stream() {
        assert_eq!(identifier_cov(&[]), 0.0);
        assert_eq!(phase_count(&[]), 0);
    }

    #[test]
    fn tuning_fraction_behaviour() {
        assert_eq!(tuning_fraction(5, 4, 100), 0.2);
        assert_eq!(tuning_fraction(0, 4, 100), 0.0);
        assert_eq!(tuning_fraction(1000, 4, 100), 1.0, "clamped");
        assert_eq!(tuning_fraction(5, 4, 0), 0.0);
    }
}
