//! Property tests for the detector structures: hardware-equivalence of the
//! snapshot frequency matrix, metric axioms for the distances, and
//! footprint-table invariants under arbitrary classification sequences.

use proptest::prelude::*;

use dsm_phase::bbv::BbvAccumulator;
use dsm_phase::ddv::FrequencyMatrix;
use dsm_phase::distance::{manhattan, relative_diff};
use dsm_phase::footprint::FootprintTable;

/// Literal implementation of the paper's hardware: n×n counters, all rows
/// incremented on every commit. The oracle for [`FrequencyMatrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct NaiveFrequencyMatrix {
    n: usize,
    /// `counts[i][j]`: accesses to home j on behalf of requester i.
    counts: Vec<u64>,
}

impl NaiveFrequencyMatrix {
    fn new(n: usize) -> Self {
        Self { n, counts: vec![0; n * n] }
    }

    fn record(&mut self, home: usize) {
        // "Every time processor p commits a load or a store ... it
        // increments all F_kj, 1 <= k <= n."
        for i in 0..self.n {
            self.counts[i * self.n + home] += 1;
        }
    }

    fn query(&mut self, i: usize) -> Vec<u64> {
        let row = &mut self.counts[i * self.n..(i + 1) * self.n];
        let out = row.to_vec();
        row.iter_mut().for_each(|c| *c = 0);
        out
    }
}

#[derive(Debug, Clone)]
enum FmOp {
    Record(usize),
    Query(usize),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn snapshot_matrix_equals_naive_hardware(
        ops in prop::collection::vec(
            (any::<bool>(), 0usize..6).prop_map(|(q, node)| {
                if q { FmOp::Query(node) } else { FmOp::Record(node) }
            }),
            1..300,
        ),
    ) {
        let mut fast = FrequencyMatrix::new(6);
        let mut naive = NaiveFrequencyMatrix::new(6);
        for op in ops {
            match op {
                FmOp::Record(h) => {
                    fast.record(h);
                    naive.record(h);
                }
                FmOp::Query(i) => {
                    prop_assert_eq!(fast.query(i), naive.query(i));
                }
            }
        }
    }

    #[test]
    fn manhattan_is_a_metric(
        a in prop::collection::vec(0.0f64..1.0, 8),
        b in prop::collection::vec(0.0f64..1.0, 8),
        c in prop::collection::vec(0.0f64..1.0, 8),
    ) {
        prop_assert!((manhattan(&a, &a)).abs() < 1e-12);
        prop_assert!((manhattan(&a, &b) - manhattan(&b, &a)).abs() < 1e-12);
        prop_assert!(manhattan(&a, &c) <= manhattan(&a, &b) + manhattan(&b, &c) + 1e-9);
        prop_assert!(manhattan(&a, &b) >= 0.0);
    }

    #[test]
    fn normalized_bbv_distances_bounded_by_two(
        recs_a in prop::collection::vec((any::<u32>(), 1u32..1000), 1..50),
        recs_b in prop::collection::vec((any::<u32>(), 1u32..1000), 1..50),
    ) {
        let mut a = BbvAccumulator::new(32);
        let mut b = BbvAccumulator::new(32);
        for (bb, w) in recs_a { a.record(bb, w); }
        for (bb, w) in recs_b { b.record(bb, w); }
        let d = manhattan(&a.normalized(), &b.normalized());
        prop_assert!((0.0..=2.0 + 1e-9).contains(&d), "distance {d} out of range");
    }

    #[test]
    fn relative_diff_axioms(a in 0.0f64..1e12, b in 0.0f64..1e12) {
        let d = relative_diff(a, b);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert_eq!(d, relative_diff(b, a));
        prop_assert_eq!(relative_diff(a, a), 0.0);
    }

    #[test]
    fn footprint_invariants_hold_under_arbitrary_streams(
        signatures in prop::collection::vec(
            (prop::collection::vec(0.0f64..1.0, 4), 0.0f64..1e6),
            1..100,
        ),
        bbv_thr in 0.0f64..2.0,
        dds_thr in prop::option::of(0.0f64..1.0),
        capacity in 1usize..8,
    ) {
        let mut table = FootprintTable::new(capacity);
        let mut seen_ids = std::collections::HashSet::new();
        for (mut sig, dds) in signatures {
            // Normalize the signature so distances are meaningful.
            let s: f64 = sig.iter().sum();
            if s > 0.0 {
                sig.iter_mut().for_each(|x| *x /= s);
            }
            let m = table.classify(&sig, dds, bbv_thr, dds_thr);
            seen_ids.insert(m.phase_id);
            // Invariants: resident entries bounded by capacity; matched
            // distance below threshold; ids dense from 0.
            prop_assert!(table.entries().len() <= capacity);
            if !m.is_new {
                prop_assert!(m.distance < bbv_thr);
            }
            prop_assert!(m.phase_id < table.phases_allocated());
        }
        prop_assert_eq!(seen_ids.len() as u32, table.phases_allocated());
    }

    #[test]
    fn classification_is_deterministic(
        signatures in prop::collection::vec(
            (prop::collection::vec(0.0f64..1.0, 4), 0.0f64..100.0),
            1..50,
        ),
    ) {
        let run = || {
            let mut t = FootprintTable::new(4);
            signatures
                .iter()
                .map(|(s, d)| t.classify(s, *d, 0.3, Some(0.2)).phase_id)
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}
