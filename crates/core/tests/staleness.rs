//! DDV row-collection deadline coverage: with every `F_i` row arriving the
//! degraded gather is *exactly* the paper's DDS formula, and past the
//! configured staleness bound classification degrades to BBV-only —
//! engaging at precisely the configured interval, not one earlier or later.

use dsm_phase::ddv::{DdsSample, DdvState, DegradedCollector};
use dsm_phase::detector::{
    AvailabilityModel, DetectorGeometry, DetectorMode, OnlineDetector, Thresholds,
};
use dsm_sim::config::SystemConfig;
use dsm_sim::network::Network;
use dsm_sim::observer::{IntervalStats, SimObserver};

const THRESH: Thresholds = Thresholds { bbv: 0.1, dds: 0.1 };

/// Full n×n distance matrix of the paper's hypercube, flattened row-major.
fn full_dist(n: usize) -> Vec<f64> {
    Network::new(SystemConfig::paper(n).network, n).distance_matrix()
}

fn record_pattern(ddv: &mut DdvState, n: usize, round: usize) {
    // Every node touches its own home plus a rotating remote home, so F and
    // C are dense and interval-dependent.
    for p in 0..n {
        for _ in 0..(p + 2) {
            ddv.record_access(p, p);
        }
        ddv.record_access(p, (p + 1 + round) % n);
    }
}

#[test]
fn full_row_arrival_matches_paper_formula_exactly() {
    let n = 4;
    let mut reference = DdvState::new(n, full_dist(n));
    let mut degraded = DdvState::new(n, full_dist(n));
    let mut coll = DegradedCollector::new(n);
    let mut ref_sample = DdsSample::empty();
    let mut deg_sample = DdsSample::empty();

    for round in 0..6 {
        record_pattern(&mut reference, n, round);
        record_pattern(&mut degraded, n, round);
        for i in 0..n {
            reference.end_interval_into(i, &mut ref_sample);
            let staleness = coll.end_interval_into(&mut degraded, i, &mut deg_sample, |_| true);
            assert_eq!(staleness, 0, "nothing may be stale when every row arrives");
            assert_eq!(ref_sample, deg_sample, "round {round} proc {i}");
            // And both equal the paper formula applied to the gathered F, C.
            let expect =
                DdvState::dds_of(&deg_sample.fvec, degraded.dist_row(i), &deg_sample.cvec);
            assert!((deg_sample.dds - expect).abs() <= expect.abs() * 1e-12);
        }
    }
    assert_eq!(coll.substitutions(), 0);
}

fn drive_interval(det: &mut OnlineDetector, n: usize, idx: u64) {
    for p in 0..n {
        for _ in 0..10 {
            det.on_block_commit(p, 7, 50);
        }
        det.on_mem_commit(p, p, 0x40 * p as u64, false);
        det.on_mem_commit(p, (p + 1) % n, 0x80, false);
    }
    for p in 0..n {
        det.on_interval(p, IntervalStats { index: idx, insns: 500, cycles: 1000 });
    }
}

#[test]
fn bbv_only_engages_exactly_at_the_staleness_bound() {
    let n = 2;
    for bound in [0u64, 1, 3] {
        let model = AvailabilityModel { seed: 1, miss_ppm: 1_000_000, max_staleness: bound };
        let mut det = OnlineDetector::with_availability(
            n,
            full_dist(n),
            DetectorMode::BbvDdv,
            THRESH,
            DetectorGeometry::default(),
            model,
        );
        for idx in 0..8 {
            drive_interval(&mut det, n, idx);
        }
        for p in 0..n {
            for (idx, c) in det.classified[p].iter().enumerate() {
                // With every remote row missing, staleness after interval
                // `idx` is `idx + 1`; degradation engages strictly past the
                // bound, i.e. first at interval index == bound.
                let expect = idx as u64 >= bound;
                assert_eq!(
                    c.degraded, expect,
                    "bound {bound} proc {p} interval {idx}: degraded={}",
                    c.degraded
                );
            }
        }
        assert!(det.rows_substituted() > 0);
    }
}

#[test]
fn degraded_classification_is_bbv_only() {
    // With rows always missing and a zero staleness bound, every interval
    // is degraded: the BbvDdv detector must classify exactly like a pure
    // BBV detector fed the identical stream (the DDS gate is bypassed).
    let n = 2;
    let model = AvailabilityModel { seed: 1, miss_ppm: 1_000_000, max_staleness: 0 };
    let mut degraded = OnlineDetector::with_availability(
        n,
        full_dist(n),
        DetectorMode::BbvDdv,
        THRESH,
        DetectorGeometry::default(),
        model,
    );
    let mut bbv_only = OnlineDetector::new(
        n,
        full_dist(n),
        DetectorMode::Bbv,
        THRESH,
        DetectorGeometry::default(),
    );
    for idx in 0..10 {
        drive_interval(&mut degraded, n, idx);
        drive_interval(&mut bbv_only, n, idx);
    }
    for p in 0..n {
        let a: Vec<u32> = degraded.classified[p].iter().map(|c| c.phase_id).collect();
        let b: Vec<u32> = bbv_only.classified[p].iter().map(|c| c.phase_id).collect();
        assert_eq!(a, b, "proc {p}: degraded BbvDdv must reduce to pure BBV");
        assert!(degraded.classified[p].iter().all(|c| c.degraded));
        assert!(bbv_only.classified[p].iter().all(|c| !c.degraded));
    }
}

#[test]
fn reliable_model_is_transparent() {
    // miss_ppm == 0 must take the exact paper path: same classifications,
    // no staleness machinery engaged.
    let n = 2;
    let mut with_model = OnlineDetector::with_availability(
        n,
        full_dist(n),
        DetectorMode::BbvDdv,
        THRESH,
        DetectorGeometry::default(),
        AvailabilityModel::reliable(),
    );
    let mut plain = OnlineDetector::new(
        n,
        full_dist(n),
        DetectorMode::BbvDdv,
        THRESH,
        DetectorGeometry::default(),
    );
    for idx in 0..6 {
        drive_interval(&mut with_model, n, idx);
        drive_interval(&mut plain, n, idx);
    }
    assert!(with_model.availability().is_none());
    assert_eq!(with_model.rows_substituted(), 0);
    for p in 0..n {
        assert_eq!(with_model.classified[p], plain.classified[p]);
    }
}
