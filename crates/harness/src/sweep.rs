//! Threshold sweeps: turn one captured trace into a CoV curve per detector.
//!
//! Per the paper's methodology (§III-A): "We examine two hundred threshold
//! values. We compute identifier CoV curves for each processor, and then
//! average them together to obtain the overall system-wide CoV curve."
//! For BBV+DDV the sweep is a 2-D grid over (BBV, DDS) thresholds and the
//! reported curve is the set of all grid points (its lower envelope is
//! taken at plot time).
//!
//! Every curve family is a footprint table replayed at each threshold, and
//! a table entry is a copy of an earlier interval's signature. So each
//! sweep computes a processor's pairwise interval distances once, as a
//! [`DistanceTriangle`], and replays the table at every threshold by index
//! lookups ([`IndexReplay`]) — bit-identical to re-running the table. The
//! fan-out is over processors: each [`crate::parallel::par_map`] task
//! builds one triangle (`n(n−1)/2 × 8` bytes for `n` intervals), replays
//! every threshold, and drops it. Points are averaged in processor order,
//! keeping curves byte-identical to a serial run.

use dsm_analysis::cov::PhaseGroups;
use dsm_analysis::curve::{CovCurve, CurvePoint};
use dsm_phase::ddv::DdvState;
use dsm_phase::detector::IntervalRecord;
use dsm_phase::distance::{manhattan, manhattan_concat, relative_diff};
use dsm_phase::working_set::WsSignature;
use dsm_phase::{DistanceTriangle, IndexReplay, DEFAULT_FOOTPRINT_VECTORS};

use crate::parallel::par_map;
use crate::trace::SystemTrace;

/// Number of BBV thresholds in the 1-D baseline sweep (paper: 200).
pub const BBV_SWEEP_POINTS: usize = 200;
/// BBV × DDS grid dimensions for the BBV+DDV sweep (also 200 points).
pub const DDV_GRID_BBV: usize = 20;
pub const DDV_GRID_DDS: usize = 10;

/// Log-spaced thresholds in `[lo, hi]`.
pub fn log_spaced(n: usize, lo: f64, hi: f64) -> Vec<f64> {
    assert!(n >= 2 && lo > 0.0 && hi > lo);
    let (l0, l1) = (lo.ln(), hi.ln());
    (0..n)
        .map(|i| (l0 + (l1 - l0) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// One sweep point's thresholds: the signature-distance threshold and, for
/// the DDS-gated (BBV+DDV) families, the relative-DDS threshold.
type SweepPoint = (f64, Option<f64>);

/// What one processor's footprint table compares: the distance triangle
/// over its intervals and, for DDS-gated points, each interval's DDS
/// (empty when no point is gated).
struct Signatures {
    distances: DistanceTriangle,
    dds: Vec<f64>,
}

impl Signatures {
    fn ungated(distances: DistanceTriangle) -> Self {
        Self { distances, dds: Vec::new() }
    }
}

/// Sweep one curve family: replay every non-empty processor's table at
/// every point of `thresholds` and aggregate per point. Ungated families
/// go through [`IndexReplay::sweep`], which reuses a point's `(cov,
/// phases)` wherever the replay cannot change the phase ids.
fn replay_curve<F>(
    trace: &SystemTrace,
    thresholds: Vec<SweepPoint>,
    capacity: usize,
    signatures: F,
) -> CovCurve
where
    F: Fn(usize, &[IntervalRecord]) -> Signatures + Sync,
{
    let ungated = thresholds.iter().all(|&(_, dds_thr)| dds_thr.is_none());
    let procs: Vec<usize> = (0..trace.records.len())
        .filter(|&p| !trace.records[p].is_empty())
        .collect();
    let per_proc = par_map(procs, |p| {
        let recs = &trace.records[p];
        let Signatures { distances, dds } = signatures(p, recs);
        let cpis: Vec<f64> = recs.iter().map(IntervalRecord::cpi).collect();
        let mut table = IndexReplay::new(capacity);
        let mut groups = PhaseGroups::default();
        let mut pairs = Vec::new();
        let mut score = |ids: &[u32]| {
            pairs.clear();
            pairs.extend(ids.iter().copied().zip(cpis.iter().copied()));
            groups.cov_and_phases(&pairs)
        };
        if ungated {
            let line: Vec<f64> = thresholds.iter().map(|&(thr, _)| thr).collect();
            return table.sweep(&distances, &line, score);
        }
        let mut ids = Vec::new();
        thresholds
            .iter()
            .map(|&(thr, dds_thr)| {
                let gate = |i: usize, j: usize| {
                    dds_thr.is_none_or(|t| relative_diff(dds[i], dds[j]) < t)
                };
                table.run(&distances, thr, gate, &mut ids);
                score(&ids)
            })
            .collect::<Vec<_>>()
    });
    let points = thresholds
        .iter()
        .enumerate()
        .map(|(k, &thr)| point_for(&per_proc, k, thr))
        .collect();
    CovCurve::new(points)
}

/// Aggregate sweep point `k`: the mean per-processor identifier CoV and
/// phase count, summed in processor order.
fn point_for(per_proc: &[Vec<(f64, usize)>], k: usize, thr: SweepPoint) -> CurvePoint {
    let n = per_proc.len().max(1) as f64;
    CurvePoint {
        phases: per_proc.iter().map(|r| r[k].1 as f64).sum::<f64>() / n,
        cov: per_proc.iter().map(|r| r[k].0).sum::<f64>() / n,
        bbv_threshold: thr.0,
        dds_threshold: thr.1,
    }
}

/// BBV distances as the footprint table evaluates them (query first), with
/// each interval's `dds` for the gated families (empty for the others).
fn bbv_signatures(recs: &[IntervalRecord], dds: Vec<f64>) -> Signatures {
    Signatures {
        distances: DistanceTriangle::build(recs.len(), |i, j| {
            manhattan(&recs[i].bbv, &recs[j].bbv)
        }),
        dds,
    }
}

/// Baseline BBV sweep (Figure 2).
pub fn bbv_curve(trace: &SystemTrace) -> CovCurve {
    bbv_curve_with(trace, BBV_SWEEP_POINTS)
}

/// Baseline BBV sweep with an explicit point count.
pub fn bbv_curve_with(trace: &SystemTrace, n_points: usize) -> CovCurve {
    bbv_curve_cap(trace, n_points, DEFAULT_FOOTPRINT_VECTORS)
}

/// Baseline BBV sweep with explicit point count and footprint capacity.
pub fn bbv_curve_cap(trace: &SystemTrace, n_points: usize, capacity: usize) -> CovCurve {
    replay_curve(trace, line(n_points, 1e-3, 2.0), capacity, |_, recs| {
        bbv_signatures(recs, Vec::new())
    })
}

/// BBV+DDV grid sweep (Figure 4).
pub fn bbv_ddv_curve(trace: &SystemTrace) -> CovCurve {
    bbv_ddv_curve_with(trace, DDV_GRID_BBV, DDV_GRID_DDS)
}

/// BBV+DDV sweep with explicit grid dimensions.
pub fn bbv_ddv_curve_with(trace: &SystemTrace, n_bbv: usize, n_dds: usize) -> CovCurve {
    bbv_ddv_curve_cap(trace, n_bbv, n_dds, DEFAULT_FOOTPRINT_VECTORS)
}

/// BBV+DDV sweep with explicit grid dimensions and footprint capacity.
pub fn bbv_ddv_curve_cap(
    trace: &SystemTrace,
    n_bbv: usize,
    n_dds: usize,
    capacity: usize,
) -> CovCurve {
    replay_curve(trace, threshold_grid(n_bbv, n_dds), capacity, |_, recs| {
        bbv_signatures(recs, recs.iter().map(|r| r.dds).collect())
    })
}

/// `n` log-spaced, ungated thresholds in `[lo, hi]`.
fn line(n: usize, lo: f64, hi: f64) -> Vec<SweepPoint> {
    log_spaced(n, lo, hi).into_iter().map(|t| (t, None)).collect()
}

/// The BBV × DDS threshold grid, flattened in row-major (BBV-outer) order.
fn threshold_grid(n_bbv: usize, n_dds: usize) -> Vec<SweepPoint> {
    let dds = log_spaced(n_dds, 5e-3, 1.0);
    log_spaced(n_bbv, 1e-3, 2.0)
        .into_iter()
        .flat_map(|b| dds.iter().map(move |&d| (b, Some(d))))
        .collect()
}

/// Which DDS ablation to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdsAblation {
    /// Full DDS (F·D·C) — the paper's design.
    Full,
    /// No contention term (C ≡ 1): DDS = Σ F·D.
    NoContention,
    /// No distance term (D ≡ 1): DDS = Σ F·C.
    NoDistance,
    /// Frequency only: DDS = Σ F.
    FrequencyOnly,
}

/// Recompute a record's DDS under an ablated formula.
pub fn ablated_dds(rec: &IntervalRecord, dist_row: &[f64], which: DdsAblation) -> f64 {
    let ones_d: Vec<f64> = vec![1.0; rec.fvec.len()];
    let ones_c: Vec<u64> = vec![1; rec.fvec.len()];
    match which {
        DdsAblation::Full => DdvState::dds_of(&rec.fvec, dist_row, &rec.cvec),
        DdsAblation::NoContention => DdvState::dds_of(&rec.fvec, dist_row, &ones_c),
        DdsAblation::NoDistance => DdvState::dds_of(&rec.fvec, &ones_d, &rec.cvec),
        DdsAblation::FrequencyOnly => DdvState::dds_of(&rec.fvec, &ones_d, &ones_c),
    }
}

/// BBV+DDV sweep with an ablated DDS formula (experiments A1/A2 in
/// DESIGN.md): the table's DDS gate compares the ablated values.
pub fn ablation_curve(trace: &SystemTrace, which: DdsAblation) -> CovCurve {
    let ddv = DdvState::for_hypercube(trace.config.n_procs);
    let thresholds = threshold_grid(DDV_GRID_BBV, DDV_GRID_DDS);
    replay_curve(trace, thresholds, DEFAULT_FOOTPRINT_VECTORS, |p, recs| {
        let dds = recs
            .iter()
            .map(|r| ablated_dds(r, ddv.dist_row(p), which))
            .collect();
        bbv_signatures(recs, dds)
    })
}

/// The data half of a vector-DDV signature: distance-weighted access
/// frequencies, normalized so they carry `data_weight` total mass (all
/// zeros when the interval made no accesses).
fn vector_ddv_tail(fvec: &[u64], dist_row: &[f64], data_weight: f64) -> Vec<f64> {
    let mut tail = Vec::with_capacity(fvec.len());
    let mut total = 0.0;
    for (&f, &d) in fvec.iter().zip(dist_row) {
        let w = f as f64 * d;
        total += w;
        tail.push(w);
    }
    // Every term is >= 0, so total == 0 means the tail is already all zeros.
    if total > 0.0 {
        for w in tail.iter_mut() {
            *w = *w / total * data_weight;
        }
    }
    tail
}

/// Vector-DDV extension sweep (X8 in DESIGN.md): classification on the
/// concatenated BBV ‖ distance-weighted frequency vector, swept over the
/// combined Manhattan threshold at a fixed data weight.
///
/// The paper collapses `F·D·C` into the scalar DDS so the hardware compares
/// one number; keeping the vector preserves *which* homes were hot, at the
/// cost of `n` extra comparator lanes. `data_weight` scales the data half
/// relative to the code half (0 recovers plain BBV behaviour; the combined
/// vector then sums to `1 + data_weight`, so thresholds live in
/// `[0, 2(1 + data_weight)]`).
pub fn vector_ddv_curve(trace: &SystemTrace, data_weight: f64) -> CovCurve {
    let ddv = DdvState::for_hypercube(trace.config.n_procs);
    let thresholds = line(BBV_SWEEP_POINTS, 1e-3, 2.0 * (1.0 + data_weight));
    replay_curve(trace, thresholds, DEFAULT_FOOTPRINT_VECTORS, |p, recs| {
        let tails: Vec<Vec<f64>> = recs
            .iter()
            .map(|r| vector_ddv_tail(&r.fvec, ddv.dist_row(p), data_weight))
            .collect();
        // A stored entry is the materialized concatenation; the query is
        // compared in two segments, bit-identical to the table's pass over
        // the concatenated query.
        let sigs: Vec<Vec<f64>> = recs
            .iter()
            .zip(&tails)
            .map(|(r, t)| [r.bbv.as_slice(), t.as_slice()].concat())
            .collect();
        Signatures::ungated(DistanceTriangle::build(recs.len(), |i, j| {
            manhattan_concat(&recs[i].bbv, &tails[i], &sigs[j])
        }))
    })
}

/// Working-set-signature baseline sweep (Dhodapkar & Smith, experiment
/// A4): intervals match on the relative signature distance
/// `|A Δ B| / |A ∪ B|` of their instruction working sets.
pub fn working_set_curve(trace: &SystemTrace) -> CovCurve {
    let thresholds = line(BBV_SWEEP_POINTS, 1e-3, 1.0);
    replay_curve(trace, thresholds, DEFAULT_FOOTPRINT_VECTORS, |_, recs| {
        let sigs: Vec<WsSignature> = recs
            .iter()
            .map(|r| WsSignature::from_words(r.ws_sig.clone()))
            .collect();
        Signatures::ungated(DistanceTriangle::build(sigs.len(), |i, j| {
            sigs[i].rel_distance(&sigs[j])
        }))
    })
}

/// Branch-count baseline sweep (Balasubramonian et al., experiment A4):
/// the signature is the interval's committed branch count, and intervals
/// match on the relative difference of their counts. The cheapest and
/// least discriminating detector — different code with similar branch
/// density is confused.
pub fn branch_count_curve(trace: &SystemTrace) -> CovCurve {
    let thresholds = line(BBV_SWEEP_POINTS, 1e-4, 1.0);
    replay_curve(trace, thresholds, DEFAULT_FOOTPRINT_VECTORS, |_, recs| {
        let counts: Vec<f64> = recs.iter().map(|r| r.branches as f64).collect();
        Signatures::ungated(DistanceTriangle::build(counts.len(), |i, j| {
            relative_diff(counts[i], counts[j])
        }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::trace::capture;
    use dsm_workloads::App;

    #[test]
    fn log_spacing_properties() {
        let v = log_spaced(10, 1e-3, 2.0);
        assert_eq!(v.len(), 10);
        assert!((v[0] - 1e-3).abs() < 1e-12);
        assert!((v[9] - 2.0).abs() < 1e-9);
        assert!(v.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn bbv_sweep_spans_single_to_many_phases() {
        let t = capture(ExperimentConfig::test(App::Lu, 2));
        let c = bbv_curve_with(&t, 40);
        assert_eq!(c.points.len(), 40);
        let min_p = c.points.iter().map(|p| p.phases).fold(f64::MAX, f64::min);
        let max_p = c.max_phases();
        assert!(min_p <= 1.5, "loosest threshold ~1 phase, got {min_p}");
        assert!(max_p >= 4.0, "tightest threshold many phases, got {max_p}");
    }

    #[test]
    fn single_phase_end_has_same_cov_for_both_detectors() {
        // Paper: "When distance thresholds are high enough that the entire
        // program falls into a single phase, both detectors naturally
        // achieve the same CoV result."
        let t = capture(ExperimentConfig::test(App::Equake, 2));
        let bbv = bbv_curve_with(&t, 30);
        let ddv = bbv_ddv_curve_with(&t, 8, 4);
        let one = |c: &dsm_analysis::curve::CovCurve| {
            c.points
                .iter()
                .filter(|p| p.phases <= 1.01)
                .map(|p| p.cov)
                .next()
        };
        let (a, b) = (one(&bbv), one(&ddv));
        if let (Some(a), Some(b)) = (a, b) {
            assert!(
                (a - b).abs() < 1e-9,
                "single-phase CoV must agree: {a} vs {b}"
            );
        }
    }

    #[test]
    fn ablated_dds_formulas() {
        use dsm_phase::detector::IntervalRecord;
        let rec = IntervalRecord {
            proc: 0,
            index: 0,
            insns: 100,
            cycles: 100,
            bbv: vec![1.0],
            fvec: vec![2, 3],
            cvec: vec![10, 20],
            dds: 0.0,
            ws_sig: vec![0],
            branches: 1,
        };
        let dist = [1.0, 3.0];
        assert_eq!(
            ablated_dds(&rec, &dist, DdsAblation::Full),
            2.0 * 10.0 + 3.0 * 3.0 * 20.0
        );
        assert_eq!(
            ablated_dds(&rec, &dist, DdsAblation::NoContention),
            2.0 + 9.0
        );
        assert_eq!(
            ablated_dds(&rec, &dist, DdsAblation::NoDistance),
            20.0 + 60.0
        );
        assert_eq!(ablated_dds(&rec, &dist, DdsAblation::FrequencyOnly), 5.0);
    }

    #[test]
    fn baseline_sweeps_produce_points() {
        let t = capture(ExperimentConfig::test(App::Art, 2));
        let ws = working_set_curve(&t);
        let bc = branch_count_curve(&t);
        assert!(!ws.is_empty());
        assert!(!bc.is_empty());
    }
}
