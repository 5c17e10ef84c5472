//! Differential suite for the threshold sweeps' index-replay kernel.
//!
//! The sweeps classify by replaying a footprint table over interval indices
//! against a precomputed distance triangle ([`IndexReplay`]). This file
//! keeps the direct classifiers the replay replaced — the footprint table
//! driven with raw, ablated or vector signatures, and the working-set and
//! branch-count detectors — as oracles, and checks that the replay returns
//! the same phase-id vectors on seeded random records (ties, threshold 0,
//! the loosest thresholds, capacities 1, 2 and 32), that the ungated
//! sweep's skipped replays ([`IndexReplay::sweep`]) equal the replays they
//! stand for, and that every sweep curve is `==`-equal to the same curve
//! computed through the oracles.

use dsm_analysis::cov::{identifier_cov, phase_count};
use dsm_analysis::curve::{CovCurve, CurvePoint};
use dsm_harness::experiment::ExperimentConfig;
use dsm_harness::parallel::Machine;
use dsm_harness::sweep::{
    ablated_dds, ablation_curve, bbv_curve, bbv_curve_cap, bbv_ddv_curve, bbv_ddv_curve_cap,
    branch_count_curve, log_spaced, vector_ddv_curve, working_set_curve, DdsAblation,
    BBV_SWEEP_POINTS, DDV_GRID_BBV, DDV_GRID_DDS,
};
use dsm_harness::trace::{capture, SystemTrace};
use dsm_phase::ddv::DdvState;
use dsm_phase::detector::{DetectorMode, IntervalRecord, Thresholds};
use dsm_phase::distance::{manhattan_concat, relative_diff};
use dsm_phase::working_set::WsSignature;
use dsm_phase::{
    ClassifierBank, DistanceTriangle, FootprintTable, IndexReplay, DEFAULT_FOOTPRINT_VECTORS,
};
use dsm_sim::config::SystemConfig;
use dsm_sim::network::Network;
use dsm_sim::util::splitmix64;
use dsm_workloads::App;

// ---------------------------------------------------------------------------
// Oracles: the direct classifiers
// ---------------------------------------------------------------------------

/// DDV state over the paper's `n`-node hypercube (`1 + hops` distances).
fn hypercube(n: usize) -> DdvState {
    DdvState::new(n, Network::new(SystemConfig::paper(n).network, n).distance_matrix())
}

/// BBV+DDV classification with an externally recomputed DDS per interval
/// (the ablations: `C ≡ 1`, `D ≡ 1`, frequency only).
fn classify_proc_with_dds(
    records: &[IntervalRecord],
    dds: &[f64],
    thresholds: Thresholds,
    footprint_vectors: usize,
) -> Vec<u32> {
    assert_eq!(records.len(), dds.len());
    let mut table = FootprintTable::new(footprint_vectors);
    records
        .iter()
        .zip(dds)
        .map(|(r, &d)| {
            table
                .classify(&r.bbv, d, thresholds.bbv, Some(thresholds.dds))
                .phase_id
        })
        .collect()
}

/// Vector-DDV classification: the table compares `bbv ++ tail`, the tail
/// being the distance-weighted access frequencies normalized to
/// `data_weight` total mass.
fn classify_proc_vector_ddv(
    records: &[IntervalRecord],
    dist_row: &[f64],
    bbv_threshold: f64,
    data_weight: f64,
    footprint_vectors: usize,
) -> Vec<u32> {
    let mut table = FootprintTable::new(footprint_vectors);
    records
        .iter()
        .map(|r| {
            let mut sig = r.bbv.clone();
            let mut total = 0.0;
            for (&f, &d) in r.fvec.iter().zip(dist_row) {
                let w = f as f64 * d;
                total += w;
                sig.push(w);
            }
            if total > 0.0 {
                for w in &mut sig[r.bbv.len()..] {
                    *w = *w / total * data_weight;
                }
            }
            table.classify(&sig, 0.0, bbv_threshold, None).phase_id
        })
        .collect()
}

/// Working-set phase detector (Dhodapkar & Smith): a table of previously
/// seen signatures matched by relative signature distance, LRU replaced.
struct WorkingSetDetector {
    table: Vec<(WsSignature, u32, u64)>, // (signature, phase_id, last_used)
    capacity: usize,
    clock: u64,
    next_phase_id: u32,
}

impl WorkingSetDetector {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self { table: Vec::with_capacity(capacity), capacity, clock: 0, next_phase_id: 0 }
    }

    fn classify(&mut self, sig: &WsSignature, threshold: f64) -> u32 {
        self.clock += 1;
        let mut best: Option<(usize, f64)> = None;
        for (i, (s, _, _)) in self.table.iter().enumerate() {
            let d = sig.rel_distance(s);
            if d < threshold && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        if let Some((i, _)) = best {
            self.table[i].2 = self.clock;
            return self.table[i].1;
        }
        let id = self.next_phase_id;
        self.next_phase_id += 1;
        let entry = (sig.clone(), id, self.clock);
        if self.table.len() < self.capacity {
            self.table.push(entry);
        } else {
            let lru = (0..self.table.len()).min_by_key(|&i| self.table[i].2).unwrap();
            self.table[lru] = entry;
        }
        id
    }
}

/// Branch-count phase detector (Balasubramonian et al.): a table of scalar
/// branch counts matched by relative difference, LRU replaced.
struct BranchCountDetector {
    table: Vec<(f64, u32, u64)>, // (branch count, phase_id, last_used)
    capacity: usize,
    clock: u64,
    next_phase_id: u32,
}

impl BranchCountDetector {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self { table: Vec::with_capacity(capacity), capacity, clock: 0, next_phase_id: 0 }
    }

    fn classify(&mut self, branches: u64, threshold: f64) -> u32 {
        self.clock += 1;
        let b = branches as f64;
        let mut best: Option<(usize, f64)> = None;
        for (i, (s, _, _)) in self.table.iter().enumerate() {
            let d = relative_diff(b, *s);
            if d < threshold && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        if let Some((i, _)) = best {
            self.table[i].2 = self.clock;
            return self.table[i].1;
        }
        let id = self.next_phase_id;
        self.next_phase_id += 1;
        let entry = (b, id, self.clock);
        if self.table.len() < self.capacity {
            self.table.push(entry);
        } else {
            let lru = (0..self.table.len()).min_by_key(|&i| self.table[i].2).unwrap();
            self.table[lru] = entry;
        }
        id
    }
}

fn ws_ids(recs: &[IntervalRecord], thr: f64, cap: usize) -> Vec<u32> {
    let mut det = WorkingSetDetector::new(cap);
    recs.iter()
        .map(|r| det.classify(&WsSignature::from_words(r.ws_sig.clone()), thr))
        .collect()
}

fn branch_ids(recs: &[IntervalRecord], thr: f64, cap: usize) -> Vec<u32> {
    let mut det = BranchCountDetector::new(cap);
    recs.iter().map(|r| det.classify(r.branches, thr)).collect()
}

fn bbv_ids(recs: &[IntervalRecord], mode: DetectorMode, t: Thresholds, cap: usize) -> Vec<u32> {
    let mut bank = ClassifierBank::new(1, mode, t, cap);
    bank.classify_records(0, recs).map(|c| c.phase_id).collect()
}

// ---------------------------------------------------------------------------
// Replay side: the triangles the sweeps build
// ---------------------------------------------------------------------------

fn replay(tri: &DistanceTriangle, cap: usize, thr: f64, gate: Option<(&[f64], f64)>) -> Vec<u32> {
    let mut ids = Vec::new();
    IndexReplay::new(cap).run(
        tri,
        thr,
        |i, j| gate.is_none_or(|(dds, t)| relative_diff(dds[i], dds[j]) < t),
        &mut ids,
    );
    ids
}

fn bbv_triangle(recs: &[IntervalRecord]) -> DistanceTriangle {
    DistanceTriangle::build(recs.len(), |i, j| manhattan_concat(&recs[i].bbv, &[], &recs[j].bbv))
}

fn vector_triangle(recs: &[IntervalRecord], dist_row: &[f64], weight: f64) -> DistanceTriangle {
    let tails: Vec<Vec<f64>> = recs
        .iter()
        .map(|r| {
            let w: Vec<f64> = r.fvec.iter().zip(dist_row).map(|(&f, &d)| f as f64 * d).collect();
            let total: f64 = w.iter().fold(0.0, |a, b| a + b);
            if total > 0.0 {
                w.iter().map(|x| x / total * weight).collect()
            } else {
                w
            }
        })
        .collect();
    let sigs: Vec<Vec<f64>> = recs.iter().zip(&tails).map(|(r, t)| [r.bbv.as_slice(), t.as_slice()].concat()).collect();
    DistanceTriangle::build(recs.len(), |i, j| manhattan_concat(&recs[i].bbv, &tails[i], &sigs[j]))
}

fn ws_triangle(recs: &[IntervalRecord]) -> DistanceTriangle {
    let sigs: Vec<WsSignature> = recs.iter().map(|r| WsSignature::from_words(r.ws_sig.clone())).collect();
    DistanceTriangle::build(recs.len(), |i, j| sigs[i].rel_distance(&sigs[j]))
}

fn branch_triangle(recs: &[IntervalRecord]) -> DistanceTriangle {
    DistanceTriangle::build(recs.len(), |i, j| {
        relative_diff(recs[i].branches as f64, recs[j].branches as f64)
    })
}

// ---------------------------------------------------------------------------
// Seeded random records
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `n` records for processor `proc` of an `n_procs` machine. Signatures
/// are drawn from small pools so exact duplicates (distance ties, zero
/// distances, equal DDS) are frequent; a third are perturbed copies.
fn random_records(seed: u64, proc: usize, n_procs: usize, n: usize) -> Vec<IntervalRecord> {
    let mut rng = Rng(seed ^ ((proc as u64) << 32));
    let normalized = |v: Vec<f64>| {
        let s: f64 = v.iter().sum();
        v.into_iter().map(|x| x / s).collect::<Vec<f64>>()
    };
    let bbv_pool: Vec<Vec<f64>> = (0..5)
        .map(|_| normalized((0..8).map(|_| 1.0 + rng.below(9) as f64).collect()))
        .collect();
    let dds_pool = [0.0, 10.0, 11.0, 50.0, 1000.0];
    let ws_pool: Vec<Vec<u64>> = (0..4)
        .map(|k| if k == 0 { vec![0; 16] } else { (0..16).map(|_| rng.next() & rng.next()).collect() })
        .collect();
    let branch_pool = [0u64, 100, 105, 5_000, 5_001];
    (0..n)
        .map(|k| {
            let mut bbv = bbv_pool[rng.below(5) as usize].clone();
            if rng.below(3) == 0 {
                let at = rng.below(8) as usize;
                bbv[at] += rng.below(100) as f64 / 400.0;
                bbv = normalized(bbv);
            }
            let fvec: Vec<u64> = (0..n_procs).map(|_| rng.below(4) * rng.below(3)).collect();
            let cvec: Vec<u64> = (0..n_procs).map(|_| 1 + rng.below(5)).collect();
            let dds = if rng.below(4) == 0 {
                rng.below(2000) as f64 / 3.0
            } else {
                dds_pool[rng.below(5) as usize]
            };
            IntervalRecord {
                proc,
                index: k as u64,
                insns: 1000,
                cycles: 1000 + rng.below(4000),
                bbv,
                fvec,
                cvec,
                dds,
                ws_sig: ws_pool[rng.below(4) as usize].clone(),
                branches: branch_pool[rng.below(5) as usize] + rng.below(2) * rng.below(50),
            }
        })
        .collect()
}

const CAPACITIES: [usize; 3] = [1, 2, 32];
/// Threshold 0 (nothing matches), the sweep ranges, and past the loosest.
const THRESHOLDS: [f64; 9] = [0.0, 1e-4, 1e-3, 0.02, 0.1, 0.3, 1.0, 2.0, 1e9];
const DDS_THRESHOLDS: [f64; 5] = [0.0, 5e-3, 0.1, 0.5, 1.0];

#[test]
fn replay_matches_the_direct_classifiers_on_random_records() {
    let n_procs = 4;
    let dist = hypercube(n_procs);
    for seed in 1..=6u64 {
        for proc in 0..n_procs {
            let recs = random_records(seed, proc, n_procs, 70);
            let bbv = bbv_triangle(&recs);
            let ws = ws_triangle(&recs);
            let br = branch_triangle(&recs);
            let raw_dds: Vec<f64> = recs.iter().map(|r| r.dds).collect();
            let ablated: Vec<f64> = recs
                .iter()
                .map(|r| ablated_dds(r, dist.dist_row(proc), DdsAblation::NoDistance))
                .collect();
            let vectors: Vec<(f64, DistanceTriangle)> = [0.0, 1.0]
                .iter()
                .map(|&w| (w, vector_triangle(&recs, dist.dist_row(proc), w)))
                .collect();
            for cap in CAPACITIES {
                for thr in THRESHOLDS {
                    let ctx = format!("seed {seed} proc {proc} cap {cap} thr {thr}");
                    assert_eq!(
                        replay(&bbv, cap, thr, None),
                        bbv_ids(&recs, DetectorMode::Bbv, Thresholds::bbv_only(thr), cap),
                        "BBV: {ctx}"
                    );
                    assert_eq!(replay(&ws, cap, thr, None), ws_ids(&recs, thr, cap), "WS: {ctx}");
                    assert_eq!(
                        replay(&br, cap, thr, None),
                        branch_ids(&recs, thr, cap),
                        "branch: {ctx}"
                    );
                    for (w, tri) in &vectors {
                        assert_eq!(
                            replay(tri, cap, thr, None),
                            classify_proc_vector_ddv(&recs, dist.dist_row(proc), thr, *w, cap),
                            "vector w={w}: {ctx}"
                        );
                    }
                    for dds_thr in DDS_THRESHOLDS {
                        let t = Thresholds { bbv: thr, dds: dds_thr };
                        assert_eq!(
                            replay(&bbv, cap, thr, Some((&raw_dds, dds_thr))),
                            bbv_ids(&recs, DetectorMode::BbvDdv, t, cap),
                            "BBV+DDV dds {dds_thr}: {ctx}"
                        );
                        assert_eq!(
                            replay(&bbv, cap, thr, Some((&ablated, dds_thr))),
                            classify_proc_with_dds(&recs, &ablated, t, cap),
                            "ablated dds {dds_thr}: {ctx}"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The skipping 1-D sweep
// ---------------------------------------------------------------------------

/// `IndexReplay::sweep` against one replay per threshold: the same ids at
/// every point. Returns how many replays the sweep ran.
fn assert_sweep_equals_runs(
    tri: &DistanceTriangle,
    cap: usize,
    thresholds: &[f64],
    ctx: &str,
) -> usize {
    let mut table = IndexReplay::new(cap);
    let mut replays: Vec<Vec<u32>> = Vec::new();
    let picked = table.sweep(tri, thresholds, |ids| {
        replays.push(ids.to_vec());
        replays.len() - 1
    });
    for (&t, k) in thresholds.iter().zip(picked) {
        let mut ids = Vec::new();
        let next = table.run_ungated(tri, t, &mut ids);
        assert!(next >= t, "{ctx}: next {next} below threshold {t}");
        assert_eq!(replays[k], ids, "{ctx}: threshold {t}");
        assert_eq!(replay(tri, cap, t, None), ids, "{ctx}: run_ungated vs run at {t}");
    }
    replays.len()
}

#[test]
fn skipping_sweep_equals_per_threshold_replays() {
    let line = log_spaced(BBV_SWEEP_POINTS, 1e-3, 2.0);
    let dense = log_spaced(20 * BBV_SWEEP_POINTS, 1e-4, 2.5);
    for seed in 1..=4u64 {
        for proc in 0..2 {
            let recs = random_records(seed, proc, 4, 80);
            // Every distance moved onto the sweep threshold nearest to it,
            // so replays land exactly on `[t, next]` boundaries.
            let on_line = |tri: DistanceTriangle| {
                let nearest = |d: f64| {
                    *line.iter().min_by(|a, b| (*a - d).abs().total_cmp(&(*b - d).abs())).unwrap()
                };
                let n = tri.len();
                DistanceTriangle::build(n, |i, j| nearest(tri.row(i)[j]))
            };
            let triangles = [
                ("bbv", bbv_triangle(&recs)),
                ("bbv on line", on_line(bbv_triangle(&recs))),
                ("ws on line", on_line(ws_triangle(&recs))),
                ("branch", branch_triangle(&recs)),
                ("branch on line", on_line(branch_triangle(&recs))),
            ];
            for (what, tri) in &triangles {
                for cap in CAPACITIES {
                    let ctx = format!("{what} seed {seed} proc {proc} cap {cap}");
                    assert_sweep_equals_runs(tri, cap, &line, &ctx);
                    let replays = assert_sweep_equals_runs(tri, cap, &dense, &ctx);
                    let points = dense.len();
                    assert!(replays < points / 4, "{ctx}: {replays} replays of {points}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Whole curves
// ---------------------------------------------------------------------------

/// A curve computed through an oracle classifier, aggregated per point as
/// the mean over non-empty processors (in processor order) of each
/// processor's identifier CoV and phase count.
fn oracle_curve(
    trace: &SystemTrace,
    points: Vec<(f64, Option<f64>)>,
    classify: impl Fn(usize, &[IntervalRecord], f64, Option<f64>) -> Vec<u32>,
) -> CovCurve {
    let points = points
        .into_iter()
        .map(|(thr, dds_thr)| {
            let mut covs = Vec::new();
            let mut phase_counts = Vec::new();
            for (p, recs) in trace.records.iter().enumerate() {
                if recs.is_empty() {
                    continue;
                }
                let ids = classify(p, recs, thr, dds_thr);
                let pairs: Vec<(u32, f64)> = ids.iter().zip(recs).map(|(&id, r)| (id, r.cpi())).collect();
                covs.push(identifier_cov(&pairs));
                phase_counts.push(phase_count(&pairs) as f64);
            }
            let n = covs.len().max(1) as f64;
            CurvePoint {
                phases: phase_counts.iter().sum::<f64>() / n,
                cov: covs.iter().sum::<f64>() / n,
                bbv_threshold: thr,
                dds_threshold: dds_thr,
            }
        })
        .collect();
    CovCurve::new(points)
}

fn line(n: usize, lo: f64, hi: f64) -> Vec<(f64, Option<f64>)> {
    log_spaced(n, lo, hi).into_iter().map(|t| (t, None)).collect()
}

fn grid(n_bbv: usize, n_dds: usize) -> Vec<(f64, Option<f64>)> {
    let dds = log_spaced(n_dds, 5e-3, 1.0);
    log_spaced(n_bbv, 1e-3, 2.0)
        .into_iter()
        .flat_map(|b| dds.iter().map(move |&d| (b, Some(d))))
        .collect()
}

/// Every sweep family on `trace` must equal its oracle curve exactly.
fn assert_curves_match_oracles(trace: &SystemTrace, what: &str) {
    let t = trace;
    let dist = DdvState::new(t.config.n_procs, Machine::default_for(t.config).distance_matrix());
    let cap = DEFAULT_FOOTPRINT_VECTORS;
    let bbv = |c| {
        move |_: usize, r: &[IntervalRecord], b: f64, _: Option<f64>| {
            bbv_ids(r, DetectorMode::Bbv, Thresholds::bbv_only(b), c)
        }
    };
    let ddv = |c| {
        move |_: usize, r: &[IntervalRecord], b: f64, d: Option<f64>| {
            bbv_ids(r, DetectorMode::BbvDdv, Thresholds { bbv: b, dds: d.unwrap() }, c)
        }
    };
    let full_line = line(BBV_SWEEP_POINTS, 1e-3, 2.0);
    let full_grid = grid(DDV_GRID_BBV, DDV_GRID_DDS);
    assert_eq!(bbv_curve(t), oracle_curve(t, full_line.clone(), bbv(cap)), "{what}: bbv");
    assert_eq!(bbv_ddv_curve(t), oracle_curve(t, full_grid.clone(), ddv(cap)), "{what}: grid");
    for c in [1, 2] {
        assert_eq!(bbv_curve_cap(t, 60, c), oracle_curve(t, line(60, 1e-3, 2.0), bbv(c)), "{what}: bbv cap {c}");
        assert_eq!(
            bbv_ddv_curve_cap(t, 12, 8, c),
            oracle_curve(t, grid(12, 8), ddv(c)),
            "{what}: grid cap {c}"
        );
    }
    for which in [
        DdsAblation::Full,
        DdsAblation::NoContention,
        DdsAblation::NoDistance,
        DdsAblation::FrequencyOnly,
    ] {
        let oracle = oracle_curve(t, full_grid.clone(), |p, r, b, d| {
            let dds: Vec<f64> = r.iter().map(|x| ablated_dds(x, dist.dist_row(p), which)).collect();
            classify_proc_with_dds(r, &dds, Thresholds { bbv: b, dds: d.unwrap() }, cap)
        });
        assert_eq!(ablation_curve(t, which), oracle, "{what}: ablation {which:?}");
    }
    for w in [0.0, 1.0] {
        let oracle = oracle_curve(t, line(BBV_SWEEP_POINTS, 1e-3, 2.0 * (1.0 + w)), |p, r, b, _| {
            classify_proc_vector_ddv(r, dist.dist_row(p), b, w, cap)
        });
        assert_eq!(vector_ddv_curve(t, w), oracle, "{what}: vector-ddv w={w}");
    }
    let ws = oracle_curve(t, line(BBV_SWEEP_POINTS, 1e-3, 1.0), |_, r, b, _| ws_ids(r, b, cap));
    assert_eq!(working_set_curve(t), ws, "{what}: working-set");
    let br = oracle_curve(t, line(BBV_SWEEP_POINTS, 1e-4, 1.0), |_, r, b, _| branch_ids(r, b, cap));
    assert_eq!(branch_count_curve(t), br, "{what}: branch-count");
}

#[test]
fn every_curve_equals_its_oracle_on_all_four_apps() {
    // The default test interval, and an 8x finer one whose longer streams
    // fill and evict the 32-entry tables.
    for app in App::ALL {
        for interval_base in [16_000, 2_000] {
            let config = ExperimentConfig {
                interval_base,
                ..ExperimentConfig::test(app, 4)
            };
            let trace = capture(config);
            assert!(trace.min_intervals() > 0, "{app:?}: no intervals captured");
            assert_curves_match_oracles(&trace, &format!("{} base {interval_base}", app.name()));
        }
    }
}

#[test]
fn every_curve_equals_its_oracle_on_random_records() {
    // A captured trace's machine and configuration with seeded random
    // records, one processor left empty (the sweeps skip it).
    let mut trace = capture(ExperimentConfig::test(App::Lu, 4));
    trace.records = (0..4)
        .map(|p| if p == 2 { Vec::new() } else { random_records(77, p, 4, 50) })
        .collect();
    assert_curves_match_oracles(&trace, "random");
}

// ---------------------------------------------------------------------------
// The oracles' own behaviour (the detectors' semantics)
// ---------------------------------------------------------------------------

fn record(bbv: &[f64], fvec: &[u64], dds: f64) -> IntervalRecord {
    IntervalRecord {
        proc: 0,
        index: 0,
        insns: 500,
        cycles: 1000,
        bbv: bbv.to_vec(),
        fvec: fvec.to_vec(),
        cvec: vec![1; fvec.len()],
        dds,
        ws_sig: vec![0],
        branches: 10,
    }
}

#[test]
fn vector_ddv_splits_by_home_mix_and_zero_weight_recovers_bbv() {
    // Same code, three intervals: home 0, home 0, home 3.
    let recs = vec![
        record(&[1.0], &[3, 0, 0, 0], 0.0),
        record(&[1.0], &[3, 0, 0, 0], 0.0),
        record(&[1.0], &[0, 0, 0, 3], 0.0),
    ];
    let dist = hypercube(4);
    let ids = classify_proc_vector_ddv(&recs, dist.dist_row(0), 0.5, 1.0, 32);
    assert_eq!(ids[0], ids[1]);
    assert_ne!(ids[0], ids[2], "home mix must split same-code intervals");
    let v0 = classify_proc_vector_ddv(&recs, dist.dist_row(0), 0.5, 0.0, 32);
    assert_eq!(v0, bbv_ids(&recs, DetectorMode::Bbv, Thresholds::bbv_only(0.5), 32));
}

#[test]
fn external_dds_supports_ablations() {
    let recs = vec![record(&[1.0], &[1, 0], 0.0), record(&[1.0], &[0, 1], 0.0)];
    let t = Thresholds { bbv: 0.5, dds: 0.1 };
    // With DDS forced equal, identical code collapses to one phase.
    let ids = classify_proc_with_dds(&recs, &[5.0, 5.0], t, 32);
    assert_eq!(ids[0], ids[1]);
    // With DDS forced apart, the same intervals split.
    let ids = classify_proc_with_dds(&recs, &[5.0, 500.0], t, 32);
    assert_ne!(ids[0], ids[1]);
}

fn working_set(blocks: impl IntoIterator<Item = u32>) -> WsSignature {
    let mut s = WsSignature::new(1024);
    for bb in blocks {
        s.insert(bb);
    }
    s
}

#[test]
fn working_set_detector_groups_similar_working_sets() {
    let mut det = WorkingSetDetector::new(8);
    let s1 = working_set(0..20);
    let s2 = working_set((0..20).chain([99])); // one extra block
    let p1 = det.classify(&s1, 0.5);
    assert_eq!(p1, det.classify(&s2, 0.5));
    let p3 = det.classify(&working_set(1000..1020), 0.5);
    assert_ne!(p1, p3);
    assert_eq!(det.next_phase_id, 2);
}

#[test]
fn working_set_lru_eviction_assigns_fresh_ids() {
    let (a, b, c) = (working_set([1]), working_set([2]), working_set([3]));
    let mut det = WorkingSetDetector::new(2);
    assert_eq!(det.classify(&a, 0.5), 0);
    assert_eq!(det.classify(&b, 0.5), 1);
    assert_eq!(det.classify(&c, 0.5), 2); // evicts a (LRU)
    assert_eq!(det.classify(&c, 0.5), 2, "c must be resident after eviction");
    assert_eq!(det.classify(&a, 0.5), 3, "a was evicted, so it is a new phase");
}

#[test]
fn branch_count_detector_semantics() {
    let mut d = BranchCountDetector::new(8);
    // Similar counts share a phase; distant counts split.
    assert_eq!(d.classify(10_000, 0.1), d.classify(10_500, 0.1));
    assert_ne!(d.classify(10_000, 0.1), d.classify(20_000, 0.1));
    // Nearest count wins: 1_100 is within 0.9 of both, but closer to 1_000.
    let mut d = BranchCountDetector::new(8);
    let low = d.classify(1_000, 0.9);
    d.classify(100_000, 0.9);
    assert_eq!(d.classify(1_100, 0.9), low);
    // The baseline's weakness: different code, same density, one phase.
    let mut d = BranchCountDetector::new(8);
    assert_eq!(d.classify(5_000, 0.05), d.classify(5_001, 0.05));
    // LRU eviction when full.
    let mut d = BranchCountDetector::new(2);
    d.classify(100, 0.01);
    d.classify(10_000, 0.01);
    d.classify(1_000_000, 0.01); // evicts 100
    assert_eq!(d.classify(100, 0.01), 3, "100 was evicted and gets a fresh id");
}
