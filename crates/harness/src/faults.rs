//! Fault-sweep experiment: phase-detection robustness under injected
//! faults.
//!
//! For each fault rate the sweep re-runs a workload with the simulator's
//! deterministic fault layer enabled (message drops with retry/backoff,
//! duplicates NACKed at the home, latency spikes, transient node
//! slowdowns), classifies the captured intervals with the paper's BBV+DDV
//! detector at fixed thresholds, and reports how much the identifier CoV of
//! CPI degrades relative to the fault-free *golden* run of the identical
//! workload. Two invariants are checked on every point:
//!
//! * **conservation** — `directory.reads + writes == Σ l2_misses`: no
//!   coherence transaction is lost to a drop or double-committed by a
//!   duplicate;
//! * **termination** — the run completes (the retry escalation path bounds
//!   every delivery), and the finish cycle is reported so livelock would
//!   surface as a runaway slowdown factor.

use dsm_analysis::cov::PhaseGroups;
use dsm_phase::detector::{DetectorMode, Thresholds};
use dsm_phase::{ClassifierBank, DEFAULT_FOOTPRINT_VECTORS};
use dsm_sim::config::FaultPlan;
use dsm_workloads::App;

use crate::experiment::ExperimentConfig;
use crate::json::Json;
use crate::trace::{capture, capture_with_faults, SystemTrace};

/// Thresholds the sweep classifies at (mid-range values from the paper's
/// operating region; the sweep compares like against like, so the exact
/// point matters less than holding it fixed across fault rates).
pub const SWEEP_THRESHOLDS: Thresholds = Thresholds { bbv: 0.1, dds: 0.1 };

/// One fault rate's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPoint {
    /// Per-message fault rate (probability of drop; duplicates/spikes are
    /// scaled from it by [`FaultPlan::mixed`]).
    pub rate: f64,
    /// Mean per-processor identifier CoV of CPI at [`SWEEP_THRESHOLDS`].
    pub cov: f64,
    /// `cov - golden.cov`: positive when faults blur phase boundaries.
    pub cov_degradation: f64,
    /// Mean phases detected per processor.
    pub phases: f64,
    /// Finish cycle relative to the golden run (1.0 = no slowdown).
    pub slowdown: f64,
    /// Conservation invariant: held on every point or the sweep panics.
    pub conserved: bool,
    /// Fault-layer counters for the report.
    pub drops: u64,
    pub duplicates: u64,
    pub forced_deliveries: u64,
    pub nacks: u64,
}

/// A whole sweep: the golden point (rate 0.0) plus one point per rate.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweep {
    pub app: App,
    pub n_procs: usize,
    pub seed: u64,
    pub golden_cov: f64,
    pub golden_finish_cycle: u64,
    pub points: Vec<FaultPoint>,
}

/// Mean per-processor identifier CoV and phase count of a trace classified
/// with the given detector `mode` at `thresholds`.
pub fn classified_cov(
    trace: &SystemTrace,
    mode: DetectorMode,
    thresholds: Thresholds,
) -> (f64, f64) {
    let mut bank =
        ClassifierBank::new(trace.records.len(), mode, thresholds, DEFAULT_FOOTPRINT_VECTORS);
    let mut groups = PhaseGroups::default();
    let mut covs = Vec::new();
    let mut phases = Vec::new();
    for (p, recs) in trace.records.iter().enumerate() {
        if recs.is_empty() {
            continue;
        }
        let pairs: Vec<(u32, f64)> =
            bank.classify_records(p, recs).map(|c| (c.phase_id, c.cpi)).collect();
        let (cov, n_phases) = groups.cov_and_phases(&pairs);
        covs.push(cov);
        phases.push(n_phases as f64);
    }
    let n = covs.len().max(1) as f64;
    (covs.iter().sum::<f64>() / n, phases.iter().sum::<f64>() / n)
}

/// Run the sweep for one workload over the given fault rates.
pub fn fault_sweep(app: App, n_procs: usize, seed: u64, rates: &[f64]) -> FaultSweep {
    let config = ExperimentConfig::test(app, n_procs);
    let golden = capture(config);
    assert!(
        golden.stats.coherence_transactions_conserved(),
        "golden run must conserve transactions"
    );
    let (golden_cov, _) = classified_cov(&golden, DetectorMode::BbvDdv, SWEEP_THRESHOLDS);

    let points = rates
        .iter()
        .map(|&rate| {
            let trace = capture_with_faults(config, FaultPlan::mixed(seed, rate));
            let stats = &trace.stats;
            let conserved = stats.coherence_transactions_conserved();
            assert!(
                conserved,
                "{} {}P rate {rate}: transactions not conserved \
                 (reads {} + writes {} != misses)",
                app.name(),
                n_procs,
                stats.directory.reads,
                stats.directory.writes,
            );
            let (cov, phases) = classified_cov(&trace, DetectorMode::BbvDdv, SWEEP_THRESHOLDS);
            FaultPoint {
                rate,
                cov,
                cov_degradation: cov - golden_cov,
                phases,
                slowdown: if golden.stats.finish_cycle > 0 {
                    stats.finish_cycle as f64 / golden.stats.finish_cycle as f64
                } else {
                    1.0
                },
                conserved,
                drops: stats.faults.drops,
                duplicates: stats.faults.duplicates,
                forced_deliveries: stats.faults.forced_deliveries,
                nacks: stats.directory.nacks,
            }
        })
        .collect();

    FaultSweep {
        app,
        n_procs,
        seed,
        golden_cov,
        golden_finish_cycle: golden.stats.finish_cycle,
        points,
    }
}

/// Default rates swept by the `faults` binary.
pub const DEFAULT_RATES: [f64; 4] = [0.001, 0.005, 0.01, 0.05];

impl FaultSweep {
    /// JSON artefact (schema documented in EXPERIMENTS.md).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("app", self.app.name())
            .field("n_procs", self.n_procs)
            .field("seed", self.seed)
            .field("thresholds", Json::obj()
                .field("bbv", SWEEP_THRESHOLDS.bbv)
                .field("dds", SWEEP_THRESHOLDS.dds))
            .field("golden_cov", self.golden_cov)
            .field("golden_finish_cycle", self.golden_finish_cycle)
            .field(
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .field("rate", p.rate)
                                .field("cov", p.cov)
                                .field("cov_degradation", p.cov_degradation)
                                .field("phases", p.phases)
                                .field("slowdown", p.slowdown)
                                .field("conserved", p.conserved)
                                .field("drops", p.drops)
                                .field("duplicates", p.duplicates)
                                .field("forced_deliveries", p.forced_deliveries)
                                .field("nacks", p.nacks)
                        })
                        .collect(),
                ),
            )
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} {}P seed {} — golden CoV {:.4}, finish {} cycles\n\
             {:>8} {:>8} {:>10} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7}\n",
            self.app.name(),
            self.n_procs,
            self.seed,
            self.golden_cov,
            self.golden_finish_cycle,
            "rate",
            "CoV",
            "ΔCoV",
            "phases",
            "slowdown",
            "drops",
            "dups",
            "forced",
            "nacks",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>8.3} {:>8.4} {:>+10.4} {:>7.1} {:>8.3}x {:>7} {:>7} {:>7} {:>7}\n",
                p.rate,
                p.cov,
                p.cov_degradation,
                p.phases,
                p.slowdown,
                p.drops,
                p.duplicates,
                p.forced_deliveries,
                p.nacks,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_rate_zero_matches_plain_capture() {
        let config = ExperimentConfig::test(App::Lu, 2);
        let plain = capture(config);
        let with_none = capture_with_faults(config, FaultPlan::none());
        assert_eq!(plain.stats, with_none.stats);
        assert_eq!(plain.records, with_none.records);
    }

    #[test]
    fn sweep_conserves_and_reports_degradation() {
        let s = fault_sweep(App::Lu, 4, 7, &[0.01, 0.05]);
        assert_eq!(s.points.len(), 2);
        for p in &s.points {
            assert!(p.conserved);
            assert!(p.slowdown >= 1.0, "faults cannot speed the system up: {}", p.slowdown);
            assert!(p.drops > 0, "1% drop rate must actually drop messages");
        }
        // More faults, more injected latency.
        assert!(s.points[1].slowdown >= s.points[0].slowdown);
    }

    #[test]
    fn sweep_json_schema_is_stable() {
        let s = fault_sweep(App::Fmm, 2, 1, &[0.01]);
        let j = s.to_json();
        let text = j.to_string();
        let back = crate::json::parse(&text).expect("self-parse");
        assert_eq!(back.get("app").and_then(Json::as_str), Some("FMM"));
        let pts = back.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(pts.len(), 1);
        for key in [
            "rate",
            "cov",
            "cov_degradation",
            "phases",
            "slowdown",
            "conserved",
            "drops",
            "duplicates",
            "forced_deliveries",
            "nacks",
        ] {
            assert!(pts[0].get(key).is_some(), "missing {key}");
        }
    }
}
