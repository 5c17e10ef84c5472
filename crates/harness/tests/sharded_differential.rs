//! Differential suite for the sharded parallel core (ISSUE 7): sharded
//! execution at every shard count must be **bit-identical** to the serial
//! core — same machine statistics, same interval records, same classified
//! phases — on all five workloads at the paper's 16 processors, with and
//! without an injected fault plan.
//!
//! The observer worker-thread count is taken from `DSM_DIFF_THREADS`
//! (default 2) so CI can run the same suite at several thread counts;
//! [`dsm_harness::trace::capture_sharded_with`] bypasses the host-core
//! budget guard on purpose — identity must hold even oversubscribed.

use dsm_harness::experiment::ExperimentConfig;
use dsm_harness::trace::{capture_sharded_with, capture_with_faults, SystemTrace};
use dsm_phase::detector::{DetectorMode, Thresholds};
use dsm_phase::{ClassifierBank, DEFAULT_FOOTPRINT_VECTORS};
use dsm_sim::config::FaultPlan;
use dsm_workloads::App;

const N_PROCS: usize = 16;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, N_PROCS];

fn diff_threads() -> usize {
    std::env::var("DSM_DIFF_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// Phase ids per processor under the paper's combined BBV+DDV detector.
fn classify(trace: &SystemTrace) -> Vec<Vec<u32>> {
    let mut bank = ClassifierBank::new(
        trace.records.len(),
        DetectorMode::BbvDdv,
        Thresholds { bbv: 0.1, dds: 0.1 },
        DEFAULT_FOOTPRINT_VECTORS,
    );
    trace
        .records
        .iter()
        .enumerate()
        .map(|(p, r)| bank.classify_records(p, r).map(|c| c.phase_id).collect())
        .collect()
}

fn assert_matches_serial(app: App, plan: FaultPlan, plan_name: &str) {
    let cfg = ExperimentConfig::test(app, N_PROCS);
    let serial = capture_with_faults(cfg, plan);
    let serial_phases = classify(&serial);
    assert!(
        serial.min_intervals() > 0,
        "{app:?}/{plan_name}: serial run captured no intervals"
    );
    let threads = diff_threads();
    for shards in SHARD_COUNTS {
        let sharded = capture_sharded_with(cfg, plan, shards, threads);
        assert_eq!(
            sharded.trace.stats, serial.stats,
            "{app:?}/{plan_name}: stats diverged at {shards} shards"
        );
        assert_eq!(
            sharded.trace.records, serial.records,
            "{app:?}/{plan_name}: interval records diverged at {shards} shards"
        );
        assert_eq!(
            sharded.trace.ddv_vectors_exchanged, serial.ddv_vectors_exchanged,
            "{app:?}/{plan_name}: DDV traffic diverged at {shards} shards"
        );
        assert_eq!(
            classify(&sharded.trace),
            serial_phases,
            "{app:?}/{plan_name}: classified phases diverged at {shards} shards"
        );
        assert_eq!(sharded.shards, shards.clamp(1, N_PROCS));
        if shards > 1 {
            assert!(
                sharded.windows.windows > 0,
                "{app:?}/{plan_name}: no conservative windows closed at {shards} shards"
            );
            assert!(sharded.windows.lookahead >= 1);
        }
    }
}

/// A fault mix that exercises drops, duplicates, latency spikes, and
/// sustained slowdowns (same family the fault-equivalence suite uses).
fn mixed_plan() -> FaultPlan {
    FaultPlan::mixed(0x5AD7_ED01, 0.02)
}

#[test]
fn lu_sharded_matches_serial() {
    assert_matches_serial(App::Lu, FaultPlan::none(), "fault-free");
    assert_matches_serial(App::Lu, mixed_plan(), "mixed-faults");
}

#[test]
fn fmm_sharded_matches_serial() {
    assert_matches_serial(App::Fmm, FaultPlan::none(), "fault-free");
    assert_matches_serial(App::Fmm, mixed_plan(), "mixed-faults");
}

#[test]
fn art_sharded_matches_serial() {
    assert_matches_serial(App::Art, FaultPlan::none(), "fault-free");
    assert_matches_serial(App::Art, mixed_plan(), "mixed-faults");
}

#[test]
fn equake_sharded_matches_serial() {
    assert_matches_serial(App::Equake, FaultPlan::none(), "fault-free");
    assert_matches_serial(App::Equake, mixed_plan(), "mixed-faults");
}

#[test]
fn ocean_sharded_matches_serial() {
    assert_matches_serial(App::Ocean, FaultPlan::none(), "fault-free");
    assert_matches_serial(App::Ocean, mixed_plan(), "mixed-faults");
}

/// The five-workload extended set is exactly what the per-app tests cover
/// (a sixth app would silently escape the differential net otherwise).
#[test]
fn differential_matrix_covers_the_extended_set() {
    assert_eq!(
        App::EXTENDED,
        [App::Lu, App::Fmm, App::Art, App::Equake, App::Ocean]
    );
}
