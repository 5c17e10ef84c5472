//! Online/offline classification equivalence (DESIGN.md §2).
//!
//! The CoV-curve sweeps classify captured traces offline; the paper's
//! hardware classifies online. These tests drive the *same deterministic
//! simulation* once with the trace collector and once with the online
//! detector and assert the phase streams agree exactly, for both detector
//! modes and several applications.

use dsm_phase_detection::prelude::*;
use dsm_phase_detection::sim::network::Network;

fn check_equivalence(app: App, n_procs: usize, mode: DetectorMode, thr: Thresholds) {
    let config = ExperimentConfig::test(app, n_procs);
    let sys_cfg = config.system_config();

    // Pass 1: capture features.
    let trace = capture(config);

    // Pass 2: classify online during an identical simulation.
    let net = Network::new(sys_cfg.network, n_procs);
    let online = OnlineDetector::new(
        n_procs,
        net.distance_matrix(),
        mode,
        thr,
        DetectorGeometry::default(),
    );
    let stream = make_stream(app, n_procs, Scale::Test);
    let (_, online) = System::new(sys_cfg, stream, online).run();

    let mut bank = ClassifierBank::new(n_procs, mode, thr, 32);
    for proc in 0..n_procs {
        let offline: Vec<u32> =
            bank.classify_records(proc, &trace.records[proc]).map(|c| c.phase_id).collect();
        let online_ids: Vec<u32> =
            online.classified[proc].iter().map(|c| c.phase_id).collect();
        assert_eq!(
            offline, online_ids,
            "{} proc {proc}: online and offline classification must agree",
            app.name()
        );
        // CPIs observed online match the captured records.
        for (c, r) in online.classified[proc].iter().zip(&trace.records[proc]) {
            assert!((c.cpi - r.cpi()).abs() < 1e-12);
        }
    }
}

#[test]
fn bbv_mode_matches_offline() {
    for app in [App::Lu, App::Equake] {
        check_equivalence(app, 4, DetectorMode::Bbv, Thresholds::bbv_only(0.3));
    }
}

#[test]
fn bbv_ddv_mode_matches_offline() {
    for app in [App::Lu, App::Art, App::Fmm] {
        check_equivalence(
            app,
            4,
            DetectorMode::BbvDdv,
            Thresholds { bbv: 0.3, dds: 0.2 },
        );
    }
}

#[test]
fn equivalence_holds_across_thresholds() {
    for thr in [0.05, 0.5, 1.5] {
        check_equivalence(
            App::Equake,
            2,
            DetectorMode::BbvDdv,
            Thresholds { bbv: thr, dds: thr / 2.0 },
        );
    }
}
