//! The batched event loop (`System::run`) must be observationally
//! identical to the one-event-at-a-time reference (`System::run_unbatched`)
//! on the real workloads: same final machine statistics and the same
//! per-processor interval-record streams (BBV, DDV, contention vector and
//! DDS included), for every app in the bench matrix.

use dsm_phase_detection::phase::detector::{DetectorGeometry, TraceCollector};
use dsm_phase_detection::prelude::*;
use dsm_phase_detection::sim::network::Network;

fn collect(
    app: App,
    n_procs: usize,
    batched: bool,
) -> (dsm_phase_detection::sim::SystemStats, TraceCollector) {
    let cfg = ExperimentConfig::test(app, n_procs);
    let stream = make_stream(app, n_procs, Scale::Test);
    let sys_cfg = cfg.system_config();
    let dist = Network::new(sys_cfg.network, n_procs).distance_matrix();
    let collector = TraceCollector::new(n_procs, dist, DetectorGeometry::default());
    let system = System::new(sys_cfg, stream, collector);
    if batched {
        system.run()
    } else {
        system.run_unbatched()
    }
}

#[test]
fn batched_and_unbatched_runs_are_identical_on_real_workloads() {
    for app in App::ALL {
        for n in [2usize, 8] {
            let (stats_b, coll_b) = collect(app, n, true);
            let (stats_s, coll_s) = collect(app, n, false);
            let (coll_b, coll_s) = (coll_b.into_records(), coll_s.into_records());
            assert_eq!(
                stats_b,
                stats_s,
                "{} x{n}: batched stats diverge from reference",
                app.name()
            );
            assert_eq!(
                coll_b,
                coll_s,
                "{} x{n}: batched interval records diverge from reference",
                app.name()
            );
            assert!(
                coll_b.iter().all(|r| !r.is_empty()),
                "{} x{n}: every processor must log intervals",
                app.name()
            );
        }
    }
}
