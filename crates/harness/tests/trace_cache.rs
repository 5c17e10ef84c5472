//! The content-addressed trace cache and multi-lane capture.
//!
//! * `cache_key` of the default machine is pinned to literal strings, so
//!   existing `.dsm-trace-cache/` entries stay valid, and the key separates
//!   every machine and geometry field the sensitivity studies vary;
//! * one simulation observed through several detector geometries yields,
//!   lane for lane, the traces of separate one-geometry captures;
//! * variant machines never shadow the default machine in the memory cache
//!   or the disk store, and a rerun of the sensitivity studies against a
//!   warm store simulates nothing.

use std::path::PathBuf;
use std::sync::Mutex;

use dsm_harness::experiment::ExperimentConfig;
use dsm_harness::figures::config_at;
use dsm_harness::parallel::{
    cache_counters, cache_key, capture_machines, capture_matrix, set_trace_store_dir, Machine,
};
use dsm_harness::sensitivity::{
    bank_sweep, geometry_sweep, interval_sweep, network_model_sweep, placement_sweep,
    SensitivityPoint,
};
use dsm_harness::trace::{capture, capture_cached, clear_memory_cache};
use dsm_phase::detector::DetectorGeometry;
use dsm_sim::config::DistributionPolicy;
use dsm_sim::topology::TopologyKind;
use dsm_workloads::{App, Scale};

/// Serializes the tests that set the process-wide store directory and
/// read the process-wide cache counters.
static GLOBAL_CACHE: Mutex<()> = Mutex::new(());

fn geometry(bbv_entries: usize, footprint_vectors: usize, ws_bits: usize) -> DetectorGeometry {
    DetectorGeometry {
        bbv_entries,
        footprint_vectors,
        ws_bits,
    }
}

#[test]
fn default_cache_keys_match_recorded_strings() {
    let cases = [
        (
            ExperimentConfig::test(App::Lu, 2),
            "LU-2p-Test-16000-4bd2fc6f24d02509",
        ),
        (
            ExperimentConfig::test(App::Fmm, 4),
            "FMM-4p-Test-16000-d0d3a081d722d77e",
        ),
        (
            config_at(App::Lu, 32, Scale::Scaled),
            "LU-32p-Scaled-128000-6a1a87ef42a4c56f",
        ),
        (
            config_at(App::Art, 32, Scale::Scaled),
            "Art-32p-Scaled-128000-0c4a067e825b3211",
        ),
        (
            config_at(App::Ocean, 8, Scale::Paper),
            "Ocean-8p-Paper-3000000-666e28395d7cb308",
        ),
    ];
    for (config, want) in cases {
        assert_eq!(cache_key(&config), want, "{config:?}");
        assert_eq!(Machine::default_for(config).key(), want, "{config:?}");
    }
}

#[test]
fn keys_differ_for_every_machine_and_geometry_change() {
    let base = Machine::default_for(config_at(App::Lu, 32, Scale::Scaled));
    let mut variants = Vec::new();
    for policy in [
        DistributionPolicy::PageInterleave,
        DistributionPolicy::BlockInterleave,
    ] {
        let mut m = base.clone();
        m.system.distribution = policy;
        variants.push(m);
    }
    let mut m = base.clone();
    m.system.memory.banks = 4;
    variants.push(m);
    let mut m = base.clone();
    m.system.network.link_contention = true;
    variants.push(m);
    let mut m = base.clone();
    m.system.network.topology = TopologyKind::Torus2D;
    variants.push(m);
    variants.push(Machine::default_for(ExperimentConfig {
        interval_base: 32_000,
        ..base.config
    }));
    for g in [
        geometry(8, 32, 1024),
        geometry(32, 8, 1024),
        geometry(32, 32, 512),
    ] {
        variants.push(Machine {
            geometry: g,
            ..base.clone()
        });
    }
    let mut keys = vec![base.key()];
    keys.extend(variants.iter().map(Machine::key));
    for (i, a) in keys.iter().enumerate() {
        for b in &keys[i + 1..] {
            assert_ne!(a, b);
        }
    }
    // Geometry never changes the simulation; everything else does.
    for m in &variants {
        assert_eq!(
            m.simulation() == base,
            m.system == base.system && m.config == base.config,
            "{m:?}"
        );
    }
}

#[test]
fn multi_lane_capture_equals_separate_captures() {
    let geometries = [
        DetectorGeometry::default(),
        geometry(8, 8, 1024),
        geometry(64, 16, 1024),
        geometry(16, 32, 256),
    ];
    for app in App::EXTENDED {
        let config = ExperimentConfig::test(app, 4);
        let mut torus = config.system_config();
        torus.network.topology = TopologyKind::Torus2D;
        torus.network.link_contention = true;
        for sys_cfg in [config.system_config(), torus] {
            let machine = Machine { system: sys_cfg.clone(), ..Machine::default_for(config) };
            let lanes = machine.capture_lanes(&geometries);
            assert_eq!(lanes.len(), geometries.len());
            for (lane, &g) in lanes.iter().zip(&geometries) {
                let alone = Machine { geometry: g, ..machine.clone() }.capture();
                assert!(alone.min_intervals() > 0, "{app:?}: no intervals");
                assert!(
                    *lane == alone,
                    "{app:?} {:?} lane {g:?}",
                    sys_cfg.network.topology
                );
            }
        }
    }
}

/// A private store directory, removed on drop.
struct TempStore(PathBuf);

impl TempStore {
    fn enable(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dsm-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        set_trace_store_dir(Some(dir.clone()));
        clear_memory_cache();
        Self(dir)
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        set_trace_store_dir(None);
        clear_memory_cache();
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn variant_captures_never_stand_in_for_the_default_machine() {
    let _guard = GLOBAL_CACHE.lock().unwrap();
    let _store = TempStore::enable("cache-isolation");
    let config = ExperimentConfig::test(App::Lu, 4);
    let base = Machine::default_for(config);
    let mut variants = vec![
        Machine {
            geometry: geometry(8, 8, 1024),
            ..base.clone()
        },
        Machine {
            geometry: geometry(32, 32, 512),
            ..base.clone()
        },
    ];
    let mut m = base.clone();
    m.system.distribution = DistributionPolicy::PageInterleave;
    variants.push(m);
    let mut m = base.clone();
    m.system.memory.banks = 4;
    variants.push(m);
    let captured = capture_machines(&variants);
    // The variants really are different traces.
    let fresh = capture(config);
    for ((trace, _, _), m) in captured.iter().zip(&variants) {
        assert!(
            **trace != fresh,
            "{m:?} captured the default machine's trace"
        );
    }

    // Memory cache (`capture_cached`), then the disk store (`capture_matrix`
    // after the memory cache is dropped): both must give the default trace.
    assert!(*capture_cached(config) == fresh);
    clear_memory_cache();
    let (traces, report) = capture_matrix("isolation", &[config]);
    assert_eq!(
        report.misses(),
        1,
        "no stored variant may answer for the default machine"
    );
    assert!(*traces[0] == fresh);
    clear_memory_cache();
    let (traces, report) = capture_matrix("isolation", &[config]);
    assert_eq!(report.disk_hits(), 1);
    assert!(*traces[0] == fresh);
}

fn all_studies() -> Vec<Vec<SensitivityPoint>> {
    let scale = Scale::Test;
    vec![
        geometry_sweep(App::Lu, 4, scale, &[(8, 8), (32, 32), (64, 16)]),
        interval_sweep(App::Lu, 4, scale, &[8_000, 16_000, 32_000]),
        placement_sweep(App::Lu, 4, scale),
        placement_sweep(App::Art, 4, scale),
        network_model_sweep(App::Lu, 4, scale),
        bank_sweep(App::Art, 4, scale, &[1, 4]),
    ]
}

#[test]
fn sensitivity_rerun_against_a_warm_store_simulates_nothing() {
    let _guard = GLOBAL_CACHE.lock().unwrap();
    let _store = TempStore::enable("sensitivity-rerun");
    let (_, _, misses0) = cache_counters();
    let cold = all_studies();
    let (_, _, misses1) = cache_counters();
    // Every variant misses except those on a default machine already
    // stored by an earlier study: LU's explicit placement, 16k interval
    // base and memctrl-only network (stored by the 32x32 geometry lane),
    // and Art's one-bank point (stored by its explicit placement).
    assert_eq!(misses1 - misses0, 3 + 2 + 2 + 3 + 1 + 1, "cold run misses");
    clear_memory_cache();
    let warm = all_studies();
    let (_, _, misses2) = cache_counters();
    assert_eq!(misses2, misses1, "a warm rerun must not simulate");
    assert_eq!(warm, cold);
}
