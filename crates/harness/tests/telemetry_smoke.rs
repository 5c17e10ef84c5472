//! Feature-on telemetry smoke: one instrumented capture per workload at 2
//! processors produces a valid Chrome trace with real spans, the JSONL
//! metrics dump is byte-identical across two deterministic runs, and the
//! committed `results/telemetry` artefacts are what an export writes today.
//!
//! Compiled only with `--features telemetry`; the CI `telemetry-on` job
//! runs it.
#![cfg(feature = "telemetry")]

use dsm_harness::json::{parse, Json};
use dsm_harness::telemetry::{capture_with_telemetry, export_run, metrics_jsonl};
use dsm_harness::ExperimentConfig;
use dsm_workloads::App;

#[test]
fn every_workload_produces_a_valid_chrome_trace_at_2p() {
    let dir = std::env::temp_dir().join(format!("dsm-telem-smoke-{}", std::process::id()));
    for app in App::ALL {
        let config = ExperimentConfig::test(app, 2);
        let cap = capture_with_telemetry(config);
        assert!(cap.snapshot.enabled, "{app:?}: telemetry must be on");
        assert!(
            cap.snapshot.recorded_spans() > 0,
            "{app:?}: expected spans from an instrumented run"
        );

        let paths = export_run(&dir, &config.label(), &cap.snapshot).expect("export");
        let trace = std::fs::read_to_string(&paths[0]).expect("read trace");
        let doc = parse(&trace).expect("chrome trace must parse as JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        let n_x = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .count();
        assert_eq!(n_x as u64, cap.snapshot.recorded_spans(), "{app:?}");
        // 2n coherence/interval tracks per node, each with its metadata.
        let n_meta = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .count();
        assert_eq!(n_meta, cap.snapshot.tracks.len(), "{app:?}");
        let other = doc.get("otherData").expect("otherData");
        assert_eq!(other.get("enabled"), Some(&Json::Bool(true)));
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn metrics_dump_is_byte_identical_across_runs() {
    let config = ExperimentConfig::test(App::Lu, 2);
    let a = capture_with_telemetry(config);
    let b = capture_with_telemetry(config);
    assert_eq!(
        metrics_jsonl(&a.snapshot.metrics),
        metrics_jsonl(&b.snapshot.metrics),
        "deterministic runs must dump byte-identical metrics"
    );
    assert_eq!(
        dsm_telemetry::chrome::export(&a.snapshot),
        dsm_telemetry::chrome::export(&b.snapshot),
        "deterministic runs must export byte-identical traces"
    );
    // The dump mirrors the machine statistics the run reported.
    let dump = metrics_jsonl(&a.snapshot.metrics);
    let l2: u64 = a.trace.stats.procs.iter().map(|p| p.l2_misses).sum();
    let line = dump
        .lines()
        .find(|l| l.contains("\"sim/procs/l2_misses\""))
        .expect("l2 miss counter in dump");
    let v = parse(line).unwrap();
    assert_eq!(v.get("value").unwrap().as_f64(), Some(l2 as f64));
}

#[test]
fn committed_telemetry_artefacts_match_a_fresh_export() {
    let config = ExperimentConfig::test(App::Lu, 2);
    let cap = capture_with_telemetry(config);
    let dir = std::env::temp_dir().join(format!("dsm-telem-committed-{}", std::process::id()));
    let paths = export_run(&dir, &config.label(), &cap.snapshot).expect("export");
    let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/telemetry");
    for fresh in &paths {
        let name = fresh.file_name().expect("artefact file name");
        let want = std::fs::read(committed.join(name)).expect("read committed artefact");
        let got = std::fs::read(fresh).expect("read fresh artefact");
        assert!(
            got == want,
            "results/telemetry/{} is stale: regenerate it with \
             `cargo run --release --features telemetry --example telemetry_trace`",
            name.to_string_lossy()
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}
