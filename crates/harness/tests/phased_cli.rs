//! Experiment-binary command lines: the `phased --smoke` profile runs a
//! fleet with its documented defaults, `topologies --smoke <layout>` (the CI
//! topology matrix's shape) runs, and a bad value or an unknown flag given
//! to any binary is a usage error with exit status 2 before any work
//! starts, never a panic.

use std::process::{Command, Output};

use dsm_harness::json::{parse, Json};

fn run(bin: &str, args: &[&str], results_dir: &std::path::Path) -> Output {
    Command::new(bin)
        .args(args)
        .env("DSM_RESULTS_DIR", results_dir)
        .env_remove("DSM_JOBS")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn run_phased(args: &[&str], results_dir: &std::path::Path) -> Output {
    run(env!("CARGO_BIN_EXE_phased"), args, results_dir)
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dsm-phased-{name}-{}", std::process::id()))
}

#[test]
fn smoke_fleet_uses_smoke_defaults_and_classifies_everything() {
    let dir = scratch_dir("smoke");
    let out = run_phased(&["--smoke", "--tenants", "8"], &dir);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(dir.join("serve.json")).expect("serve.json written");
    let _ = std::fs::remove_dir_all(&dir);
    let json = parse(&text).expect("serve.json parses");
    let field = |path: &[&str]| {
        path.iter()
            .try_fold(&json, |j, k| j.get(k))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("serve.json lacks {path:?}"))
    };
    assert_eq!(field(&["scenario", "tenants"]), 8.0);
    assert_eq!(field(&["scenario", "concurrent"]), 8.0);
    assert_eq!(field(&["scenario", "trace_tenants"]), 0.0);
    assert_eq!(field(&["scenario", "intervals_per_tenant"]), 24.0);
    assert_eq!(field(&["scenario", "churn_every"]), 0.0);
    assert_eq!(field(&["scenario", "seed"]), 42.0);
    assert_eq!(field(&["classified"]), 8.0 * 24.0);
}

#[test]
fn topologies_smoke_runs_one_layout() {
    let dir = scratch_dir("topo-smoke");
    let out = run(env!("CARGO_BIN_EXE_topologies"), &["--smoke", "ring"], &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("smoke LU 2P on ring"));
}

#[test]
fn bad_flag_values_exit_2_with_usage() {
    let dir = scratch_dir("bad");
    let cases: [(&str, &[&str]); 20] = [
        (env!("CARGO_BIN_EXE_phased"), &["--tenants", "x"]),
        (env!("CARGO_BIN_EXE_phased"), &["--smoke", "--seed"]),
        (env!("CARGO_BIN_EXE_topologies"), &["--smoke"]),
        (env!("CARGO_BIN_EXE_topologies"), &["--smoke", "hexagon"]),
        (env!("CARGO_BIN_EXE_topologies"), &["x"]),
        (env!("CARGO_BIN_EXE_topologies"), &["6"]),
        (env!("CARGO_BIN_EXE_adapt"), &["x"]),
        (env!("CARGO_BIN_EXE_adapt"), &["3"]),
        (env!("CARGO_BIN_EXE_baselines"), &["--procs", "3"]),
        (env!("CARGO_BIN_EXE_faults"), &["--checkpoint-every"]),
        (env!("CARGO_BIN_EXE_faults"), &["--checkpoint-every", "0"]),
        (env!("CARGO_BIN_EXE_faults"), &["x"]),
        (env!("CARGO_BIN_EXE_fig2"), &["--jobs", "x"]),
        (env!("CARGO_BIN_EXE_fig2"), &["-j"]),
        (env!("CARGO_BIN_EXE_fig2"), &["--telemetry-out"]),
        // Flags the binary's usage does not list.
        (env!("CARGO_BIN_EXE_tables"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_overhead"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_diagnose"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_phased"), &["--smoke", "--tenant", "8"]),
        (env!("CARGO_BIN_EXE_fig2"), &["--scael", "paper"]),
    ];
    for (bin, args) in cases {
        let out = run(bin, args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let name = std::path::Path::new(bin).file_name().unwrap().to_string_lossy();
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: stderr {stderr}");
        assert!(stderr.contains("usage:"), "{name} {args:?}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{name} {args:?}: stderr {stderr}");
    }
    assert!(!dir.exists(), "a usage error must not write artefacts");
}
