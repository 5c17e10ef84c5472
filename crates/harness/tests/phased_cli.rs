//! `phased` command line: the `--smoke` profile runs a fleet with its
//! documented defaults, and a bad value is a usage error with exit status 2
//! before any work starts, never a panic.

use std::process::{Command, Output};

use dsm_harness::json::{parse, Json};

fn run_phased(args: &[&str], results_dir: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_phased"))
        .args(args)
        .env("DSM_RESULTS_DIR", results_dir)
        .output()
        .expect("spawn phased")
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
fn bad_flag_values_exit_2_with_usage() {
    let dir = scratch_dir("bad");
    for args in [&["--tenants", "x"][..], &["--smoke", "--seed"][..]] {
        let out = run_phased(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "phased {args:?}: stderr {stderr}");
        assert!(stderr.contains("usage:"), "phased {args:?}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "phased {args:?}: stderr {stderr}");
    }
    assert!(!dir.exists(), "a usage error must not write artefacts");
}
