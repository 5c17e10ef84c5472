//! Phase-guided sampled simulation: per workload, select representative
//! intervals from the phase signatures, checkpoint the machine at their
//! boundaries, replay them in parallel, and reconstruct whole-run CPI and
//! CoV-of-CPI — then gate on the sampling quality.
//!
//! Usage: `simpoint [--ci] [--jobs N]`.
//!
//! Default mode runs every workload at 16 processors and enforces the
//! headline quality bars: reconstructed CPI within 5 % of the full run and
//! at least a 5x reduction in simulated intervals. `--ci` runs the quick
//! smoke (LU at 2 processors) and gates on CoV-of-CPI absolute error < 0.05.
//! Artefacts land under `results/simpoint/` (schemas in EXPERIMENTS.md) and
//! are byte-identical across reruns.

use dsm_harness::json::Json;
use dsm_harness::simpoint::{sampled_run, write_artifacts, SimpointResult};
use dsm_harness::{parallel, report, ExperimentConfig};
use dsm_sim::config::FaultPlan;
use dsm_workloads::{App, Scale};

const USAGE: &str = "simpoint [--ci] [--jobs N]";

fn row(r: &SimpointResult) -> String {
    format!(
        "{:<22} {:>5} {:>3} {:>9.4} {:>9.4} {:>8.4} {:>8.4} {:>7.1}",
        r.config.label(),
        r.selection.n_intervals,
        r.selection.k,
        r.full_cpi,
        r.sampled.cpi,
        r.cpi_rel_error,
        r.cov_abs_error,
        r.reduction,
    )
}

fn main() {
    parallel::jobs_from_args(USAGE);
    let ci = std::env::args().any(|a| a == "--ci");

    let configs: Vec<ExperimentConfig> = if ci {
        // Scaled LU at 2 processors: small enough for a CI smoke, but with
        // enough global intervals that the CoV reconstruction is meaningful
        // (the Test scale yields a handful of intervals and a budget of 1).
        vec![ExperimentConfig {
            app: App::Lu,
            n_procs: 2,
            scale: Scale::Scaled,
            interval_base: 32_000,
        }]
    } else {
        App::EXTENDED
            .iter()
            .map(|&app| ExperimentConfig {
                app,
                n_procs: 16,
                scale: Scale::Scaled,
                interval_base: 32_000,
            })
            .collect()
    };

    println!(
        "{:<22} {:>5} {:>3} {:>9} {:>9} {:>8} {:>8} {:>7}",
        "config", "ints", "k", "full-cpi", "est-cpi", "cpi-err", "cov-err", "reduce"
    );

    let mut rows = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for config in configs {
        let r = sampled_run(config, FaultPlan::none());
        println!("{}", row(&r));
        let (a, b) = write_artifacts(&r).expect("write simpoint artefacts");
        report::announce(&a);
        report::announce(&b);

        if ci {
            // CI smoke gate: the sampled CoV-of-CPI tracks the full run.
            if r.cov_abs_error >= 0.05 {
                failures.push(format!(
                    "{}: CoV-of-CPI absolute error {:.4} >= 0.05",
                    r.config.label(),
                    r.cov_abs_error
                ));
            }
        } else {
            if r.cpi_rel_error > 0.05 {
                failures.push(format!(
                    "{}: reconstructed CPI off by {:.2}% (> 5%)",
                    r.config.label(),
                    100.0 * r.cpi_rel_error
                ));
            }
            if r.reduction < 5.0 {
                failures.push(format!(
                    "{}: only {:.1}x simulated-interval reduction (< 5x)",
                    r.config.label(),
                    r.reduction
                ));
            }
        }

        rows.push(
            Json::obj()
                .field("config", r.config.label())
                .field("n_intervals", r.selection.n_intervals as u64)
                .field("k", r.selection.k as u64)
                .field("full_cpi", r.full_cpi)
                .field("reconstructed_cpi", r.sampled.cpi)
                .field("cpi_rel_error", r.cpi_rel_error)
                .field("cov_abs_error", r.cov_abs_error)
                .field("reduction", r.reduction),
        );
    }

    let summary = Json::obj()
        .field("schema", "dsm-simpoint/v1")
        .field("experiment", "simpoint_summary")
        .field("mode", if ci { "ci" } else { "full" })
        .field("runs", Json::Arr(rows));
    report::announce(&report::write_json("simpoint/summary.json", &summary).expect("write summary"));

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        std::process::exit(1);
    }
    println!("all sampling gates passed");
}
