//! DDS ablations (DESIGN.md experiments A1-A3): how much of the BBV+DDV
//! gain comes from each term of `DDS = Σ F·D·C`, plus a DDS-only detector
//! (no BBV gate).
//!
//! Usage: `ablation [--scale test|scaled|paper] [--jobs N] [--cold]
//! [--no-cache]` (default: scaled).

use dsm_harness::figures::{config_at, variant_table};
use dsm_harness::sweep::{ablation_curve, bbv_curve, bbv_ddv_curve, vector_ddv_curve, DdsAblation};
use dsm_harness::{parallel, report};
use dsm_workloads::{App, Scale};

const USAGE: &str = "ablation [--scale test|scaled|paper] [--jobs N] [--cold] [--no-cache]";

fn main() {
    let scale = report::flag_or_exit("--scale", Scale::Scaled, USAGE);
    let jobs = parallel::init_from_args(USAGE);
    eprintln!("ablation: running with {jobs} worker(s)");
    let n_procs = 32usize;

    // Fill memory + disk caches for every app up front, in parallel.
    let configs: Vec<_> = App::ALL
        .iter()
        .map(|&app| config_at(app, n_procs, scale))
        .collect();
    let (_, run_report) = parallel::capture_matrix("ablation", &configs);

    let (out, rows) = variant_table(
        "DDS ablations at 32P (identifier CoV at fixed phase budgets; lower is better)\n\n",
        30,
        n_procs,
        scale,
        |trace| {
            vec![
                ("BBV only", bbv_curve(trace)),
                ("BBV+DDV (full F*D*C)", bbv_ddv_curve(trace)),
                (
                    "BBV+DDS[C=1] (no contention)",
                    ablation_curve(trace, DdsAblation::NoContention),
                ),
                ("BBV+DDS[D=1] (no distance)", ablation_curve(trace, DdsAblation::NoDistance)),
                ("BBV+DDS[F only]", ablation_curve(trace, DdsAblation::FrequencyOnly)),
                ("BBV||F*D vector (extension)", vector_ddv_curve(trace, 1.0)),
            ]
        },
    );
    println!("{out}");
    report::announce(&report::write_text("ablation.txt", &out).expect("write"));
    report::announce(
        &report::write_csv("ablation.csv", &["app", "variant", "phases", "cov"], &rows)
            .expect("write"),
    );
    report::announce(
        &report::write_text("ablation-run.json", &run_report.to_json()).expect("write run report"),
    );
    eprintln!("{}", run_report.summary());
}
