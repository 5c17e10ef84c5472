//! Related-work baseline comparison (DESIGN.md experiment A4): BBV and
//! BBV+DDV against Dhodapkar–Smith working-set signatures and
//! Balasubramonian conditional branch counts, on the same captured traces.
//!
//! Usage: `baselines [--scale test|scaled|paper] [--procs N] [--jobs N]
//! [--cold] [--no-cache]`.

use dsm_harness::figures::{config_at, variant_table};
use dsm_harness::sweep::{bbv_curve, bbv_ddv_curve, branch_count_curve, working_set_curve};
use dsm_harness::{parallel, report};
use dsm_workloads::{App, Scale};

const USAGE: &str =
    "baselines [--scale test|scaled|paper] [--procs N] [--jobs N] [--cold] [--no-cache]";

fn main() {
    let scale = report::flag_or_exit("--scale", Scale::Scaled, USAGE);
    let n_procs = report::power_of_two_or_exit(report::flag_or_exit("--procs", 32, USAGE), USAGE);
    let jobs = parallel::init_from_args(USAGE);
    eprintln!("baselines: running with {jobs} worker(s)");

    // Fill memory + disk caches for every app up front, in parallel.
    let configs: Vec<_> = App::ALL
        .iter()
        .map(|&app| config_at(app, n_procs, scale))
        .collect();
    let (_, run_report) = parallel::capture_matrix("baselines", &configs);

    let (out, rows) = variant_table(
        &format!("Detector comparison at {n_procs}P (identifier CoV at fixed phase budgets)\n\n"),
        34,
        n_procs,
        scale,
        |trace| {
            vec![
                ("branch-count (Balasubramonian)", branch_count_curve(trace)),
                ("working-set sig (Dhodapkar-Smith)", working_set_curve(trace)),
                ("BBV (Sherwood)", bbv_curve(trace)),
                ("BBV+DDV (this paper)", bbv_ddv_curve(trace)),
            ]
        },
    );
    println!("{out}");
    report::announce(&report::write_text("baselines.txt", &out).expect("write"));
    report::announce(
        &report::write_csv(
            "baselines.csv",
            &["app", "detector", "phases", "cov"],
            &rows,
        )
        .expect("write"),
    );
    report::announce(
        &report::write_text("baselines-run.json", &run_report.to_json())
            .expect("write run report"),
    );
    eprintln!("{}", run_report.summary());
}
