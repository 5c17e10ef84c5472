//! Regenerate the paper's Figure 2 (baseline BBV CoV curves at 2/8/32
//! processors for LU, FMM, Art, Equake).
//!
//! Usage: `fig2 [--scale test|scaled|paper] [--jobs N] [--cold] [--no-cache]
//! [--telemetry-out <dir>]`
//! (default: scaled; jobs defaults to the hardware parallelism; traces are
//! cached under `.dsm-trace-cache/` unless `--no-cache`; `--telemetry-out`
//! additionally writes one Chrome-trace / metrics / summary triple per
//! workload at 2 processors plus the engine's cache counters).

use std::path::PathBuf;

use dsm_harness::figures::{figure2_with_report, headline_lu};
use dsm_harness::{parallel, report, telemetry};
use dsm_workloads::Scale;

const USAGE: &str =
    "fig2 [--scale test|scaled|paper] [--jobs N] [--cold] [--no-cache] [--telemetry-out <dir>]";

fn main() {
    let scale = report::flag_or_exit("--scale", Scale::Scaled, USAGE);
    let telemetry_out: Option<PathBuf> = report::opt_flag_or_exit("--telemetry-out", USAGE);
    let jobs = parallel::init_from_args(USAGE);
    eprintln!("fig2: running with {jobs} worker(s)");
    let t0 = std::time::Instant::now();
    let (fig, run_report) = figure2_with_report(scale);
    let ascii = fig.render_ascii();
    println!("{ascii}");

    let lu = headline_lu(scale);
    let mut headline = String::from("LU headline (paper SIII-A):\n");
    for (p, cov) in &lu.cov_at_7_phases {
        headline.push_str(&format!(
            "  {p:>2}P: CoV at 7 phases = {}\n",
            cov.map(|c| format!("{:.1} %", c * 100.0))
                .unwrap_or_else(|| "n/a".into())
        ));
    }
    for (p, phases) in &lu.phases_for_20pct {
        headline.push_str(&format!(
            "  {p:>2}P: phases for 20 % CoV = {}\n",
            phases
                .map(|x| format!("{x:.0}"))
                .unwrap_or_else(|| ">25 / n/a".into())
        ));
    }
    println!("{headline}");

    let (h, rows) = fig.csv();
    report::announce(&report::write_csv("fig2.csv", &h, &rows).expect("write csv"));
    report::announce(
        &report::write_text("fig2.txt", &format!("{ascii}\n{headline}")).expect("write txt"),
    );
    report::announce(&report::write_json("fig2.json", &fig.to_json()).expect("write json"));
    report::announce(
        &report::write_json("fig2-run.json", &run_report.json_value())
            .expect("write run report"),
    );
    eprintln!("{}", run_report.summary());

    if let Some(dir) = telemetry_out {
        let paths =
            telemetry::export_workloads(&dir, scale, 2).expect("write telemetry artifacts");
        for p in &paths {
            report::announce(p);
        }
        let mut reg = dsm_telemetry::MetricsRegistry::new();
        run_report.publish(&mut reg);
        report::announce(
            &telemetry::export_registry(&dir, "fig2-run", &reg).expect("write run metrics"),
        );
    }
    eprintln!("fig2 done in {:?}", t0.elapsed());
}
