//! Sensitivity studies (DESIGN.md extensions): detector hardware budget,
//! sampling-interval length, and data-placement policy, reported as
//! identifier CoV at a 15-phase budget for both detectors.
//!
//! Usage: `sensitivity [--scale test|scaled|paper] [--jobs N] [--cold]
//! [--no-cache]` (default: scaled). Variants are captured through the trace
//! store like every figure's, keyed by their full machine configuration and
//! detector geometry: one simulation per distinct machine, none on a warm
//! rerun. `--cold` clears the store first, `--no-cache` disables it, and
//! `--jobs` fans the simulations and threshold sweeps out over the worker
//! pool.

use dsm_harness::sensitivity::{
    bank_sweep, geometry_sweep, interval_sweep, network_model_sweep, placement_sweep,
    SensitivityPoint,
};
use dsm_harness::{parallel, report};
use dsm_workloads::{App, Scale};

const USAGE: &str = "sensitivity [--scale test|scaled|paper] [--jobs N] [--cold] [--no-cache]";

fn fmt(x: Option<f64>) -> String {
    x.map(|v| format!("{v:.3}"))
        .unwrap_or_else(|| "  n/a".into())
}

fn render(title: &str, pts: &[SensitivityPoint], out: &mut String, rows: &mut Vec<Vec<String>>) {
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "  {:<36} {:>8} {:>8} {:>8} {:>8} {:>10}\n",
        "variant", "BBV@15", "DDV@15", "CPI", "rmiss", "ints/proc"
    ));
    for p in pts {
        out.push_str(&format!(
            "  {:<36} {:>8} {:>8} {:>8.2} {:>8.2} {:>10}\n",
            p.label,
            fmt(p.bbv_at_15),
            fmt(p.ddv_at_15),
            p.mean_cpi,
            p.remote_miss_fraction,
            p.intervals_per_proc
        ));
        rows.push(vec![
            title.to_string(),
            p.label.clone(),
            fmt(p.bbv_at_15),
            fmt(p.ddv_at_15),
            format!("{:.3}", p.mean_cpi),
            format!("{:.3}", p.remote_miss_fraction),
            p.intervals_per_proc.to_string(),
        ]);
    }
    out.push('\n');
}

fn main() {
    let scale = report::flag_or_exit("--scale", Scale::Scaled, USAGE);
    let jobs = parallel::init_from_args(USAGE);
    eprintln!("sensitivity: running with {jobs} worker(s)");
    let mut out = String::from("Sensitivity studies (32P unless noted)\n\n");
    let mut rows: Vec<Vec<String>> = Vec::new();

    let geo = geometry_sweep(
        App::Lu,
        32,
        scale,
        &[(8, 8), (16, 16), (32, 32), (64, 64), (32, 8), (8, 32)],
    );
    render(
        "Detector geometry (LU): accumulator entries x footprint vectors",
        &geo,
        &mut out,
        &mut rows,
    );

    let iv = interval_sweep(
        App::Lu,
        32,
        scale,
        &[32_000, 64_000, 128_000, 256_000, 512_000],
    );
    render("Sampling-interval base (LU)", &iv, &mut out, &mut rows);

    for app in [App::Lu, App::Art] {
        let pl = placement_sweep(app, 32, scale);
        render(
            &format!("Data placement ({})", app.name()),
            &pl,
            &mut out,
            &mut rows,
        );
    }

    let nm = network_model_sweep(App::Lu, 32, scale);
    render("Network contention model (LU)", &nm, &mut out, &mut rows);

    let bk = bank_sweep(App::Art, 32, scale, &[1, 2, 4, 8]);
    render("SDRAM banks per controller (Art)", &bk, &mut out, &mut rows);

    let (mem, disk, simulated) = parallel::cache_counters();
    eprintln!("sensitivity: cache {mem} mem + {disk} disk hits / {simulated} simulated");
    println!("{out}");
    report::announce(&report::write_text("sensitivity.txt", &out).expect("write"));
    report::announce(
        &report::write_csv(
            "sensitivity.csv",
            &[
                "study",
                "variant",
                "bbv_at_15",
                "ddv_at_15",
                "cpi",
                "rmiss",
                "ints_per_proc",
            ],
            &rows,
        )
        .expect("write"),
    );
}
