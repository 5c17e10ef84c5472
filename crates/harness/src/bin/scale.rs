//! Scaling-curve sweep: single-run throughput at 16/64/128 processors,
//! serial reference core (all-to-one gather) vs the sharded parallel core
//! (conservative windows + O(n) aggregate gather along a binary reduction
//! tree), plus the window/steal counters and detector CoV of CPI at scale.
//!
//! Usage: `scale [--samples N] [--app NAME] [--jobs N]` (default 3 samples,
//! Ocean — the interval-dense workload where the per-interval gather is the
//! documented hot spot). Artefacts: `scale.txt` (table) and `scale.json`
//! (schema in EXPERIMENTS.md). Every point is asserted bit-identical
//! between the two arms before any number is reported.

use dsm_analysis::Table;
use dsm_harness::json::Json;
use dsm_harness::scale::{scale_sweep, ScalePoint};
use dsm_harness::{parallel, report};
use dsm_workloads::App;

fn render(points: &[ScalePoint]) -> String {
    let mut t = Table::new(vec![
        "procs", "shards", "events", "ref ev/s", "sharded ev/s", "speedup", "windows",
        "stalls", "steals", "rounds", "cov cpi",
    ])
    .with_title("one-run scaling: serial reference vs sharded core (events/sec)");
    for p in points {
        t.row(vec![
            p.n_procs.to_string(),
            p.shards.to_string(),
            p.events.to_string(),
            format!("{:.0}", p.reference_events_per_sec),
            format!("{:.0}", p.sharded_events_per_sec),
            format!("{:.2}x", p.speedup),
            p.windows.to_string(),
            p.barrier_stalls.to_string(),
            p.steals.to_string(),
            p.gather_rounds.to_string(),
            format!("{:.3}", p.cov_cpi),
        ]);
    }
    t.render()
}

const USAGE: &str = "scale [--samples N] [--app NAME] [--jobs N]";

fn main() {
    report::known_flags_or_exit(USAGE);
    parallel::jobs_from_args(USAGE);
    let samples: usize = report::flag_or_exit("--samples", 3, USAGE);
    let app = report::flag_or_exit("--app", App::Ocean, USAGE);

    let points = scale_sweep(app, samples);
    let out = render(&points);
    print!("{out}");

    report::announce(&report::write_text("scale.txt", &out).expect("write table"));
    let json = Json::obj()
        .field("experiment", "scale_sweep")
        .field("app", app.name())
        .field("samples", samples)
        .field(
            "points",
            Json::Arr(points.iter().map(|p| p.to_json()).collect()),
        );
    report::announce(&report::write_json("scale.json", &json).expect("write json"));
}
