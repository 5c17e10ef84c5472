//! Phase-guided adaptation sweep: the §II tuning protocol driving real
//! machine reconfiguration (page migration, DVFS epochs, heterogeneous
//! cores) on every workload, with untuned / tuned / oracle arms and the
//! static-placement comparison.
//!
//! Usage: `adapt [n_procs] [--smoke]` (default 16 processors; `--smoke`
//! runs the 2-processor LU+FMM subset for CI, gated on the no-op arm
//! being bit-identical to a plain capture).
//! Artefacts: `adapt.txt` (table) and `adapt.json` (schema in
//! EXPERIMENTS.md).

use dsm_harness::adapt::{adapt_app, adapt_sweep, assert_noop_differential, AdaptReport};
use dsm_harness::report;
use dsm_workloads::App;

const USAGE: &str = "adapt [n_procs] [--smoke]";

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n_procs = report::power_of_two_or_exit(report::positional_or_exit(&[], 16, USAGE), USAGE);

    let report = if smoke {
        assert_noop_differential(App::Lu, 2);
        AdaptReport { n_procs: 2, apps: vec![adapt_app(App::Lu, 2), adapt_app(App::Fmm, 2)] }
    } else {
        adapt_sweep(n_procs)
    };

    let text = report.render();
    print!("{text}");
    report::announce(&report::write_text("adapt.txt", &text).expect("write table"));
    report::announce(&report::write_json("adapt.json", &report.to_json()).expect("write json"));
}
