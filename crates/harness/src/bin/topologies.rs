//! Interconnect-layout sweep: run every workload on each fabric topology
//! (hypercube, 2-D mesh, 2-D torus, ring, fat-tree) with per-link
//! contention enabled, and report detector quality (BBV vs BBV+DDV CoV of
//! CPI) alongside the per-directed-link demand profile.
//!
//! Usage: `topologies [n_procs] [--smoke <topology>]` (default 8
//! processors; must be a power of two so every layout applies).
//! Artefacts: `topologies.txt` (table) and `topologies.json` (schema in
//! EXPERIMENTS.md).
//!
//! `--smoke <topology>` replaces the sweep with a single 2-processor LU
//! capture on the named layout and prints its point — the CI topology
//! matrix runs one smoke per layout.

use dsm_analysis::Table;
use dsm_harness::json::Json;
use dsm_harness::topology::{topology_point, topology_sweep};
use dsm_harness::{report, ExperimentConfig};
use dsm_sim::topology::TopologyKind;
use dsm_workloads::App;

const USAGE: &str = "topologies [n_procs] [--smoke <topology>]";

/// `--smoke <topology>`: one small capture on one layout, table to stdout.
fn smoke_mode(kind: TopologyKind) {
    let (p, trace) = topology_point(ExperimentConfig::test(App::Lu, 2), kind);
    let pairs = vec![
        ("topology".to_string(), p.kind.name().to_string()),
        ("diameter".to_string(), p.diameter.to_string()),
        ("n_links".to_string(), p.n_links.to_string()),
        ("cov_bbv".to_string(), format!("{:.4}", p.cov_bbv)),
        ("cov_bbv_ddv".to_string(), format!("{:.4}", p.cov_bbv_ddv)),
        ("phases".to_string(), format!("{:.1}", p.phases)),
        ("finish_cycle".to_string(), p.finish_cycle.to_string()),
        ("total_flit_hops".to_string(), p.total_flit_hops.to_string()),
        ("peak_link_flits".to_string(), p.peak_link_flits.to_string()),
        ("hottest_link".to_string(), p.hottest_link.unwrap_or_else(|| "-".to_string())),
        ("intervals_recorded".to_string(), trace.total_intervals().to_string()),
    ];
    print!("{}", Table::kv(format!("smoke LU 2P on {}", kind.name()), &pairs).render());
}

fn main() {
    let smoke: Option<String> = report::opt_flag_or_exit("--smoke", USAGE);
    let n_procs =
        report::power_of_two_or_exit(report::positional_or_exit(&["--smoke"], 8, USAGE), USAGE);

    if let Some(name) = smoke {
        let kind = TopologyKind::from_name(&name).unwrap_or_else(|| {
            let known: Vec<&str> = TopologyKind::ALL.iter().map(|k| k.name()).collect();
            report::usage_exit(&format!("unknown topology {name:?} (one of {known:?})"), USAGE)
        });
        smoke_mode(kind);
        return;
    }

    let mut out = String::new();
    let mut sweeps = Vec::new();
    for app in App::ALL {
        let s = topology_sweep(app, n_procs);
        out.push_str(&s.render());
        out.push('\n');
        sweeps.push(s.to_json());
    }
    print!("{out}");

    report::announce(&report::write_text("topologies.txt", &out).expect("write table"));
    let json = Json::obj()
        .field("experiment", "topology_sweep")
        .field("n_procs", n_procs)
        .field("sweeps", Json::Arr(sweeps));
    report::announce(&report::write_json("topologies.json", &json).expect("write json"));
}
