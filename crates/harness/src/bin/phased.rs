//! `phased` — drive the streaming phase server with a concurrent tenant
//! fleet: replayed workload traces + synthetic phase-structured streams,
//! under seeded service disturbances (tenant stalls, burst arrivals, slow
//! consumers) and optional churn.
//!
//! Usage:
//!   phased [--smoke] [--tenants N] [--concurrent N] [--trace-tenants N]
//!          [--intervals N] [--churn-every N] [--seed S] [--jobs N]
//!
//! `--smoke` is the CI/bench profile: N concurrent synthetic tenants
//! (default 1024), short streams, mixed disturbances. Without `--smoke`
//! the run adds 5 trace tenants (the five paper workloads at 16P), longer
//! streams, and churn.
//!
//! Artefacts (byte-identical across reruns — no wall-clock inside):
//! `results/serve.json` (schema `dsm-serve-run/v1`) and `results/serve.txt`.
//! Wall-clock throughput goes to stdout only; perfbench's `serve-fleet`
//! workload measures it with interleaved repetitions.

use dsm_harness::json::Json;
use dsm_harness::serve::{outcome_json, outcome_text, run_scenario, DisturbPlan, ServeScenario};
use dsm_harness::{parallel, report};

const USAGE: &str = "phased [--smoke] [--tenants N] [--concurrent N] [--trace-tenants N] \
                     [--intervals N] [--churn-every N] [--seed S] [--jobs N]";

fn main() {
    let jobs = parallel::jobs_from_args(USAGE);
    let smoke = std::env::args().any(|a| a == "--smoke");
    let tenants: usize = report::flag_or_exit("--tenants", 1024, USAGE);
    let concurrent = match report::flag_or_exit("--concurrent", 0usize, USAGE) {
        0 => tenants,
        n => n,
    };
    let trace_tenants: usize =
        report::flag_or_exit("--trace-tenants", if smoke { 0 } else { 5 }, USAGE);
    let intervals: usize = report::flag_or_exit("--intervals", if smoke { 24 } else { 64 }, USAGE);
    let churn_every: u64 = report::flag_or_exit("--churn-every", if smoke { 0 } else { 32 }, USAGE);
    let seed: u64 = report::flag_or_exit("--seed", 42, USAGE);

    let mut sc = ServeScenario::smoke(tenants, seed);
    sc.concurrent = concurrent.min(tenants);
    sc.trace_tenants = trace_tenants.min(tenants);
    sc.intervals_per_tenant = intervals;
    sc.churn_every = churn_every;
    sc.threads = jobs;
    sc.serve.max_tenants = sc.concurrent.max(16);
    if !smoke {
        sc.disturb = DisturbPlan::mixed(seed);
    }

    let (out, timing) = run_scenario(&sc);

    println!(
        "{} tenants ({} concurrent, {} trace), {} rounds: {} classified in {:.3}s = {:.0} classifications/sec",
        sc.tenants,
        sc.concurrent,
        sc.trace_tenants,
        out.rounds,
        out.classified,
        timing.wall_secs,
        timing.classifications_per_sec,
    );
    println!(
        "latency ticks p50/p99/p999 = {}/{}/{}; busy {} / offered {}; queue hw {}",
        out.latency_ticks.0,
        out.latency_ticks.1,
        out.latency_ticks.2,
        out.busy_events,
        out.offered,
        out.queue_high_water,
    );

    let text = outcome_text(&sc, &out);
    print!("{text}");
    report::announce(&report::write_text("serve.txt", &text).expect("write serve.txt"));
    let json: Json = outcome_json(&sc, &out);
    report::announce(&report::write_json("serve.json", &json).expect("write serve.json"));
}
