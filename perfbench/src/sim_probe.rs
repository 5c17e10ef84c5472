//! Lower-layer probes of the traced `paper-cold` run. The pipeline only
//! calls `harness` functions, so the split of a capture into its layers is
//! measured here, after the traced repetitions and outside their wall time:
//!
//! * every config the pipeline simulates is drained from its workload
//!   stream alone (`workloads.gen_s`), simulated with a `NullObserver`
//!   (`sim.core_s` is that minus generation) and captured in full
//!   (`core.collect_s` is that minus the `NullObserver` run), back to back,
//!   in [`PASSES`] passes whose medians are reported;
//! * the interval-dense Ocean-128P point at the 4k-instruction base (the
//!   `scale` bin's point) is captured serially and through
//!   `trace::capture_sharded` in [`PAIRS`] pairs, which must agree.

use std::time::Instant;

use dsm_harness::scale::shards_for;
use dsm_harness::trace::{capture, capture_sharded};
use dsm_harness::{parallel, ExperimentConfig};
use dsm_sim::config::FaultPlan;
use dsm_sim::event::{Event, InstructionStream};
use dsm_sim::system::System;
use dsm_sim::NullObserver;
use dsm_workloads::{make_stream, App};

use crate::util::{median, ratio};
use crate::Report;

const PASSES: usize = 3;
/// One serial/sharded pair of the Ocean-128P point takes a fifth of a
/// second, too short to time alone on a noisy host.
const PAIRS: usize = 4;

/// Events and instructions of one pass over the pipeline's simulated
/// configs, pinned for the current simulator: a change that keeps
/// behaviour keeps these.
const EXPECTED_EVENTS: u64 = 13_820_415;
const EXPECTED_INSNS: u64 = 322_388_484;

/// Events the workload stream yields for `cfg`, drained without
/// simulating, and the seconds that took.
fn generate_only(cfg: ExperimentConfig) -> (f64, u64) {
    let t = Instant::now();
    let mut stream = make_stream(cfg.app, cfg.n_procs, cfg.scale);
    let mut events = 0u64;
    for p in 0..stream.n_procs() {
        while stream.next(p) != Event::End {
            events += 1;
        }
    }
    (t.elapsed().as_secs_f64(), events)
}

/// `cfg` simulated with a `NullObserver`: (seconds, instructions
/// committed).
fn simulate_only(cfg: ExperimentConfig) -> (f64, u64) {
    let t = Instant::now();
    let stream = make_stream(cfg.app, cfg.n_procs, cfg.scale);
    let (stats, _) = System::new(cfg.system_config(), stream, NullObserver).run();
    (t.elapsed().as_secs_f64(), stats.total_insns())
}

/// Events the simulator executes for `cfg` (untimed: stepping to a
/// boundary checks every processor per step, which `System::run` does not).
fn events_simulated(cfg: ExperimentConfig) -> u64 {
    let stream = make_stream(cfg.app, cfg.n_procs, cfg.scale);
    let mut system = System::new(cfg.system_config(), stream, NullObserver);
    system.run_to_interval(u64::MAX);
    system.events_executed()
}

/// Per-layer split of one pass over every config's capture.
#[derive(Default)]
struct Split {
    /// Draining the workload streams.
    gen_s: f64,
    /// `NullObserver` simulation beyond generation.
    core_s: f64,
    /// Full capture beyond the `NullObserver` simulation.
    collect_s: f64,
    capture_s: f64,
    events_generated: u64,
    /// Instructions committed by the `NullObserver` runs, and by the
    /// captures.
    insns: u64,
    captured_insns: u64,
}

fn split_pass(configs: &[ExperimentConfig]) -> Split {
    let mut out = Split::default();
    for &cfg in configs {
        let (gen_s, generated) = generate_only(cfg);
        let (null_s, insns) = simulate_only(cfg);
        let t = Instant::now();
        let trace = capture(cfg);
        let capture_s = t.elapsed().as_secs_f64();
        out.gen_s += gen_s;
        out.core_s += null_s - gen_s;
        out.collect_s += capture_s - null_s;
        out.capture_s += capture_s;
        out.events_generated += generated;
        out.insns += insns;
        out.captured_insns += trace.stats.total_insns();
    }
    out
}

/// Serial and sharded capture pairs of the Ocean-128P point.
fn shard_pairs(report: &mut Report) {
    let cfg = ExperimentConfig {
        interval_base: 4_000,
        ..ExperimentConfig::test(App::Ocean, 128)
    };
    // No capture workers run beside the probe: the sharded capture's
    // observer threads get the host's cores.
    let jobs = parallel::jobs();
    parallel::set_jobs(1);
    let (mut serial_s, mut sharded_s, mut equal) = (0.0, 0.0, true);
    let mut last = None;
    for _ in 0..PAIRS {
        let t = Instant::now();
        let reference = capture(cfg);
        serial_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let sharded = capture_sharded(
            cfg,
            FaultPlan::none(),
            shards_for(cfg.n_procs),
            crate::workers(),
        );
        sharded_s += t.elapsed().as_secs_f64();
        equal &= sharded.trace.records == reference.records
            && sharded.trace.stats == reference.stats
            && sharded.trace.ddv_vectors_exchanged == reference.ddv_vectors_exchanged;
        last = Some(sharded);
    }
    parallel::set_jobs(jobs);
    let sharded = last.expect("at least one pair");
    report.check(
        "Ocean-128P sharded captures equal serial captures",
        equal,
        format!(
            "{PAIRS} pairs, {} shards, {} observer threads",
            sharded.shards, sharded.threads
        ),
    );
    report.layer("sim.shard.serial_s", serial_s);
    report.layer("sim.shard.sharded_s", sharded_s);
    report.layer("sim.shard.speedup_vs_serial", ratio(serial_s, sharded_s));
    report.layer("sim.shard.windows", sharded.windows.windows as f64);
    report.layer(
        "sim.shard.barrier_stalls",
        sharded.windows.barrier_stalls as f64,
    );
    report.layer("core.pool.drains", sharded.drains.drains as f64);
    report.layer("core.pool.steals", sharded.drains.steals as f64);
    report.layer("core.pool.threads", sharded.threads as f64);
}

/// Run every probe and record its layer metrics and checks.
pub fn measure(report: &mut Report, configs: &[ExperimentConfig]) {
    let passes: Vec<Split> = (0..PASSES).map(|_| split_pass(configs)).collect();
    let med = |f: fn(&Split) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let first = &passes[0];
    report.check(
        "NullObserver runs commit the captured instructions",
        passes.iter().all(|p| p.insns == p.captured_insns),
        format!("{} vs {}", first.insns, first.captured_insns),
    );
    let events: u64 = configs.iter().map(|&c| events_simulated(c)).sum();
    let insns: Vec<u64> = passes.iter().map(|p| p.insns).collect();
    report.check(
        "exact counts sim.events and sim.insns",
        events == EXPECTED_EVENTS && insns.iter().all(|&i| i == EXPECTED_INSNS),
        format!(
            "events {events}, insns {insns:?} over {PASSES} passes; \
             pinned {EXPECTED_EVENTS} and {EXPECTED_INSNS}"
        ),
    );
    report.layer("sim.events", events as f64);
    report.layer("sim.insns", insns[0] as f64);
    let core_s = med(|p| p.core_s);
    report.layer("workloads.gen_s", med(|p| p.gen_s));
    report.layer("workloads.events", first.events_generated as f64);
    report.layer("sim.core_s", core_s);
    report.layer("sim.ns_per_event", ratio(core_s * 1e9, events as f64));
    report.layer("core.collect_s", med(|p| p.collect_s));
    report.layer(
        "sim_minsts_per_s",
        med(|p| ratio(p.captured_insns as f64 / 1e6, p.capture_s)),
    );
    shard_pairs(report);
}
