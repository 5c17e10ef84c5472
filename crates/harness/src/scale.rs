//! Scale sweep: single-run throughput and detection quality past the
//! paper's 16 processors (ROADMAP "Scale past the paper").
//!
//! The paper's evaluation stops at 16P; at 64–128P the per-interval
//! all-to-one DDV gather is the simulator's hot spot (O(n²) per interval
//! across the run). This module measures, at each point of
//! [`SCALE_PROCS`]:
//!
//! * the **reference arm** — the serial core with the pre-optimization
//!   all-to-one gather
//!   ([`dsm_phase::detector::TraceCollector::set_reference_gather`]), i.e.
//!   what one run cost before the sharded core landed;
//! * the **sharded arm** — the production path
//!   ([`crate::trace::capture_sharded`]'s machinery): sharded scheduler
//!   under the conservative window barrier, staged observer work drained
//!   by host workers, O(n) aggregate gather with hierarchical (tree)
//!   collection accounting.
//!
//! Both arms are bit-identical by construction (the fast aggregate gather
//! equals the reference walk, and the sharded schedule replays the serial
//! pick order); the sweep re-asserts this at every point before reporting
//! the speedup, so the scaling curve can never drift from a correct run.
//! Events/sec excludes machine construction.

use std::time::Instant;

use dsm_phase::ddv::GatherTopology;
use dsm_phase::ShardedCollector;
use dsm_workloads::App;

use crate::experiment::ExperimentConfig;
use crate::json::Json;
use crate::parallel::Machine;

/// The node counts of the scaling curve: the paper's maximum and the two
/// beyond-paper points.
pub const SCALE_PROCS: [usize; 3] = [16, 64, 128];

/// Shard count used for `n_procs` nodes: one shard per 16 nodes, at least
/// two so the window machinery is always exercised.
pub fn shards_for(n_procs: usize) -> usize {
    (n_procs / 16).max(2).min(n_procs)
}

/// One point of the scaling curve.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    pub app: App,
    pub n_procs: usize,
    /// Shards the sharded arm ran with.
    pub shards: usize,
    /// Observer worker threads (after the host-core budget guard).
    pub threads: usize,
    /// Events executed by one run (identical in both arms).
    pub events: u64,
    /// Reference arm: serial core, all-to-one O(n²) gather.
    pub reference_events_per_sec: f64,
    /// Sharded arm: windowed sharded core, O(n) aggregate gather.
    pub sharded_events_per_sec: f64,
    /// `sharded_events_per_sec / reference_events_per_sec`.
    pub speedup: f64,
    /// Conservative windows closed.
    pub windows: u64,
    /// Window lookahead in cycles (min cross-shard delivery latency).
    pub lookahead: u64,
    /// Shard-windows spent idle at the conservative barrier.
    pub barrier_stalls: u64,
    /// Horizon-gated events executed.
    pub gated_events: u64,
    /// Observer drains executed at window boundaries.
    pub drains: u64,
    /// Processor queues claimed by out-of-range workers (work steals).
    pub steals: u64,
    /// Critical-path collection rounds under the hierarchical tree
    /// (arity 2): queries × ⌈log₂-depth⌉, vs `queries` × 1 wide all-to-one
    /// rounds with an n−1 root fan-in in the reference arm.
    pub gather_rounds: u64,
    /// End-of-interval gathers served.
    pub queries: u64,
    /// Intervals captured across all processors.
    pub intervals: usize,
    /// Detector-quality signal at scale: CoV of per-interval system CPI.
    pub cov_cpi: f64,
    /// Sharded records and stats were byte-equal to the reference arm's.
    pub bit_identical: bool,
}

impl ScalePoint {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("app", self.app.name())
            .field("n_procs", self.n_procs)
            .field("shards", self.shards)
            .field("threads", self.threads)
            .field("events", self.events)
            .field("reference_events_per_sec", round3(self.reference_events_per_sec))
            .field("sharded_events_per_sec", round3(self.sharded_events_per_sec))
            .field("speedup", round3(self.speedup))
            .field("windows", self.windows)
            .field("lookahead", self.lookahead)
            .field("barrier_stalls", self.barrier_stalls)
            .field("gated_events", self.gated_events)
            .field("drains", self.drains)
            .field("steals", self.steals)
            .field("gather_rounds", self.gather_rounds)
            .field("queries", self.queries)
            .field("intervals", self.intervals)
            .field("cov_cpi", round3(self.cov_cpi))
            .field("bit_identical", self.bit_identical)
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Output of one timed arm.
struct ArmRun {
    secs: f64,
    events: u64,
    stats: dsm_sim::stats::SystemStats,
    records: Vec<Vec<dsm_phase::detector::IntervalRecord>>,
    windows: dsm_sim::shard::WindowCounters,
    drains: dsm_phase::DrainCounters,
    gather_rounds: u64,
    queries: u64,
}

/// One serial run with the pre-optimization all-to-one gather.
fn reference_run(cfg: &ExperimentConfig) -> ArmRun {
    let machine = Machine::default_for(*cfg);
    let mut collector = machine.collector();
    collector.set_reference_gather(true);
    let mut system = machine.assemble(machine.stream(), collector);
    let t0 = Instant::now();
    system.run_to_interval(u64::MAX);
    let secs = t0.elapsed().as_secs_f64();
    let events = system.events_executed();
    let (stats, collector) = system.run_to_end();
    ArmRun {
        secs,
        events,
        stats,
        gather_rounds: collector.ddv().gather_rounds(),
        queries: collector.ddv().queries(),
        records: collector.into_records(),
        windows: Default::default(),
        drains: Default::default(),
    }
}

/// One run on the sharded core: windowed scheduler, staged observer work,
/// O(n) aggregate gather accounted along a binary reduction tree.
fn sharded_run(cfg: &ExperimentConfig, shards: usize, threads: usize) -> ArmRun {
    let machine = Machine::default_for(*cfg);
    let mut inner = machine.collector();
    inner
        .ddv_mut()
        .set_collection_topology(GatherTopology::Tree { arity: 2 });
    let mut system = machine.assemble(machine.stream(), ShardedCollector::new(inner, threads));
    system.enable_sharding(shards);
    let t0 = Instant::now();
    system.run_to_interval(u64::MAX);
    let windows = system.window_counters();
    let events = system.events_executed();
    let (stats, mut collector) = system.run_to_end();
    collector.collector(); // final drain inside the timed region
    let secs = t0.elapsed().as_secs_f64();
    let drains = collector.counters();
    let inner = collector.into_inner();
    ArmRun {
        secs,
        events,
        stats,
        gather_rounds: inner.ddv().gather_rounds(),
        queries: inner.ddv().queries(),
        records: inner.into_records(),
        windows,
        drains,
    }
}

/// Measure one point of the curve. `samples` timed runs per arm; the
/// reported rate uses the minimum time (the least-contended estimate).
/// Counters and records are deterministic across samples.
pub fn scale_point(app: App, n_procs: usize, samples: usize) -> ScalePoint {
    // The finest point of the interval sensitivity sweep (4k-insn system
    // base): the collection-bound regime. With a fixed system-wide budget
    // the per-processor interval shrinks as n grows (62 insns/proc at
    // 64P), so per-interval DDV gathering dominates — the documented hot
    // spot past the paper's 16P, which is exactly what the scaling
    // question is about and what the hierarchical reduction attacks.
    let cfg = ExperimentConfig {
        interval_base: 4_000,
        ..ExperimentConfig::test(app, n_procs)
    };
    let shards = shards_for(n_procs);
    let threads = crate::parallel::budget_observer_threads(shards);

    let mut reference = reference_run(&cfg);
    let mut sharded = sharded_run(&cfg, shards, threads);
    for _ in 1..samples.max(1) {
        let r = reference_run(&cfg);
        if r.secs < reference.secs {
            reference = r;
        }
        let s = sharded_run(&cfg, shards, threads);
        if s.secs < sharded.secs {
            sharded = s;
        }
    }

    let bit_identical =
        sharded.stats == reference.stats && sharded.records == reference.records;
    assert!(
        bit_identical,
        "sharded run diverged from the serial reference at {}P",
        n_procs
    );
    assert_eq!(sharded.events, reference.events);

    let cpis: Vec<f64> = dsm_simpoint::interval_cpis(&sharded.records)
        .iter()
        .map(|c| c.cpi)
        .collect();
    let (_, cov_cpi) = dsm_simpoint::mean_and_cov(&cpis);

    let reference_eps = sharded.events as f64 / reference.secs;
    let sharded_eps = sharded.events as f64 / sharded.secs;
    ScalePoint {
        app,
        n_procs,
        shards,
        threads,
        events: sharded.events,
        reference_events_per_sec: reference_eps,
        sharded_events_per_sec: sharded_eps,
        speedup: sharded_eps / reference_eps,
        windows: sharded.windows.windows,
        lookahead: sharded.windows.lookahead,
        barrier_stalls: sharded.windows.barrier_stalls,
        gated_events: sharded.windows.gated_events,
        drains: sharded.drains.drains,
        steals: sharded.drains.steals,
        gather_rounds: sharded.gather_rounds,
        queries: sharded.queries,
        intervals: sharded.records.iter().map(|r| r.len()).sum(),
        cov_cpi,
        bit_identical,
    }
}

/// The full scaling curve at [`SCALE_PROCS`].
pub fn scale_sweep(app: App, samples: usize) -> Vec<ScalePoint> {
    SCALE_PROCS
        .iter()
        .map(|&p| scale_point(app, p, samples))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_for_matches_policy() {
        assert_eq!(shards_for(16), 2);
        assert_eq!(shards_for(64), 4);
        assert_eq!(shards_for(128), 8);
        assert_eq!(shards_for(2), 2);
    }

    #[test]
    fn scale_point_is_bit_identical_and_counts() {
        // Small point so the test stays fast; the bin runs the real curve.
        let p = scale_point(App::Lu, 16, 1);
        assert!(p.bit_identical);
        assert_eq!(p.shards, 2);
        assert!(p.events > 0);
        assert!(p.windows > 0);
        assert!(p.intervals > 0);
        assert!(p.queries > 0);
        // Tree collection at 16 nodes: depth 4 per gather (1+2+4+8 ≥ 16).
        assert_eq!(p.gather_rounds, p.queries * 4);
        assert!(p.cov_cpi >= 0.0);
        assert!(p.reference_events_per_sec > 0.0 && p.sharded_events_per_sec > 0.0);
    }
}
