//! Traces: the per-interval feature snapshots all sweeps classify offline,
//! captured once per simulated machine.
//!
//! Classification does not feed back into execution in the paper's
//! evaluation, so a single capture supports arbitrarily many threshold
//! sweeps (see DESIGN.md §2, "online/offline equivalence"). Every run is
//! assembled by [`Machine`], and every finished run becomes a trace
//! through [`SystemTrace::from_lanes`]. Captures are cached in memory keyed
//! by [`Machine::key`] so figures never re-simulate; the parallel engine
//! ([`crate::parallel`]) layers a content-addressed on-disk store and a
//! worker pool on top.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dsm_phase::detector::{IntervalRecord, TraceCollector};
use dsm_sim::memctrl::MemCtrlStats;
use dsm_sim::network::NetworkStats;
use dsm_sim::stats::SystemStats;
use dsm_simpoint::wire::{
    get_app, get_directory_stats, get_fault_stats, get_proc_stats, get_reconfig_stats,
    get_records, get_scale, put_app, put_directory_stats, put_fault_stats, put_proc_stats,
    put_reconfig_stats, put_records, put_scale, CodecError, Reader, Writer,
};

use crate::experiment::ExperimentConfig;
use crate::parallel::Machine;

/// A captured run: per-processor interval records plus machine statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemTrace {
    pub config: ExperimentConfig,
    /// Interval records per processor, in interval order.
    pub records: Vec<Vec<IntervalRecord>>,
    pub stats: SystemStats,
    /// Total DDV query traffic (for the overhead report).
    pub ddv_vectors_exchanged: u64,
}

impl SystemTrace {
    /// A finished run of `config` as one trace per collector lane, in
    /// geometry order. The one place a run becomes a trace.
    pub fn from_lanes(
        config: ExperimentConfig,
        stats: SystemStats,
        collector: TraceCollector,
    ) -> Vec<SystemTrace> {
        let ddv_vectors_exchanged = collector.ddv().vectors_exchanged();
        collector
            .into_lanes()
            .into_iter()
            .map(|records| SystemTrace {
                config,
                records,
                stats: stats.clone(),
                ddv_vectors_exchanged,
            })
            .collect()
    }

    /// A finished run as the trace of the collector's first lane.
    pub fn from_run(
        config: ExperimentConfig,
        stats: SystemStats,
        collector: TraceCollector,
    ) -> Self {
        Self::from_lanes(config, stats, collector).swap_remove(0)
    }

    /// Total captured intervals across all processors.
    pub fn total_intervals(&self) -> usize {
        self.records.iter().map(|r| r.len()).sum()
    }

    /// Minimum per-processor interval count (sweeps need every processor to
    /// have contributed).
    pub fn min_intervals(&self) -> usize {
        self.records.iter().map(|r| r.len()).min().unwrap_or(0)
    }

    /// Serialize to the `DSMTRC4` trace-store format. Deterministic: the
    /// same trace always encodes to the same bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(TRACE_MAGIC);
        put_app(&mut w, self.config.app);
        put_scale(&mut w, self.config.scale);
        w.u64(self.config.n_procs as u64);
        w.u64(self.config.interval_base);
        put_records(&mut w, &self.records);
        let SystemStats { procs, directory, network, memctrls, faults, reconfig, finish_cycle } =
            &self.stats;
        w.u64(procs.len() as u64);
        for p in procs {
            put_proc_stats(&mut w, p);
        }
        put_directory_stats(&mut w, directory);
        put_fault_stats(&mut w, faults);
        let NetworkStats {
            msgs,
            payload_msgs,
            total_hops,
            link_wait_cycles,
            total_flit_hops,
            link_flits,
        } = network;
        for &x in [msgs, payload_msgs, total_hops, link_wait_cycles, total_flit_hops] {
            w.u64(x);
        }
        w.vec_u64(link_flits);
        w.u64(memctrls.len() as u64);
        for &MemCtrlStats { requests, total_queue_delay } in memctrls {
            w.u64(requests);
            w.u64(total_queue_delay);
        }
        put_reconfig_stats(&mut w, reconfig);
        w.u64(*finish_cycle);
        w.u64(self.ddv_vectors_exchanged);
        w.finish()
    }

    /// Decode a `DSMTRC4` buffer. Total: any input yields `Ok` or a typed
    /// [`CodecError`]; never panics, never over-allocates on hostile lengths.
    pub fn decode(bytes: &[u8]) -> Result<SystemTrace, CodecError> {
        let mut r = Reader::open(bytes, TRACE_MAGIC, TRACE_FAMILY_LEN)?;
        let app = get_app(&mut r)?;
        let scale = get_scale(&mut r)?;
        let n_procs = r.usize_checked("n_procs")?;
        let interval_base = r.u64()?;
        let records = get_records(&mut r, n_procs)?;
        // Each `ProcStats` is 14 counters.
        let procs = r.vec(14 * 8, get_proc_stats)?;
        if procs.len() != n_procs {
            return Err(CodecError::BadValue { what: "trace sized for a different machine" });
        }
        let directory = get_directory_stats(&mut r)?;
        let faults = get_fault_stats(&mut r)?;
        let network = NetworkStats {
            msgs: r.u64()?,
            payload_msgs: r.u64()?,
            total_hops: r.u64()?,
            link_wait_cycles: r.u64()?,
            total_flit_hops: r.u64()?,
            link_flits: r.vec_u64()?,
        };
        let memctrls = r.vec(16, |r| {
            Ok(MemCtrlStats { requests: r.u64()?, total_queue_delay: r.u64()? })
        })?;
        let reconfig = get_reconfig_stats(&mut r)?;
        let finish_cycle = r.u64()?;
        let ddv_vectors_exchanged = r.u64()?;
        r.finish()?;
        Ok(SystemTrace {
            config: ExperimentConfig { app, n_procs, scale, interval_base },
            records,
            stats: SystemStats {
                procs,
                directory,
                network,
                memctrls,
                faults,
                reconfig,
                finish_cycle,
            },
            ddv_vectors_exchanged,
        })
    }
}

/// Trace-store magic: the `DSMTRC` family, the version digit, and a
/// newline. Version 2 added `DirectoryStats.nacks` and the fault counters;
/// version 3 the route-aware fabric's flit counters; version 4 the
/// reconfiguration counters. Any other version decodes as
/// [`CodecError::UnsupportedVersion`], which the store treats as a miss.
pub const TRACE_MAGIC: &[u8; 8] = b"DSMTRC4\n";

/// Length of the version-independent `DSMTRC` family prefix.
const TRACE_FAMILY_LEN: usize = 6;

/// Run the simulation for `config` on its default machine and capture its
/// trace (uncached).
pub fn capture(config: ExperimentConfig) -> SystemTrace {
    Machine::default_for(config).capture()
}

/// Capture under a fault plan: the same machine and workload as
/// [`capture`], with `plan` driving the simulator's fault-injection layer.
/// [`dsm_sim::config::FaultPlan::none`] yields a run bit-identical to the
/// plain capture (the `fault_equivalence` differential suite asserts this).
pub fn capture_with_faults(
    config: ExperimentConfig,
    plan: dsm_sim::config::FaultPlan,
) -> SystemTrace {
    Machine::default_for(config).with_faults(plan).capture()
}

/// A sharded capture: the trace plus the parallel-core counters the scale
/// sweep reports.
#[derive(Debug, Clone)]
pub struct ShardedCapture {
    pub trace: SystemTrace,
    /// Conservative-window counters from the sharded scheduler.
    pub windows: dsm_sim::shard::WindowCounters,
    /// Observer drain/steal counters from the sharded collector.
    pub drains: dsm_phase::DrainCounters,
    /// Effective shard count the run executed under.
    pub shards: usize,
    /// Effective observer worker-thread count (after the host-core budget
    /// guard — see [`crate::parallel::budget_observer_threads`]).
    pub threads: usize,
}

/// Capture under the sharded parallel core: the event loop is partitioned
/// into `shards` shards advanced under a conservative time-window barrier,
/// and observer work is drained by `threads` host worker threads at window
/// boundaries. Bit-identical to [`capture_with_faults`] at any shard and
/// thread count (the `sharded_differential` suite pins this); `threads` is
/// clamped so `jobs() × threads` never oversubscribes the host.
pub fn capture_sharded(
    config: ExperimentConfig,
    plan: dsm_sim::config::FaultPlan,
    shards: usize,
    threads: usize,
) -> ShardedCapture {
    capture_sharded_with(
        config,
        plan,
        shards,
        crate::parallel::budget_observer_threads(threads),
    )
}

/// [`capture_sharded`] without the host-core budget guard: `threads` is
/// used verbatim. The differential suite uses this to exercise thread
/// counts above the host's core budget (bit-identity must hold regardless).
pub fn capture_sharded_with(
    config: ExperimentConfig,
    plan: dsm_sim::config::FaultPlan,
    shards: usize,
    threads: usize,
) -> ShardedCapture {
    let machine = Machine::default_for(config).with_faults(plan);
    let collector = dsm_phase::ShardedCollector::new(machine.collector(), threads);
    let mut system = machine.assemble(machine.stream(), collector);
    system.enable_sharding(shards);
    system.run_to_interval(u64::MAX);
    let windows = system.window_counters();
    let shards = system.shard_layout().map_or(1, |l| l.n_shards());
    let (stats, mut collector) = system.run_to_end();
    // Force the final drain before reading the counters, so they cover the
    // whole run.
    collector.collector();
    let drains = collector.counters();
    ShardedCapture {
        trace: SystemTrace::from_run(config, stats, collector.into_inner()),
        windows,
        drains,
        shards,
        threads,
    }
}

/// Process-wide in-memory trace cache, keyed by the content key of
/// [`crate::parallel::Machine::key`]. Filled by [`capture_cached`] and
/// [`crate::parallel::capture_matrix`], so it holds default machines only.
static CACHE: Mutex<Option<HashMap<String, Arc<SystemTrace>>>> = Mutex::new(None);

pub(crate) fn memory_cache_get(key: &str) -> Option<Arc<SystemTrace>> {
    CACHE
        .lock()
        .unwrap()
        .as_ref()
        .and_then(|m| m.get(key).cloned())
}

pub(crate) fn memory_cache_insert(key: String, trace: Arc<SystemTrace>) {
    CACHE
        .lock()
        .unwrap()
        .get_or_insert_with(HashMap::new)
        .insert(key, trace);
}

/// Drop every in-memory cached trace. Tests use this to force the engine
/// back to the disk store or to fresh simulation.
pub fn clear_memory_cache() {
    *CACHE.lock().unwrap() = None;
}

/// Capture with caching: the second request for the same configuration is
/// free. Used by figures and benches.
pub fn capture_cached(config: ExperimentConfig) -> Arc<SystemTrace> {
    let key = crate::parallel::cache_key(&config);
    if let Some(t) = memory_cache_get(&key) {
        return t;
    }
    let trace = Arc::new(capture(config));
    memory_cache_insert(key, trace.clone());
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_workloads::App;

    #[test]
    fn capture_produces_intervals_for_every_proc() {
        let t = capture(ExperimentConfig::test(App::Lu, 2));
        assert_eq!(t.records.len(), 2);
        assert!(t.min_intervals() >= 3, "got {}", t.min_intervals());
        // Records carry real features.
        let r = &t.records[0][0];
        assert!(r.insns > 0);
        assert!(r.cycles > 0);
        assert_eq!(r.fvec.len(), 2);
        assert!((r.bbv.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn capture_is_deterministic() {
        let a = capture(ExperimentConfig::test(App::Equake, 2));
        let b = capture(ExperimentConfig::test(App::Equake, 2));
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.records[0].len(), b.records[0].len());
        assert_eq!(a.records[0][0], b.records[0][0]);
    }

    #[test]
    fn cached_capture_returns_same_arc() {
        let cfg = ExperimentConfig::test(App::Art, 2);
        let a = capture_cached(cfg);
        let b = capture_cached(cfg);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn sharded_capture_matches_serial() {
        let cfg = ExperimentConfig::test(App::Lu, 4);
        let serial = capture(cfg);
        let sharded = capture_sharded_with(cfg, dsm_sim::config::FaultPlan::none(), 2, 2);
        assert_eq!(sharded.trace.stats, serial.stats);
        assert_eq!(sharded.trace.records, serial.records);
        assert_eq!(
            sharded.trace.ddv_vectors_exchanged,
            serial.ddv_vectors_exchanged
        );
        assert_eq!(sharded.shards, 2);
        assert_eq!(sharded.threads, 2);
        assert!(sharded.windows.windows > 0);
        assert!(sharded.windows.lookahead >= 1);
        assert!(sharded.drains.drains > 0);
    }

    #[test]
    fn parallel_capture_populates_cache() {
        let cfgs = vec![
            ExperimentConfig::test(App::Fmm, 2),
            ExperimentConfig::test(App::Fmm, 4),
        ];
        let _ = crate::parallel::capture_matrix("parallel_capture_populates_cache", &cfgs);
        for c in cfgs {
            let t = capture_cached(c);
            assert!(t.total_intervals() > 0);
        }
    }
}
