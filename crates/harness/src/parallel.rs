//! The parallel experiment engine.
//!
//! The paper's methodology sweeps ~200 threshold values per detector over
//! every (application, node count) point; every simulation and every sweep
//! point is independent. This module provides the three layers that make
//! the matrix run at hardware speed while staying bit-reproducible:
//!
//! 1. **a worker pool** ([`par_map`]) — an index-queue over scoped OS
//!    threads with a process-wide `--jobs` knob. Results land in their
//!    input slot, so output order (and therefore every downstream artefact)
//!    is identical for any job count;
//! 2. **a content-addressed trace store** ([`TraceStore`]) — captured
//!    [`SystemTrace`]s persisted on disk (in the `DSMTRC4` format of
//!    [`SystemTrace::encode`]) keyed by a hash of
//!    `(app, n_procs, scale, interval_base, SystemConfig, DetectorGeometry)`
//!    ([`Machine::key`], also the memory cache's key), so re-running
//!    figures/sweeps/ablations/sensitivity studies skips simulation
//!    entirely; misses that differ only in geometry share one simulation;
//! 3. **a run report** ([`RunReport`]) — per-experiment wall time and
//!    cache hit/miss counters, written as JSON next to the results.
//!
//! Simulations were already deterministic per configuration (workload RNGs
//! are seeded from fixed per-(app, proc, chunk) keys — see
//! `dsm-workloads`), so serial and parallel runs produce byte-identical
//! artefacts; `tests/determinism_parallel.rs` locks this down.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dsm_phase::detector::{DetectorGeometry, TraceCollector};
use dsm_sim::config::{FaultPlan, SystemConfig};
use dsm_sim::event::ChunkedStream;
use dsm_sim::network::Network;
use dsm_sim::observer::SimObserver;
use dsm_sim::system::System;
use dsm_workloads::{make_stream, Workload};

use crate::experiment::ExperimentConfig;
use crate::json::Json;
use crate::trace::{self, SystemTrace};

// ---------------------------------------------------------------------------
// Jobs knob
// ---------------------------------------------------------------------------

/// 0 = unset (use available parallelism).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Hardware default for the worker count.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Set the process-wide worker count (0 resets to the hardware default).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The effective worker count.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => default_jobs(),
        n => n,
    }
}

/// Host-core budget guard for the sharded core's observer workers: with
/// [`jobs`] capture workers each potentially running `requested` observer
/// threads, the product must not exceed the host's available cores. Returns
/// the clamped thread count (always ≥ 1) and warns on stderr when it had to
/// clamp.
pub fn budget_observer_threads(requested: usize) -> usize {
    let requested = requested.max(1);
    let allowed = (default_jobs() / jobs()).max(1);
    if requested > allowed {
        eprintln!(
            "warning: --jobs {} x {} observer threads exceeds {} available cores; \
             clamping observer threads to {}",
            jobs(),
            requested,
            default_jobs(),
            allowed
        );
        allowed
    } else {
        requested
    }
}

/// Parse `--jobs N`/`-j N` from the command line (or `DSM_JOBS` from the
/// environment), set the process-wide knob, and return the result. A
/// missing or unparsable value is a usage error (exit status 2).
pub fn jobs_from_args(usage: &str) -> usize {
    let from_flag = crate::report::opt_flag_or_exit::<usize>("--jobs", usage)
        .or_else(|| crate::report::opt_flag_or_exit("-j", usage));
    let from_env = std::env::var("DSM_JOBS").ok().map(|s| {
        s.parse::<usize>()
            .unwrap_or_else(|e| crate::report::usage_exit(&format!("DSM_JOBS={s}: {e}"), usage))
    });
    if let Some(n) = from_flag.or(from_env) {
        set_jobs(n.max(1));
    }
    jobs()
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// Map `f` over `items` on up to [`jobs`] worker threads. Results are
/// returned in input order regardless of scheduling, so parallel output is
/// byte-identical to serial output.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_jobs(jobs(), items, f)
}

/// [`par_map`] with an explicit worker count.
pub fn par_map_jobs<T, R, F>(n_jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n_jobs <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    std::thread::scope(|s| {
        for _ in 0..n_jobs.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = items[i].lock().unwrap().take().expect("item taken twice");
                let r = f(item);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker skipped a slot"))
        .collect()
}

// ---------------------------------------------------------------------------
// Content-addressed trace store
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit (stable across platforms and Rust versions, unlike
/// `DefaultHasher`).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bump when the on-disk trace layout changes: old entries become misses
/// instead of decoding garbage.
const TRACE_FORMAT: &str = "dsm-trace-v2";

/// The instruction stream a workload feeds a simulated machine.
pub type AppStream = ChunkedStream<Box<dyn Workload>>;

/// A simulated machine running a workload, observed by `O`.
pub type AppSystem<O = TraceCollector> = System<AppStream, O>;

/// One machine to simulate: an experiment point, the machine configuration
/// it runs on, and the detector geometry observing it. Every simulated run
/// in the harness is assembled here ([`Machine::assemble`]), so the
/// workload stream and the DDV distance matrix always belong to the
/// machine that runs them.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    pub config: ExperimentConfig,
    pub system: SystemConfig,
    pub geometry: DetectorGeometry,
}

impl Machine {
    /// The machine `config` names: its derived [`SystemConfig`] and the
    /// paper's detector geometry (what [`capture`](crate::trace::capture)
    /// simulates).
    pub fn default_for(config: ExperimentConfig) -> Self {
        Self { config, system: config.system_config(), geometry: DetectorGeometry::default() }
    }

    /// The same machine with `plan` driving the simulator's fault layer.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.system.fault = plan;
        self
    }

    /// The DDV distance matrix `D` of this machine's own topology: `1 +
    /// hops` between nodes, 1 on the diagonal.
    pub fn distance_matrix(&self) -> Vec<f64> {
        Network::new(self.system.network, self.config.n_procs).distance_matrix()
    }

    /// The workload stream of this machine's experiment point.
    pub fn stream(&self) -> AppStream {
        make_stream(self.config.app, self.config.n_procs, self.config.scale)
    }

    /// A collector over this machine's distances with one lane per
    /// geometry in `geometries`, in order.
    fn collector_lanes(&self, geometries: &[DetectorGeometry]) -> TraceCollector {
        TraceCollector::with_lanes(self.config.n_procs, self.distance_matrix(), geometries)
    }

    /// A one-lane collector with this machine's geometry.
    pub fn collector(&self) -> TraceCollector {
        self.collector_lanes(&[self.geometry])
    }

    /// This machine driven by `stream` and watched by `observer`: the one
    /// place a machine description becomes a running [`System`]. Callers
    /// pass [`Machine::stream`] or a stream of their own (a fast-forwarded
    /// or serial-initialization stream), and [`Machine::collector`] or an
    /// observer built around it.
    pub fn assemble<O: SimObserver>(&self, stream: AppStream, observer: O) -> AppSystem<O> {
        assert_eq!(self.system.n_procs, self.config.n_procs);
        System::new(self.system.clone(), stream, observer)
    }

    /// This machine running its own workload under its one-lane collector.
    pub fn build(&self) -> AppSystem {
        self.assemble(self.stream(), self.collector())
    }

    /// Simulate this machine once, observed through every geometry in
    /// `geometries`: one trace per geometry, in order. The run never
    /// depends on its observer, so each trace equals a one-geometry
    /// capture of the same machine under that geometry.
    pub fn capture_lanes(&self, geometries: &[DetectorGeometry]) -> Vec<SystemTrace> {
        let (stats, collector) =
            self.assemble(self.stream(), self.collector_lanes(geometries)).run();
        SystemTrace::from_lanes(self.config, stats, collector)
    }

    /// Simulate this machine and capture its trace (uncached).
    pub fn capture(&self) -> SystemTrace {
        self.capture_lanes(&[self.geometry]).swap_remove(0)
    }

    /// The simulation this machine's trace comes from: the same machine
    /// under the default geometry. Machines with equal runs differ only in
    /// what observes them, so they can share one simulation.
    pub fn simulation(&self) -> Machine {
        Machine { geometry: DetectorGeometry::default(), ..self.clone() }
    }

    /// Content hash of everything that determines the captured trace: the
    /// experiment point, the machine configuration, and the collector
    /// geometry. Any field change (via `Debug` of the full structs) changes
    /// the key. The one key of the memory cache and the disk store.
    pub fn key(&self) -> String {
        let Machine { config, system, geometry } = self;
        let desc = format!(
            "{TRACE_FORMAT}|{:?}|{}|{:?}|{}|{:?}|{:?}",
            config.app, config.n_procs, config.scale, config.interval_base, system, geometry,
        );
        format!("{}-{:016x}", config.label(), fnv1a64(desc.as_bytes()))
    }
}

/// [`Machine::key`] of the default machine for `config`.
pub fn cache_key(config: &ExperimentConfig) -> String {
    Machine::default_for(*config).key()
}

/// Process-wide trace-store directory. Unset (the default) disables disk
/// persistence; binaries enable it, unit tests run memory-only.
static STORE_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Enable the on-disk trace store at `dir` (`None` disables it).
pub fn set_trace_store_dir(dir: Option<PathBuf>) {
    *STORE_DIR.lock().unwrap() = dir;
}

/// The configured store, if persistence is enabled.
pub fn trace_store() -> Option<TraceStore> {
    STORE_DIR
        .lock()
        .unwrap()
        .as_ref()
        .map(|d| TraceStore { dir: d.clone() })
}

/// The default store location: `$DSM_TRACE_CACHE`, or
/// `.dsm-trace-cache/` under the working directory.
pub fn default_store_dir() -> PathBuf {
    std::env::var_os("DSM_TRACE_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".dsm-trace-cache"))
}

/// On-disk content-addressed store of captured traces.
#[derive(Debug, Clone)]
pub struct TraceStore {
    dir: PathBuf,
}

impl TraceStore {
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.trace"))
    }

    /// Load the trace stored under `key`, or `None` on absence or any
    /// decode failure (treated as a miss, never an error).
    pub fn load(&self, key: &str) -> Option<SystemTrace> {
        let bytes = std::fs::read(self.path_for(key)).ok()?;
        SystemTrace::decode(&bytes).ok()
    }

    /// Persist `trace` under `key` (atomic rename, so a concurrent reader
    /// never observes a torn file).
    pub fn store(&self, key: &str, trace: &SystemTrace) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let final_path = self.path_for(key);
        let tmp = self.dir.join(format!(".{key}.tmp-{}", std::process::id()));
        std::fs::write(&tmp, trace.encode())?;
        std::fs::rename(&tmp, &final_path)?;
        Ok(final_path)
    }

    /// Delete every stored trace (`--cold` runs).
    pub fn clear(&self) -> std::io::Result<()> {
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for e in entries.flatten() {
                if e.path().extension().is_some_and(|x| x == "trace") {
                    std::fs::remove_file(e.path())?;
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Cache counters
// ---------------------------------------------------------------------------

static MEM_HITS: AtomicU64 = AtomicU64::new(0);
static DISK_HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide capture counters:
/// `(memory_hits, disk_hits, misses)`.
pub fn cache_counters() -> (u64, u64, u64) {
    (
        MEM_HITS.load(Ordering::Relaxed),
        DISK_HITS.load(Ordering::Relaxed),
        MISSES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------------
// Run reports
// ---------------------------------------------------------------------------

/// Where a capture came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureSource {
    MemoryCache,
    DiskCache,
    Simulated,
}

impl CaptureSource {
    fn as_str(self) -> &'static str {
        match self {
            CaptureSource::MemoryCache => "memory",
            CaptureSource::DiskCache => "disk",
            CaptureSource::Simulated => "simulated",
        }
    }
}

/// One experiment's outcome inside a [`RunReport`].
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    pub label: String,
    pub key: String,
    pub source: CaptureSource,
    pub wall_ms: f64,
    pub intervals: usize,
}

/// Structured record of one engine invocation: observability for long
/// sweeps, and the stable part doubles as a determinism witness.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub name: String,
    pub jobs: usize,
    pub runs: Vec<ExperimentRun>,
    pub total_wall_ms: f64,
}

impl RunReport {
    pub fn mem_hits(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.source == CaptureSource::MemoryCache)
            .count()
    }

    pub fn disk_hits(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.source == CaptureSource::DiskCache)
            .count()
    }

    pub fn misses(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.source == CaptureSource::Simulated)
            .count()
    }

    fn json_with(&self, timing: bool) -> Json {
        let runs: Vec<Json> = self
            .runs
            .iter()
            .map(|r| {
                let mut o = Json::obj()
                    .field("label", r.label.as_str())
                    .field("key", r.key.as_str())
                    .field("source", r.source.as_str())
                    .field("intervals", r.intervals);
                if timing {
                    o = o.field("wall_ms", r.wall_ms);
                }
                o
            })
            .collect();
        let mut o = Json::obj()
            .field("name", self.name.as_str())
            .field("jobs", self.jobs)
            .field("experiments", self.runs.len())
            .field("mem_hits", self.mem_hits())
            .field("disk_hits", self.disk_hits())
            .field("misses", self.misses());
        if timing {
            o = o.field("total_wall_ms", self.total_wall_ms);
        }
        o.field("runs", Json::Arr(runs))
    }

    /// Full JSON value, timing included.
    pub fn json_value(&self) -> Json {
        self.json_with(true)
    }

    /// Full JSON, timing included.
    pub fn to_json(&self) -> String {
        self.json_with(true).to_string()
    }

    /// Publish the deterministic run counters into a metrics registry
    /// (wall times are excluded so the published metrics stay byte-stable
    /// across reruns and job counts, like [`RunReport::stable_json`]).
    pub fn publish(&self, reg: &mut dsm_telemetry::MetricsRegistry) {
        reg.counter_add("harness/experiments", self.runs.len() as u64);
        reg.counter_add("harness/cache/mem_hits", self.mem_hits() as u64);
        reg.counter_add("harness/cache/disk_hits", self.disk_hits() as u64);
        reg.counter_add("harness/cache/misses", self.misses() as u64);
        reg.counter_add(
            "harness/intervals",
            self.runs.iter().map(|r| r.intervals as u64).sum(),
        );
    }

    /// JSON with wall-time fields elided — byte-identical across reruns
    /// and job counts (the determinism witness).
    pub fn stable_json(&self) -> String {
        self.json_with(false).to_string()
    }

    /// One-line human summary for stderr.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} experiments, jobs={}, cache {} mem + {} disk hits / {} simulated, {:.0} ms",
            self.name,
            self.runs.len(),
            self.jobs,
            self.mem_hits(),
            self.disk_hits(),
            self.misses(),
            self.total_wall_ms
        )
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Capture every machine — memory cache, then disk store, then simulation
/// — and return each trace with its source and wall time, in input order.
///
/// Lookups run on the worker pool. Misses that differ only in detector
/// geometry run as one simulation with one collector lane per geometry,
/// and distinct simulations run concurrently. Fresh traces go to the disk
/// store; only [`capture_matrix`] adds to the memory cache, so variant
/// traces do not pile up in it.
pub fn capture_machines(machines: &[Machine]) -> Vec<(Arc<SystemTrace>, CaptureSource, f64)> {
    let store = trace_store();
    let looked_up = par_map(machines.to_vec(), |machine| {
        let t = Instant::now();
        let key = machine.key();
        let hit = if let Some(hit) = trace::memory_cache_get(&key) {
            MEM_HITS.fetch_add(1, Ordering::Relaxed);
            Some((hit, CaptureSource::MemoryCache))
        } else if let Some(hit) = store.as_ref().and_then(|s| s.load(&key)) {
            DISK_HITS.fetch_add(1, Ordering::Relaxed);
            Some((Arc::new(hit), CaptureSource::DiskCache))
        } else {
            None
        };
        (machine, key, hit.map(|(trace, source)| (trace, source, ms_since(t))))
    });

    // One simulation per distinct run among the misses, with one lane per
    // distinct key (geometry) of that run.
    let misses = (0..machines.len()).filter(|&slot| looked_up[slot].2.is_none());
    let runs = group_by(misses, |&slot| machines[slot].simulation());
    MISSES.fetch_add(runs.iter().map(|(_, s)| s.len() as u64).sum(), Ordering::Relaxed);
    let simulated = par_map(runs, |(run, slots)| {
        let t = Instant::now();
        let lanes = group_by(slots, |&slot| looked_up[slot].1.clone());
        let geometries: Vec<DetectorGeometry> =
            lanes.iter().map(|(_, slots)| machines[slots[0]].geometry).collect();
        let traces = run.capture_lanes(&geometries);
        let wall_ms = ms_since(t);
        lanes
            .into_iter()
            .zip(traces)
            .map(|((key, slots), trace)| {
                if let Some(s) = &store {
                    // Best-effort: a full disk never fails the experiment.
                    let _ = s.store(&key, &trace);
                }
                (slots, Arc::new(trace), wall_ms)
            })
            .collect::<Vec<_>>()
    });

    let mut out: Vec<Option<(Arc<SystemTrace>, CaptureSource, f64)>> =
        looked_up.into_iter().map(|(_, _, hit)| hit).collect();
    for (slots, trace, wall_ms) in simulated.into_iter().flatten() {
        for slot in slots {
            out[slot] = Some((trace.clone(), CaptureSource::Simulated, wall_ms));
        }
    }
    out.into_iter()
        .map(|r| r.expect("every machine was looked up or simulated"))
        .collect()
}

/// Group `items` by `key`, groups and members in first-appearance order.
pub(crate) fn group_by<T, K: PartialEq>(
    items: impl IntoIterator<Item = T>,
    key: impl Fn(&T) -> K,
) -> Vec<(K, Vec<T>)> {
    let mut groups: Vec<(K, Vec<T>)> = Vec::new();
    for item in items {
        let k = key(&item);
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, members)) => members.push(item),
            None => groups.push((k, vec![item])),
        }
    }
    groups
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Capture every configuration in `configs` on its default machine through
/// [`capture_machines`] and keep the traces in the memory cache, where
/// [`capture_cached`](crate::trace::capture_cached) finds them. Returns
/// traces in input order plus a [`RunReport`].
pub fn capture_matrix(
    name: &str,
    configs: &[ExperimentConfig],
) -> (Vec<Arc<SystemTrace>>, RunReport) {
    let t0 = Instant::now();
    let machines: Vec<Machine> = configs.iter().map(|&c| Machine::default_for(c)).collect();
    let results = capture_machines(&machines);
    let mut traces = Vec::with_capacity(results.len());
    let mut runs = Vec::with_capacity(results.len());
    for (machine, (trace, source, wall_ms)) in machines.iter().zip(results) {
        let key = machine.key();
        if source != CaptureSource::MemoryCache {
            trace::memory_cache_insert(key.clone(), trace.clone());
        }
        runs.push(ExperimentRun {
            label: machine.config.label(),
            key,
            source,
            wall_ms,
            intervals: trace.total_intervals(),
        });
        traces.push(trace);
    }
    let report = RunReport {
        name: name.to_string(),
        jobs: jobs(),
        runs,
        total_wall_ms: ms_since(t0),
    };
    (traces, report)
}

/// Standard binary preamble: parse `--jobs`/`-j N`, `--cold` (clear the
/// store first), and `--no-cache` (disable persistence); enable the disk
/// store otherwise. Returns the worker count; a bad `--jobs` value prints
/// `usage` and exits 2.
pub fn init_from_args(usage: &str) -> usize {
    let args: Vec<String> = std::env::args().collect();
    let n = jobs_from_args(usage);
    if args.iter().any(|a| a == "--no-cache") {
        set_trace_store_dir(None);
    } else {
        let dir = default_store_dir();
        set_trace_store_dir(Some(dir.clone()));
        if args.iter().any(|a| a == "--cold") {
            if let Ok(store) = TraceStore::open(&dir) {
                store.clear().expect("clear trace store");
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_workloads::App;

    #[test]
    fn par_map_preserves_order_for_any_job_count() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for j in [1, 2, 4, 13] {
            assert_eq!(par_map_jobs(j, items.clone(), |x| x * 3), expect);
        }
    }

    #[test]
    fn budget_guard_clamps_to_host_cores() {
        // Without touching the process-wide jobs knob: the clamp ceiling is
        // at most the hardware core count and the result is always >= 1.
        let clamped = budget_observer_threads(usize::MAX);
        assert!(clamped >= 1);
        assert!(clamped <= default_jobs());
        assert_eq!(budget_observer_threads(0), 1);
        assert!(budget_observer_threads(1) == 1);
    }

    #[test]
    fn par_map_empty_and_single() {
        assert_eq!(par_map_jobs(4, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map_jobs(4, vec![9], |x| x + 1), vec![10]);
    }

    #[test]
    fn run_report_publishes_cache_counters() {
        let report = RunReport {
            name: "t".into(),
            jobs: 2,
            runs: vec![
                ExperimentRun {
                    label: "a".into(),
                    key: "ka".into(),
                    source: CaptureSource::MemoryCache,
                    wall_ms: 1.0,
                    intervals: 5,
                },
                ExperimentRun {
                    label: "b".into(),
                    key: "kb".into(),
                    source: CaptureSource::Simulated,
                    wall_ms: 2.0,
                    intervals: 7,
                },
            ],
            total_wall_ms: 3.0,
        };
        let mut reg = dsm_telemetry::MetricsRegistry::new();
        report.publish(&mut reg);
        assert_eq!(reg.counter_value("harness/experiments"), Some(2));
        assert_eq!(reg.counter_value("harness/cache/mem_hits"), Some(1));
        assert_eq!(reg.counter_value("harness/cache/disk_hits"), Some(0));
        assert_eq!(reg.counter_value("harness/cache/misses"), Some(1));
        assert_eq!(reg.counter_value("harness/intervals"), Some(12));
        // No wall-time metric leaks in: the dump must stay deterministic.
        assert!(reg.gauge_value("harness/total_wall_ms").is_none());
    }

    #[test]
    fn fnv_is_stable() {
        // Known FNV-1a vectors — the cache key must never drift silently.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn cache_key_separates_every_field() {
        let base = ExperimentConfig::test(App::Lu, 2);
        let variants = [
            ExperimentConfig {
                app: App::Fmm,
                ..base
            },
            ExperimentConfig { n_procs: 4, ..base },
            ExperimentConfig {
                scale: dsm_workloads::Scale::Scaled,
                ..base
            },
            ExperimentConfig {
                interval_base: base.interval_base + 1,
                ..base
            },
        ];
        let k0 = cache_key(&base);
        let same = ExperimentConfig { ..base };
        assert_eq!(k0, cache_key(&same));
        for v in variants {
            assert_ne!(k0, cache_key(&v), "{v:?}");
        }
    }

    #[test]
    fn trace_codec_roundtrips_exactly() {
        let trace = trace::capture(ExperimentConfig::test(App::Lu, 2));
        let store = TraceStore::open(
            std::env::temp_dir().join(format!("dsm-store-test-{}", std::process::id())),
        )
        .unwrap();
        let key = cache_key(&trace.config);
        store.store(&key, &trace).unwrap();
        let back = store.load(&key).expect("load stored trace");
        assert_eq!(back.config, trace.config);
        assert_eq!(back.records, trace.records);
        assert_eq!(back.stats, trace.stats);
        assert_eq!(back.ddv_vectors_exchanged, trace.ddv_vectors_exchanged);
        store.clear().unwrap();
        assert!(store.load(&key).is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_store_entries_are_misses() {
        let dir = std::env::temp_dir().join(format!("dsm-store-corrupt-{}", std::process::id()));
        let store = TraceStore::open(&dir).unwrap();
        std::fs::write(store.dir().join("bad.trace"), b"DSMTRC2\n\x09garbage").unwrap();
        assert!(store.load("bad").is_none());
        let _ = std::fs::remove_dir_all(dir);
    }
}
