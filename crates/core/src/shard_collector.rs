//! Sharded trace collection: the serial coordinator stages observer events
//! and host worker threads drain them in parallel.
//!
//! Profiling a 64P capture shows 70–95% of wall time inside the observer —
//! almost all of it in the end-of-interval work (BBV normalization, row
//! drains, record assembly), not in the simulator proper. The event loop
//! itself must stay serial to keep the global `(cycle, id)` execution order
//! bit-exact, so this module parallelizes the other side of the boundary:
//!
//! * **Coordinator (serial, on the simulation thread).** Every observer
//!   callback is staged as a compact `Op` in a per-processor queue. The
//!   only work done inline is the part that needs *global* order: the O(n)
//!   DDV aggregate (`G[home] += 1` per memory commit) and, at interval end,
//!   the contention-vector gather `C = G - S_i` ([`DdvState`]'s fast path),
//!   whose result rides inside the staged interval op.
//! * **Workers (parallel, at drain points).** Everything left is
//!   per-processor-disjoint: BBV/working-set/branch accumulation, the
//!   node's own frequency matrix, the `F_i` row drain, the DDS fold, and
//!   record assembly. Workers claim whole processors from a shared queue
//!   (work stealing — a claim outside a worker's nominal range counts as a
//!   steal) and never touch another processor's state, so the result is
//!   bit-identical to the serial [`TraceCollector`] regardless of thread
//!   count or interleaving.
//!
//! Drains happen at conservative window boundaries
//! ([`SimObserver::on_window_close`]) once enough ops are staged, and
//! unconditionally before any state export — checkpoints therefore see
//! exactly the serial collector's state.

use dsm_sim::observer::{IntervalStats, SimObserver};

use crate::ddv::{DdsSample, DdvState, FrequencyMatrix};
use crate::detector::{
    close_interval, commit_block, CollectorState, DetectorGeometry, ProcLane, TraceCollector,
};

/// One staged observer event. `Block`/`Mem` are the per-event hot path and
/// stay pointer-free; `Interval` carries the coordinator-gathered `C`.
#[derive(Debug, Clone)]
enum Op {
    Block { bb: u32, insns: u32 },
    Mem { home: usize },
    Interval { stats: IntervalStats, cvec: Vec<u64> },
}

/// Counters describing the parallel drains (telemetry only — they do not
/// affect any captured value).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainCounters {
    /// Parallel drains executed.
    pub drains: u64,
    /// Processor queues processed across all drains.
    pub proc_queues: u64,
    /// Queues claimed by a worker outside its nominal range (work steals).
    pub steals: u64,
    /// Total ops staged over the collector's lifetime.
    pub ops_staged: u64,
}

/// A [`TraceCollector`] whose per-event work runs on host worker threads.
///
/// Implements [`SimObserver`] exactly like [`TraceCollector`] and produces
/// bit-identical state; [`ShardedCollector::into_inner`] (or
/// [`ShardedCollector::export_state`]) drains outstanding work and yields
/// it.
pub struct ShardedCollector {
    inner: TraceCollector,
    threads: usize,
    /// Staged ops per processor since the last drain.
    staged: Vec<Vec<Op>>,
    outstanding: usize,
    /// Drain at a window boundary once this many ops are staged.
    drain_budget: usize,
    counters: DrainCounters,
}

impl ShardedCollector {
    /// Ops staged before a window-boundary drain triggers. Large enough to
    /// amortize thread wake-up, small enough to bound staging memory.
    pub const DEFAULT_DRAIN_BUDGET: usize = 1 << 15;

    /// Wrap `inner`, draining with `threads` workers (clamped to ≥ 1).
    pub fn new(inner: TraceCollector, threads: usize) -> Self {
        let n = inner.n_procs();
        Self {
            inner,
            threads: threads.max(1),
            staged: vec![Vec::new(); n],
            outstanding: 0,
            drain_budget: Self::DEFAULT_DRAIN_BUDGET,
            counters: DrainCounters::default(),
        }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    pub fn counters(&self) -> DrainCounters {
        self.counters
    }

    /// Ops currently staged and not yet drained.
    pub fn outstanding_ops(&self) -> usize {
        self.outstanding
    }

    /// Publish the drain counters into a metrics registry, alongside the
    /// simulator's `sim/shard/*` window counters (the scale sweep and the
    /// harness exporters read both).
    pub fn publish_metrics(&self, prefix: &str, reg: &mut dsm_telemetry::MetricsRegistry) {
        reg.counter_add(&format!("{prefix}/drains"), self.counters.drains);
        reg.counter_add(&format!("{prefix}/proc_queues"), self.counters.proc_queues);
        reg.counter_add(&format!("{prefix}/steals"), self.counters.steals);
        reg.counter_add(&format!("{prefix}/ops_staged"), self.counters.ops_staged);
        reg.counter_add(&format!("{prefix}/worker_threads"), self.threads as u64);
    }

    pub fn set_drain_budget(&mut self, ops: usize) {
        self.drain_budget = ops.max(1);
    }

    pub fn geometry(&self) -> DetectorGeometry {
        self.inner.geometry()
    }

    /// Drain staged work and expose the (now fully caught-up) collector.
    pub fn collector(&mut self) -> &TraceCollector {
        self.drain();
        &self.inner
    }

    /// Drain staged work and take the collector.
    pub fn into_inner(mut self) -> TraceCollector {
        self.drain();
        self.inner
    }

    /// Drain staged work, then export — identical bytes to the serial
    /// collector's export after the same event sequence.
    pub fn export_state(&mut self) -> CollectorState {
        self.drain();
        self.inner.export_state()
    }

    /// Restore serial-collector state; any staged-but-undrained ops are
    /// dropped (they are part of neither the snapshot nor the resumed run).
    pub fn import_state(&mut self, st: &CollectorState) {
        for q in &mut self.staged {
            q.clear();
        }
        self.outstanding = 0;
        self.inner.import_state(st);
    }

    /// Process every staged queue, in parallel when `threads > 1`.
    pub fn drain(&mut self) {
        if self.outstanding == 0 {
            return;
        }
        self.counters.drains += 1;
        let n = self.staged.len();
        let threads = self.threads.min(n);
        let n_lanes = self.inner.n_lanes();
        let (mats, dist) = self.inner.ddv.mats_and_dist();
        // Per-processor work units: disjoint &mut into the collector's
        // parallel arrays, claimed whole by workers.
        struct Unit<'a> {
            proc: usize,
            ops: &'a mut Vec<Op>,
            lanes: &'a mut [ProcLane],
            mat: &'a mut FrequencyMatrix,
            dist_row: &'a [f64],
        }
        let mut units: Vec<Option<Unit>> = self
            .staged
            .iter_mut()
            .zip(self.inner.lanes.chunks_mut(n_lanes))
            .zip(mats.iter_mut())
            .enumerate()
            .map(|(proc, ((ops, lanes), mat))| {
                let dist_row = &dist[proc * n..(proc + 1) * n];
                Some(Unit { proc, ops, lanes, mat, dist_row })
            })
            .collect();

        fn run_unit(u: &mut Unit, n: usize) {
            for op in u.ops.drain(..) {
                match op {
                    Op::Block { bb, insns } => commit_block(u.lanes, bb, insns),
                    Op::Mem { home } => u.mat.record(home),
                    Op::Interval { stats, cvec } => {
                        let mut fvec = vec![0u64; n];
                        u.mat.drain_row_into(u.proc, &mut fvec);
                        let dds = DdvState::dds_of(&fvec, u.dist_row, &cvec);
                        close_interval(u.lanes, u.proc, stats, DdsSample { fvec, cvec, dds });
                    }
                }
            }
        }

        let mut queues = 0u64;
        let mut steals = 0u64;
        if threads <= 1 {
            for u in units.iter_mut().flatten() {
                queues += 1;
                run_unit(u, n);
            }
        } else {
            use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
            use std::sync::Mutex;
            let pool: Vec<Mutex<Option<Unit>>> = units.into_iter().map(Mutex::new).collect();
            let next = AtomicUsize::new(0);
            let stolen = AtomicU64::new(0);
            std::thread::scope(|s| {
                for tid in 0..threads {
                    let pool = &pool;
                    let next = &next;
                    let stolen = &stolen;
                    s.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= pool.len() {
                            break;
                        }
                        // Nominal owner: the worker this processor would
                        // land on under a static balanced split. Claiming
                        // someone else's processor is a steal.
                        if i * threads / pool.len() != tid {
                            stolen.fetch_add(1, Ordering::Relaxed);
                        }
                        let mut u = pool[i].lock().unwrap().take().expect("unit claimed twice");
                        run_unit(&mut u, pool.len());
                    });
                }
            });
            queues = pool.len() as u64;
            steals = stolen.into_inner();
            units = Vec::new();
        }
        let _ = units;
        self.counters.proc_queues += queues;
        self.counters.steals += steals;
        self.outstanding = 0;
    }

    #[inline]
    fn stage(&mut self, proc: usize, op: Op) {
        self.staged[proc].push(op);
        self.outstanding += 1;
        self.counters.ops_staged += 1;
    }
}

impl SimObserver for ShardedCollector {
    #[inline]
    fn on_block_commit(&mut self, proc: usize, bb: u32, insns: u32) {
        // With no workers, staging buys nothing — forward inline (the
        // serial collector's exact code path).
        if self.threads <= 1 {
            self.inner.on_block_commit(proc, bb, insns);
            return;
        }
        self.stage(proc, Op::Block { bb, insns });
    }

    #[inline]
    fn on_mem_commit(&mut self, proc: usize, home: usize, addr: u64, write: bool) {
        if self.threads <= 1 {
            self.inner.on_mem_commit(proc, home, addr, write);
            return;
        }
        // Global order matters only for the aggregate; the per-node matrix
        // bump is deferred to the owning worker.
        self.inner.ddv.record_home_global(home);
        self.stage(proc, Op::Mem { home });
    }

    fn on_interval(&mut self, proc: usize, stats: IntervalStats) {
        if self.threads <= 1 {
            self.inner.on_interval(proc, stats);
            return;
        }
        // The gather reads `G` (all processors' commits so far, in exact
        // observer order), so it must run on the coordinator, here.
        let mut cvec = Vec::new();
        self.inner.ddv.gather_cvec_into(proc, &mut cvec);
        self.stage(proc, Op::Interval { stats, cvec });
    }

    fn on_window_close(&mut self, _window: u64, _next_horizon: u64) {
        if self.outstanding >= self.drain_budget {
            self.drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(n: usize) -> Vec<f64> {
        (0..n * n)
            .map(|k| if k / n == k % n { 1.0 } else { 1.0 + (((k / n) ^ (k % n)) as u64).count_ones() as f64 })
            .collect()
    }

    /// Feed both collectors an identical pseudo-random event sequence with
    /// interleaved window closes; their exported state must match exactly.
    fn drive_both(n: usize, threads: usize, budget: usize, steps: u64) {
        let geometry = [DetectorGeometry::default()];
        let (serial, mut sharded) = drive_lanes(&geometry, n, threads, budget, steps);
        assert_eq!(
            sharded.export_state(),
            serial.export_state(),
            "n = {n}, threads = {threads}, budget = {budget}"
        );
        assert!(sharded.counters().drains > 0 || sharded.counters().ops_staged == 0);
    }

    fn drive_lanes(
        geometries: &[DetectorGeometry],
        n: usize,
        threads: usize,
        budget: usize,
        steps: u64,
    ) -> (TraceCollector, ShardedCollector) {
        let mut serial = TraceCollector::with_lanes(n, dist(n), geometries);
        let mut sharded =
            ShardedCollector::new(TraceCollector::with_lanes(n, dist(n), geometries), threads);
        sharded.set_drain_budget(budget);
        let mut x = 0x5eed_0000 + n as u64 * 31 + threads as u64;
        let mut intervals = vec![0u64; n];
        for step in 0..steps {
            x = dsm_sim::util::splitmix64(x);
            let p = (x % n as u64) as usize;
            match (x >> 8) % 10 {
                0..=3 => {
                    let (bb, insns) = (((x >> 16) % 97) as u32, ((x >> 24) % 30 + 1) as u32);
                    serial.on_block_commit(p, bb, insns);
                    sharded.on_block_commit(p, bb, insns);
                }
                4..=8 => {
                    let home = ((x >> 16) % n as u64) as usize;
                    serial.on_mem_commit(p, home, 0x40 * home as u64, x & 1 == 0);
                    sharded.on_mem_commit(p, home, 0x40 * home as u64, x & 1 == 0);
                }
                _ => {
                    let st = IntervalStats {
                        index: intervals[p],
                        insns: (x >> 16) % 5000 + 1,
                        cycles: (x >> 16) % 5000 + 500,
                    };
                    intervals[p] += 1;
                    serial.on_interval(p, st);
                    sharded.on_interval(p, st);
                }
            }
            if step % 23 == 0 {
                serial.on_window_close(step / 23, step);
                sharded.on_window_close(step / 23, step);
            }
        }
        (serial, sharded)
    }

    #[test]
    fn sharded_collector_matches_serial_in_every_lane() {
        let geometries = [
            DetectorGeometry::default(),
            DetectorGeometry { bbv_entries: 8, footprint_vectors: 8, ws_bits: 128 },
        ];
        let (serial, sharded) = drive_lanes(&geometries, 4, 3, 64, 1200);
        let lanes = serial.into_lanes();
        assert!(lanes[1].iter().all(|r| !r.is_empty()));
        assert_eq!(sharded.into_inner().into_lanes(), lanes);
    }

    #[test]
    fn sharded_collector_matches_serial_across_thread_counts() {
        for n in [1usize, 2, 4, 8] {
            for threads in [1usize, 2, 4, 9] {
                drive_both(n, threads, 64, 1200);
            }
        }
    }

    #[test]
    fn sharded_collector_matches_serial_with_tiny_and_huge_budgets() {
        drive_both(4, 3, 1, 800); // drain at every window close
        drive_both(4, 3, usize::MAX, 800); // only the final export drains
    }

    #[test]
    fn into_inner_drains_outstanding_work() {
        let g = DetectorGeometry::default();
        let mut sharded = ShardedCollector::new(TraceCollector::new(2, dist(2), g), 2);
        sharded.on_block_commit(0, 3, 10);
        sharded.on_mem_commit(0, 1, 0x40, false);
        sharded.on_interval(0, IntervalStats { index: 0, insns: 10, cycles: 20 });
        assert_eq!(sharded.outstanding_ops(), 3);
        let inner = sharded.into_inner();
        assert_eq!(inner.records(0).len(), 1);
        assert_eq!(inner.records(0)[0].fvec, vec![0, 1]);
    }

    #[test]
    fn import_state_discards_staged_ops() {
        let g = DetectorGeometry::default();
        let mut a = ShardedCollector::new(TraceCollector::new(2, dist(2), g), 2);
        a.on_block_commit(0, 3, 10);
        a.on_interval(0, IntervalStats { index: 0, insns: 10, cycles: 20 });
        let snap = a.export_state();
        a.on_block_commit(1, 9, 5); // staged after the snapshot
        a.import_state(&snap);
        assert_eq!(a.outstanding_ops(), 0);
        assert_eq!(a.export_state(), snap);
    }

    #[test]
    fn steals_are_counted_when_threads_outnumber_late_queues() {
        // With 2 threads and 8 processors, any claim off a worker's nominal
        // half is a steal; totals stay exact regardless.
        let g = DetectorGeometry::default();
        let mut sharded = ShardedCollector::new(TraceCollector::new(8, dist(8), g), 2);
        for p in 0..8 {
            for k in 0..50 {
                sharded.on_mem_commit(p, (p + k) % 8, 0, false);
            }
        }
        sharded.drain();
        let c = sharded.counters();
        assert_eq!(c.drains, 1);
        assert_eq!(c.proc_queues, 8);
        assert_eq!(c.ops_staged, 400);
    }

    #[test]
    fn drain_counters_publish_to_the_registry() {
        let g = DetectorGeometry::default();
        let mut sharded = ShardedCollector::new(TraceCollector::new(4, dist(4), g), 2);
        for p in 0..4 {
            sharded.on_mem_commit(p, (p + 1) % 4, 0, false);
        }
        sharded.drain();
        let mut reg = dsm_telemetry::MetricsRegistry::new();
        sharded.publish_metrics("phase/shard", &mut reg);
        assert_eq!(reg.counter_value("phase/shard/drains"), Some(1));
        assert_eq!(reg.counter_value("phase/shard/proc_queues"), Some(4));
        assert_eq!(reg.counter_value("phase/shard/ops_staged"), Some(4));
        assert_eq!(reg.counter_value("phase/shard/steals"), Some(sharded.counters().steals));
        assert_eq!(reg.counter_value("phase/shard/worker_threads"), Some(2));
    }
}
