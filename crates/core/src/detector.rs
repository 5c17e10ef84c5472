//! End-to-end phase detectors as simulator observers.
//!
//! Two ways to use the machinery:
//!
//! * [`OnlineDetector`] — a [`SimObserver`] that classifies every sampling
//!   interval as it completes, exactly as the paper's hardware would
//!   (BBV accumulator + DDV query + footprint-table lookup per interval).
//! * [`TraceCollector`] — records each interval's *feature snapshot*
//!   (normalized BBV, `F_i`, `C`, DDS, working-set signature, branch
//!   count, CPI) without classifying; a
//!   [`ClassifierBank`] then replays the
//!   footprint-table logic offline for any threshold. Because
//!   classification never feeds back into execution in the paper's
//!   evaluation, sweeping 200 thresholds offline over one captured trace is
//!   exactly equivalent to 200 simulated runs — an integration test asserts
//!   online/offline agreement.

use serde::{Deserialize, Serialize};

use dsm_sim::observer::{IntervalStats, SimObserver};

use crate::bbv::BbvAccumulator;
use crate::ddv::{DdsSample, DdvSnap, DdvState};
use crate::footprint::FootprintTable;
use crate::signature::{ClassifierBank, Gather};
use crate::telem::{DetectorProbes, DetectorTelemetry, MetricsRegistry, Snapshot};
use crate::working_set::WsSignature;
use crate::{DEFAULT_BBV_ENTRIES, DEFAULT_FOOTPRINT_VECTORS};

/// Which signature the classifier gates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorMode {
    /// Sherwood's uniprocessor baseline: BBV Manhattan distance only.
    Bbv,
    /// The paper's detector: BBV distance *and* DDS difference must both
    /// fall under their thresholds.
    BbvDdv,
}

/// Classification thresholds. `dds` is ignored in [`DetectorMode::Bbv`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    /// BBV Manhattan-distance threshold (normalized vectors; range [0, 2]).
    pub bbv: f64,
    /// Relative DDS-difference threshold (range [0, 1]).
    pub dds: f64,
}

impl Thresholds {
    pub fn bbv_only(bbv: f64) -> Self {
        Self { bbv, dds: 1.0 }
    }
}

/// Everything the hardware saw about one completed sampling interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalRecord {
    pub proc: usize,
    pub index: u64,
    /// Committed non-sync instructions.
    pub insns: u64,
    /// Elapsed cycles.
    pub cycles: u64,
    /// Normalized BBV accumulator.
    pub bbv: Vec<f64>,
    /// The requester's own per-home access counts (`F_i`).
    pub fvec: Vec<u64>,
    /// The contention vector (`C`).
    pub cvec: Vec<u64>,
    /// The data distribution scalar.
    pub dds: f64,
    /// Working-set signature words (Dhodapkar–Smith baseline).
    pub ws_sig: Vec<u64>,
    /// Committed dynamic branches (Balasubramonian baseline).
    pub branches: u64,
}

impl IntervalRecord {
    pub fn cpi(&self) -> f64 {
        if self.insns == 0 {
            0.0
        } else {
            self.cycles as f64 / self.insns as f64
        }
    }
}

/// Per-interval output of the online detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassifiedInterval {
    pub proc: usize,
    pub index: u64,
    pub phase_id: u32,
    pub is_new_phase: bool,
    pub cpi: f64,
    /// The DDS was too stale to trust (row staleness exceeded the
    /// [`AvailabilityModel`] bound) and this interval was classified
    /// BBV-only. Always false on a reliable system.
    pub degraded: bool,
}

/// When and how remote DDV rows miss the end-of-interval collection
/// deadline, and how stale a substituted row may be before classification
/// stops trusting the DDS.
///
/// Misses are a pure seeded hash of `(requester, source, interval)` —
/// deterministic, order-independent, and reproducible across runs. The
/// deadline itself is time-budget-equivalent to
/// `Network::max_one_way + RetryPolicy::worst_case_recovery_cycles`: a row
/// either makes that budget (delivered, possibly after retries) or it
/// escalated/failed and is modelled as missing here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AvailabilityModel {
    /// Seed for the per-(requester, source, interval) miss draws.
    pub seed: u64,
    /// Probability (parts per million) that a remote row misses the
    /// collection deadline.
    pub miss_ppm: u32,
    /// Staleness bound: a gather whose most-stale substituted row exceeds
    /// this many consecutive misses degrades classification to BBV-only.
    pub max_staleness: u64,
}

impl AvailabilityModel {
    /// A fully reliable system: every row always arrives.
    pub fn reliable() -> Self {
        Self { seed: 0, miss_ppm: 0, max_staleness: 0 }
    }

    /// Whether `source`'s row misses `requester`'s gather for `interval`.
    #[inline]
    pub fn row_missed(&self, requester: usize, source: usize, interval: u64) -> bool {
        if self.miss_ppm == 0 {
            return false;
        }
        const PHI: u64 = 0x9e37_79b9_7f4a_7c15;
        let h = dsm_sim::util::splitmix64(
            self.seed
                ^ (requester as u64 + 1).wrapping_mul(PHI)
                ^ (source as u64 + 1).rotate_left(32)
                ^ interval.wrapping_mul(0xd134_2543_de82_ef95),
        );
        ((h % 1_000_000) as u32) < self.miss_ppm
    }
}

/// Size knobs shared by the observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorGeometry {
    /// BBV accumulator entries (32 in the paper).
    pub bbv_entries: usize,
    /// Footprint-table vectors (32 in the paper).
    pub footprint_vectors: usize,
    /// Working-set signature bits (collector only).
    pub ws_bits: usize,
}

impl Default for DetectorGeometry {
    fn default() -> Self {
        Self {
            bbv_entries: DEFAULT_BBV_ENTRIES,
            footprint_vectors: DEFAULT_FOOTPRINT_VECTORS,
            ws_bits: 1024,
        }
    }
}

// ---------------------------------------------------------------------------
// Trace collection (classification-free observer)
// ---------------------------------------------------------------------------

/// One processor's view through one detector geometry: the mid-interval
/// BBV, working-set signature and committed branch count, and the records
/// closed so far.
pub(crate) struct ProcLane {
    bbv: BbvAccumulator,
    ws: WsSignature,
    branches: u64,
    records: Vec<IntervalRecord>,
}

impl ProcLane {
    fn new(geometry: DetectorGeometry) -> Self {
        Self {
            bbv: BbvAccumulator::new(geometry.bbv_entries),
            ws: WsSignature::new(geometry.ws_bits),
            branches: 0,
            records: Vec::new(),
        }
    }

    #[inline]
    fn on_block_commit(&mut self, bb: u32, insns: u32) {
        self.bbv.record(bb, insns);
        self.ws.insert(bb);
        self.branches += 1;
    }

    /// Snapshot the accumulators next to the gathered DDV `sample` into a
    /// record, then reset them.
    fn close(&mut self, proc: usize, stats: IntervalStats, sample: DdsSample) {
        self.records.push(IntervalRecord {
            proc,
            index: stats.index,
            insns: stats.insns,
            cycles: stats.cycles,
            bbv: self.bbv.normalized(),
            fvec: sample.fvec,
            cvec: sample.cvec,
            dds: sample.dds,
            ws_sig: self.ws.words().to_vec(),
            branches: self.branches,
        });
        self.bbv.reset();
        self.ws.clear();
        self.branches = 0;
    }
}

/// Feed one committed block to every lane of a processor.
#[inline]
pub(crate) fn commit_block(lanes: &mut [ProcLane], bb: u32, insns: u32) {
    for lane in lanes {
        lane.on_block_commit(bb, insns);
    }
}

/// Close `proc`'s interval in every lane: each lane snapshots its own
/// accumulators next to the one gathered DDV `sample`. The one record
/// assembly of the serial and sharded collectors.
pub(crate) fn close_interval(
    lanes: &mut [ProcLane],
    proc: usize,
    stats: IntervalStats,
    sample: DdsSample,
) {
    let (first, rest) = lanes.split_first_mut().expect("a collector has at least one lane");
    for lane in rest {
        lane.close(proc, stats, sample.clone());
    }
    first.close(proc, stats, sample);
}

/// Records per-interval feature snapshots for offline classification.
///
/// A collector observes the run through one or more detector geometries
/// (*lanes*). Only the BBV, working-set and branch accumulators depend on
/// the geometry, so each lane keeps its own, while the DDV gather runs once
/// per interval and its sample goes to every lane. The run itself never
/// depends on the observer, so lane `k` records exactly what a one-lane
/// collector with geometry `k` would.
pub struct TraceCollector {
    geometries: Vec<DetectorGeometry>,
    /// Processor-major: processor `p`'s lanes, one per geometry in
    /// `geometries` order, are `lanes[p * k..(p + 1) * k]` for `k` lanes.
    pub(crate) lanes: Vec<ProcLane>,
    pub(crate) ddv: DdvState,
    /// Use the pre-optimization O(n²) all-to-one gather at interval ends
    /// (the scaling benchmark's reference arm). Must be chosen before the
    /// run — the fast and reference gathers keep different snapshot state
    /// and cannot be mixed on one instance.
    pub(crate) reference_gather: bool,
}

impl TraceCollector {
    /// A one-lane collector. `dist` is the n×n DDV distance matrix (see
    /// [`dsm_sim::network::Network::distance_matrix`]).
    pub fn new(n_procs: usize, dist: Vec<f64>, geometry: DetectorGeometry) -> Self {
        Self::with_lanes(n_procs, dist, &[geometry])
    }

    /// A collector with one lane per entry of `geometries` (at least one).
    pub fn with_lanes(n_procs: usize, dist: Vec<f64>, geometries: &[DetectorGeometry]) -> Self {
        Self::with_ddv(DdvState::new(n_procs, dist), geometries)
    }

    /// Hypercube convenience constructor (one lane).
    pub fn for_hypercube(n_procs: usize, geometry: DetectorGeometry) -> Self {
        Self::with_ddv(DdvState::for_hypercube(n_procs), &[geometry])
    }

    fn with_ddv(ddv: DdvState, geometries: &[DetectorGeometry]) -> Self {
        assert!(!geometries.is_empty(), "a collector needs at least one geometry");
        let lanes = (0..ddv.n())
            .flat_map(|_| geometries.iter().map(|&g| ProcLane::new(g)))
            .collect();
        Self {
            lanes,
            ddv,
            geometries: geometries.to_vec(),
            reference_gather: false,
        }
    }

    /// The first lane's geometry.
    pub fn geometry(&self) -> DetectorGeometry {
        self.geometries[0]
    }

    /// Number of processors observed.
    pub fn n_procs(&self) -> usize {
        self.lanes.len() / self.geometries.len()
    }

    /// Number of lanes (detector geometries) per processor.
    pub(crate) fn n_lanes(&self) -> usize {
        self.geometries.len()
    }

    /// Processor `proc`'s lanes.
    #[inline]
    fn lanes_of(&mut self, proc: usize) -> &mut [ProcLane] {
        let k = self.geometries.len();
        &mut self.lanes[proc * k..(proc + 1) * k]
    }

    /// The first lane's records for `proc`, in interval order.
    pub fn records(&self, proc: usize) -> &[IntervalRecord] {
        &self.lanes[proc * self.geometries.len()].records
    }

    /// The first lane's records, per processor.
    pub fn into_records(self) -> Vec<Vec<IntervalRecord>> {
        self.into_lanes().swap_remove(0)
    }

    /// Every lane's records, per processor, in `geometries` order.
    pub fn into_lanes(self) -> Vec<Vec<Vec<IntervalRecord>>> {
        let k = self.geometries.len();
        let mut out = vec![Vec::with_capacity(self.lanes.len() / k); k];
        for (i, lane) in self.lanes.into_iter().enumerate() {
            out[i % k].push(lane.records);
        }
        out
    }

    pub fn ddv(&self) -> &DdvState {
        &self.ddv
    }

    /// Mutable DDV state, for pre-run configuration (collection topology).
    pub fn ddv_mut(&mut self) -> &mut DdvState {
        &mut self.ddv
    }

    /// Switch interval ends to the pre-optimization O(n²) all-to-one
    /// gather ([`DdvState::end_interval_reference_into`]). The scaling
    /// benchmark's reference arm; set before the run and never mid-run
    /// (the two gather styles keep different snapshot state).
    pub fn set_reference_gather(&mut self, on: bool) {
        self.reference_gather = on;
    }

    /// Total intervals captured across all processors (first lane).
    pub fn total_intervals(&self) -> usize {
        self.lanes.iter().step_by(self.geometries.len()).map(|l| l.records.len()).sum()
    }

    /// Export the full dynamic state — mid-interval accumulators plus the
    /// captured records — for checkpointing. A checkpoint describes one
    /// geometry, so the collector must have one lane.
    pub fn export_state(&self) -> CollectorState {
        assert_eq!(self.geometries.len(), 1, "collector state is defined for one lane");
        CollectorState {
            bbv: self.lanes.iter().map(|a| a.bbv.raw().to_vec()).collect(),
            ws: self.lanes.iter().map(|a| a.ws.words().to_vec()).collect(),
            branches: self.lanes.iter().map(|a| a.branches).collect(),
            ddv: self.ddv.export_state(),
            records: self.lanes.iter().map(|a| a.records.clone()).collect(),
        }
    }

    /// Restore state captured by [`TraceCollector::export_state`] into a
    /// one-lane collector built with the same geometry and processor count.
    pub fn import_state(&mut self, st: &CollectorState) {
        let n = self.n_procs();
        assert!(
            st.bbv.len() == n
                && st.ws.len() == n
                && st.branches.len() == n
                && st.records.len() == n,
            "collector snapshot is for a different machine"
        );
        assert_eq!(self.geometries.len(), 1, "collector state is defined for one lane");
        let rows = st.bbv.iter().zip(&st.ws).zip(&st.branches).zip(&st.records);
        for (a, (((raw, words), &branches), records)) in self.lanes.iter_mut().zip(rows) {
            assert_eq!(raw.len(), a.bbv.len(), "collector snapshot has a different BBV geometry");
            assert_eq!(words.len() * 64, a.ws.bits(), "collector snapshot has a different WS geometry");
            a.bbv = BbvAccumulator::from_raw(raw.clone());
            a.ws = WsSignature::from_words(words.clone());
            a.branches = branches;
            a.records = records.clone();
        }
        self.ddv.import_state(&st.ddv);
    }
}

/// [`TraceCollector`]'s complete dynamic state: the mid-interval hardware
/// accumulators (raw BBV buckets, working-set words, branch counts, DDV
/// matrices) plus every interval record captured so far. Geometry and the
/// distance matrix are config-derived and not stored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectorState {
    /// Raw BBV bucket values per processor.
    pub bbv: Vec<Vec<u64>>,
    /// Working-set signature words per processor.
    pub ws: Vec<Vec<u64>>,
    /// Committed branch count per processor (current interval).
    pub branches: Vec<u64>,
    pub ddv: DdvSnap,
    /// Captured records, per processor, in interval order.
    pub records: Vec<Vec<IntervalRecord>>,
}

impl SimObserver for TraceCollector {
    #[inline]
    fn on_block_commit(&mut self, proc: usize, bb: u32, insns: u32) {
        commit_block(self.lanes_of(proc), bb, insns);
    }

    #[inline]
    fn on_mem_commit(&mut self, proc: usize, home: usize, _addr: u64, _write: bool) {
        self.ddv.record_access(proc, home);
    }

    fn on_interval(&mut self, proc: usize, stats: IntervalStats) {
        let sample = if self.reference_gather {
            let mut s = DdsSample::empty();
            self.ddv.end_interval_reference_into(proc, &mut s);
            s
        } else {
            self.ddv.end_interval(proc)
        };
        close_interval(self.lanes_of(proc), proc, stats, sample);
    }
}

// ---------------------------------------------------------------------------
// Online detection (the hardware path)
// ---------------------------------------------------------------------------

/// Classifies intervals as they complete, like the paper's hardware.
///
/// Internally this is the gather half fused with a [`ClassifierBank`] —
/// the same kernel `dsm-serve` runs per tenant, so in-simulator and served
/// classification are bit-identical by construction.
pub struct OnlineDetector {
    gather: Gather,
    bank: ClassifierBank,
    /// Classified intervals, per processor, in order.
    pub classified: Vec<Vec<ClassifiedInterval>>,
    /// Telemetry recorder (no-op stub unless the `telemetry` feature is on).
    telem: DetectorTelemetry,
    probes: DetectorProbes,
    /// Cumulative interval cycles per processor — the timestamp base for
    /// classification spans (one plain add per *interval*, not per event).
    cum_cycles: Vec<u64>,
}

impl OnlineDetector {
    pub fn new(
        n_procs: usize,
        dist: Vec<f64>,
        mode: DetectorMode,
        thresholds: Thresholds,
        geometry: DetectorGeometry,
    ) -> Self {
        let reliable = AvailabilityModel::reliable();
        Self::with_availability(n_procs, dist, mode, thresholds, geometry, reliable)
    }

    /// A detector whose DDV row gathers are subject to `model`'s collection
    /// deadline. With `miss_ppm == 0` this behaves exactly like
    /// [`OnlineDetector::new`].
    pub fn with_availability(
        n_procs: usize,
        dist: Vec<f64>,
        mode: DetectorMode,
        thresholds: Thresholds,
        geometry: DetectorGeometry,
        model: AvailabilityModel,
    ) -> Self {
        let mut telem = DetectorTelemetry::new(n_procs);
        let probes = DetectorProbes::register(&mut telem, n_procs);
        Self {
            gather: Gather::new(n_procs, dist, geometry, model),
            bank: ClassifierBank::new(n_procs, mode, thresholds, geometry.footprint_vectors),
            classified: vec![Vec::new(); n_procs],
            telem,
            probes,
            cum_cycles: vec![0; n_procs],
        }
    }

    pub fn mode(&self) -> DetectorMode {
        self.bank.mode()
    }

    pub fn thresholds(&self) -> Thresholds {
        self.bank.thresholds()
    }

    /// The availability model in force, if any.
    pub fn availability(&self) -> Option<&AvailabilityModel> {
        self.gather.availability.as_ref().map(|(m, _)| m)
    }

    /// Total DDV rows substituted from stale caches so far.
    pub fn rows_substituted(&self) -> u64 {
        self.gather.availability.as_ref().map_or(0, |(_, c)| c.substitutions())
    }

    /// Forget processor `proc`'s staleness state (context switch: the
    /// incoming thread must not inherit the outgoing thread's stale rows).
    pub fn reset_staleness(&mut self, proc: usize) {
        if let Some((_, c)) = &mut self.gather.availability {
            c.reset_requester(proc);
        }
    }

    /// The footprint table of one processor (inspection / persistence).
    pub fn table(&self, proc: usize) -> &FootprintTable {
        self.bank.table(proc)
    }

    /// Phase id of the most recent interval on `proc`, if any.
    pub fn current_phase(&self, proc: usize) -> Option<u32> {
        self.classified[proc].last().map(|c| c.phase_id)
    }

    /// Telemetry recorded so far (empty unless the `telemetry` feature is
    /// on): per-processor `classify` span tracks and outcome counters.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.telem.snapshot()
    }

    /// Mirror the detector's outcome statistics into a metrics registry
    /// under the `detector/` namespace. Always available (independent of
    /// the `telemetry` feature): the counts are recomputed from
    /// [`OnlineDetector::classified`], so harness-level reporting can fold
    /// any detector run into a registry, degraded intervals included.
    pub fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        let mut intervals = 0u64;
        let mut new_phases = 0u64;
        let mut degraded = 0u64;
        for c in self.classified.iter().flatten() {
            intervals += 1;
            new_phases += c.is_new_phase as u64;
            degraded += c.degraded as u64;
        }
        reg.counter_add("detector/intervals", intervals);
        reg.counter_add("detector/new_phases", new_phases);
        reg.counter_add("detector/degraded_intervals", degraded);
        reg.counter_add("detector/rows_substituted", self.rows_substituted());
        self.gather.ddv.publish_metrics("detector/ddv", reg);
    }

    /// Processor `proc`'s BBV accumulator and footprint table, for context
    /// save/restore.
    pub(crate) fn context_parts(
        &mut self,
        proc: usize,
    ) -> (&mut BbvAccumulator, &mut FootprintTable) {
        (&mut self.gather.bbv[proc], self.bank.table_mut(proc))
    }
}

impl SimObserver for OnlineDetector {
    #[inline]
    fn on_block_commit(&mut self, proc: usize, bb: u32, insns: u32) {
        self.gather.bbv[proc].record(bb, insns);
    }

    #[inline]
    fn on_mem_commit(&mut self, proc: usize, home: usize, _addr: u64, _write: bool) {
        self.gather.ddv.record_access(proc, home);
    }

    fn on_interval(&mut self, proc: usize, stats: IntervalStats) {
        let (bbv, dds, degraded) = self.gather.end_interval(proc, stats);
        let c = self.bank.classify_raw(proc, stats.index, stats.cpi(), bbv, dds, degraded);
        // Classification span on the processor's cumulative interval clock
        // (covers the interval just classified), plus outcome counters.
        let start = self.cum_cycles[proc];
        self.cum_cycles[proc] += stats.cycles;
        self.telem.span(proc, self.probes.classify, start, stats.cycles);
        self.telem.add(self.probes.intervals, 1);
        if c.is_new_phase {
            self.telem.add(self.probes.new_phases, 1);
        }
        if degraded {
            self.telem.add(self.probes.degraded, 1);
        }
        self.classified[proc].push(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(index: u64, insns: u64, cycles: u64) -> IntervalStats {
        IntervalStats { index, insns, cycles }
    }

    /// Drive an observer with a synthetic two-code-signature stream.
    fn drive(obs: &mut impl SimObserver, proc: usize, code: u32, homes: &[usize], idx: u64) {
        for _ in 0..10 {
            obs.on_block_commit(proc, code, 50);
        }
        for &h in homes {
            obs.on_mem_commit(proc, h, 0x40 * h as u64, false);
        }
        obs.on_interval(proc, stats(idx, 500, 1000));
    }

    #[test]
    fn collector_records_features_and_resets() {
        let mut c = TraceCollector::for_hypercube(2, DetectorGeometry::default());
        drive(&mut c, 0, 7, &[0, 0, 1], 0);
        drive(&mut c, 0, 9, &[1, 1, 1], 1);
        assert_eq!(c.records(0).len(), 2);
        let r0 = &c.records(0)[0];
        assert_eq!(r0.fvec, vec![2, 1]);
        assert_eq!(r0.insns, 500);
        assert!((r0.cpi() - 2.0).abs() < 1e-12);
        assert_eq!(r0.branches, 10);
        // Second interval's counters started fresh.
        let r1 = &c.records(0)[1];
        assert_eq!(r1.fvec, vec![0, 3]);
        assert_eq!(r1.branches, 10);
        // BBVs of different code differ.
        assert_ne!(r0.bbv, r1.bbv);
    }

    #[test]
    fn collector_contention_window_spans_other_procs() {
        let mut c = TraceCollector::for_hypercube(2, DetectorGeometry::default());
        // P1 hammers home 0 before P0's interval closes.
        for _ in 0..5 {
            c.on_mem_commit(1, 0, 0, false);
        }
        drive(&mut c, 0, 7, &[0], 0);
        let r = &c.records(0)[0];
        assert_eq!(r.fvec, vec![1, 0]);
        assert_eq!(r.cvec, vec![6, 0], "C includes P1's accesses");
        assert!(r.dds >= 6.0);
    }

    #[test]
    fn online_bbv_groups_same_code() {
        let mut d = OnlineDetector::new(
            1,
            vec![1.0],
            DetectorMode::Bbv,
            Thresholds::bbv_only(0.5),
            DetectorGeometry::default(),
        );
        drive(&mut d, 0, 7, &[0], 0);
        drive(&mut d, 0, 7, &[0], 1);
        drive(&mut d, 0, 99, &[0], 2);
        let ids: Vec<u32> = d.classified[0].iter().map(|c| c.phase_id).collect();
        assert_eq!(ids[0], ids[1]);
        assert_ne!(ids[0], ids[2]);
        assert!(d.classified[0][0].is_new_phase);
        assert!(!d.classified[0][1].is_new_phase);
    }

    #[test]
    fn online_ddv_splits_same_code_different_homes() {
        // Same basic blocks, but interval 2 touches a distant, contended
        // home: BBV alone groups them; BBV+DDV must split.
        let dist = {
            let n = 4;
            let mut d = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    d[i * n + j] = if i == j { 1.0 } else { 1.0 + ((i ^ j) as u64).count_ones() as f64 };
                }
            }
            d
        };
        let run = |mode| {
            let mut det = OnlineDetector::new(
                4,
                dist.clone(),
                mode,
                Thresholds { bbv: 0.5, dds: 0.3 },
                DetectorGeometry::default(),
            );
            drive(&mut det, 0, 7, &[0, 0, 0, 0], 0); // local
            drive(&mut det, 0, 7, &[3, 3, 3, 3], 1); // remote (2 hops)
            det.classified[0].iter().map(|c| c.phase_id).collect::<Vec<_>>()
        };
        let bbv = run(DetectorMode::Bbv);
        assert_eq!(bbv[0], bbv[1], "BBV is blind to data distribution");
        let ddv = run(DetectorMode::BbvDdv);
        assert_ne!(ddv[0], ddv[1], "DDV must split local vs remote intervals");
    }

    #[test]
    fn offline_classifier_matches_online() {
        // Capture a trace and classify it offline; drive an online detector
        // with the identical event sequence; results must agree.
        let dist = vec![1.0, 2.0, 2.0, 1.0];
        let geometry = DetectorGeometry::default();
        let thresholds = Thresholds { bbv: 0.4, dds: 0.25 };

        let mut coll = TraceCollector::new(2, dist.clone(), geometry);
        let mut online = OnlineDetector::new(2, dist, DetectorMode::BbvDdv, thresholds, geometry);

        let script: Vec<(u32, Vec<usize>)> = vec![
            (7, vec![0, 0]),
            (7, vec![0, 0]),
            (9, vec![1, 1, 1]),
            (7, vec![1, 1, 1, 1, 1, 1]),
            (9, vec![1]),
            (7, vec![0, 0]),
        ];
        for (i, (code, homes)) in script.iter().enumerate() {
            drive(&mut coll, 0, *code, homes, i as u64);
            drive(&mut online, 0, *code, homes, i as u64);
        }

        let mut bank =
            ClassifierBank::new(2, DetectorMode::BbvDdv, thresholds, geometry.footprint_vectors);
        let offline: Vec<ClassifiedInterval> = bank.classify_records(0, coll.records(0)).collect();
        assert_eq!(offline, online.classified[0]);
    }

    #[test]
    fn publish_metrics_counts_classification_outcomes() {
        let mut d = OnlineDetector::new(
            1,
            vec![1.0],
            DetectorMode::Bbv,
            Thresholds::bbv_only(0.5),
            DetectorGeometry::default(),
        );
        drive(&mut d, 0, 7, &[0], 0);
        drive(&mut d, 0, 7, &[0], 1);
        drive(&mut d, 0, 99, &[0], 2);
        let mut reg = MetricsRegistry::new();
        d.publish_metrics(&mut reg);
        assert_eq!(reg.counter_value("detector/intervals"), Some(3));
        assert_eq!(reg.counter_value("detector/new_phases"), Some(2));
        assert_eq!(reg.counter_value("detector/degraded_intervals"), Some(0));
        assert_eq!(reg.counter_value("detector/rows_substituted"), Some(0));
        assert_eq!(reg.counter_value("detector/ddv/queries"), Some(3));

        let snap = d.telemetry_snapshot();
        if cfg!(feature = "telemetry") {
            assert!(snap.enabled);
            assert_eq!(snap.tracks.len(), 1);
            assert_eq!(snap.tracks[0].spans.len(), 3, "one classify span per interval");
            // The registry's live counters agree with the recomputed ones.
            let live = snap
                .metrics
                .iter()
                .find(|m| m.name == "detector/new_phases")
                .expect("live counter");
            assert_eq!(live.value, dsm_telemetry::MetricValue::Counter(2));
        } else {
            assert!(!snap.enabled);
            assert!(snap.tracks.is_empty());
        }
    }
}
