//! One corruption battery for both binary formats built on the codec kit
//! (`dsm_simpoint::wire`): the `DSMCKPT5` checkpoint and the `DSMTRC4`
//! trace-store entry. Every property runs over both:
//!
//! * decoding is *total* — random bytes, random bytes behind a valid magic,
//!   single-byte corruptions and truncations yield a typed [`CodecError`]
//!   or a valid value, never a panic;
//! * encoding is deterministic and canonical — encode → decode is the
//!   identity, whatever decodes re-encodes to the identical bytes, and
//!   bytes after a complete value are an error;
//! * the magic check tells another format (`BadMagic`) from another
//!   version of the same format (`UnsupportedVersion`).
//!
//! Two golden hashes pin the byte layout of fixed fixtures, so a layout
//! change cannot pass unnoticed. Values that are well formed but describe
//! an inconsistent machine (a detector geometry that disagrees with the
//! collector state, records in the wrong slot or sized for another
//! machine) decode to `BadValue` rather than panicking on resume.

use proptest::prelude::*;

use dsm_adapt::{AdaptSnap, Decision, DecisionKind, ObservedInterval, PhaseSnap, PhaseStateSnap};
use dsm_harness::experiment::ExperimentConfig;
use dsm_harness::parallel::fnv1a64;
use dsm_harness::simpoint::capture_checkpoint_every;
use dsm_harness::trace::{self, SystemTrace, TRACE_MAGIC};
use dsm_phase::ddv::{DdvSnap, FrequencySnap};
use dsm_phase::detector::{CollectorState, DetectorGeometry, IntervalRecord};
use dsm_sim::config::{CoreConfig, FaultPlan};
use dsm_sim::directory::{DirState, DirectoryStats};
use dsm_sim::event::Event;
use dsm_sim::memctrl::MemCtrlStats;
use dsm_sim::network::NetworkStats;
use dsm_sim::reconfig::{ReconfigSnap, ReconfigStats};
use dsm_sim::state::{
    BarrierSnap, CacheState, DirectoryState, FaultSnap, GshareState, HomeMapState, LockSnap,
    MemCtrlState, NetworkState, ProcessorState, SystemState,
};
use dsm_sim::stats::SystemStats;
use dsm_sim::topology::TopologyKind;
use dsm_sim::util::splitmix64;
use dsm_sim::{FaultStats, ProcStats};
use dsm_simpoint::{Checkpoint, CheckpointMeta, CodecError, MAGIC};
use dsm_workloads::{App, Scale};

/// Deterministic value stream for synthesizing codec inputs.
struct Gen(u64);

impl Gen {
    fn u(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }
    fn vec(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.u() % 10_000).collect()
    }
}

/// Per-processor interval records, the payload both formats carry.
fn synth_records(g: &mut Gen, n_procs: usize, n_recs: usize) -> Vec<Vec<IntervalRecord>> {
    (0..n_procs)
        .map(|p| {
            (0..n_recs)
                .map(|i| IntervalRecord {
                    proc: p,
                    index: i as u64,
                    insns: g.u() % 100_000,
                    cycles: g.u() % 1_000_000,
                    bbv: (0..4).map(|_| (g.u() % 1000) as f64 / 1000.0).collect(),
                    fvec: g.vec(n_procs),
                    cvec: g.vec(n_procs),
                    dds: (g.u() % 100_000) as f64 / 7.0,
                    ws_sig: g.vec(2),
                    branches: g.u() % 5000,
                })
                .collect()
        })
        .collect()
}

/// Build a structurally valid checkpoint whose every field is derived from
/// `seed`; `n_procs` and `n_recs` vary the shape.
fn synth_checkpoint(seed: u64, n_procs: usize, n_recs: usize) -> Checkpoint {
    let mut g = Gen(seed);
    let cache = |g: &mut Gen| CacheState {
        tags: g.vec(4),
        lru: g.vec(4),
        clock: g.u(),
        hits: g.u(),
        misses: g.u(),
    };
    let procs: Vec<ProcessorState> = (0..n_procs)
        .map(|_| ProcessorState {
            cycle: g.u(),
            commit_carry: g.u() % 6,
            fp_carry: g.u() % 4,
            interval_progress: g.u() % 1000,
            interval_start_cycle: g.u(),
            interval_index: g.u() % 64,
            finished: g.u().is_multiple_of(4),
            blocked: g.u().is_multiple_of(3),
            blocked_since: g.u(),
            stats: ProcStats {
                cycles: g.u(),
                insns: g.u(),
                l1_misses: g.u(),
                ..Default::default()
            },
            l1: cache(&mut g),
            l2: cache(&mut g),
            gshare: GshareState {
                table: (0..8).map(|_| (g.u() % 4) as u8).collect(),
                history: g.u(),
                predictions: g.u(),
                mispredictions: g.u(),
            },
            core: CoreConfig {
                commit_width: 1 + (g.u() % 8) as u32,
                fpu_units: 1 + (g.u() % 4) as u32,
                mispredict_penalty: 1 + g.u() % 20,
                gshare_entries: 4,
                stall_exposure_num: 50 + g.u() % 100,
            },
        })
        .collect();
    let events = [
        Event::Block { bb: 3, insns: 17, taken: true },
        Event::Mem { addr: 0x1234, write: false },
        Event::Fp { ops: 4 },
        Event::Barrier { id: 2 },
        Event::Acquire { lock: 1 },
        Event::Release { lock: 1 },
        Event::End,
    ];
    let pending: Vec<Option<Event>> = (0..n_procs)
        .map(|_| {
            let r = g.u() as usize;
            if r.is_multiple_of(3) {
                None
            } else {
                Some(events[r % events.len()])
            }
        })
        .collect();
    let records = synth_records(&mut g, n_procs, n_recs);
    Checkpoint {
        meta: CheckpointMeta {
            app: App::EXTENDED[(g.u() % 5) as usize],
            n_procs,
            scale: [Scale::Test, Scale::Scaled, Scale::Paper][(g.u() % 3) as usize],
            interval_base: 16_000,
            topology: TopologyKind::ALL[(g.u() % 5) as usize],
            link_contention: g.u().is_multiple_of(2),
            plan: if g.u().is_multiple_of(2) { FaultPlan::none() } else { FaultPlan::mixed(g.u(), 0.01) },
            geometry: DetectorGeometry::default(),
            interval_index: g.u() % 64,
            shards: (g.u() % (n_procs as u64 + 1)) as usize,
        },
        system: SystemState {
            procs,
            directory: DirectoryState {
                entries: (0..(g.u() % 8))
                    .map(|b| {
                        let st = if g.u().is_multiple_of(2) {
                            DirState::Shared(g.u() % (1 << n_procs))
                        } else {
                            DirState::Exclusive((g.u() % n_procs as u64) as usize)
                        };
                        (b, st)
                    })
                    .collect(),
                stats: DirectoryStats { reads: g.u(), writes: g.u(), ..Default::default() },
            },
            network: NetworkState {
                msgs: g.u(),
                payload_msgs: g.u(),
                total_hops: g.u(),
                link_wait_cycles: g.u(),
                total_flit_hops: g.u(),
                link_busy: g.vec(n_procs * 2),
                link_flits: g.vec(n_procs * 2),
            },
            memctrls: (0..n_procs)
                .map(|_| MemCtrlState {
                    busy_until: g.vec(4),
                    requests: g.u(),
                    total_queue_delay: g.u(),
                })
                .collect(),
            home: HomeMapState {
                first_touch: (0..(g.u() % 5))
                    .map(|p| (p, (g.u() % n_procs as u64) as usize))
                    .collect(),
                overrides: (0..(g.u() % 4))
                    .map(|p| (p + 100, (g.u() % n_procs as u64) as usize))
                    .collect(),
                touches: (0..(g.u() % 3)).map(|p| (p + 200, g.vec(n_procs))).collect(),
                track: g.u().is_multiple_of(2),
            },
            locks: (0..(g.u() % 3))
                .map(|id| LockSnap {
                    id: id as u32,
                    owner: if g.u().is_multiple_of(2) {
                        None
                    } else {
                        Some((g.u() % n_procs as u64) as usize)
                    },
                    waiters: (0..(g.u() % n_procs as u64))
                        .map(|w| w as usize)
                        .collect(),
                })
                .collect(),
            barrier: BarrierSnap {
                current_id: if g.u().is_multiple_of(2) { None } else { Some((g.u() % 8) as u32) },
                arrived: {
                    let mut words = vec![0u64; n_procs.div_ceil(64)];
                    for w in &mut words {
                        *w = g.u();
                    }
                    let tail = n_procs % 64;
                    if tail != 0 {
                        *words.last_mut().unwrap() %= 1 << tail;
                    }
                    words
                },
                arrival_cycle: g.vec(n_procs),
            },
            fault: FaultSnap {
                draws: g.u(),
                stats: dsm_sim::FaultStats { messages: g.u(), drops: g.u(), ..Default::default() },
            },
            pending,
            events_executed: g.u(),
            fetched: g.vec(n_procs),
            reconfig: ReconfigSnap {
                dvfs_num: if g.u().is_multiple_of(2) { Vec::new() } else { g.vec(n_procs) },
                stats: ReconfigStats {
                    migrations: g.u(),
                    migration_stall_cycles: g.u(),
                    dvfs_epochs: g.u(),
                    dvfs_extra_cycles: g.u(),
                    dvfs_saved_cycles: g.u(),
                    core_switches: g.u(),
                },
            },
        },
        collector: CollectorState {
            bbv: (0..n_procs).map(|_| g.vec(4)).collect(),
            ws: (0..n_procs).map(|_| g.vec(2)).collect(),
            branches: g.vec(n_procs),
            ddv: DdvSnap {
                mats: (0..n_procs)
                    .map(|_| FrequencySnap {
                        cum: g.vec(n_procs),
                        snap: g.vec(n_procs * n_procs),
                    })
                    .collect(),
                gcum: g.vec(n_procs),
                gsnap: g.vec(n_procs * n_procs),
                queries: g.u(),
                vectors_exchanged: g.u(),
                gather_rounds: g.u(),
            },
            records,
        },
        adapt: if g.u().is_multiple_of(2) { None } else { Some(synth_adapt(&mut g, n_procs)) },
    }
}

/// Build a structurally valid mid-tuning adaptation snapshot (the decode
/// invariant requires `processed == stream.len()` and `processed <= target`).
fn synth_adapt(g: &mut Gen, n_procs: usize) -> AdaptSnap {
    let processed = g.u() % 6;
    let stream: Vec<ObservedInterval> = (0..processed)
        .map(|i| ObservedInterval {
            index: i,
            phase: (g.u() % 4) as u32,
            cpi: (g.u() % 10_000) as f64 / 100.0,
            degraded: g.u().is_multiple_of(5),
        })
        .collect();
    let phases: Vec<PhaseSnap> = (0..(g.u() % 3))
        .map(|p| PhaseSnap {
            phase: p as u32,
            state: if g.u().is_multiple_of(2) {
                PhaseStateSnap::Locked { config: g.u() % 4 }
            } else {
                PhaseStateSnap::Tuning {
                    config: g.u() % 4,
                    trials_left: g.u() % 3,
                    best_config: g.u() % 4,
                    best_score: (g.u() % 1000) as f64 / 10.0,
                    acc: (g.u() % 1000) as f64 / 10.0,
                    acc_n: g.u() % 8,
                }
            },
        })
        .collect();
    let decisions: Vec<Decision> = (0..(g.u() % 4))
        .map(|i| Decision {
            interval: i,
            phase: (g.u() % 4) as u32,
            kind: if g.u().is_multiple_of(2) {
                DecisionKind::Trial { config: (g.u() % 4) as usize }
            } else {
                DecisionKind::Lock { config: (g.u() % 4) as usize }
            },
        })
        .collect();
    AdaptSnap {
        target: processed + g.u() % 4,
        processed,
        phases,
        decisions,
        stream,
        retunes: g.u() % 8,
        actuator: g.vec(n_procs),
    }
}

/// Build a structurally valid trace whose every field is derived from
/// `seed`; `n_procs` and `n_recs` vary the shape.
fn synth_trace(seed: u64, n_procs: usize, n_recs: usize) -> SystemTrace {
    let mut g = Gen(seed);
    let config = ExperimentConfig {
        app: App::EXTENDED[(g.u() % 5) as usize],
        n_procs,
        scale: [Scale::Test, Scale::Scaled, Scale::Paper][(g.u() % 3) as usize],
        interval_base: g.u() % 10_000_000,
    };
    let records = synth_records(&mut g, n_procs, n_recs);
    let procs = (0..n_procs)
        .map(|_| ProcStats {
            cycles: g.u(),
            insns: g.u(),
            sync_ops: g.u(),
            sync_wait_cycles: g.u(),
            mem_refs: g.u(),
            l1_misses: g.u(),
            l2_misses: g.u(),
            local_home_misses: g.u(),
            remote_home_misses: g.u(),
            mem_stall_cycles: g.u(),
            contention_cycles: g.u(),
            mispredicts: g.u(),
            branches: g.u(),
            intervals: g.u(),
        })
        .collect();
    let stats = SystemStats {
        procs,
        directory: DirectoryStats {
            reads: g.u(),
            writes: g.u(),
            owner_forwards: g.u(),
            invalidations: g.u(),
            upgrades: g.u(),
            writebacks: g.u(),
            nacks: g.u(),
        },
        network: NetworkStats {
            msgs: g.u(),
            payload_msgs: g.u(),
            total_hops: g.u(),
            link_wait_cycles: g.u(),
            total_flit_hops: g.u(),
            link_flits: g.vec(n_procs * 2),
        },
        memctrls: (0..n_procs)
            .map(|_| MemCtrlStats { requests: g.u(), total_queue_delay: g.u() })
            .collect(),
        faults: FaultStats {
            messages: g.u(),
            drops: g.u(),
            retries: g.u(),
            forced_deliveries: g.u(),
            duplicates: g.u(),
            spikes: g.u(),
            spike_cycles: g.u(),
            timeout_wait_cycles: g.u(),
            slowdown_events: g.u(),
            slowdown_cycles: g.u(),
        },
        reconfig: ReconfigStats {
            migrations: g.u(),
            migration_stall_cycles: g.u(),
            dvfs_epochs: g.u(),
            dvfs_extra_cycles: g.u(),
            dvfs_saved_cycles: g.u(),
            core_switches: g.u(),
        },
        finish_cycle: g.u(),
    };
    SystemTrace { config, records, stats, ddv_vectors_exchanged: g.u() }
}

/// One binary format under test.
trait Format {
    type Value: PartialEq + std::fmt::Debug;
    const MAGIC: &'static [u8];
    /// Offset of the version digit inside [`Format::MAGIC`].
    const VERSION_AT: usize;
    fn synth(seed: u64, n_procs: usize, n_recs: usize) -> Self::Value;
    fn encode(v: &Self::Value) -> Vec<u8>;
    fn decode(bytes: &[u8]) -> Result<Self::Value, CodecError>;
}

struct Ckpt;
struct Trace;

impl Format for Ckpt {
    type Value = Checkpoint;
    const MAGIC: &'static [u8] = MAGIC;
    const VERSION_AT: usize = 7;
    fn synth(seed: u64, n_procs: usize, n_recs: usize) -> Checkpoint {
        // The golden hash pins `synth_checkpoint`'s default geometry; a
        // decodable checkpoint needs the geometry of its 4-bucket BBV rows
        // and 2-word working-set rows.
        let mut ck = synth_checkpoint(seed, n_procs, n_recs);
        ck.meta.geometry = DetectorGeometry { bbv_entries: 4, footprint_vectors: 32, ws_bits: 128 };
        ck
    }
    fn encode(v: &Checkpoint) -> Vec<u8> {
        v.encode()
    }
    fn decode(bytes: &[u8]) -> Result<Checkpoint, CodecError> {
        Checkpoint::decode(bytes)
    }
}

impl Format for Trace {
    type Value = SystemTrace;
    const MAGIC: &'static [u8] = TRACE_MAGIC;
    const VERSION_AT: usize = 6;
    fn synth(seed: u64, n_procs: usize, n_recs: usize) -> SystemTrace {
        synth_trace(seed, n_procs, n_recs)
    }
    fn encode(v: &SystemTrace) -> Vec<u8> {
        v.encode()
    }
    fn decode(bytes: &[u8]) -> Result<SystemTrace, CodecError> {
        SystemTrace::decode(bytes)
    }
}

fn total_on<F: Format>(bytes: &[u8]) {
    let _ = F::decode(bytes);
}

fn total_behind_magic<F: Format>(bytes: &[u8]) {
    let mut buf = F::MAGIC.to_vec();
    buf.extend_from_slice(bytes);
    let _ = F::decode(&buf);
}

fn roundtrip<F: Format>(seed: u64, n_procs: usize, n_recs: usize) {
    let v = F::synth(seed, n_procs, n_recs);
    let bytes = F::encode(&v);
    assert_eq!(&bytes, &F::encode(&v));
    let back = F::decode(&bytes).unwrap();
    assert_eq!(&back, &v);
}

fn corruption<F: Format>(seed: u64, n_procs: usize, pos_sel: u64, delta: u8) {
    let mut bytes = F::encode(&F::synth(seed, n_procs, 2));
    let pos = (pos_sel % bytes.len() as u64) as usize;
    bytes[pos] ^= delta;
    if let Ok(decoded) = F::decode(&bytes) {
        assert_eq!(F::encode(&decoded), bytes);
    }
}

fn truncation<F: Format>(seed: u64, cut_sel: u64) {
    let bytes = F::encode(&F::synth(seed, 2, 1));
    let cut = (cut_sel % bytes.len() as u64) as usize;
    assert!(F::decode(&bytes[..cut]).is_err());
}

fn trailing<F: Format>(seed: u64, extra: &[u8]) {
    let mut bytes = F::encode(&F::synth(seed, 2, 1));
    bytes.extend_from_slice(extra);
    assert_eq!(F::decode(&bytes).err(), Some(CodecError::TrailingBytes));
}

/// `F`'s decoder on `G`'s bytes reports a foreign format; on its own bytes
/// with the version digit changed, the version it found.
fn magic_mismatch<F: Format, G: Format>(seed: u64, version: u8) {
    let foreign = G::encode(&G::synth(seed, 2, 1));
    assert_eq!(F::decode(&foreign).err(), Some(CodecError::BadMagic));
    let mut bytes = F::encode(&F::synth(seed, 2, 1));
    if version != bytes[F::VERSION_AT] {
        bytes[F::VERSION_AT] = version;
        assert_eq!(F::decode(&bytes).err(), Some(CodecError::UnsupportedVersion { version }));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random byte soup never panics either decoder.
    #[test]
    fn decode_total_on_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        total_on::<Ckpt>(&bytes);
        total_on::<Trace>(&bytes);
    }

    /// Random bytes behind a valid magic never panic the decoders either
    /// (this exercises the structural readers, not just the magic check).
    #[test]
    fn decode_total_behind_valid_magic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        total_behind_magic::<Ckpt>(&bytes);
        total_behind_magic::<Trace>(&bytes);
    }

    /// encode → decode is the identity, and encoding is deterministic.
    #[test]
    fn roundtrip_identity(seed in any::<u64>(), n_procs in 1usize..5, n_recs in 0usize..4) {
        roundtrip::<Ckpt>(seed, n_procs, n_recs);
        roundtrip::<Trace>(seed, n_procs, n_recs);
    }

    /// Single-byte corruption anywhere is either rejected with a typed error
    /// or decodes to a value that canonically re-encodes to the same
    /// corrupted bytes — never a panic, never a non-canonical decode.
    #[test]
    fn corruption_is_total_and_canonical(
        seed in any::<u64>(),
        n_procs in 1usize..4,
        pos_sel in any::<u64>(),
        delta in 1u8..255,
    ) {
        corruption::<Ckpt>(seed, n_procs, pos_sel, delta);
        corruption::<Trace>(seed, n_procs, pos_sel, delta);
    }

    /// Every strict prefix of a valid encoding fails to decode.
    #[test]
    fn truncation_always_errors(seed in any::<u64>(), cut_sel in any::<u64>()) {
        truncation::<Ckpt>(seed, cut_sel);
        truncation::<Trace>(seed, cut_sel);
    }

    /// Bytes after a complete value are `TrailingBytes`, never ignored.
    #[test]
    fn trailing_bytes_error(seed in any::<u64>(), extra in prop::collection::vec(any::<u8>(), 1..16)) {
        trailing::<Ckpt>(seed, &extra);
        trailing::<Trace>(seed, &extra);
    }

    /// The other format's bytes are `BadMagic`; the same format at another
    /// version is `UnsupportedVersion` carrying the version byte found.
    #[test]
    fn foreign_magic_and_version_are_typed(seed in any::<u64>(), version in any::<u8>()) {
        magic_mismatch::<Ckpt, Trace>(seed, version);
        magic_mismatch::<Trace, Ckpt>(seed, version);
    }
}

// Golden byte hashes, recorded before the two codecs were moved onto the
// shared kit. Changing either encoding is a format change: it needs a
// version bump, not a new hash.

#[test]
fn trace_encoding_matches_golden_hash() {
    // The hash also covers the simulator: a capture change moves it too.
    let bytes = trace::capture(ExperimentConfig::test(App::Lu, 2)).encode();
    assert_eq!((bytes.len(), fnv1a64(&bytes)), (8522, 0xc3e1_0e93_cdf9_d771));
}

#[test]
fn checkpoint_encoding_matches_golden_hash() {
    let ck = synth_checkpoint(1, 3, 2);
    assert!(ck.adapt.is_some() && ck.meta.plan.drop_ppm > 0, "fixture covers every section");
    let bytes = ck.encode();
    assert_eq!((bytes.len(), fnv1a64(&bytes)), (4463, 0x9dac_45b3_39e7_ae62));
}

/// Real captures of every workload pass the decoder's machine-size checks.
#[test]
fn captured_traces_of_every_app_roundtrip() {
    for app in App::EXTENDED {
        let t = trace::capture(ExperimentConfig::test(app, 4));
        assert_eq!(SystemTrace::decode(&t.encode()).as_ref(), Ok(&t), "{app:?}");
    }
}

/// Exhaustive companion to `truncation_always_errors` on one real capture.
#[test]
fn every_prefix_of_a_captured_trace_errors() {
    let bytes = trace::capture(ExperimentConfig::test(App::Lu, 2)).encode();
    for cut in 0..bytes.len() {
        assert!(SystemTrace::decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
    }
}

/// A named edit that leaves a value well formed but inconsistent.
type Corruption<T> = (&'static str, fn(&mut T));

fn assert_bad_value<T: std::fmt::Debug>(decoded: Result<T, CodecError>, what: &str) {
    assert!(matches!(decoded, Err(CodecError::BadValue { .. })), "{what}: {decoded:?}");
}

/// Each corruption of a valid `F` value encodes to bytes that decode to
/// `BadValue`.
fn bad_values<F: Format>(cases: &[Corruption<F::Value>])
where
    F::Value: Clone,
{
    let v = F::synth(5, 3, 2);
    assert_eq!(F::decode(&F::encode(&v)).as_ref(), Ok(&v));
    for (what, corrupt) in cases {
        let mut bad = v.clone();
        corrupt(&mut bad);
        assert_bad_value(F::decode(&F::encode(&bad)), what);
    }
}

/// Geometry or records that disagree with the rest of a checkpoint fail to
/// decode instead of panicking when the checkpoint is resumed.
#[test]
fn inconsistent_checkpoints_are_bad_values() {
    bad_values::<Ckpt>(&[
        ("zero bbv_entries", |c| c.meta.geometry.bbv_entries = 0),
        ("zero footprint_vectors", |c| c.meta.geometry.footprint_vectors = 0),
        ("zero ws_bits", |c| c.meta.geometry.ws_bits = 0),
        ("ws_bits not a multiple of 64", |c| c.meta.geometry.ws_bits = 100),
        ("bbv_entries differs from the rows", |c| c.meta.geometry.bbv_entries = 33),
        ("ws_bits differs from the rows", |c| c.meta.geometry.ws_bits = 2048),
        ("short BBV row", |c| c.collector.bbv[1].truncate(3)),
        ("long working-set row", |c| c.collector.ws[0].push(0)),
        ("record in another processor's slot", |c| c.collector.records[1][0].proc = 0),
        ("short fvec", |c| c.collector.records[0][1].fvec.truncate(2)),
        ("long cvec", |c| c.collector.records[2][0].cvec.push(1)),
    ]);
}

/// The trace decoder applies the same record checks.
#[test]
fn inconsistent_trace_records_are_bad_values() {
    bad_values::<Trace>(&[
        ("record in another processor's slot", |t| t.records[2][1].proc = 1),
        ("short fvec", |t| t.records[1][0].fvec.truncate(2)),
        ("long cvec", |t| t.records[0][0].cvec.push(1)),
    ]);
}

/// A real LU-2P checkpoint re-encoded with another geometry is rejected.
#[test]
fn captured_checkpoint_with_another_geometry_is_a_bad_value() {
    let lu = ExperimentConfig::test(App::Lu, 2);
    let (ckpts, _) = capture_checkpoint_every(lu, FaultPlan::none(), 4);
    let ck = Checkpoint::decode(&ckpts[0].1).unwrap();
    let default = DetectorGeometry::default();
    for geometry in [
        DetectorGeometry { bbv_entries: 33, ..default },
        DetectorGeometry { ws_bits: 2048, ..default },
        DetectorGeometry { bbv_entries: 0, ..default },
    ] {
        let mut bad = ck.clone();
        bad.meta.geometry = geometry;
        assert_bad_value(Checkpoint::decode(&bad.encode()), &format!("{geometry:?}"));
    }
}
