//! Phase-guided sampled simulation: the harness glue around
//! [`dsm_simpoint`].
//!
//! The pipeline has four steps, mirroring the SimPoint methodology on top of
//! this repository's phase features:
//!
//! 1. **Profile** — capture the full run once ([`crate::trace`]) and build
//!    one BBV ⊕ DDV signature per *global* interval
//!    ([`dsm_simpoint::signatures`]).
//! 2. **Select** — cluster the signatures with deterministic k-means and
//!    pick one representative interval per cluster
//!    ([`dsm_simpoint::select()`]).
//! 3. **Checkpoint** — re-run the workload once, snapshotting the complete
//!    machine + collector state (`DSMCKPT5` codec) at each representative's
//!    interval boundary; the continuation of this run doubles as a golden
//!    cross-check against the profiling pass.
//! 4. **Replay + reconstruct** — decode each checkpoint in a worker
//!    ([`crate::parallel::par_map`]), rebuild the machine, fast-forward a
//!    fresh instruction stream, restore, simulate exactly one interval, and
//!    combine the per-representative CPIs under cluster weights
//!    ([`dsm_simpoint::reconstruct_cpi`]).
//!
//! Every checkpointed run is a [`Machine`] ([`capture_with_checkpoints`]
//! takes one plus a shard count, which changes neither the trace nor the
//! checkpoints' state). A checkpoint's metadata is
//! [`Machine::checkpoint_meta`], and resume rebuilds the machine with
//! [`Machine::from_checkpoint_meta`]: one conversion in each direction, so
//! a snapshot and its resume cannot disagree about the machine.
//!
//! Everything is deterministic: fixed selection seed, deterministic
//! workloads, canonical checkpoint encoding — so the JSON artefacts under
//! `results/simpoint/` are byte-identical across reruns.
//!
//! One caveat documented here on purpose: a restored run reproduces the
//! simulator statistics and the interval trace bit-identically, but not
//! telemetry spans emitted *before* the checkpoint (telemetry is process
//! state, not machine state, and is excluded from snapshots by design).

use std::path::PathBuf;

use dsm_sim::config::FaultPlan;
use dsm_sim::event::InstructionStream;
use dsm_simpoint::{
    interval_cpis, mean_and_cov, reconstruct_cpi, relative_error, select, signatures,
    stratified_members, Checkpoint, CheckpointMeta, Reconstructed, SampleUnit, Selection,
};

use crate::experiment::ExperimentConfig;
use crate::json::Json;
use crate::parallel::{par_map, AppSystem, Machine};
use crate::report;
use crate::trace::{capture_cached, capture_with_faults, SystemTrace};

/// Fixed seed for representative selection: sampling artefacts must be
/// byte-identical across reruns.
pub const SELECTION_SEED: u64 = 0x51_D0_17;

/// Maximum clusters the sweep will consider; bounded by `n_intervals / 5` so
/// the simulated-interval reduction stays at least 5x.
pub const MAX_K: usize = 64;

/// Run `machine` on `shards` shards (0 or 1 = the serial core),
/// snapshotting it at each boundary in `boundaries` (boundary `b` = the
/// state before global interval `b` executes). Returns the encoded
/// checkpoints as `(boundary, bytes)` pairs, in boundary order, plus the
/// full-run trace of this same pass. Each checkpoint records the shard
/// count, so [`resume_checkpoint`] re-enables the identical scheduler;
/// sharded runs are bit-identical to serial ones (the round-trip suite
/// pins this).
///
/// Panics if a requested boundary lies beyond the end of the run — callers
/// derive boundaries from a profiling pass of the identical machine, so an
/// unreachable boundary is a determinism bug, not an input error.
pub fn capture_with_checkpoints(
    machine: &Machine,
    boundaries: &[u64],
    shards: usize,
) -> (Vec<(u64, Vec<u8>)>, SystemTrace) {
    checkpoint_run(machine, shards, sorted_unique(boundaries), false, false)
}

/// Run `machine`, snapshotting every `every` global interval boundaries
/// until the run ends. The open-ended sibling of
/// [`capture_with_checkpoints`] for the `faults --checkpoint-every` flag.
pub fn capture_checkpoint_every(
    machine: &Machine,
    every: u64,
) -> (Vec<(u64, Vec<u8>)>, SystemTrace) {
    assert!(every > 0, "checkpoint period must be positive");
    checkpoint_run(machine, 0, (1..).map(|k| k * every), true, false)
}

fn sorted_unique(boundaries: &[u64]) -> Vec<u64> {
    let mut sorted = boundaries.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted
}

/// The one checkpointing pass. `open_ended` stops at the first unreachable
/// boundary instead of panicking; `strip_records` drops each checkpoint's
/// interval records before its boundary.
fn checkpoint_run(
    machine: &Machine,
    shards: usize,
    boundaries: impl IntoIterator<Item = u64>,
    open_ended: bool,
    strip_records: bool,
) -> (Vec<(u64, Vec<u8>)>, SystemTrace) {
    let mut sys = machine.build();
    if shards > 1 {
        sys.enable_sharding(shards);
    }
    let mut ckpts = Vec::new();
    for b in boundaries {
        let reached = sys.run_to_interval(b) && sys.min_interval_index() != u64::MAX;
        if !reached {
            assert!(open_ended, "boundary {b} not reachable for {}", machine.config.label());
            break;
        }
        let mut ck = snapshot(&sys, machine, b);
        if strip_records {
            // The replay worker only measures interval `b`, but processors
            // ahead of the global boundary may have recorded it already —
            // keep that tail and drop the (write-only) history before it,
            // so a late checkpoint does not carry the whole trace so far.
            // The continuation is unaffected: the collector never reads
            // back its records.
            for proc_recs in &mut ck.collector.records {
                proc_recs.retain(|r| r.index >= b);
            }
        }
        ckpts.push((b, ck.encode()));
    }
    let (stats, collector) = sys.run_to_end();
    (ckpts, SystemTrace::from_run(machine.config, stats, collector))
}

impl Machine {
    /// The machine a checkpoint was taken on: the experiment point's
    /// machine with the recorded fault plan and fabric, observed through
    /// the recorded geometry. Inverse of [`Machine::checkpoint_meta`].
    pub fn from_checkpoint_meta(meta: &CheckpointMeta) -> Machine {
        let config = ExperimentConfig {
            app: meta.app,
            n_procs: meta.n_procs,
            scale: meta.scale,
            interval_base: meta.interval_base,
        };
        let mut system = config.system_config();
        system.fault = meta.plan;
        // The snapshot's link vectors are indexed by the captured
        // topology's directed-link ids; rebuild the identical fabric, not
        // the default one.
        system.network.topology = meta.topology;
        system.network.link_contention = meta.link_contention;
        Machine { config, system, geometry: meta.geometry }
    }

    /// Checkpoint metadata for this machine at global interval boundary
    /// `interval_index`, run on `shards` shards (0 = the serial core).
    ///
    /// Panics if the metadata cannot describe the machine: beyond the
    /// experiment point it records only the fault plan and the fabric, and
    /// a resume would rebuild a different machine.
    pub fn checkpoint_meta(&self, interval_index: u64, shards: usize) -> CheckpointMeta {
        let meta = CheckpointMeta {
            app: self.config.app,
            n_procs: self.config.n_procs,
            scale: self.config.scale,
            interval_base: self.config.interval_base,
            topology: self.system.network.topology,
            link_contention: self.system.network.link_contention,
            plan: self.system.fault,
            geometry: self.geometry,
            interval_index,
            shards,
        };
        assert!(
            Machine::from_checkpoint_meta(&meta) == *self,
            "{}: checkpoint metadata cannot describe this machine",
            self.config.label()
        );
        meta
    }
}

/// Rebuild a live system from a decoded checkpoint: the machine its
/// metadata names, a fresh instruction stream fast-forwarded by the
/// recorded per-processor fetch counts, and the imported collector and
/// machine state. The result continues bit-identically to the run the
/// checkpoint was taken from.
pub fn resume_checkpoint(ck: &Checkpoint) -> AppSystem {
    let machine = Machine::from_checkpoint_meta(&ck.meta);
    // Streams are pure functions of (app, n_procs, scale); replaying the
    // recorded fetch counts puts a fresh one exactly where the snapshotted
    // stream stopped (including the parked pending events).
    let mut stream = machine.stream();
    for (p, &n) in ck.system.fetched.iter().enumerate() {
        for _ in 0..n {
            let _ = stream.next(p);
        }
    }
    let mut collector = machine.collector();
    collector.import_state(&ck.collector);

    let mut sys = machine.assemble(stream, collector);
    // Re-enable the captured shard layout first, so the state restore
    // rebuilds its per-shard scheduler trees from the restored processor
    // states. The continuation is bit-identical either way (sharded ≡
    // serial), but the resumed machine must *be* the machine captured.
    if ck.meta.shards > 1 {
        sys.enable_sharding(ck.meta.shards);
    }
    sys.restore_state(&ck.system);
    sys
}

/// Resume `ck` and run to completion. Used by the round-trip differential
/// tests and the `faults --resume` flag.
pub fn resume_to_end(ck: &Checkpoint) -> SystemTrace {
    let (stats, collector) = resume_checkpoint(ck).run_to_end();
    SystemTrace::from_run(Machine::from_checkpoint_meta(&ck.meta).config, stats, collector)
}

/// One sampled-simulation run: selection, stratified per-cluster
/// measurements, reconstruction, and the error metrics against the full-run
/// golden.
#[derive(Debug, Clone)]
pub struct SimpointResult {
    pub config: ExperimentConfig,
    pub plan: FaultPlan,
    pub selection: Selection,
    /// Sampled member intervals per cluster (with within-cluster weights),
    /// aligned with `selection.simpoints`: the stratified allocation of the
    /// `n_intervals / 5` replay budget, sub-stratified on profiled CPI.
    pub samples: Vec<Vec<SampleUnit>>,
    /// Full-run mean CPI over complete global intervals.
    pub full_cpi: f64,
    /// Full-run CoV of per-interval CPI.
    pub full_cov: f64,
    /// Weighted reconstruction from the sampled clusters.
    pub sampled: Reconstructed,
    /// `|sampled.cpi - full_cpi| / full_cpi`.
    pub cpi_rel_error: f64,
    /// `|sampled.cov - full_cov|` (CoV is already dimensionless).
    pub cov_abs_error: f64,
    /// `n_intervals / n_replayed`: how many fewer intervals were simulated.
    pub reduction: f64,
    /// Total intervals actually replayed.
    pub n_replayed: usize,
    /// Encoded size of each replayed checkpoint, in boundary order.
    pub checkpoint_bytes: Vec<usize>,
    /// Estimated CPI per cluster (mean over its sampled members), aligned
    /// with `selection.simpoints`.
    pub measured_cpi: Vec<f64>,
}

/// The full pipeline for one configuration. Deterministic: same config and
/// plan always produce the identical result (and identical artefact bytes).
pub fn sampled_run(config: ExperimentConfig, plan: FaultPlan) -> SimpointResult {
    // 1. Profile.
    let profile = if plan.is_active() {
        std::sync::Arc::new(capture_with_faults(config, plan))
    } else {
        capture_cached(config)
    };
    let sigs = signatures(&profile.records);
    assert!(
        sigs.len() >= 2,
        "{}: need at least two complete global intervals, got {}",
        config.label(),
        sigs.len()
    );

    // 2. Select clusters, then spread the replay budget (a fifth of the
    // intervals, so the reduction stays >= 5x) across them. Profiled
    // per-interval CPI sub-stratifies within clusters — it shapes which
    // intervals get replayed, never the estimate itself.
    let cpis: Vec<f64> = interval_cpis(&profile.records).iter().map(|c| c.cpi).collect();
    let budget = (sigs.len() / 5).max(1);
    let max_k = budget.min(MAX_K);
    let selection = select(&sigs, max_k, SELECTION_SEED);
    let samples = stratified_members(&selection, budget, &cpis);
    let n_replayed: usize = samples.iter().map(|s| s.len()).sum();

    // 3. Checkpoint at every sampled boundary; the continuation is a free
    // differential check that the pass matches the profiling run. Replay
    // workers never look at pre-boundary interval records, so those are
    // stripped to keep hundreds of checkpoints memory-bounded.
    let boundaries: Vec<u64> = samples.iter().flatten().map(|u| u.interval as u64).collect();
    let machine = Machine::default_for(config).with_faults(plan);
    let (ckpts, golden) = checkpoint_run(&machine, 0, sorted_unique(&boundaries), false, true);
    assert_eq!(
        golden.stats, profile.stats,
        "{}: checkpoint pass diverged from profiling pass",
        config.label()
    );
    assert_eq!(ckpts.len(), n_replayed);

    // 4. Replay one interval per checkpoint, in parallel. Decoding here
    // (rather than passing live snapshots) exercises the codec on every run.
    let checkpoint_bytes: Vec<usize> = ckpts.iter().map(|(_, b)| b.len()).collect();
    let measured: Vec<(u64, f64)> = par_map(ckpts, |(b, bytes)| {
        let ck = Checkpoint::decode(&bytes).expect("checkpoint decodes");
        let mut sys = resume_checkpoint(&ck);
        sys.run_to_interval(b + 1);
        let mut insns = 0u64;
        let mut cycles = 0u64;
        let coll = sys.observer();
        for proc in 0..coll.n_procs() {
            let rec = coll
                .records(proc)
                .iter()
                .find(|r| r.index == b)
                .expect("replayed interval was recorded");
            insns += rec.insns;
            cycles += rec.cycles;
        }
        (b, if insns == 0 { 0.0 } else { cycles as f64 / insns as f64 })
    });
    let cpi_at: std::collections::HashMap<u64, f64> = measured.into_iter().collect();

    // 5. Reconstruct from the flattened mixture: each sampled unit carries
    // weight (cluster weight) x (its within-cluster group share). The same
    // mixture yields both the mean CPI and the CoV — the sub-strata keep
    // within-cluster spread visible to the second moment.
    let mut flat_w = Vec::with_capacity(n_replayed);
    let mut flat_cpi = Vec::with_capacity(n_replayed);
    for (sp, units) in selection.simpoints.iter().zip(&samples) {
        for u in units {
            flat_w.push(sp.weight * u.weight);
            flat_cpi.push(cpi_at[&(u.interval as u64)]);
        }
    }
    let sampled = reconstruct_cpi(&flat_w, &flat_cpi);
    let measured_cpi: Vec<f64> = samples
        .iter()
        .map(|s| s.iter().map(|u| u.weight * cpi_at[&(u.interval as u64)]).sum::<f64>())
        .collect();

    let (full_cpi, full_cov) = mean_and_cov(&cpis);

    SimpointResult {
        config,
        plan,
        cpi_rel_error: relative_error(sampled.cpi, full_cpi),
        cov_abs_error: (sampled.cov - full_cov).abs(),
        reduction: sigs.len() as f64 / n_replayed as f64,
        n_replayed,
        selection,
        samples,
        full_cpi,
        full_cov,
        sampled,
        checkpoint_bytes,
        measured_cpi,
    }
}

/// `<label>-simpoints.json`: the selection (schema in EXPERIMENTS.md).
pub fn simpoints_json(r: &SimpointResult) -> Json {
    let points: Vec<Json> = r
        .selection
        .simpoints
        .iter()
        .zip(&r.samples)
        .map(|(s, members)| {
            Json::obj()
                .field("interval", s.interval as u64)
                .field("weight", s.weight)
                .field("cluster_size", s.cluster_size as u64)
                .field(
                    "samples",
                    Json::Arr(
                        members
                            .iter()
                            .map(|u| {
                                Json::obj()
                                    .field("interval", u.interval as u64)
                                    .field("weight", u.weight)
                            })
                            .collect(),
                    ),
                )
        })
        .collect();
    Json::obj()
        .field("schema", "dsm-simpoint/v1")
        .field("experiment", "simpoint_selection")
        .field("config", r.config.label())
        .field("app", r.config.app.name())
        .field("n_procs", r.config.n_procs as u64)
        .field("seed", SELECTION_SEED)
        .field("n_intervals", r.selection.n_intervals as u64)
        .field("k", r.selection.k as u64)
        .field("score", r.selection.score)
        .field("n_replayed", r.n_replayed as u64)
        .field("reduction", r.reduction)
        .field("simpoints", Json::Arr(points))
}

/// `<label>-reconstruction.json`: the estimate and its error (schema in
/// EXPERIMENTS.md).
pub fn reconstruction_json(r: &SimpointResult) -> Json {
    Json::obj()
        .field("schema", "dsm-simpoint/v1")
        .field("experiment", "simpoint_reconstruction")
        .field("config", r.config.label())
        .field("k", r.selection.k as u64)
        .field("n_intervals", r.selection.n_intervals as u64)
        .field("n_replayed", r.n_replayed as u64)
        .field("reduction", r.reduction)
        .field(
            "full",
            Json::obj().field("cpi", r.full_cpi).field("cov", r.full_cov),
        )
        .field(
            "reconstructed",
            Json::obj().field("cpi", r.sampled.cpi).field("cov", r.sampled.cov),
        )
        .field("cpi_rel_error", r.cpi_rel_error)
        .field("cov_abs_error", r.cov_abs_error)
        .field(
            "checkpoint_bytes",
            Json::Arr(r.checkpoint_bytes.iter().map(|&b| Json::from(b as u64)).collect()),
        )
        .field(
            "measured_cpi",
            Json::Arr(r.measured_cpi.iter().map(|&c| Json::from(c)).collect()),
        )
}

/// Write both artefacts under `results/simpoint/`; returns their paths.
pub fn write_artifacts(r: &SimpointResult) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(report::results_dir()?.join("simpoint"))?;
    let label = r.config.label();
    let a = report::write_json(&format!("simpoint/{label}-simpoints.json"), &simpoints_json(r))?;
    let b = report::write_json(
        &format!("simpoint/{label}-reconstruction.json"),
        &reconstruction_json(r),
    )?;
    Ok((a, b))
}

fn snapshot(sys: &AppSystem, machine: &Machine, boundary: u64) -> Checkpoint {
    Checkpoint {
        // 0 = the serial core; resume re-enables the same sharding.
        meta: machine.checkpoint_meta(boundary, sys.shard_layout().map_or(0, |l| l.n_shards())),
        system: sys.state_snapshot(),
        collector: sys.observer().export_state(),
        adapt: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_workloads::App;

    #[test]
    fn resumed_run_matches_straight_run() {
        let config = ExperimentConfig::test(App::Lu, 2);
        let (ckpts, golden) = capture_with_checkpoints(&Machine::default_for(config), &[2], 0);
        assert_eq!(ckpts.len(), 1);
        let resumed = resume_to_end(&Checkpoint::decode(&ckpts[0].1).unwrap());
        assert_eq!(resumed.stats, golden.stats);
        assert_eq!(resumed.records, golden.records);
        assert_eq!(resumed.ddv_vectors_exchanged, golden.ddv_vectors_exchanged);
    }

    #[test]
    #[should_panic(expected = "checkpoint metadata cannot describe this machine")]
    fn checkpoint_meta_refuses_a_machine_it_cannot_describe() {
        let mut machine = Machine::default_for(ExperimentConfig::test(App::Lu, 2));
        machine.system.interval_insns /= 2;
        let _ = machine.checkpoint_meta(1, 0);
    }

    #[test]
    fn checkpoint_every_boundaries_are_periodic() {
        let config = ExperimentConfig::test(App::Fmm, 2);
        let (ckpts, trace) = capture_checkpoint_every(&Machine::default_for(config), 2);
        assert!(!ckpts.is_empty());
        for (i, (b, _)) in ckpts.iter().enumerate() {
            assert_eq!(*b, 2 * (i as u64 + 1));
        }
        // Each one resumes to the identical end state.
        let resumed = resume_to_end(&Checkpoint::decode(&ckpts.last().unwrap().1).unwrap());
        assert_eq!(resumed.stats, trace.stats);
    }

    #[test]
    fn sampled_run_reconstructs_lu() {
        let config = ExperimentConfig::test(App::Lu, 2);
        let r = sampled_run(config, FaultPlan::none());
        assert!(r.selection.k >= 1);
        assert!(r.reduction >= 1.0);
        assert!(r.full_cpi > 0.0);
        assert!(r.sampled.cpi > 0.0);
        assert!(r.cpi_rel_error.is_finite());
        assert_eq!(r.checkpoint_bytes.len(), r.n_replayed);
        assert!(r.reduction >= 5.0 || r.selection.n_intervals < 5);
        // Replayed intervals measure *exactly* what the full run saw —
        // restore is bit-identical, so any gap is a checkpointing bug, not
        // sampling noise. Cluster estimates are therefore exact weighted
        // means of golden per-interval CPIs over the sampled members.
        let golden = interval_cpis(&crate::trace::capture(config).records);
        for (members, &m) in r.samples.iter().zip(&r.measured_cpi) {
            let weight_sum: f64 = members.iter().map(|u| u.weight).sum();
            assert!((weight_sum - 1.0).abs() < 1e-12, "weights sum to {weight_sum}");
            let expect: f64 = members.iter().map(|u| u.weight * golden[u.interval].cpi).sum();
            assert!((m - expect).abs() < 1e-12, "cluster mean {m} != {expect}");
        }
    }

    #[test]
    fn sampled_run_is_deterministic_including_artifacts() {
        let config = ExperimentConfig::test(App::Art, 2);
        let a = sampled_run(config, FaultPlan::none());
        let b = sampled_run(config, FaultPlan::none());
        assert_eq!(simpoints_json(&a).to_string(), simpoints_json(&b).to_string());
        assert_eq!(reconstruction_json(&a).to_string(), reconstruction_json(&b).to_string());
    }

    #[test]
    fn sampled_run_under_faults() {
        let r = sampled_run(ExperimentConfig::test(App::Equake, 2), FaultPlan::mixed(7, 0.02));
        assert!(r.sampled.cpi > 0.0);
        assert!(r.cpi_rel_error.is_finite());
    }
}
