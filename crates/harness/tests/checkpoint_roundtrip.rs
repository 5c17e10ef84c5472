//! Checkpoint round-trip differential matrix: for every workload, at small
//! and large processor counts, with and without an active fault plan, a run
//! resumed from a mid-run checkpoint must finish **bit-identically** to the
//! straight run it was captured from — same machine statistics and the same
//! interval records, down to the last counter.
//!
//! This is the contract the sampled-simulation pipeline stands on: if
//! restore were only approximately right, reconstruction error would mix
//! checkpointing bugs with sampling noise and the 5 % CPI gate would be
//! meaningless.

use dsm_harness::parallel::Machine;
use dsm_harness::simpoint::{capture_with_checkpoints, resume_to_end};
use dsm_simpoint::codec::Checkpoint;
use dsm_harness::ExperimentConfig;
use dsm_sim::config::FaultPlan;
use dsm_sim::topology::TopologyKind;
use dsm_workloads::App;

/// Capture with checkpoints at the given boundaries, then resume from every
/// checkpoint and require an identical end state.
fn assert_roundtrip(config: ExperimentConfig, plan: FaultPlan, boundaries: &[u64]) {
    let machine = Machine::default_for(config).with_faults(plan);
    let (ckpts, golden) = capture_with_checkpoints(&machine, boundaries, 0);
    assert_eq!(ckpts.len(), boundaries.len(), "{}: missing checkpoints", config.label());
    for (b, bytes) in &ckpts {
        let resumed = resume_to_end(&Checkpoint::decode(bytes).expect("checkpoint decodes"));
        assert_eq!(
            resumed.stats,
            golden.stats,
            "{} (plan active: {}): stats diverged resuming from interval {b}",
            config.label(),
            plan.is_active(),
        );
        assert_eq!(
            resumed.records,
            golden.records,
            "{} (plan active: {}): records diverged resuming from interval {b}",
            config.label(),
            plan.is_active(),
        );
        assert_eq!(
            resumed.ddv_vectors_exchanged,
            golden.ddv_vectors_exchanged,
            "{} (plan active: {}): DDV traffic diverged resuming from interval {b}",
            config.label(),
            plan.is_active(),
        );
    }
}

#[test]
fn roundtrip_all_workloads_2p_under_faults() {
    for app in App::EXTENDED {
        assert_roundtrip(
            ExperimentConfig::test(app, 2),
            FaultPlan::mixed(0xC0FFEE, 0.02),
            &[1, 3],
        );
    }
}

#[test]
fn roundtrip_all_workloads_2p_fault_free() {
    for app in App::EXTENDED {
        assert_roundtrip(ExperimentConfig::test(app, 2), FaultPlan::none(), &[2]);
    }
}

#[test]
fn roundtrip_routed_fabric_nondefault_topologies() {
    // The routed-fabric column: DSMCKPT2 carries the topology and the
    // link-contention flag, and the per-directed-link busy/flit vectors are
    // indexed by that topology's link table — resume must rebuild the same
    // fabric and continue bit-identically, faults included.
    for (app, kind) in [
        (App::Lu, TopologyKind::Torus2D),
        (App::Equake, TopologyKind::Ring),
        (App::Art, TopologyKind::FatTree),
    ] {
        let config = ExperimentConfig::test(app, 2);
        let mut machine =
            Machine::default_for(config).with_faults(FaultPlan::mixed(0xFAB2, 0.02));
        machine.system.network.topology = kind;
        machine.system.network.link_contention = true;
        let (ckpts, golden) = capture_with_checkpoints(&machine, &[1, 3], 0);
        assert_eq!(ckpts.len(), 2, "{}/{}: missing checkpoints", config.label(), kind.name());
        for (b, bytes) in &ckpts {
            let resumed = resume_to_end(&Checkpoint::decode(bytes).expect("checkpoint decodes"));
            assert_eq!(
                resumed.stats,
                golden.stats,
                "{}/{}: stats diverged resuming from interval {b}",
                config.label(),
                kind.name(),
            );
            assert_eq!(
                resumed.records,
                golden.records,
                "{}/{}: records diverged resuming from interval {b}",
                config.label(),
                kind.name(),
            );
        }
    }
}

#[test]
fn roundtrip_sharded_core_resumes_bit_exactly() {
    // The sharded-core column: a checkpoint captured mid-run on the sharded
    // scheduler records its shard count in the DSMCKPT3 metadata, and
    // resume re-enables the identical sharded machine — per-shard
    // tournament queues rebuilt from the restored processor states — then
    // finishes bit-identically to the *serial* straight run (the sharded ≡
    // serial invariant composed with checkpoint/restore).
    for (app, shards) in [(App::Lu, 2), (App::Ocean, 4), (App::Art, 16)] {
        let config = ExperimentConfig::test(app, 16);
        let plan = FaultPlan::mixed(0x5AD7_C497, 0.02);
        let machine = Machine::default_for(config).with_faults(plan);
        let serial_golden = {
            let (_, golden) = capture_with_checkpoints(&machine, &[1], 0);
            golden
        };
        let (ckpts, sharded_golden) = capture_with_checkpoints(&machine, &[1], shards);
        assert_eq!(
            sharded_golden.stats, serial_golden.stats,
            "{app:?}: sharded capture pass diverged from serial at {shards} shards"
        );
        assert_eq!(sharded_golden.records, serial_golden.records);
        for (b, bytes) in &ckpts {
            let ck = Checkpoint::decode(bytes).expect("checkpoint decodes");
            assert_eq!(
                ck.meta.shards, shards,
                "{app:?}: DSMCKPT3 metadata lost the shard count"
            );
            let resumed = resume_to_end(&ck);
            assert_eq!(
                resumed.stats, serial_golden.stats,
                "{app:?}: stats diverged resuming sharded checkpoint at interval {b}"
            );
            assert_eq!(
                resumed.records, serial_golden.records,
                "{app:?}: records diverged resuming sharded checkpoint at interval {b}"
            );
        }
    }
}

#[test]
fn roundtrip_all_workloads_16p_under_faults() {
    // At 16 processors the test-scale run completes only a single global
    // interval, so boundary 1 is the latest state every processor has
    // passed — exactly the stale-straggler case that bit-exact restore has
    // to handle.
    for app in App::EXTENDED {
        assert_roundtrip(
            ExperimentConfig::test(app, 16),
            FaultPlan::mixed(0xD5A1, 0.02),
            &[1],
        );
    }
}
