//! Sensitivity studies around the paper's fixed design points:
//!
//! * **detector geometry** — the paper fixes a 32-entry accumulator and a
//!   32-vector footprint table; how does detection quality move with the
//!   hardware budget?
//! * **interval length** — the paper uses 3 M instructions ÷ n (and argues
//!   100 M would be the "real-world" choice); how sensitive are the CoV
//!   curves to the sampling interval?
//! * **data placement** — the structural workloads place data at its
//!   owner; how much of the DSM phase behaviour survives under naive
//!   round-robin page/block interleaving?
//!
//! Every study captures through the content-addressed trace cache
//! ([`capture_machines`]): a variant on the default machine reuses the
//! figures' trace, and variants that differ only in detector geometry
//! share one simulation.

use dsm_phase::detector::DetectorGeometry;
use dsm_sim::config::DistributionPolicy;
use dsm_workloads::{App, Scale};
use serde::{Deserialize, Serialize};

use crate::experiment::ExperimentConfig;
use crate::parallel::{capture_machines, group_by, par_map, Machine};
use crate::sweep::{bbv_curve_with, bbv_ddv_curve_with};
use crate::trace::SystemTrace;

/// One sensitivity observation: CoV at fixed phase budgets for both
/// detectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityPoint {
    pub label: String,
    pub bbv_at_15: Option<f64>,
    pub ddv_at_15: Option<f64>,
    pub mean_cpi: f64,
    pub remote_miss_fraction: f64,
    pub intervals_per_proc: usize,
}

fn observe(label: String, trace: &SystemTrace) -> SensitivityPoint {
    let bbv = bbv_curve_with(trace, 60);
    let ddv = bbv_ddv_curve_with(trace, 12, 8);
    let n = trace.config.n_procs as f64;
    SensitivityPoint {
        label,
        bbv_at_15: bbv.cov_at_phases(15.0),
        ddv_at_15: ddv.cov_at_phases(15.0),
        mean_cpi: trace.stats.mean_cpi(),
        remote_miss_fraction: trace
            .stats
            .procs
            .iter()
            .map(|p| p.remote_miss_fraction())
            .sum::<f64>()
            / n,
        intervals_per_proc: trace.min_intervals(),
    }
}

/// Observe every variant's trace, captured through the trace cache. The
/// variants are grouped by simulation ([`Machine::simulation`]) and the
/// groups spread over the worker pool, so each worker holds one group's
/// traces at a time. A group captures its lanes together, then observes
/// them; that inner map is parallel when a study is a single group (the
/// geometry sweep) and inline when every group is a single variant.
fn study<V: Send>(
    variants: Vec<(V, Machine)>,
    observe: impl Fn(V, &SystemTrace) -> SensitivityPoint + Sync,
) -> Vec<SensitivityPoint> {
    let runs = group_by(variants.into_iter().enumerate(), |(_, (_, m))| m.simulation());
    let mut points: Vec<(usize, SensitivityPoint)> = par_map(runs, |(_, group)| {
        let machines: Vec<Machine> = group.iter().map(|(_, (_, m))| m.clone()).collect();
        let traces = capture_machines(&machines);
        let work: Vec<_> = group.into_iter().zip(traces).collect();
        par_map(work, |((slot, (v, _)), (trace, _, _))| (slot, observe(v, &trace)))
    })
    .into_iter()
    .flatten()
    .collect();
    points.sort_by_key(|&(slot, _)| slot);
    points.into_iter().map(|(_, p)| p).collect()
}

/// The default machine for `app` at `n_procs` and `scale`.
fn machine_at(app: App, n_procs: usize, scale: Scale) -> Machine {
    Machine::default_for(crate::figures::config_at(app, n_procs, scale))
}

/// Sweep the detector hardware budget: accumulator entries × footprint
/// vectors.
pub fn geometry_sweep(
    app: App,
    n_procs: usize,
    scale: Scale,
    sizes: &[(usize, usize)],
) -> Vec<SensitivityPoint> {
    let variants = sizes
        .iter()
        .map(|&(bbv_entries, footprint_vectors)| {
            let geometry = DetectorGeometry { bbv_entries, footprint_vectors, ws_bits: 1024 };
            let machine = Machine { geometry, ..machine_at(app, n_procs, scale) };
            ((bbv_entries, footprint_vectors), machine)
        })
        .collect();
    study(variants, |(bbv_entries, footprint_vectors), trace| {
        // Classify against the geometry's own footprint capacity.
        let bbv = crate::sweep::bbv_curve_cap(trace, 60, footprint_vectors);
        let ddv = crate::sweep::bbv_ddv_curve_cap(trace, 12, 8, footprint_vectors);
        SensitivityPoint {
            label: format!("{bbv_entries}-entry BBV, {footprint_vectors}-vector table"),
            bbv_at_15: bbv.cov_at_phases(15.0),
            ddv_at_15: ddv.cov_at_phases(15.0),
            mean_cpi: trace.stats.mean_cpi(),
            remote_miss_fraction: 0.0,
            intervals_per_proc: trace.min_intervals(),
        }
    })
}

/// Sweep the system-wide interval base (per-processor interval =
/// `base / n`).
pub fn interval_sweep(
    app: App,
    n_procs: usize,
    scale: Scale,
    bases: &[u64],
) -> Vec<SensitivityPoint> {
    let variants = bases
        .iter()
        .map(|&base| {
            let config = ExperimentConfig {
                interval_base: base,
                ..crate::figures::config_at(app, n_procs, scale)
            };
            (format!("{}k-instruction base", base / 1000), Machine::default_for(config))
        })
        .collect();
    study(variants, observe)
}

/// Compare data-placement policies: owner-aware explicit placement (the
/// workloads' native layout, like SPLASH-2's decompositions) against naive
/// round-robin interleaving.
pub fn placement_sweep(app: App, n_procs: usize, scale: Scale) -> Vec<SensitivityPoint> {
    let variants = [
        (DistributionPolicy::Explicit, "explicit (owner-aware)"),
        (DistributionPolicy::PageInterleave, "page-interleaved"),
        (DistributionPolicy::BlockInterleave, "block-interleaved"),
    ]
    .into_iter()
    .map(|(policy, label)| {
        let mut m = machine_at(app, n_procs, scale);
        m.system.distribution = policy;
        (label.to_string(), m)
    })
    .collect();
    study(variants, observe)
}

/// Sweep the number of SDRAM banks per memory controller (Table I says
/// "interleaved"; the calibrated default is a single queue, the worst case
/// for hot homes).
pub fn bank_sweep(
    app: App,
    n_procs: usize,
    scale: Scale,
    banks: &[usize],
) -> Vec<SensitivityPoint> {
    let variants = banks
        .iter()
        .map(|&b| {
            let mut m = machine_at(app, n_procs, scale);
            m.system.memory.banks = b;
            (format!("{b} bank(s)"), m)
        })
        .collect();
    study(variants, observe)
}

/// Compare the default (memory-controller-only) contention model against
/// the link-level wormhole contention model.
pub fn network_model_sweep(app: App, n_procs: usize, scale: Scale) -> Vec<SensitivityPoint> {
    let variants = [(false, "memctrl contention only"), (true, "+ link-level wormhole contention")]
        .into_iter()
        .map(|(link, label)| {
            let mut m = machine_at(app, n_procs, scale);
            m.system.network.link_contention = link;
            (label.to_string(), m)
        })
        .collect();
    study(variants, observe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_sweep_produces_points() {
        let pts = geometry_sweep(App::Lu, 2, Scale::Test, &[(8, 8), (32, 32)]);
        assert_eq!(pts.len(), 2);
        // Same simulation, different detector budget: same interval count.
        assert_eq!(pts[0].intervals_per_proc, pts[1].intervals_per_proc);
    }

    #[test]
    fn interval_sweep_changes_interval_counts() {
        // 4k is the base the scale sweep runs at (crates/harness/src/scale.rs);
        // keeping it in the sensitivity sweep pins it as an established point.
        let pts = interval_sweep(App::Equake, 2, Scale::Test, &[4_000, 8_000, 32_000]);
        assert!(pts[0].intervals_per_proc > pts[1].intervals_per_proc);
        assert!(pts[1].intervals_per_proc > pts[2].intervals_per_proc * 2);
    }

    #[test]
    fn more_banks_reduce_contention() {
        let one = bank_sweep(App::Art, 8, Scale::Test, &[1]);
        let four = bank_sweep(App::Art, 8, Scale::Test, &[4]);
        assert!(
            four[0].mean_cpi <= one[0].mean_cpi,
            "banking cannot slow the memory system: {} vs {}",
            one[0].mean_cpi,
            four[0].mean_cpi
        );
    }

    #[test]
    fn link_contention_model_slows_the_machine() {
        let pts = network_model_sweep(App::Lu, 8, Scale::Test);
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].mean_cpi >= pts[0].mean_cpi,
            "adding link contention cannot speed the machine up: {} vs {}",
            pts[0].mean_cpi,
            pts[1].mean_cpi
        );
    }

    #[test]
    fn placement_changes_remote_traffic() {
        let pts = placement_sweep(App::Lu, 4, Scale::Test);
        assert_eq!(pts.len(), 3);
        let explicit = pts[0].remote_miss_fraction;
        let interleaved = pts[1].remote_miss_fraction;
        // Owner-aware placement keeps more misses local than round-robin
        // pages (which scatter each owner's working set everywhere).
        assert!(
            interleaved > explicit,
            "interleaving must raise remote share: {explicit} vs {interleaved}"
        );
    }
}
