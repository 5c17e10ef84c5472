//! The concrete adaptation sweep: the §II tuning protocol driving **real
//! machine reconfiguration** mid-run, per workload and actuator.
//!
//! Where [`crate::adaptive`] scores configurations on an abstract
//! cost-multiplier surface, this sweep runs `dsm_adapt::AdaptSession`
//! against the live simulator: each actuator's locked configuration is an
//! actual page re-homing, DVFS epoch, or core-profile swap, and the cycles
//! reported are the machine's own finish cycle. Three arms per actuator:
//!
//! * **untuned** — the stock machine (also the no-op differential arm);
//! * **tuned** — the closed loop, paying real exploration intervals;
//! * **oracle** — the best single locked configuration, found by running
//!   every configuration to completion (the tuned arm can beat it when
//!   phase-local configurations beat the best global one).
//!
//! The placement study pins the headline claim: phase-guided migration on a
//! first-touch base must beat *both* static placements (first-touch and
//! round-robin page interleaving) on at least one workload. All placement
//! arms run the workload behind the serial-initialization prologue
//! (`dsm_workloads::serial_init`): processor 0 touches every footprint page
//! before the parallel section, so static first-touch homes the entire
//! data set at node 0 — the SPLASH-2 non-contiguous pathology that makes
//! page placement a real decision instead of a solved one. The actuator
//! arms above keep the stock owner-placed stream.

use dsm_adapt::{
    run_locked, Actuator, AdaptConfig, AdaptOutcome, AdaptSession, DvfsActuator, HeteroActuator,
    MigrationActuator, NoopActuator,
};
use dsm_sim::config::{DistributionPolicy, SystemConfig};
use dsm_workloads::{make_serial_init_stream, App};

use crate::experiment::ExperimentConfig;
use crate::json::Json;
use crate::parallel::{AppSystem, Machine};

/// The sweep's machine for `config`, optionally overriding the page
/// placement policy (the placement study runs on a first-touch base).
fn build_system(config: ExperimentConfig, dist: Option<DistributionPolicy>) -> AppSystem {
    let mut machine = Machine::default_for(config);
    if let Some(d) = dist {
        machine.system.distribution = d;
    }
    machine.build()
}

/// Sampling-interval divisor for the placement study. Test-scale runs span
/// only a handful of default-size intervals — too few for the §II protocol
/// to trial four configurations and lock before the run ends. Finer
/// sampling changes nothing for the static arms (interval boundaries are
/// observation points, not machine events) and gives the tuned arm the
/// interval count the paper's full-length runs would have.
pub const PLACEMENT_INTERVAL_DIVISOR: u64 = 8;

/// The placement study's machine: [`build_system`]'s with finer sampling,
/// and the workload runs behind the serial-initialization prologue, so the
/// page-homing policy actually decides where data lives.
fn build_placement_system(config: ExperimentConfig, dist: DistributionPolicy) -> AppSystem {
    let mut machine = Machine::default_for(config);
    machine.system.distribution = dist;
    machine.system.interval_insns =
        (machine.system.interval_insns / PLACEMENT_INTERVAL_DIVISOR).max(1);
    let stream = make_serial_init_stream(config.app, config.n_procs, config.scale);
    machine.assemble(stream, machine.collector())
}

fn actuator_by_name(name: &str, sys_cfg: &SystemConfig) -> Box<dyn Actuator> {
    match name {
        "migrate" => Box::new(MigrationActuator),
        "dvfs" => Box::new(DvfsActuator),
        "hetero" => Box::new(HeteroActuator::new(sys_cfg.core)),
        other => panic!("unknown actuator {other}"),
    }
}

/// Actuator families the sweep runs, in report order.
pub const ACTUATORS: [&str; 3] = ["migrate", "dvfs", "hetero"];

/// One actuator's three arms on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ActuatorOutcome {
    pub actuator: String,
    /// Finish cycle of the tuned (closed-loop) run.
    pub tuned_cycles: u64,
    /// Best single locked configuration's finish cycle (min over configs;
    /// config 0 is the untuned machine).
    pub oracle_cycles: u64,
    pub oracle_config: usize,
    pub tuning_intervals: usize,
    pub degraded_intervals: usize,
    pub retunes: u64,
    pub locked_phases: usize,
    pub migrations: u64,
    pub dvfs_epochs: u64,
    pub core_switches: u64,
}

impl ActuatorOutcome {
    /// Cycles saved by tuning relative to the stock machine (negative when
    /// exploration cost exceeded the win).
    pub fn saved_vs_untuned(&self, untuned: u64) -> i64 {
        untuned as i64 - self.tuned_cycles as i64
    }

    /// Gap to the oracle arm (0 = tuned matched the best locked config;
    /// negative = phase-local configurations beat the best global one).
    pub fn gap_vs_oracle(&self) -> i64 {
        self.tuned_cycles as i64 - self.oracle_cycles as i64
    }
}

/// The placement study on one workload: both static placements vs the
/// tuned migration loop on the first-touch base, all behind the
/// serial-initialization prologue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementComparison {
    pub first_touch_cycles: u64,
    pub interleave_cycles: u64,
    /// Tuned phase-guided migration, first-touch base.
    pub migrated_cycles: u64,
    pub migrations: u64,
}

impl PlacementComparison {
    /// Phase-guided migration beat *both* static placements.
    pub fn migration_wins(&self) -> bool {
        self.migrated_cycles < self.first_touch_cycles
            && self.migrated_cycles < self.interleave_cycles
    }
}

/// One workload's full adaptation report.
#[derive(Debug, Clone, PartialEq)]
pub struct AppAdapt {
    pub app: App,
    pub n_procs: usize,
    /// Stock machine finish cycle (default placement).
    pub untuned_cycles: u64,
    pub actuators: Vec<ActuatorOutcome>,
    pub placement: PlacementComparison,
}

/// The whole sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptReport {
    pub n_procs: usize,
    pub apps: Vec<AppAdapt>,
}

fn outcome_of(name: &str, tuned: &AdaptOutcome, oracle: (u64, usize)) -> ActuatorOutcome {
    ActuatorOutcome {
        actuator: name.to_string(),
        tuned_cycles: tuned.stats.finish_cycle,
        oracle_cycles: oracle.0,
        oracle_config: oracle.1,
        tuning_intervals: tuned.tuning_intervals(),
        degraded_intervals: tuned.degraded_intervals(),
        retunes: tuned.retunes,
        locked_phases: tuned.locked_phases,
        migrations: tuned.stats.reconfig.migrations,
        dvfs_epochs: tuned.stats.reconfig.dvfs_epochs,
        core_switches: tuned.stats.reconfig.core_switches,
    }
}

fn run_session(
    sys: AppSystem,
    config: ExperimentConfig,
    name: &str,
    adapt_cfg: AdaptConfig,
) -> AdaptOutcome {
    let actuator = actuator_by_name(name, sys.config());
    let out = AdaptSession::new(sys, actuator, adapt_cfg).run();
    assert!(
        out.stats.coherence_transactions_conserved(),
        "{} {}P {name}: coherence transactions not conserved under adaptation",
        config.app.name(),
        config.n_procs
    );
    out
}

fn run_tuned(
    config: ExperimentConfig,
    dist: Option<DistributionPolicy>,
    name: &str,
    adapt_cfg: AdaptConfig,
) -> AdaptOutcome {
    run_session(build_system(config, dist), config, name, adapt_cfg)
}

/// Best locked configuration: run every config to completion, keep the
/// minimum finish cycle (ties to the lower config number).
fn run_oracle(
    config: ExperimentConfig,
    dist: Option<DistributionPolicy>,
    name: &str,
    untuned_cycles: u64,
) -> (u64, usize) {
    let mut best = (untuned_cycles, 0); // config 0 is the stock machine
    let sys_cfg = config.system_config();
    let n_configs = actuator_by_name(name, &sys_cfg).n_configs();
    for c in 1..n_configs {
        let sys = build_system(config, dist);
        let mut actuator = actuator_by_name(name, sys.config());
        let (stats, _) = run_locked(sys, actuator.as_mut(), c);
        assert!(stats.coherence_transactions_conserved());
        if stats.finish_cycle < best.0 {
            best = (stats.finish_cycle, c);
        }
    }
    best
}

/// Run the full adaptation study for one workload.
pub fn adapt_app(app: App, n_procs: usize) -> AppAdapt {
    let config = ExperimentConfig::test(app, n_procs);
    let adapt_cfg = AdaptConfig::default();

    // Stock machine, default placement.
    let (untuned_stats, _) = build_system(config, None).run();
    let untuned_cycles = untuned_stats.finish_cycle;

    let actuators = ACTUATORS
        .iter()
        .map(|&name| {
            let tuned = run_tuned(config, None, name, adapt_cfg);
            let oracle = run_oracle(config, None, name, untuned_cycles);
            outcome_of(name, &tuned, oracle)
        })
        .collect();

    // Placement study: first-touch vs round-robin interleave vs tuned
    // migration on the first-touch base. Every arm runs behind the
    // serial-initialization prologue (same stream, different homing).
    let ft = DistributionPolicy::FirstTouch;
    let (ft_stats, _) = build_placement_system(config, ft).run();
    let (il_stats, _) =
        build_placement_system(config, DistributionPolicy::PageInterleave).run();
    let migrated = run_session(build_placement_system(config, ft), config, "migrate", adapt_cfg);
    let placement = PlacementComparison {
        first_touch_cycles: ft_stats.finish_cycle,
        interleave_cycles: il_stats.finish_cycle,
        migrated_cycles: migrated.stats.finish_cycle,
        migrations: migrated.stats.reconfig.migrations,
    };

    AppAdapt { app, n_procs, untuned_cycles, actuators, placement }
}

/// CI gate: a session with the no-op actuator must be bit-identical to a
/// plain capture — same statistics, same observer stream, inert
/// reconfiguration counters. Panics on divergence.
pub fn assert_noop_differential(app: App, n_procs: usize) {
    let config = ExperimentConfig::test(app, n_procs);
    let (plain_stats, plain_coll) = build_system(config, None).run();
    let out =
        AdaptSession::new(build_system(config, None), Box::new(NoopActuator), AdaptConfig::default())
            .run();
    assert_eq!(
        out.stats,
        plain_stats,
        "{} {n_procs}P: no-op adaptation perturbed machine statistics",
        app.name()
    );
    assert_eq!(
        out.records,
        plain_coll.into_records(),
        "{} {n_procs}P: no-op adaptation perturbed the observer stream",
        app.name()
    );
    assert!(out.stats.reconfig.is_inert());
}

/// Run the sweep over every workload.
pub fn adapt_sweep(n_procs: usize) -> AdaptReport {
    AdaptReport {
        n_procs,
        apps: App::EXTENDED.iter().map(|&app| adapt_app(app, n_procs)).collect(),
    }
}

impl AppAdapt {
    pub fn render(&self) -> String {
        let mut s = format!(
            "{} {}P  untuned {} cycles\n",
            self.app.name(),
            self.n_procs,
            self.untuned_cycles
        );
        for a in &self.actuators {
            s.push_str(&format!(
                "  {:<8} tuned {:>10}  saved {:>8}  oracle {:>10} (cfg {})  gap {:>7}  \
                 tune-ivals {:>3}  locks {:>2}  [mig {} dvfs {} core {}]\n",
                a.actuator,
                a.tuned_cycles,
                a.saved_vs_untuned(self.untuned_cycles),
                a.oracle_cycles,
                a.oracle_config,
                a.gap_vs_oracle(),
                a.tuning_intervals,
                a.locked_phases,
                a.migrations,
                a.dvfs_epochs,
                a.core_switches,
            ));
        }
        let p = &self.placement;
        s.push_str(&format!(
            "  placement (serial-init) first-touch {}  interleave {}  migrated {} ({} moves){}\n",
            p.first_touch_cycles,
            p.interleave_cycles,
            p.migrated_cycles,
            p.migrations,
            if p.migration_wins() { "  << beats both statics" } else { "" },
        ));
        s
    }

    pub fn to_json(&self) -> Json {
        let p = &self.placement;
        Json::obj()
            .field("app", self.app.name())
            .field("n_procs", self.n_procs as u64)
            .field("untuned_cycles", self.untuned_cycles)
            .field(
                "actuators",
                Json::Arr(
                    self.actuators
                        .iter()
                        .map(|a| {
                            Json::obj()
                                .field("actuator", a.actuator.as_str())
                                .field("tuned_cycles", a.tuned_cycles)
                                .field("saved_vs_untuned", a.saved_vs_untuned(self.untuned_cycles))
                                .field("oracle_cycles", a.oracle_cycles)
                                .field("oracle_config", a.oracle_config as u64)
                                .field("gap_vs_oracle", a.gap_vs_oracle())
                                .field("tuning_intervals", a.tuning_intervals as u64)
                                .field("degraded_intervals", a.degraded_intervals as u64)
                                .field("retunes", a.retunes)
                                .field("locked_phases", a.locked_phases as u64)
                                .field("migrations", a.migrations)
                                .field("dvfs_epochs", a.dvfs_epochs)
                                .field("core_switches", a.core_switches)
                        })
                        .collect(),
                ),
            )
            .field(
                "placement",
                Json::obj()
                    .field("base", "serial_init")
                    .field("first_touch_cycles", p.first_touch_cycles)
                    .field("interleave_cycles", p.interleave_cycles)
                    .field("migrated_cycles", p.migrated_cycles)
                    .field("migrations", p.migrations)
                    .field("migration_wins", p.migration_wins()),
            )
    }
}

impl AdaptReport {
    pub fn render(&self) -> String {
        let mut s = String::new();
        for a in &self.apps {
            s.push_str(&a.render());
            s.push('\n');
        }
        let wins = self.apps.iter().filter(|a| a.placement.migration_wins()).count();
        s.push_str(&format!(
            "phase-guided migration beats both static placements on {wins}/{} workloads\n",
            self.apps.len()
        ));
        s
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("experiment", "adapt_sweep")
            .field("n_procs", self.n_procs as u64)
            .field(
                "migration_wins",
                self.apps.iter().filter(|a| a.placement.migration_wins()).count() as u64,
            )
            .field("apps", Json::Arr(self.apps.iter().map(AppAdapt::to_json).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_adapt::NoopActuator;

    #[test]
    fn noop_tuned_run_matches_untuned_capture() {
        let config = ExperimentConfig::test(App::Lu, 2);
        let (plain_stats, plain_coll) = build_system(config, None).run();
        let out =
            AdaptSession::new(build_system(config, None), Box::new(NoopActuator), AdaptConfig::default())
                .run();
        assert_eq!(out.stats, plain_stats);
        assert_eq!(out.records, plain_coll.into_records());
    }

    #[test]
    fn smoke_app_report_is_consistent() {
        let r = adapt_app(App::Lu, 2);
        assert_eq!(r.actuators.len(), ACTUATORS.len());
        for a in &r.actuators {
            assert!(a.oracle_cycles <= r.untuned_cycles, "{}: oracle includes config 0", a.actuator);
            assert!(a.tuned_cycles > 0);
        }
        // JSON and text render without panicking and carry every actuator.
        let j = r.to_json().to_string();
        for name in ACTUATORS {
            assert!(j.contains(name));
            assert!(r.render().contains(name));
        }
    }
}
