//! Close the loop of the paper's §II: drive the trial-and-error
//! reconfiguration protocol with each detector's phase stream and compare
//! end-to-end tuning cost.
//!
//! A better phase detector pays off twice: fewer phases mean fewer
//! exploratory (tuning) intervals, and more CPI-homogeneous phases mean the
//! locked configuration actually fits the intervals it is applied to.
//!
//! Run with: `cargo run --release --example adaptive_tuning`

use dsm_phase_detection::harness::adaptive::{run_tuning, run_tuning_predicted, TuningPolicy};
use dsm_phase_detection::phase::predictor::RlePredictor;
use dsm_phase_detection::prelude::*;

fn main() {
    let n_procs = 32;
    let policy = TuningPolicy { n_configs: 4, trials_per_config: 1 };

    println!(
        "{:<8} {:>10} {:>14} {:>14} {:>12} {:>12} {:>14}",
        "app", "detector", "phases", "tuning-frac", "vs-oracle", "vs-untuned", "RLE-predicted"
    );
    for app in App::ALL {
        let trace = capture_cached(ExperimentConfig::scaled(app, n_procs));
        for (name, mode, thr) in [
            ("BBV", DetectorMode::Bbv, Thresholds::bbv_only(0.30)),
            ("BBV+DDV", DetectorMode::BbvDdv, Thresholds { bbv: 0.30, dds: 0.25 }),
        ] {
            // Build the tuning input from every processor's classified
            // stream (phase ids are per-processor tables, as in hardware).
            let mut total_phases = 0usize;
            let mut outcome_sum = (0usize, 0usize, 0.0f64, 0.0f64, 0.0f64);
            let mut predicted_cycles = 0.0f64;
            let mut bank = ClassifierBank::new(n_procs, mode, thr, 32);
            for (p, records) in trace.records.iter().enumerate() {
                let ids: Vec<u32> = bank.classify_records(p, records).map(|c| c.phase_id).collect();
                let pairs: Vec<(u32, f64)> =
                    ids.iter().zip(records).map(|(&i, r)| (i, r.cpi())).collect();
                total_phases += dsm_phase_detection::analysis::cov::phase_count(&pairs);
                let stream: Vec<(u32, f64, u64)> = ids
                    .iter()
                    .zip(records)
                    .map(|(&i, r)| (i, r.cpi(), r.insns))
                    .collect();
                let o = run_tuning(&stream, policy);
                outcome_sum.0 += o.total_intervals;
                outcome_sum.1 += o.tuning_intervals;
                outcome_sum.2 += o.tuned_cycles;
                outcome_sum.3 += o.oracle_cycles;
                outcome_sum.4 += o.untuned_cycles;
                // Full SII pipeline: the configuration applied each interval
                // is the one locked for the RLE-predicted phase.
                let mut rle = RlePredictor::new(64);
                predicted_cycles +=
                    run_tuning_predicted(&stream, policy, &mut rle).tuned_cycles;
            }
            let tuning_frac = outcome_sum.1 as f64 / outcome_sum.0.max(1) as f64;
            let vs_oracle = outcome_sum.2 / outcome_sum.3.max(1e-9);
            let vs_untuned = outcome_sum.4 / outcome_sum.2.max(1e-9);
            println!(
                "{:<8} {:>10} {:>14.1} {:>13.1}% {:>12.3} {:>12.3} {:>14.3}",
                app.name(),
                name,
                total_phases as f64 / n_procs as f64,
                tuning_frac * 100.0,
                vs_oracle,
                vs_untuned,
                predicted_cycles / outcome_sum.3.max(1e-9)
            );
        }
    }
    println!("\nvs-oracle: 1.0 = the locked configs are as good as an oracle;");
    println!("vs-untuned: >1.0 = phase-guided tuning beats a fixed default config.");
}
