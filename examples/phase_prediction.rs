//! Phase prediction (the paper's future-work direction): feed each
//! detector's classified phase stream to last-phase and RLE-Markov
//! predictors and compare accuracy.
//!
//! Run with: `cargo run --release --example phase_prediction`

use dsm_phase_detection::phase::predictor::{
    accuracy_over, LastPhasePredictor, RlePredictor,
};
use dsm_phase_detection::prelude::*;

fn main() {
    let n_procs = 8;
    println!(
        "{:<8} {:>9} {:>12} {:>12} {:>10}",
        "app", "detector", "last-phase", "RLE-Markov", "intervals"
    );
    for app in App::ALL {
        let trace = capture_cached(ExperimentConfig::scaled(app, n_procs));
        for (name, mode, thr) in [
            ("BBV", DetectorMode::Bbv, Thresholds::bbv_only(0.30)),
            ("BBV+DDV", DetectorMode::BbvDdv, Thresholds { bbv: 0.30, dds: 0.25 }),
        ] {
            let mut last_acc = 0.0;
            let mut rle_acc = 0.0;
            let mut n = 0usize;
            let mut bank = ClassifierBank::new(n_procs, mode, thr, 32);
            for (p, records) in trace.records.iter().enumerate() {
                let ids: Vec<u32> = bank.classify_records(p, records).map(|c| c.phase_id).collect();
                let mut last = LastPhasePredictor::new();
                last_acc += accuracy_over(&mut last, &ids);
                let mut rle = RlePredictor::new(64);
                rle_acc += accuracy_over(&mut rle, &ids);
                n += ids.len();
            }
            let procs = trace.records.len() as f64;
            println!(
                "{:<8} {:>9} {:>11.1}% {:>11.1}% {:>10}",
                app.name(),
                name,
                last_acc / procs * 100.0,
                rle_acc / procs * 100.0,
                n
            );
        }
    }
}
