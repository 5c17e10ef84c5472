//! LU phase timelines, BBV vs BBV+DDV side by side, on an 8-node machine.
//!
//! The interior (dgemm) code of LU is identical for the whole run, but as
//! the factorization proceeds the active window shrinks and block ownership
//! rotates — the same code touches different remote homes at different
//! contention levels. The BBV lumps it into one phase; the DDV splits it
//! into CPI-homogeneous sub-phases. This example makes that visible.
//!
//! Run with: `cargo run --release --example lu_phases`

use dsm_phase_detection::prelude::*;

fn main() {
    let n_procs = 8;
    let config = ExperimentConfig::scaled(App::Lu, n_procs);
    let trace = capture(config);

    let thresholds = Thresholds { bbv: 0.30, dds: 0.25 };
    let proc = 1;
    let records = &trace.records[proc];

    let phase_ids = |mode| -> Vec<u32> {
        let mut bank = ClassifierBank::new(n_procs, mode, thresholds, 32);
        bank.classify_records(proc, records).map(|c| c.phase_id).collect()
    };
    let bbv_ids = phase_ids(DetectorMode::Bbv);
    let ddv_ids = phase_ids(DetectorMode::BbvDdv);

    println!("LU on {n_procs} processors, proc {proc}: {} intervals", records.len());
    println!("{:<10} {:>8} {:>12} {:>10} {:>10}", "interval", "CPI", "DDS", "BBV-phase", "DDV-phase");
    for (i, r) in records.iter().enumerate() {
        println!(
            "{:<10} {:>8.2} {:>12.3e} {:>10} {:>10}",
            i,
            r.cpi(),
            r.dds,
            bbv_ids[i],
            ddv_ids[i]
        );
    }

    let pairs = |ids: &[u32]| -> Vec<(u32, f64)> {
        ids.iter().zip(records).map(|(&id, r)| (id, r.cpi())).collect()
    };
    let b = pairs(&bbv_ids);
    let d = pairs(&ddv_ids);
    println!("\nBBV timeline:");
    print!(
        "{}",
        dsm_phase_detection::analysis::plot::phase_timeline(&bbv_ids, 6)
    );
    println!("BBV+DDV timeline:");
    print!(
        "{}",
        dsm_phase_detection::analysis::plot::phase_timeline(&ddv_ids, 6)
    );
    println!(
        "\nBBV    : {:>3} phases, identifier CoV {:.1} %",
        dsm_phase_detection::analysis::cov::phase_count(&b),
        identifier_cov(&b) * 100.0
    );
    println!(
        "BBV+DDV: {:>3} phases, identifier CoV {:.1} %",
        dsm_phase_detection::analysis::cov::phase_count(&d),
        identifier_cov(&d) * 100.0
    );
}
